#include "core/uldp_avg.h"

#include <cmath>

#include "common/check.h"
#include "common/table.h"
#include "core/private_weighting.h"

namespace uldp {

namespace {

/// The sampling rate q the server steps and accounts at: the protocol's
/// sample_rate when the run is private. Without OT the trainer's mask
/// samples at user_sample_rate, so it must equal the protocol's q, which
/// decides whether the session may repeat its weight ciphertexts. With
/// OT sub-sampling on, the protocol keeps each user with probability
/// OtRealSlots / ot_slots whatever the trainer's mask says (§4.1), so that
/// is the rate, and the trainer must not sample a second time.
double StepSampleRate(const UldpAvgOptions& options) {
  if (options.private_protocol == nullptr) return options.user_sample_rate;
  const ProtocolConfig& protocol = options.private_protocol->config();
  if (protocol.ot_slots <= 0) {
    ULDP_CHECK_MSG(options.user_sample_rate == protocol.sample_rate,
                   "user_sample_rate differs from the protocol's sample_rate");
    return protocol.sample_rate;
  }
  ULDP_CHECK_MSG(options.user_sample_rate == 1.0,
                 "user_sample_rate < 1 with OT sub-sampling samples twice");
  const int real_slots = OtRealSlots(protocol);
  ULDP_CHECK_MSG(real_slots > 0, "sample_rate leaves no real OT slot");
  return static_cast<double>(real_slots) / protocol.ot_slots;
}

}  // namespace

UldpAvgTrainer::UldpAvgTrainer(const FederatedDataset& data,
                               const Model& model, FlConfig config,
                               UldpAvgOptions options)
    : UldpAvgTrainer(data, model, config, options, LocalRule::kEpochs) {}

UldpAvgTrainer::UldpAvgTrainer(const FederatedDataset& data,
                               const Model& model, FlConfig config,
                               UldpAvgOptions options, LocalRule rule)
    : data_(data),
      config_(config),
      options_(options),
      rule_(rule),
      q_(StepSampleRate(options)),
      rng_(config.seed),
      tracker_(q_ < 1.0
                   ? PrivacyTracker::ForSubsampledGaussian(config.sigma, q_)
                   : PrivacyTracker::ForGaussian(config.sigma)),
      engine_(model, data.num_silos(), EngineConfigFrom(config),
              [this](int version, int silo, const Vec& snapshot,
                     Model& model, Vec& delta) {
                return SiloHalf(static_cast<uint64_t>(version), silo,
                                snapshot, model, delta,
                                /*unweighted=*/nullptr);
              }) {
  ULDP_CHECK_GT(config_.clip, 0.0);
  ULDP_CHECK_GT(options_.user_sample_rate, 0.0);
  ULDP_CHECK_LE(options_.user_sample_rate, 1.0);
  // The private-protocol reduce is a lockstep multi-party computation —
  // the weighting encryption has no staleness-bounded analogue (yet).
  ULDP_CHECK_MSG(!config_.async_rounds || options_.private_protocol == nullptr,
                 "async_rounds is incompatible with the private protocol");
  WeightingStrategy strategy = options_.weighting;
  if (options_.private_protocol != nullptr) {
    // The protocol computes n_{s,u}/N_u weights inside the encryption.
    strategy = WeightingStrategy::kEnhanced;
  }
  weights_ = ComputeWeights(data_, strategy);
  ULDP_CHECK(WeightsSatisfyUldpConstraint(weights_));

  name_ = rule_ == LocalRule::kGradient ? "ULDP-SGD" : "ULDP-AVG";
  if (strategy == WeightingStrategy::kEnhanced) name_ += "-w";
  if (options_.private_protocol != nullptr) name_ += "(private)";
  // ULDP-SGD's name does not carry its rate.
  if (rule_ == LocalRule::kEpochs && q_ < 1.0) {
    name_ += "(q=" + FormatG(q_, 3) + ")";
  }

  silo_shards_.resize(data_.num_silos());
  for (int s = 0; s < data_.num_silos(); ++s) {
    for (int u = 0; u < data_.num_users(); ++u) {
      const auto& idx = data_.RecordsOf(s, u);
      if (idx.empty()) continue;
      silo_shards_[s].push_back(UserShard{u, data_.MakeExamples(idx)});
    }
  }
}

std::vector<bool> UldpAvgTrainer::SampledMask(uint64_t version) {
  std::lock_guard<std::mutex> lock(mask_mu_);
  if (mask_version_ != version) {
    // Algorithm 4: the server Poisson-samples the user set for this round
    // (one substream per round, drawn in user order — independent of silo
    // scheduling); unsampled users' weights are zeroed.
    const int u_count = data_.num_users();
    mask_.assign(u_count, true);
    if (options_.user_sample_rate < 1.0) {
      Rng sampler = rng_.Fork(version, 0, kRngStreamSampling);
      for (int u = 0; u < u_count; ++u) {
        mask_[u] = sampler.Bernoulli(options_.user_sample_rate);
      }
    }
    mask_version_ = version;
  }
  return mask_;
}

void UldpAvgTrainer::UserUpdate(uint64_t version, int silo,
                                const UserShard& shard, const Vec& snapshot,
                                Model& model, Vec& update) const {
  model.SetParams(snapshot);
  if (rule_ == LocalRule::kEpochs) {
    // Q epochs of local SGD on a Fork(version, silo, user) substream.
    Rng local = rng_.Fork(version, static_cast<uint64_t>(silo),
                          static_cast<uint64_t>(shard.user));
    TrainLocalSgd(model, shard.examples, config_.local_epochs,
                  config_.batch_size, config_.local_lr, local);
    update = model.GetParams();
    Axpy(-1.0, snapshot, update);
  } else {
    // The full-batch gradient at the pulled global model.
    std::vector<const Example*> batch;
    batch.reserve(shard.examples.size());
    for (const Example& ex : shard.examples) batch.push_back(&ex);
    update.assign(snapshot.size(), 0.0);
    model.LossAndGrad(batch, &update);
  }
  ClipToL2Ball(update, config_.clip);
}

Status UldpAvgTrainer::SiloHalf(uint64_t version, int silo,
                                const Vec& snapshot, Model& model, Vec& out,
                                std::vector<Vec>* unweighted) {
  const int s_count = data_.num_silos();
  const std::vector<bool> sampled = SampledMask(version);
  Vec update;
  for (const UserShard& shard : silo_shards_[silo]) {
    const double w = weights_[silo][shard.user];
    if (!sampled[shard.user] || w == 0.0) continue;
    UserUpdate(version, silo, shard, snapshot, model, update);
    if (unweighted != nullptr) {
      (*unweighted)[shard.user] = std::move(update);
    } else {
      Axpy(w, update, out);  // line 16: clip then weight
    }
  }

  // Line 17: every silo adds N(0, sigma^2 C^2 / |S|) so the aggregate noise
  // matches user-level sensitivity C with multiplier sigma. In central
  // mode the server adds the equivalent N(0, sigma^2 C^2) once instead.
  // Under async rounds with a partial buffer or a positive staleness
  // bound, each share is inflated by AsyncNoiseMargin so even the worst
  // flush carries the charged noise (see the FlConfig DP note); the
  // margin is exactly 1.0 otherwise, and always under Protocol 1.
  const bool central = config_.noise_placement == NoisePlacement::kCentral;
  const double noise_std =
      central ? 0.0
              : config_.sigma * config_.clip *
                    AsyncNoiseMargin(config_, s_count) /
                    std::sqrt(static_cast<double>(s_count));
  Rng noise = rng_.Fork(version, static_cast<uint64_t>(silo),
                        kRngStreamNoise);
  AddGaussianNoise(out, noise_std, noise);
  return Status::Ok();
}

Result<Vec> UldpAvgTrainer::ProtocolRound(int round,
                                          const Vec& global_params) {
  // Each user's update fills its own slot and each silo's noise share its
  // own vector, so one task per silo gives the same bits at any thread
  // count.
  std::vector<std::vector<Vec>> unweighted(
      data_.num_silos(), std::vector<Vec>(data_.num_users()));
  std::vector<Vec> silo_noise;
  ULDP_RETURN_IF_ERROR(engine_.RunSilos(
      round, global_params,
      [&](int version, int silo, const Vec& snapshot, Model& model,
          Vec& noise) {
        return SiloHalf(static_cast<uint64_t>(version), silo, snapshot, model,
                        noise, &unweighted[silo]);
      },
      &silo_noise));
  const uint64_t r = static_cast<uint64_t>(round);
  return options_.private_protocol->WeightingRound(r, unweighted, silo_noise,
                                                   SampledMask(r));
}

void UldpAvgTrainer::ServerStep(int round, Vec& total, Vec& global_params) {
  if (config_.noise_placement == NoisePlacement::kCentral) {
    Rng server = rng_.Fork(static_cast<uint64_t>(round), 0, kRngStreamServer);
    AddGaussianNoise(total, config_.sigma * config_.clip, server);
  }
  // Algorithm 3 writes the update additively on the delta; under the
  // gradient rule the aggregate is a gradient, so the server steps
  // against it.
  const double lr = rule_ == LocalRule::kGradient ? -config_.global_lr
                                                  : config_.global_lr;
  Axpy(lr / (q_ * data_.num_users() * data_.num_silos()), total,
       global_params);
  tracker_.AdvanceRounds(1);
}

Status UldpAvgTrainer::RunRound(int round, Vec& global_params) {
  auto total = options_.private_protocol == nullptr
                   ? engine_.Step(round, global_params)
                   : ProtocolRound(round, global_params);
  if (!total.ok()) return total.status();
  ServerStep(round, total.value(), global_params);
  return Status::Ok();
}

Result<double> UldpAvgTrainer::EpsilonSpent(double delta) const {
  return tracker_.Epsilon(delta);
}

void UldpAvgTrainer::AccountRestoredRounds(int64_t rounds) {
  tracker_.AdvanceRounds(rounds);
}

}  // namespace uldp
