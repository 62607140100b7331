#include "core/uldp_avg.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/table.h"
#include "core/private_weighting.h"

namespace uldp {

UldpAvgTrainer::UldpAvgTrainer(const FederatedDataset& data,
                               const Model& model, FlConfig config,
                               UldpAvgOptions options)
    : data_(data),
      config_(config),
      options_(options),
      rng_(config.seed),
      engine_(model, data.num_silos(), EngineConfigFrom(config)),
      tracker_(options.user_sample_rate < 1.0
                   ? PrivacyTracker::ForSubsampledGaussian(
                         config.sigma, options.user_sample_rate)
                   : PrivacyTracker::ForGaussian(config.sigma)) {
  ULDP_CHECK_GT(config_.clip, 0.0);
  ULDP_CHECK_GT(options_.user_sample_rate, 0.0);
  ULDP_CHECK_LE(options_.user_sample_rate, 1.0);
  WeightingStrategy strategy = options_.weighting;
  if (options_.private_protocol != nullptr) {
    // The protocol computes n_{s,u}/N_u weights inside the encryption.
    strategy = WeightingStrategy::kEnhanced;
  }
  weights_ = ComputeWeights(data_, strategy);
  ULDP_CHECK(WeightsSatisfyUldpConstraint(weights_));

  name_ = strategy == WeightingStrategy::kEnhanced ? "ULDP-AVG-w"
                                                   : "ULDP-AVG";
  if (options_.private_protocol != nullptr) name_ += "(private)";
  if (options_.user_sample_rate < 1.0) {
    name_ += "(q=" + FormatG(options_.user_sample_rate, 3) + ")";
  }

  silo_shards_.resize(data_.num_silos());
  for (int s = 0; s < data_.num_silos(); ++s) {
    for (int u = 0; u < data_.num_users(); ++u) {
      const auto& idx = data_.RecordsOf(s, u);
      if (idx.empty()) continue;
      silo_shards_[s].push_back(UserShard{u, data_.MakeExamples(idx)});
    }
  }
  if (config_.async_rounds) {
    // The private-protocol reduce is a lockstep multi-party computation —
    // the weighting encryption has no staleness-bounded analogue (yet).
    ULDP_CHECK_MSG(options_.private_protocol == nullptr,
                   "async_rounds is incompatible with the private protocol");
    Status started = engine_.StartAsync(
        [this](int version, int silo, const Vec& snapshot, Model& model,
               Vec& delta) {
          return LocalSiloWork(static_cast<uint64_t>(version), snapshot, silo,
                               model, delta);
        },
        AsyncOptionsFrom(config_));
    ULDP_CHECK_MSG(started.ok(), started.ToString());
  }
}

UldpAvgTrainer::~UldpAvgTrainer() { engine_.StopAsync(); }

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

Status UldpAvgTrainer::LocalSiloWork(uint64_t version, const Vec& snapshot,
                                     int silo, Model& model, Vec& silo_delta) {
  const int s_count = data_.num_silos();
  const std::vector<bool> sampled = SampledMask(version);

  // Line 17: every silo adds N(0, sigma^2 C^2 / |S|) so the aggregate noise
  // matches user-level sensitivity C with multiplier sigma. In central
  // mode the server adds the equivalent N(0, sigma^2 C^2) once instead.
  // Under async rounds with a partial buffer or a positive staleness
  // bound, each share is inflated by AsyncNoiseMargin so even the worst
  // flush carries the charged noise (see the FlConfig DP note).
  const bool central = config_.noise_placement == NoisePlacement::kCentral;
  const double noise_std =
      central ? 0.0
              : config_.sigma * config_.clip *
                    AsyncNoiseMargin(config_, s_count) /
                    std::sqrt(static_cast<double>(s_count));

  // Per-user training on a Fork(version, silo, user) substream, clip, then
  // weight (Algorithm 3, lines 9-16).
  for (const UserShard& shard : silo_shards_[silo]) {
    if (!sampled[shard.user]) continue;
    double w = weights_[silo][shard.user];
    if (w == 0.0) continue;
    model.SetParams(snapshot);
    Rng local = rng_.Fork(version, static_cast<uint64_t>(silo),
                          static_cast<uint64_t>(shard.user));
    TrainLocalSgd(model, shard.examples, config_.local_epochs,
                  config_.batch_size, config_.local_lr, local);
    Vec delta = model.GetParams();
    Axpy(-1.0, snapshot, delta);
    ClipToL2Ball(delta, config_.clip);  // line 16: clip then weight
    Axpy(w, delta, silo_delta);
  }
  Rng noise = rng_.Fork(version, static_cast<uint64_t>(silo),
                        kRngStreamNoise);
  AddGaussianNoise(silo_delta, noise_std, noise);
  return Status::Ok();
}

Status UldpAvgTrainer::RunRound(int round, Vec& global_params) {
  const int s_count = data_.num_silos();
  const int u_count = data_.num_users();
  const double q = options_.user_sample_rate;
  const uint64_t r = static_cast<uint64_t>(round);
  const bool central = config_.noise_placement == NoisePlacement::kCentral;
  const bool use_protocol = options_.private_protocol != nullptr;

  Vec total;
  if (use_protocol) {
    // Algorithm 4 mask, computed once at the server for the protocol call.
    std::vector<bool> sampled = SampledMask(r);
    const double noise_std =
        central ? 0.0
                : config_.sigma * config_.clip /
                      std::sqrt(static_cast<double>(s_count));
    // The protocol path keeps per-user clipped (unweighted) deltas since
    // the weighting happens inside the encryption. Each user's training
    // draws from its own Fork(round, silo, user) substream and fills its
    // own delta slot, so one task per silo gives the same bits at any
    // thread count.
    std::vector<std::vector<Vec>> protocol_deltas(s_count,
                                                  std::vector<Vec>(u_count));
    std::vector<Vec> silo_noise(s_count, Vec());
    auto silo_work = [&](int s, Model& model, Vec&) {
      for (const UserShard& user_shard : silo_shards_[s]) {
        if (!sampled[user_shard.user]) continue;
        model.SetParams(global_params);
        Rng local = rng_.Fork(r, static_cast<uint64_t>(s),
                              static_cast<uint64_t>(user_shard.user));
        TrainLocalSgd(model, user_shard.examples, config_.local_epochs,
                      config_.batch_size, config_.local_lr, local);
        Vec delta = model.GetParams();
        Axpy(-1.0, global_params, delta);
        ClipToL2Ball(delta, config_.clip);
        protocol_deltas[s][user_shard.user] = std::move(delta);
      }
      Rng noise = rng_.Fork(r, static_cast<uint64_t>(s), kRngStreamNoise);
      silo_noise[s].assign(global_params.size(), 0.0);
      AddGaussianNoise(silo_noise[s], noise_std, noise);
      return Status::Ok();
    };
    ULDP_RETURN_IF_ERROR(
        engine_.RunSilos(global_params, silo_work, /*silo_deltas=*/nullptr));
    auto agg = options_.private_protocol->WeightingRound(
        r, protocol_deltas, silo_noise, sampled);
    if (!agg.ok()) return agg.status();
    total = std::move(agg.value());
  } else {
    auto agg =
        config_.async_rounds
            ? engine_.StepAsync(round, global_params)
            : engine_.RunRound(round, global_params,
                               [&](int s, Model& model, Vec& delta) {
                                 return LocalSiloWork(r, global_params, s,
                                                      model, delta);
                               });
    if (!agg.ok()) return agg.status();
    total = std::move(agg.value());
  }
  if (central) {
    Rng server = rng_.Fork(r, 0, kRngStreamServer);
    AddGaussianNoise(total, config_.sigma * config_.clip, server);
  }

  // Server update (Algorithm 3 line 6 / Algorithm 4 line 10).
  Axpy(config_.global_lr / (q * u_count * s_count), total, global_params);
  tracker_.AdvanceRounds(1);
  return Status::Ok();
}

Result<double> UldpAvgTrainer::EpsilonSpent(double delta) const {
  return tracker_.Epsilon(delta);
}

void UldpAvgTrainer::AccountRestoredRounds(int64_t rounds) {
  tracker_.AdvanceRounds(rounds);
}

}  // namespace uldp
