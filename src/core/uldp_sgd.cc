#include "core/uldp_sgd.h"

#include <cmath>

#include "common/check.h"

namespace uldp {

UldpSgdTrainer::UldpSgdTrainer(const FederatedDataset& data,
                               const Model& model, FlConfig config,
                               WeightingStrategy weighting,
                               double user_sample_rate)
    : data_(data),
      config_(config),
      user_sample_rate_(user_sample_rate),
      rng_(config.seed),
      tracker_(user_sample_rate < 1.0
                   ? PrivacyTracker::ForSubsampledGaussian(config.sigma,
                                                           user_sample_rate)
                   : PrivacyTracker::ForGaussian(config.sigma)),
      engine_(model, data.num_silos(), EngineConfigFrom(config),
              [this](int version, int silo, const Vec& snapshot,
                     Model& model, Vec& delta) {
                return LocalSiloWork(static_cast<uint64_t>(version), snapshot,
                                     silo, model, delta);
              }) {
  ULDP_CHECK_GT(config_.clip, 0.0);
  weights_ = ComputeWeights(data_, weighting);
  ULDP_CHECK(WeightsSatisfyUldpConstraint(weights_));
  name_ = weighting == WeightingStrategy::kEnhanced ? "ULDP-SGD-w"
                                                    : "ULDP-SGD";
  silo_shards_.resize(data_.num_silos());
  for (int s = 0; s < data_.num_silos(); ++s) {
    for (int u = 0; u < data_.num_users(); ++u) {
      const auto& idx = data_.RecordsOf(s, u);
      if (idx.empty()) continue;
      silo_shards_[s].push_back(UserShard{u, data_.MakeExamples(idx)});
    }
  }
}

std::vector<bool> UldpSgdTrainer::SampledMask(uint64_t version) {
  std::lock_guard<std::mutex> lock(mask_mu_);
  if (mask_version_ != version) {
    // Server-side Poisson sampling of the user set (one substream per
    // round, drawn in user order — independent of silo scheduling).
    const int u_count = data_.num_users();
    mask_.assign(u_count, true);
    if (user_sample_rate_ < 1.0) {
      Rng sampler = rng_.Fork(version, 0, kRngStreamSampling);
      for (int u = 0; u < u_count; ++u) {
        mask_[u] = sampler.Bernoulli(user_sample_rate_);
      }
    }
    mask_version_ = version;
  }
  return mask_;
}

Status UldpSgdTrainer::LocalSiloWork(uint64_t version, const Vec& snapshot,
                                     int silo, Model& model, Vec& silo_grad) {
  const int s_count = data_.num_silos();
  const std::vector<bool> sampled = SampledMask(version);

  // Async partial-buffer / staleness runs inflate each distributed noise
  // share so the worst flush still carries the charged noise (see the
  // FlConfig DP note); exactly 1.0 in sync and barrier-async runs.
  const bool central = config_.noise_placement == NoisePlacement::kCentral;
  const double noise_std =
      central ? 0.0
              : config_.sigma * config_.clip *
                    AsyncNoiseMargin(config_, s_count) /
                    std::sqrt(static_cast<double>(s_count));
  Vec grad(silo_grad.size(), 0.0);
  std::vector<const Example*> batch;
  for (const UserShard& shard : silo_shards_[silo]) {
    if (!sampled[shard.user]) continue;
    double w = weights_[silo][shard.user];
    if (w == 0.0) continue;
    // Full-batch per-user gradient at the pulled global model
    // (Algorithm 3, lines 21-23).
    model.SetParams(snapshot);
    std::fill(grad.begin(), grad.end(), 0.0);
    batch.clear();
    batch.reserve(shard.examples.size());
    for (const Example& ex : shard.examples) batch.push_back(&ex);
    model.LossAndGrad(batch, &grad);
    ClipToL2Ball(grad, config_.clip);
    Axpy(w, grad, silo_grad);
  }
  Rng noise = rng_.Fork(version, static_cast<uint64_t>(silo),
                        kRngStreamNoise);
  AddGaussianNoise(silo_grad, noise_std, noise);
  return Status::Ok();
}

Status UldpSgdTrainer::RunRound(int round, Vec& global_params) {
  const int s_count = data_.num_silos();
  const int u_count = data_.num_users();
  const double q = user_sample_rate_;
  const uint64_t r = static_cast<uint64_t>(round);
  const bool central = config_.noise_placement == NoisePlacement::kCentral;
  auto total = engine_.Step(round, global_params);
  if (!total.ok()) return total.status();
  if (central) {
    Rng server = rng_.Fork(r, 0, kRngStreamServer);
    AddGaussianNoise(total.value(), config_.sigma * config_.clip, server);
  }
  // Descent step with the paper's 1/(q |U| |S|) scaling. (Algorithm 3
  // writes the update additively on the delta; for the SGD variant the
  // aggregated quantity is a gradient, so the server steps against it.)
  Axpy(-config_.global_lr / (q * u_count * s_count), total.value(),
       global_params);
  tracker_.AdvanceRounds(1);
  return Status::Ok();
}

Result<double> UldpSgdTrainer::EpsilonSpent(double delta) const {
  return tracker_.Epsilon(delta);
}

void UldpSgdTrainer::AccountRestoredRounds(int64_t rounds) {
  tracker_.AdvanceRounds(rounds);
}

}  // namespace uldp
