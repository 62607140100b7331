#include "core/uldp_naive.h"

#include <cmath>

#include "common/check.h"

namespace uldp {

UldpNaiveTrainer::UldpNaiveTrainer(const FederatedDataset& data,
                                   const Model& model, FlConfig config)
    : data_(data),
      config_(config),
      rng_(config.seed),
      tracker_(PrivacyTracker::ForGaussian(config.sigma)),
      engine_(model, data.num_silos(), EngineConfigFrom(config),
              [this](int version, int silo, const Vec& snapshot,
                     Model& model, Vec& delta) {
                return LocalSiloWork(static_cast<uint64_t>(version), snapshot,
                                     silo, model, delta);
              }) {
  ULDP_CHECK_GT(config_.clip, 0.0);
  silo_examples_.resize(data_.num_silos());
  for (int s = 0; s < data_.num_silos(); ++s) {
    silo_examples_[s] = data_.MakeExamples(data_.RecordsOfSilo(s));
  }
}

Status UldpNaiveTrainer::LocalSiloWork(uint64_t version, const Vec& snapshot,
                                       int silo, Model& model, Vec& delta) {
  // Each silo adds N(0, sigma^2 C^2 |S|) per coordinate — user-level
  // sensitivity across silos is C|S| (Algorithm 1, line 14). Central mode
  // adds the equivalent N(0, sigma^2 C^2 |S|^2) once at the server.
  // Async flushes of K <= |S| shares need no inflation here: a K-entry
  // flush has sensitivity <= C * sum(alpha_i) while its pooled noise is
  // sigma C sqrt(|S| * sum(alpha_i^2)), and Cauchy-Schwarz keeps the
  // ratio at or above the charged sigma for every K <= |S|.
  const int s_count = data_.num_silos();
  const bool central = config_.noise_placement == NoisePlacement::kCentral;
  const double noise_std =
      central ? 0.0
              : config_.sigma * config_.clip *
                    std::sqrt(static_cast<double>(s_count));
  Rng local = rng_.Fork(version, static_cast<uint64_t>(silo));
  TrainLocalSgd(model, silo_examples_[silo], config_.local_epochs,
                config_.batch_size, config_.local_lr, local);
  delta = model.GetParams();
  Axpy(-1.0, snapshot, delta);  // trained - global (Alg. 1 line 12, sign
                                // normalized to descent)
  ClipToL2Ball(delta, config_.clip);
  Rng noise = rng_.Fork(version, static_cast<uint64_t>(silo),
                        kRngStreamNoise);
  AddGaussianNoise(delta, noise_std, noise);
  return Status::Ok();
}

Status UldpNaiveTrainer::RunRound(int round, Vec& global_params) {
  const int s_count = data_.num_silos();
  const bool central = config_.noise_placement == NoisePlacement::kCentral;
  const uint64_t r = static_cast<uint64_t>(round);
  auto total = engine_.Step(round, global_params);
  if (!total.ok()) return total.status();
  if (central) {
    Rng server = rng_.Fork(r, 0, kRngStreamServer);
    AddGaussianNoise(total.value(), config_.sigma * config_.clip * s_count,
                     server);
  }
  Axpy(config_.global_lr / s_count, total.value(), global_params);
  tracker_.AdvanceRounds(1);
  return Status::Ok();
}

Result<double> UldpNaiveTrainer::EpsilonSpent(double delta) const {
  return tracker_.Epsilon(delta);
}

void UldpNaiveTrainer::AccountRestoredRounds(int64_t rounds) {
  tracker_.AdvanceRounds(rounds);
}

}  // namespace uldp
