// ULDP-NAIVE (Algorithm 1): DP-FedAVG-style per-silo clipping, but since a
// user may appear in every silo, user-level sensitivity of the aggregate is
// C*|S| and each silo must add Gaussian noise with variance sigma^2 C^2 |S|
// (so the aggregate carries sigma^2 C^2 |S|^2). Satisfies ULDP at a large
// utility cost — the paper's "substantial noise" baseline.

#ifndef ULDP_CORE_ULDP_NAIVE_H_
#define ULDP_CORE_ULDP_NAIVE_H_

#include "dp/accountant.h"
#include "fl/local_trainer.h"
#include "fl/round_engine.h"

namespace uldp {

class UldpNaiveTrainer final : public FlAlgorithm {
 public:
  UldpNaiveTrainer(const FederatedDataset& data, const Model& model,
                   FlConfig config);

  Status RunRound(int round, Vec& global_params) override;
  Result<double> EpsilonSpent(double delta) const override;
  void AccountRestoredRounds(int64_t rounds) override;
  void BindSession(SessionState* session) override {
    engine_.BindSession(session);
  }
  std::string name() const override { return "ULDP-NAIVE"; }

 private:
  /// Per-silo round work, shared by the sync and async engine paths.
  Status LocalSiloWork(uint64_t version, const Vec& snapshot, int silo,
                       Model& model, Vec& delta);

  const FederatedDataset& data_;
  FlConfig config_;
  Rng rng_;
  PrivacyTracker tracker_;
  std::vector<std::vector<Example>> silo_examples_;
  // Last: destroyed first, so async workers stop before the state their
  // work reads.
  RoundEngine engine_;
};

}  // namespace uldp

#endif  // ULDP_CORE_ULDP_NAIVE_H_
