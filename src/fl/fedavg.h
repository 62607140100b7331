// DEFAULT baseline: non-private FedAVG with two-sided learning rates
// (Yang et al., ICLR'21 — the paper's non-private reference point in every
// figure).

#ifndef ULDP_FL_FEDAVG_H_
#define ULDP_FL_FEDAVG_H_

#include "fl/local_trainer.h"
#include "fl/round_engine.h"

namespace uldp {

class FedAvgTrainer final : public FlAlgorithm {
 public:
  /// `model` provides the architecture (cloned per silo for local work).
  FedAvgTrainer(const FederatedDataset& data, const Model& model,
                FlConfig config);

  Status RunRound(int round, Vec& global_params) override;
  Result<double> EpsilonSpent(double delta) const override;
  std::string name() const override { return "DEFAULT"; }

 private:
  /// Per-silo round work against `snapshot` (the version-`version` global
  /// parameters) — shared verbatim by the synchronous barrier path and the
  /// async staleness-bounded path, so the two are bitwise comparable.
  Status LocalSiloWork(uint64_t version, const Vec& snapshot, int silo,
                       Model& model, Vec& delta);

  const FederatedDataset& data_;
  FlConfig config_;
  Rng rng_;
  std::vector<std::vector<Example>> silo_examples_;
  // Last: destroyed first, so async workers stop before the state their
  // work reads.
  RoundEngine engine_;
};

}  // namespace uldp

#endif  // ULDP_FL_FEDAVG_H_
