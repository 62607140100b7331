// ULDP-SGD (Algorithm 3, SGD variant): one weighted-clipped full-batch
// gradient per user per round instead of multi-epoch local training —
// the DP-FedSGD analogue of ULDP-AVG, preferable only on fast networks.

#ifndef ULDP_CORE_ULDP_SGD_H_
#define ULDP_CORE_ULDP_SGD_H_

#include <mutex>
#include <string>

#include "core/weighting.h"
#include "dp/accountant.h"
#include "fl/local_trainer.h"
#include "fl/round_engine.h"

namespace uldp {

class UldpSgdTrainer final : public FlAlgorithm {
 public:
  UldpSgdTrainer(const FederatedDataset& data, const Model& model,
                 FlConfig config,
                 WeightingStrategy weighting = WeightingStrategy::kUniform,
                 double user_sample_rate = 1.0);

  Status RunRound(int round, Vec& global_params) override;
  Result<double> EpsilonSpent(double delta) const override;
  void AccountRestoredRounds(int64_t rounds) override;
  std::string name() const override { return name_; }

 private:
  /// Per-silo round work, shared by the sync and async engine paths. The
  /// round's user-sampling mask comes from SampledMask, so every silo and
  /// both engine paths see identical masks.
  Status LocalSiloWork(uint64_t version, const Vec& snapshot, int silo,
                       Model& model, Vec& delta);
  /// The round's Poisson sampling mask — a pure function of the version
  /// (one dedicated Fork substream, drawn in user order), memoized so the
  /// per-silo callbacks don't each redo the O(users) derivation.
  std::vector<bool> SampledMask(uint64_t version);

  const FederatedDataset& data_;
  FlConfig config_;
  double user_sample_rate_;
  Rng rng_;
  PrivacyTracker tracker_;
  std::string name_;
  std::vector<std::vector<double>> weights_;
  struct UserShard {
    int user;
    std::vector<Example> examples;
  };
  // Per-silo lists of users with records there — the silo actor's work.
  std::vector<std::vector<UserShard>> silo_shards_;
  // SampledMask memo (async workers query it concurrently).
  std::mutex mask_mu_;
  uint64_t mask_version_ = ~0ull;
  std::vector<bool> mask_;
  // Last: destroyed first, so async workers stop before the state their
  // work reads.
  RoundEngine engine_;
};

}  // namespace uldp

#endif  // ULDP_CORE_ULDP_SGD_H_
