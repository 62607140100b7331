// ULDP-AVG (Algorithm 3) — the paper's main algorithm — plus user-level
// sub-sampling (Algorithm 4) and the enhanced weighting strategy (Eq. 3).
//
// Each silo trains a per-user local model for Q epochs on that user's
// records only, clips the per-user delta to C, scales it by w_{s,u}
// (sum_s w_{s,u} = 1), sums over users, and adds N(0, sigma^2 C^2 / |S|).
// Because each user's total contribution across silos is at most C, the
// aggregate is one user-level Gaussian mechanism with multiplier sigma
// (Theorem 3) — no group-privacy blow-up.
//
// Silo rounds run on the shared RoundEngine: per-user local training draws
// from Rng::Fork(round, silo, user) substreams, so the schedule (thread
// count, work stealing) never changes the trained model.

#ifndef ULDP_CORE_ULDP_AVG_H_
#define ULDP_CORE_ULDP_AVG_H_

#include <mutex>
#include <string>

#include "core/weighting.h"
#include "dp/accountant.h"
#include "fl/local_trainer.h"
#include "fl/round_engine.h"

namespace uldp {

class PrivateWeightingProtocol;

struct UldpAvgOptions {
  WeightingStrategy weighting = WeightingStrategy::kUniform;
  /// User-level Poisson sub-sampling rate q (Algorithm 4); 1.0 disables.
  double user_sample_rate = 1.0;
  /// When set, the weighted aggregation runs through Protocol 1 (Paillier +
  /// blinding + secure aggregation) instead of plaintext weighting. Implies
  /// the enhanced weighting strategy — that is what the protocol computes.
  PrivateWeightingProtocol* private_protocol = nullptr;
};

class UldpAvgTrainer final : public FlAlgorithm {
 public:
  UldpAvgTrainer(const FederatedDataset& data, const Model& model,
                 FlConfig config, UldpAvgOptions options = {});

  Status RunRound(int round, Vec& global_params) override;
  Result<double> EpsilonSpent(double delta) const override;
  void AccountRestoredRounds(int64_t rounds) override;
  std::string name() const override { return name_; }

  const std::vector<std::vector<double>>& weights() const { return weights_; }

 private:
  /// Per-silo round work for the plaintext-weighting path, shared by the
  /// sync and async engine paths.
  Status LocalSiloWork(uint64_t version, const Vec& snapshot, int silo,
                       Model& model, Vec& delta);
  /// The round's Poisson sampling mask (Algorithm 4) — a pure function of
  /// the version, memoized so per-silo callbacks don't each redo the
  /// O(users) derivation.
  std::vector<bool> SampledMask(uint64_t version);

  const FederatedDataset& data_;
  FlConfig config_;
  UldpAvgOptions options_;
  Rng rng_;
  PrivacyTracker tracker_;
  std::string name_;
  std::vector<std::vector<double>> weights_;  // [silo][user]
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

#endif  // ULDP_CORE_ULDP_AVG_H_
