// Algorithm 3 — ULDP-AVG, the paper's main algorithm, and its ULDP-SGD
// variant — plus user-level sub-sampling (Algorithm 4) and the enhanced
// weighting strategy (Eq. 3), in one trainer.
//
// Each silo computes one update per sampled user on that user's records
// only, under one of two local rules: Q epochs of local SGD, whose delta
// is the update (ULDP-AVG), or one full-batch gradient at the global
// model (ULDP-SGD, the DP-FedSGD analogue, preferable only on fast
// networks). It clips the update to C, scales it by w_{s,u}
// (sum_s w_{s,u} = 1), sums over users, and adds N(0, sigma^2 C^2 / |S|).
// Because each user's total contribution across silos is at most C, the
// aggregate is one user-level Gaussian mechanism with multiplier sigma
// (Theorem 3) — no group-privacy blow-up. The server steps by
// eta_g / (q |U| |S|) along the aggregate (against it, for gradients).
//
// The trainer has one per-silo half (SiloHalf) and one server half
// (ServerStep). Plaintext and async rounds weight and sum inside the
// silo half; Protocol 1 rounds take its unweighted clipped updates and
// noise share and weight them under encryption.
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
  /// Without OT, user_sample_rate must equal the protocol's sample_rate.
  /// With the protocol's OT sub-sampling on, the protocol samples users at
  /// its own rate, so user_sample_rate must stay 1.0; the trainer steps
  /// and accounts at the OT rate.
  PrivateWeightingProtocol* private_protocol = nullptr;
};

class UldpAvgTrainer : public FlAlgorithm {
 public:
  UldpAvgTrainer(const FederatedDataset& data, const Model& model,
                 FlConfig config, UldpAvgOptions options = {});

  Status RunRound(int round, Vec& global_params) final;
  Result<double> EpsilonSpent(double delta) const final;
  void AccountRestoredRounds(int64_t rounds) final;
  void BindSession(SessionState* session) final {
    engine_.BindSession(session);
  }
  std::string name() const final { return name_; }

  const std::vector<std::vector<double>>& weights() const { return weights_; }

 protected:
  /// Algorithm 3's two local rules: Q epochs of local SGD per user
  /// (ULDP-AVG) or one full-batch gradient per user (ULDP-SGD).
  enum class LocalRule { kEpochs, kGradient };

  UldpAvgTrainer(const FederatedDataset& data, const Model& model,
                 FlConfig config, UldpAvgOptions options, LocalRule rule);

 private:
  struct UserShard {
    int user;
    std::vector<Example> examples;
  };

  /// The per-silo half at `snapshot`, the version-`version` global
  /// parameters: every sampled user with a nonzero weight gets one
  /// clipped update (Algorithm 3, lines 9-16 or 21-23). With `unweighted`
  /// null, the updates are weighted and summed into `out` (plaintext and
  /// async rounds); otherwise each lands in (*unweighted)[user] for
  /// Protocol 1 to weight. Either way `out` then gains the silo's noise
  /// share (line 17).
  Status SiloHalf(uint64_t version, int silo, const Vec& snapshot,
                  Model& model, Vec& out, std::vector<Vec>* unweighted);
  /// One user's update at `snapshot` under the local rule, clipped to C,
  /// into `update`.
  void UserUpdate(uint64_t version, int silo, const UserShard& shard,
                  const Vec& snapshot, Model& model, Vec& update) const;
  /// Protocol 1's round: the silo halves on the engine, then the
  /// encrypted weighting of their unweighted updates and noise shares.
  Result<Vec> ProtocolRound(int round, const Vec& global_params);
  /// The server half: central noise (when placed there), the
  /// eta_g / (q |U| |S|) step (Algorithm 3 line 6 / Algorithm 4 line 10)
  /// and one round on the accountant.
  void ServerStep(int round, Vec& total, Vec& global_params);
  /// The round's Poisson sampling mask (Algorithm 4) — a pure function of
  /// the version, memoized so per-silo callbacks don't each redo the
  /// O(users) derivation.
  std::vector<bool> SampledMask(uint64_t version);

  const FederatedDataset& data_;
  FlConfig config_;
  UldpAvgOptions options_;
  LocalRule rule_;
  // The sampling rate the server steps and accounts at: user_sample_rate,
  // or the OT rate when Protocol 1 samples users itself.
  double q_;
  Rng rng_;
  PrivacyTracker tracker_;
  std::string name_;
  std::vector<std::vector<double>> weights_;  // [silo][user]
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
