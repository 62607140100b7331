// ULDP-GROUP-k (Algorithm 2): per-silo DP-SGD (record-level DP) combined
// with contribution-bounding flags B that cap every user at k records
// across all silos; (k, eps, delta)-Group DP then implies (eps, delta)-ULDP
// (Proposition 1). The flags are generated "for existing records to
// minimize waste" (§5.1) — privacy of flag generation is out of scope for
// this baseline, as in the paper.

#ifndef ULDP_CORE_ULDP_GROUP_H_
#define ULDP_CORE_ULDP_GROUP_H_

#include <string>

#include "dp/accountant.h"
#include "fl/local_trainer.h"
#include "fl/round_engine.h"

namespace uldp {

/// Group size selection (the paper evaluates k in {2, 8, median, max}).
struct GroupSizeSpec {
  enum class Kind { kFixed, kMedian, kMax } kind = Kind::kFixed;
  int fixed_k = 8;

  static GroupSizeSpec Fixed(int k) { return {Kind::kFixed, k}; }
  static GroupSizeSpec Median() { return {Kind::kMedian, 0}; }
  static GroupSizeSpec Max() { return {Kind::kMax, 0}; }
};

class UldpGroupTrainer final : public FlAlgorithm {
 public:
  /// `dp_sample_rate` is DP-SGD's per-record Poisson rate gamma;
  /// `dp_steps_per_round` the number of noisy steps each silo runs per
  /// round (the paper's Q epochs of DP-SGD).
  UldpGroupTrainer(const FederatedDataset& data, const Model& model,
                   FlConfig config, GroupSizeSpec group_size,
                   double dp_sample_rate, int dp_steps_per_round,
                   GroupConversionRoute route = GroupConversionRoute::kRdp);

  Status RunRound(int round, Vec& global_params) override;
  Result<double> EpsilonSpent(double delta) const override;
  void AccountRestoredRounds(int64_t rounds) override;
  std::string name() const override { return name_; }

  /// Resolved group size k (after median/max evaluation on the dataset).
  int group_k() const { return group_k_; }
  /// Number of training records surviving the contribution bound.
  size_t num_kept_records() const;

 private:
  /// Per-silo round work, shared by the sync and async engine paths.
  Status LocalSiloWork(uint64_t version, const Vec& snapshot, int silo,
                       Model& model, Vec& delta);

  const FederatedDataset& data_;
  FlConfig config_;
  Rng rng_;
  int group_k_;
  double dp_sample_rate_;
  int dp_steps_per_round_;
  PrivacyTracker tracker_;
  std::string name_;
  // Filtered per-silo training sets (records kept by the flags B).
  std::vector<std::vector<Example>> silo_examples_;
  // Last: destroyed first, so async workers stop before the state their
  // work reads.
  RoundEngine engine_;
};

}  // namespace uldp

#endif  // ULDP_CORE_ULDP_GROUP_H_
