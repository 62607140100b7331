#include "core/uldp_group.h"

#include <algorithm>

#include "common/check.h"
#include "fl/dp_sgd.h"

namespace uldp {

UldpGroupTrainer::UldpGroupTrainer(const FederatedDataset& data,
                                   const Model& model, FlConfig config,
                                   GroupSizeSpec group_size,
                                   double dp_sample_rate,
                                   int dp_steps_per_round,
                                   GroupConversionRoute route)
    : data_(data),
      config_(config),
      rng_(config.seed),
      group_k_(0),
      dp_sample_rate_(dp_sample_rate),
      dp_steps_per_round_(dp_steps_per_round),
      tracker_(PrivacyTracker::NonPrivate()),
      engine_(model, data.num_silos(), EngineConfigFrom(config),
              [this](int version, int silo, const Vec& snapshot,
                     Model& model, Vec& delta) {
                return LocalSiloWork(static_cast<uint64_t>(version), snapshot,
                                     silo, model, delta);
              }) {
  switch (group_size.kind) {
    case GroupSizeSpec::Kind::kFixed:
      group_k_ = group_size.fixed_k;
      name_ = "ULDP-GROUP-" + std::to_string(group_k_);
      break;
    case GroupSizeSpec::Kind::kMedian:
      group_k_ = std::max(1, data_.MedianRecordsPerUser());
      name_ = "ULDP-GROUP-median(" + std::to_string(group_k_) + ")";
      break;
    case GroupSizeSpec::Kind::kMax:
      group_k_ = std::max(1, data_.MaxRecordsPerUser());
      name_ = "ULDP-GROUP-max(" + std::to_string(group_k_) + ")";
      break;
  }
  ULDP_CHECK_GE(group_k_, 1);
  tracker_ = PrivacyTracker::ForGroup(config_.sigma, dp_sample_rate_,
                                      dp_steps_per_round_, group_k_, route);

  // Flags B: keep the first k records of every user, walking records in a
  // deterministic shuffled order — the "generated for existing records to
  // minimize waste" strategy (§5.1). Records beyond the bound are dropped
  // from training entirely.
  std::vector<int> kept_count(data_.num_users(), 0);
  std::vector<int> order(data_.num_train_records());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  rng_.Shuffle(order);
  std::vector<bool> keep(order.size(), false);
  for (int idx : order) {
    const Record& r = data_.train_records()[idx];
    if (kept_count[r.user_id] < group_k_) {
      ++kept_count[r.user_id];
      keep[idx] = true;
    }
  }
  silo_examples_.resize(data_.num_silos());
  for (int s = 0; s < data_.num_silos(); ++s) {
    std::vector<int> indices;
    for (int idx : data_.RecordsOfSilo(s)) {
      if (keep[idx]) indices.push_back(idx);
    }
    silo_examples_[s] = data_.MakeExamples(indices);
  }
}

Status UldpGroupTrainer::LocalSiloWork(uint64_t version, const Vec& snapshot,
                                       int silo, Model& model, Vec& delta) {
  DpSgdOptions options;
  options.learning_rate = config_.local_lr;
  options.clip = config_.clip;
  options.sigma = config_.sigma;
  options.sample_rate = dp_sample_rate_;
  options.steps = dp_steps_per_round_;
  Rng local = rng_.Fork(version, static_cast<uint64_t>(silo));
  ULDP_RETURN_IF_ERROR(RunDpSgd(model, silo_examples_[silo], options, local));
  delta = model.GetParams();
  Axpy(-1.0, snapshot, delta);
  return Status::Ok();
}

size_t UldpGroupTrainer::num_kept_records() const {
  size_t n = 0;
  for (const auto& e : silo_examples_) n += e.size();
  return n;
}

Status UldpGroupTrainer::RunRound(int round, Vec& global_params) {
  auto total = engine_.Step(round, global_params);
  if (!total.ok()) return total.status();
  Axpy(config_.global_lr / data_.num_silos(), total.value(), global_params);
  tracker_.AdvanceRounds(1);
  return Status::Ok();
}

Result<double> UldpGroupTrainer::EpsilonSpent(double delta) const {
  return tracker_.Epsilon(delta);
}

void UldpGroupTrainer::AccountRestoredRounds(int64_t rounds) {
  tracker_.AdvanceRounds(rounds);
}

}  // namespace uldp
