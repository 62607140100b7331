#include "fl/fedavg.h"

#include <limits>

#include "common/check.h"

namespace uldp {

FedAvgTrainer::FedAvgTrainer(const FederatedDataset& data, const Model& model,
                             FlConfig config)
    : data_(data),
      config_(config),
      rng_(config.seed),
      engine_(model, data.num_silos(), EngineConfigFrom(config),
              [this](int version, int silo, const Vec& snapshot,
                     Model& model, Vec& delta) {
                return LocalSiloWork(static_cast<uint64_t>(version), snapshot,
                                     silo, model, delta);
              }) {
  silo_examples_.resize(data_.num_silos());
  for (int s = 0; s < data_.num_silos(); ++s) {
    silo_examples_[s] = data_.MakeExamples(data_.RecordsOfSilo(s));
  }
}

Status FedAvgTrainer::LocalSiloWork(uint64_t version, const Vec& snapshot,
                                    int silo, Model& model, Vec& delta) {
  Rng local = rng_.Fork(version, static_cast<uint64_t>(silo));
  TrainLocalSgd(model, silo_examples_[silo], config_.local_epochs,
                config_.batch_size, config_.local_lr, local);
  delta = model.GetParams();
  Axpy(-1.0, snapshot, delta);  // delta = trained - global
  return Status::Ok();
}

Status FedAvgTrainer::RunRound(int round, Vec& global_params) {
  auto total = engine_.Step(round, global_params);
  if (!total.ok()) return total.status();
  Axpy(config_.global_lr / data_.num_silos(), total.value(), global_params);
  return Status::Ok();
}

Result<double> FedAvgTrainer::EpsilonSpent(double) const {
  return std::numeric_limits<double>::infinity();
}

}  // namespace uldp
