// ULDP-SGD (Algorithm 3, SGD variant): one weighted-clipped full-batch
// gradient per user per round instead of multi-epoch local training —
// the DP-FedSGD analogue of ULDP-AVG, preferable only on fast networks.
// It is UldpAvgTrainer under the gradient rule: the same sampling mask,
// weights, noise shares, server step and accountant.

#ifndef ULDP_CORE_ULDP_SGD_H_
#define ULDP_CORE_ULDP_SGD_H_

#include "core/uldp_avg.h"

namespace uldp {

class UldpSgdTrainer final : public UldpAvgTrainer {
 public:
  UldpSgdTrainer(const FederatedDataset& data, const Model& model,
                 FlConfig config,
                 WeightingStrategy weighting = WeightingStrategy::kUniform,
                 double user_sample_rate = 1.0)
      : UldpAvgTrainer(data, model, config,
                       UldpAvgOptions{weighting, user_sample_rate,
                                      /*private_protocol=*/nullptr},
                       LocalRule::kGradient) {}
};

}  // namespace uldp

#endif  // ULDP_CORE_ULDP_SGD_H_
