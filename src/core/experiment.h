// Experiment runner: drives any FlAlgorithm for T rounds, evaluating the
// global model on the held-out test set and recording the accumulated ULDP
// epsilon — producing exactly the (utility curve, privacy curve) pairs the
// paper plots in Figures 4-9.

#ifndef ULDP_CORE_EXPERIMENT_H_
#define ULDP_CORE_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fl/local_trainer.h"

namespace uldp {

enum class UtilityMetric {
  kAccuracy,  // Creditcard / MNIST / HeartDisease
  kCIndex,    // TcgaBrca
};

struct ExperimentConfig {
  int rounds = 20;       // T
  double delta = 1e-5;   // reporting delta
  int eval_every = 1;    // evaluate every k rounds
  UtilityMetric metric = UtilityMetric::kAccuracy;
  uint64_t init_seed = 42;  // model initialization seed
  /// When non-empty, the run writes its session state (fl/session.h) to
  /// <checkpoint_dir>/session.ckpt every `checkpoint_every` rounds and on
  /// the final round; with `resume` set it first loads that file and
  /// continues from the recorded round. Because all training randomness
  /// comes from Fork(round, silo, ...) substreams, a resumed run is
  /// bitwise identical to the uninterrupted one on the same seed (the
  /// trainer's already-spent privacy budget is replayed through
  /// FlAlgorithm::AccountRestoredRounds, and async rounds continue the
  /// checkpointed fl.async.* counters through FlAlgorithm::BindSession).
  std::string checkpoint_dir;
  int checkpoint_every = 0;  // <= 0 disables checkpointing
  bool resume = false;
};

struct RoundRecord {
  int round = 0;         // 1-based, after this many rounds
  double test_loss = 0.0;
  double utility = 0.0;  // accuracy or C-index
  double epsilon = 0.0;  // accumulated ULDP epsilon (inf for DEFAULT)
};

/// Runs the algorithm; `eval_model` supplies the architecture and is used
/// for evaluation (its parameters are overwritten). Returns the per-round
/// metric trace.
Result<std::vector<RoundRecord>> RunExperiment(FlAlgorithm& algorithm,
                                               Model& eval_model,
                                               const FederatedDataset& data,
                                               const ExperimentConfig& config);

/// Mean/standard-deviation trace over repeated runs (the paper averages 5
/// runs per curve; the shaded bands are these standard deviations).
struct AveragedRoundRecord {
  int round = 0;
  double mean_loss = 0.0;
  double std_loss = 0.0;
  double mean_utility = 0.0;
  double std_utility = 0.0;
  double epsilon = 0.0;  // identical across seeds (accounting is exact)
};

/// Factory invoked once per seed: must return a fresh algorithm whose
/// training randomness is driven by `seed`.
using AlgorithmFactory =
    std::function<std::unique_ptr<FlAlgorithm>(uint64_t seed)>;

/// Runs `num_seeds` independent repetitions (seeds base_seed, base_seed+1,
/// ...; the model init also varies per seed) and aggregates the traces.
Result<std::vector<AveragedRoundRecord>> RunExperimentAveraged(
    const AlgorithmFactory& factory, Model& eval_model,
    const FederatedDataset& data, const ExperimentConfig& config,
    int num_seeds, uint64_t base_seed = 1);

/// Renders a trace as aligned rows (used by benches and examples).
void PrintTrace(const std::string& label,
                const std::vector<RoundRecord>& trace);

/// Renders an averaged trace (mean ± std columns).
void PrintAveragedTrace(const std::string& label,
                        const std::vector<AveragedRoundRecord>& trace);

}  // namespace uldp

#endif  // ULDP_CORE_EXPERIMENT_H_
