// Shared infrastructure for the figure-reproduction benches: scale
// selection (quick default vs paper-scale via ULDP_BENCH_SCALE=full) and
// the method-suite runner used by Figures 4-7.

#ifndef ULDP_BENCH_BENCH_COMMON_H_
#define ULDP_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "data/dataset.h"
#include "nn/model.h"

namespace uldp {
namespace bench {

/// Machine-readable bench output: collects metric samples and writes
/// `BENCH_<name>.json` in the working directory so the perf trajectory
/// (e.g. serial vs parallel protocol rounds) can be tracked across PRs.
class BenchJson {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;

  explicit BenchJson(std::string name);
  ~BenchJson();  // writes the file if Write() was not called

  void Add(const std::string& metric, double value,
           const Labels& labels = {});

  /// Writes BENCH_<name>.json (idempotent).
  void Write();

 private:
  struct Sample {
    std::string metric;
    double value;
    Labels labels;
  };
  std::string name_;
  std::vector<Sample> samples_;
  bool written_ = false;
};

/// Peak resident set size of this process in bytes (VmHWM from
/// /proc/self/status). Linux-only; returns 0 where the interface is
/// unavailable so benches degrade to not reporting the metric instead of
/// failing. Note VmHWM is monotone within a process — benches comparing
/// configurations fork one child per configuration and collect each
/// child's own peak (see bench/stream_scaling.cc).
uint64_t PeakRssBytes();

/// True when ULDP_BENCH_SCALE=full — paper-scale parameters; otherwise the
/// bench runs a scaled-down configuration that finishes in seconds to a
/// couple of minutes while preserving the comparison shape.
bool FullScale();

/// Picks quick or full value.
int Scaled(int quick, int full);
double Scaled(double quick, double full);

/// Cost of arm `b` relative to arm `a` as the median of `pairs` per-pair
/// time ratios b / a. The arm that runs first alternates from pair to
/// pair, so drift and order effects hit both arms alike, and one noisy
/// pair cannot move the median the way it moves a min or a mean. Each arm
/// returns its wall seconds, or a negative value on failure, which makes
/// the whole call return -1.
double MedianPairedRatio(int pairs, const std::function<double()>& a,
                         const std::function<double()>& b);

/// Which methods a suite runs.
struct MethodSelection {
  bool run_default = true;
  bool run_naive = true;
  bool run_group_2 = true;
  bool run_group_8 = true;
  bool run_group_median = true;
  bool run_group_max = true;
  bool run_avg = true;
  bool run_avg_w = true;
  bool run_sgd = true;
};

/// One Figure 4/5/6/7 panel: every method on one dataset configuration.
struct SuiteConfig {
  std::string panel;            // e.g. "(a) n~246 |U|=100 uniform"
  int rounds = 20;
  int eval_every = 5;
  UtilityMetric metric = UtilityMetric::kAccuracy;
  double delta = 1e-5;
  // Shared hyper-parameters (paper Table 1).
  double local_lr = 0.1;
  double clip = 1.0;
  double sigma = 5.0;
  int local_epochs = 2;
  int batch_size = 32;
  uint64_t seed = 1;
  // Per-family server learning rates (Remark 2: AVG needs a larger eta_g).
  double global_lr_plain = 1.0;  // DEFAULT / NAIVE / GROUP
  double global_lr_avg = 30.0;   // ULDP-AVG-w (and the AVG base rate)
  double global_lr_sgd = 50.0;   // ULDP-SGD
  // Uniform-weight ULDP-AVG only receives mass sum_s w_su = (#silos with
  // records)/|S| per user; under skew this shrinks toward 1/|S| and the
  // paper tunes eta_g per method to compensate. When true, AVG's eta_g is
  // global_lr_avg / mass (its noise is amplified accordingly — exactly the
  // Figure 8 effect).
  bool scale_avg_lr_by_mass = true;
  // ULDP-GROUP DP-SGD parameters.
  double group_sample_rate = 0.1;
  int group_steps_per_round = 10;
  MethodSelection methods;
};

/// Runs the suite and prints one aligned table with
/// panel | method | round | test_loss | utility | epsilon rows. When
/// `json` is given, every row is also recorded as machine-readable
/// samples (metrics test_loss / utility / epsilon).
void RunMethodSuite(const FederatedDataset& data, Model& model,
                    const SuiteConfig& config, BenchJson* json = nullptr);

/// Mean over users (with records) of (#silos holding their records)/|S| —
/// the fraction of the clipping budget uniform weights actually use.
double UniformWeightMass(const FederatedDataset& data);

}  // namespace bench
}  // namespace uldp

#endif  // ULDP_BENCH_BENCH_COMMON_H_
