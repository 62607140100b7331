#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/table.h"
#include "core/uldp_avg.h"
#include "core/uldp_group.h"
#include "core/uldp_naive.h"
#include "core/uldp_sgd.h"
#include "fl/fedavg.h"

namespace uldp {
namespace bench {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

BenchJson::BenchJson(std::string name) : name_(std::move(name)) {}

BenchJson::~BenchJson() { Write(); }

void BenchJson::Add(const std::string& metric, double value,
                    const Labels& labels) {
  samples_.push_back(Sample{metric, value, labels});
}

void BenchJson::Write() {
  if (written_) return;
  written_ = true;
  std::ostringstream out;
  out << "{\n  \"bench\": \"" << JsonEscape(name_) << "\",\n"
      << "  \"samples\": [\n";
  for (size_t i = 0; i < samples_.size(); ++i) {
    const Sample& s = samples_[i];
    // JSON has no inf/nan literals (epsilon is inf for non-private
    // baselines) — emit null so parsers accept the file.
    out << "    {\"metric\": \"" << JsonEscape(s.metric) << "\", \"value\": "
        << (std::isfinite(s.value) ? FormatG(s.value, 9) : "null")
        << ", \"labels\": {";
    for (size_t l = 0; l < s.labels.size(); ++l) {
      out << "\"" << JsonEscape(s.labels[l].first) << "\": \""
          << JsonEscape(s.labels[l].second) << "\"";
      if (l + 1 < s.labels.size()) out << ", ";
    }
    out << "}}" << (i + 1 < samples_.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  const std::string path = "BENCH_" + name_ + ".json";
  std::ofstream file(path);
  if (!file) {
    std::cerr << "BenchJson: cannot write " << path << "\n";
    return;
  }
  file << out.str();
  std::cout << "[bench-json] wrote " << path << " (" << samples_.size()
            << " samples)\n";
}

uint64_t PeakRssBytes() {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    // "VmHWM:      1234 kB" — the per-process high-water mark of VmRSS.
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<uint64_t>(std::atoll(line.c_str() + 6)) * 1024;
    }
  }
#endif
  return 0;
}

bool FullScale() {
  const char* env = std::getenv("ULDP_BENCH_SCALE");
  return env != nullptr && std::string(env) == "full";
}

int Scaled(int quick, int full) { return FullScale() ? full : quick; }
double Scaled(double quick, double full) { return FullScale() ? full : quick; }

double MedianPairedRatio(int pairs, const std::function<double()>& a,
                         const std::function<double()>& b) {
  std::vector<double> ratios;
  for (int p = 0; p < pairs; ++p) {
    double ta = 0.0, tb = 0.0;
    if (p % 2 == 0) {
      ta = a();
      tb = b();
    } else {
      tb = b();
      ta = a();
    }
    if (ta <= 0.0 || tb < 0.0) return -1.0;
    ratios.push_back(tb / ta);
  }
  if (ratios.empty()) return -1.0;
  std::sort(ratios.begin(), ratios.end());
  const size_t mid = ratios.size() / 2;
  return ratios.size() % 2 == 1 ? ratios[mid]
                                : 0.5 * (ratios[mid - 1] + ratios[mid]);
}

double UniformWeightMass(const FederatedDataset& data) {
  int users_with_records = 0;
  double mass = 0.0;
  for (int u = 0; u < data.num_users(); ++u) {
    int silos_with = 0;
    for (int s = 0; s < data.num_silos(); ++s) {
      silos_with += data.CountOf(s, u) > 0 ? 1 : 0;
    }
    if (silos_with > 0) {
      ++users_with_records;
      mass += static_cast<double>(silos_with) / data.num_silos();
    }
  }
  return users_with_records > 0 ? mass / users_with_records : 1.0;
}

namespace {

void AppendTrace(Table& table, BenchJson* json, const std::string& panel,
                 const std::string& method,
                 const std::vector<RoundRecord>& trace) {
  for (const auto& rec : trace) {
    table.AddRow({panel, method, std::to_string(rec.round),
                  FormatG(rec.test_loss), FormatG(rec.utility),
                  FormatG(rec.epsilon)});
    if (json != nullptr) {
      BenchJson::Labels labels = {{"panel", panel},
                                  {"method", method},
                                  {"round", std::to_string(rec.round)}};
      json->Add("test_loss", rec.test_loss, labels);
      json->Add("utility", rec.utility, labels);
      json->Add("epsilon", rec.epsilon, labels);
    }
  }
}

}  // namespace

void RunMethodSuite(const FederatedDataset& data, Model& model,
                    const SuiteConfig& config, BenchJson* json) {
  FlConfig base;
  base.local_lr = config.local_lr;
  base.clip = config.clip;
  base.sigma = config.sigma;
  base.local_epochs = config.local_epochs;
  base.batch_size = config.batch_size;
  base.seed = config.seed;

  ExperimentConfig experiment;
  experiment.rounds = config.rounds;
  experiment.eval_every = config.eval_every;
  experiment.metric = config.metric;
  experiment.delta = config.delta;

  Table table({"panel", "method", "round", "test_loss", "utility",
               "epsilon"});
  auto run = [&](FlAlgorithm& alg) {
    auto trace = RunExperiment(alg, model, data, experiment);
    if (!trace.ok()) {
      std::cerr << alg.name() << " failed: " << trace.status().ToString()
                << "\n";
      return;
    }
    AppendTrace(table, json, config.panel, alg.name(), trace.value());
  };

  const MethodSelection& m = config.methods;
  if (m.run_default) {
    FlConfig cfg = base;
    cfg.global_lr = config.global_lr_plain;
    FedAvgTrainer alg(data, model, cfg);
    run(alg);
  }
  if (m.run_naive) {
    FlConfig cfg = base;
    cfg.global_lr = config.global_lr_plain;
    UldpNaiveTrainer alg(data, model, cfg);
    run(alg);
  }
  auto run_group = [&](GroupSizeSpec spec) {
    FlConfig cfg = base;
    cfg.global_lr = config.global_lr_plain;
    UldpGroupTrainer alg(data, model, cfg, spec, config.group_sample_rate,
                         config.group_steps_per_round);
    run(alg);
  };
  if (m.run_group_2) run_group(GroupSizeSpec::Fixed(2));
  if (m.run_group_8) run_group(GroupSizeSpec::Fixed(8));
  if (m.run_group_median) run_group(GroupSizeSpec::Median());
  if (m.run_group_max) run_group(GroupSizeSpec::Max());
  if (m.run_avg) {
    FlConfig cfg = base;
    double mass = config.scale_avg_lr_by_mass ? UniformWeightMass(data) : 1.0;
    cfg.global_lr = config.global_lr_avg / std::max(mass, 1e-3);
    UldpAvgTrainer alg(data, model, cfg);
    run(alg);
  }
  if (m.run_avg_w) {
    FlConfig cfg = base;
    cfg.global_lr = config.global_lr_avg;
    UldpAvgOptions opt;
    opt.weighting = WeightingStrategy::kEnhanced;
    UldpAvgTrainer alg(data, model, cfg, opt);
    run(alg);
  }
  if (m.run_sgd) {
    FlConfig cfg = base;
    cfg.global_lr = config.global_lr_sgd;
    UldpSgdTrainer alg(data, model, cfg);
    run(alg);
  }
  table.Print(std::cout);
  std::cout << "\n";
}

}  // namespace bench
}  // namespace uldp
