#include "core/experiment.h"

#include <cmath>
#include <iostream>

#include "common/check.h"
#include "common/table.h"
#include "fl/session.h"
#include "nn/metrics.h"

namespace uldp {

namespace {

/// Binds `algorithm` to `session` (FlAlgorithm::BindSession) and unbinds
/// it on every return, since the session lives in the caller's frame.
class SessionBinding {
 public:
  SessionBinding(FlAlgorithm& algorithm, SessionState* session)
      : algorithm_(algorithm) {
    algorithm_.BindSession(session);
  }
  ~SessionBinding() { algorithm_.BindSession(nullptr); }
  SessionBinding(const SessionBinding&) = delete;
  SessionBinding& operator=(const SessionBinding&) = delete;

 private:
  FlAlgorithm& algorithm_;
};

}  // namespace

Result<std::vector<RoundRecord>> RunExperiment(
    FlAlgorithm& algorithm, Model& eval_model, const FederatedDataset& data,
    const ExperimentConfig& config) {
  if (config.rounds < 1) {
    return Status::InvalidArgument("rounds must be >= 1");
  }
  if (data.test_examples().empty()) {
    return Status::InvalidArgument("dataset has no test examples");
  }
  if (config.resume && config.checkpoint_dir.empty()) {
    return Status::InvalidArgument("resume requires a checkpoint directory");
  }
  Rng init_rng(config.init_seed);
  eval_model.InitParams(init_rng);
  Vec global = eval_model.GetParams();

  const std::string ckpt_path =
      config.checkpoint_dir.empty() ? std::string()
                                    : config.checkpoint_dir + "/session.ckpt";
  // What checkpoints write: seed, dim, round and model from here, and the
  // async counters, which the trainer's engine mirrors in while bound.
  SessionState session;
  session.seed = config.init_seed;
  session.dim = static_cast<uint32_t>(global.size());
  int start_round = 0;
  if (config.resume) {
    auto state = SessionState::ReadFile(ckpt_path);
    if (!state.ok()) return state.status();
    if (state.value().seed != config.init_seed) {
      return Status::InvalidArgument(
          "checkpoint init seed " + std::to_string(state.value().seed) +
          " does not match the experiment's " +
          std::to_string(config.init_seed));
    }
    if (state.value().model.size() != global.size()) {
      return Status::InvalidArgument(
          "checkpoint model dimension does not match this experiment");
    }
    session = std::move(state.value());
    global = session.model;
    start_round = static_cast<int>(session.round);
    // The restored model already paid for its rounds; replay them into the
    // trainer's accountant so reported epsilon stays cumulative.
    algorithm.AccountRestoredRounds(start_round);
  }
  // Async rounds adopt the restored counters before their first step, so
  // a resumed run reports the uninterrupted run's totals.
  SessionBinding binding(algorithm, &session);

  std::vector<RoundRecord> trace;
  trace.reserve(config.rounds / std::max(1, config.eval_every) + 1);
  for (int round = start_round; round < config.rounds; ++round) {
    ULDP_RETURN_IF_ERROR(algorithm.RunRound(round, global));
    if (!config.checkpoint_dir.empty() && config.checkpoint_every > 0 &&
        ((round + 1) % config.checkpoint_every == 0 ||
         round + 1 == config.rounds)) {
      session.round = static_cast<uint64_t>(round + 1);
      session.model = global;
      ULDP_RETURN_IF_ERROR(session.WriteFile(ckpt_path));
    }
    if ((round + 1) % std::max(1, config.eval_every) != 0 &&
        round + 1 != config.rounds) {
      continue;
    }
    eval_model.SetParams(global);
    RoundRecord rec;
    rec.round = round + 1;
    rec.test_loss = MeanLoss(eval_model, data.test_examples());
    rec.utility = config.metric == UtilityMetric::kAccuracy
                      ? Accuracy(eval_model, data.test_examples())
                      : CIndex(eval_model, data.test_examples());
    auto eps = algorithm.EpsilonSpent(config.delta);
    if (!eps.ok()) return eps.status();
    rec.epsilon = eps.value();
    trace.push_back(rec);
  }
  return trace;
}

Result<std::vector<AveragedRoundRecord>> RunExperimentAveraged(
    const AlgorithmFactory& factory, Model& eval_model,
    const FederatedDataset& data, const ExperimentConfig& config,
    int num_seeds, uint64_t base_seed) {
  if (num_seeds < 1) {
    return Status::InvalidArgument("num_seeds must be >= 1");
  }
  std::vector<std::vector<RoundRecord>> traces;
  traces.reserve(num_seeds);
  for (int s = 0; s < num_seeds; ++s) {
    uint64_t seed = base_seed + static_cast<uint64_t>(s);
    std::unique_ptr<FlAlgorithm> algorithm = factory(seed);
    if (algorithm == nullptr) {
      return Status::InvalidArgument("algorithm factory returned null");
    }
    ExperimentConfig per_seed = config;
    per_seed.init_seed = config.init_seed + seed;
    auto trace = RunExperiment(*algorithm, eval_model, data, per_seed);
    if (!trace.ok()) return trace.status();
    if (!traces.empty() && trace.value().size() != traces[0].size()) {
      return Status::Internal("trace length mismatch across seeds");
    }
    traces.push_back(std::move(trace.value()));
  }
  std::vector<AveragedRoundRecord> out(traces[0].size());
  const double inv = 1.0 / num_seeds;
  for (size_t i = 0; i < out.size(); ++i) {
    AveragedRoundRecord& rec = out[i];
    rec.round = traces[0][i].round;
    rec.epsilon = traces[0][i].epsilon;
    for (const auto& t : traces) {
      rec.mean_loss += t[i].test_loss * inv;
      rec.mean_utility += t[i].utility * inv;
    }
    for (const auto& t : traces) {
      double dl = t[i].test_loss - rec.mean_loss;
      double du = t[i].utility - rec.mean_utility;
      rec.std_loss += dl * dl * inv;
      rec.std_utility += du * du * inv;
    }
    rec.std_loss = std::sqrt(rec.std_loss);
    rec.std_utility = std::sqrt(rec.std_utility);
  }
  return out;
}

void PrintTrace(const std::string& label,
                const std::vector<RoundRecord>& trace) {
  Table table({"method", "round", "test_loss", "utility", "epsilon"});
  for (const RoundRecord& r : trace) {
    table.AddRow({label, std::to_string(r.round), FormatG(r.test_loss),
                  FormatG(r.utility), FormatG(r.epsilon)});
  }
  table.Print(std::cout);
}

void PrintAveragedTrace(const std::string& label,
                        const std::vector<AveragedRoundRecord>& trace) {
  Table table({"method", "round", "loss_mean", "loss_std", "utility_mean",
               "utility_std", "epsilon"});
  for (const AveragedRoundRecord& r : trace) {
    table.AddRow({label, std::to_string(r.round), FormatG(r.mean_loss),
                  FormatG(r.std_loss), FormatG(r.mean_utility),
                  FormatG(r.std_utility), FormatG(r.epsilon)});
  }
  table.Print(std::cout);
}

}  // namespace uldp
