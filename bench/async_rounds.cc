// Async-rounds bench: two sections, one JSON.
//
//  1. Straggler latency — the same silo work (one silo sleeping 2x the
//     others, injected compute time) run through the synchronous barrier
//     engine and the staleness-bounded async engine; reports seconds per
//     server step for both and their ratio (async_speedup). Under the 2x
//     straggler the async engine flushes on the fast silos' cadence, so
//     the speedup approaches 2 and the bench fails below 1.5.
//  2. Determinism — with max_staleness = 0 the async engine (threaded and
//     injected-schedule) and the transport-backed AsyncRoundServer over
//     ChannelTransport AND loopback TCP must all be bitwise identical to
//     the synchronous engine; any divergence sets the bitwise_divergence
//     flag and exits non-zero.
//
// Emits BENCH_async_rounds.json. ULDP_BENCH_SMOKE=1 shrinks the scale for
// CI; ULDP_BENCH_SCALE=full grows it.

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "bench_common.h"
#include "fl/round_engine.h"
#include "net/async_rounds.h"
#include "net/demo.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "nn/model.h"

namespace uldp {
namespace {

using Clock = std::chrono::steady_clock;
using net::AsyncRoundClient;
using net::AsyncRoundServer;
using net::AsyncRoundsConfig;
using net::ChannelTransport;
using net::TcpListener;
using net::TcpTransport;
using net::Transport;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr uint64_t kWorkSeed = 4242;

/// Engine-side adapter of the shared deterministic demo work with an
/// injected per-silo compute time (the straggler).
RoundEngine::SiloWork MakeEngineWork(int dim, double unit_seconds,
                                     int straggler_silo) {
  return [dim, unit_seconds, straggler_silo](int version, int silo,
                                             const Vec& snapshot, Model&,
                                             Vec& delta) {
    const double sleep =
        silo == straggler_silo ? 2.0 * unit_seconds : unit_seconds;
    auto work = net::MakeAsyncDemoWork(kWorkSeed, silo, dim, sleep);
    Vec out;
    Status status = work(static_cast<uint64_t>(version), snapshot, &out);
    if (status.ok()) delta = std::move(out);
    return status;
  };
}

/// Synchronous reference: the barrier engine on the same work.
Vec RunSyncEngine(const Model& arch, int silos, int dim, int steps,
                  double unit_seconds, int straggler, double step_scale,
                  double* seconds_per_step) {
  RoundEngineConfig config;
  config.num_threads = silos;  // sleeps must overlap, as real silos would
  RoundEngine engine(arch, silos, config,
                     MakeEngineWork(dim, unit_seconds, straggler));
  Vec global(dim, 0.0);
  auto t0 = Clock::now();
  for (int r = 0; r < steps; ++r) {
    auto total = engine.Step(r, global);
    if (!total.ok()) {
      std::cerr << total.status().ToString() << "\n";
      std::exit(1);
    }
    Axpy(step_scale, total.value(), global);
  }
  if (seconds_per_step != nullptr) {
    *seconds_per_step = SecondsSince(t0) / steps;
  }
  return global;
}

/// Async engine run (threaded unless a schedule is injected).
Vec RunAsyncEngine(const Model& arch, int silos, int dim, int steps,
                   double unit_seconds, int straggler, double step_scale,
                   RoundEngineConfig config, double* seconds_per_step,
                   AsyncStats* stats) {
  config.num_threads = silos;
  config.async_rounds = true;
  RoundEngine engine(arch, silos, config,
                     MakeEngineWork(dim, unit_seconds, straggler));
  Vec global(dim, 0.0);
  auto t0 = Clock::now();
  for (int r = 0; r < steps; ++r) {
    auto total = engine.Step(r, global);
    if (!total.ok()) {
      std::cerr << total.status().ToString() << "\n";
      std::exit(1);
    }
    Axpy(step_scale, total.value(), global);
  }
  if (seconds_per_step != nullptr) {
    *seconds_per_step = SecondsSince(t0) / steps;
  }
  if (stats != nullptr) *stats = engine.async_stats();
  return global;
}

/// Transport-backed async run at max_staleness = 0 (the deterministic
/// barrier case), returning the final parameters.
Vec RunTransportAsync(int silos, int dim, int steps, double step_scale,
                      std::vector<std::unique_ptr<Transport>> server_ends,
                      std::vector<std::unique_ptr<Transport>> silo_ends,
                      double* seconds_per_step) {
  AsyncRoundsConfig config;
  config.max_staleness = 0;
  config.buffer_size = 0;
  config.step_scale = step_scale;
  config.seed = kWorkSeed;
  std::vector<std::thread> threads;
  std::vector<Status> silo_status(silos, Status::Ok());
  for (int s = 0; s < silos; ++s) {
    threads.emplace_back([&, s] {
      silo_status[s] =
          net::RunAsyncDemoSilo(config, s, silos, dim, *silo_ends[s]);
    });
  }
  AsyncRoundServer server(config, silos, dim);
  for (auto& end : server_ends) {
    Status added = server.AddConnection(std::move(end));
    if (!added.ok()) {
      std::cerr << added.ToString() << "\n";
      std::exit(1);
    }
  }
  auto t0 = Clock::now();
  auto out = server.Run(steps, Vec(dim, 0.0));
  if (seconds_per_step != nullptr) {
    *seconds_per_step = SecondsSince(t0) / steps;
  }
  for (auto& t : threads) t.join();
  for (const Status& s : silo_status) {
    if (!s.ok()) {
      std::cerr << "async silo: " << s.ToString() << "\n";
      std::exit(1);
    }
  }
  if (!out.ok()) {
    std::cerr << out.status().ToString() << "\n";
    std::exit(1);
  }
  return out.value();
}

int Run() {
  const bool smoke = std::getenv("ULDP_BENCH_SMOKE") != nullptr;
  const int silos = smoke ? 3 : bench::Scaled(3, 5);
  const int steps = smoke ? 6 : bench::Scaled(10, 20);
  const double unit_seconds = smoke ? 0.05 : bench::Scaled(0.05, 0.2);
  const double step_scale = 1.0 / silos;
  const int straggler = 0;

  // dim = parameter count of a small model so the engine sections and the
  // transport sections exercise identical shapes.
  auto arch = MakeMlp({31}, 2);
  const int dim = static_cast<int>(arch->NumParams());

  std::cout << "async_rounds bench: " << silos << " silos, dim " << dim
            << ", " << steps << " steps, unit " << unit_seconds
            << " s, silo " << straggler << " is a 2x straggler\n";

  bench::BenchJson json("async_rounds");
  bool divergence = false;

  // -- 1. Straggler latency: sync barrier vs staleness-bounded async ------
  double sync_s = 0.0, async_s = 0.0;
  Vec sync_straggler = RunSyncEngine(*arch, silos, dim, steps, unit_seconds,
                                     straggler, step_scale, &sync_s);
  RoundEngineConfig fast;
  fast.max_staleness = 2;
  fast.async_buffer = silos - 1;  // flush on the fast silos' cadence
  AsyncStats stats;
  RunAsyncEngine(*arch, silos, dim, steps, unit_seconds, straggler,
                 step_scale, fast, &async_s, &stats);
  const double speedup = async_s > 0.0 ? sync_s / async_s : 0.0;
  json.Add("round_seconds", sync_s, {{"mode", "sync"}});
  json.Add("round_seconds", async_s, {{"mode", "async"}});
  json.Add("async_speedup", speedup);
  json.Add("async_applied", static_cast<double>(stats.applied));
  json.Add("async_rejected", static_cast<double>(stats.rejected));
  std::cout << "  straggler: sync " << sync_s << " s/step, async " << async_s
            << " s/step, speedup " << speedup << "x (applied "
            << stats.applied << ", rejected " << stats.rejected << ")\n";
  if (speedup < 1.5) {
    std::cerr << "FATAL: async speedup " << speedup
              << "x under a 2x straggler is below the 1.5x bar\n";
    return 1;
  }

  // -- 2. Determinism at max_staleness = 0 --------------------------------
  // No injected sleep: this section is about bit equality, not latency.
  Vec reference = RunSyncEngine(*arch, silos, dim, steps, 0.0, -1,
                                step_scale, nullptr);
  RoundEngineConfig barrier;  // max_staleness 0, full buffer
  Vec threaded = RunAsyncEngine(*arch, silos, dim, steps, 0.0, -1,
                                step_scale, barrier, nullptr, nullptr);
  RoundEngineConfig scheduled = barrier;
  for (int r = 0; r < steps; ++r) {
    for (int s = silos - 1; s >= 0; --s) {  // reversed arrivals
      scheduled.arrival_schedule.push_back(s);
    }
  }
  Vec replayed = RunAsyncEngine(*arch, silos, dim, steps, 0.0, -1,
                                step_scale, scheduled, nullptr, nullptr);
  if (threaded != reference || replayed != reference) {
    std::cerr << "FATAL: async engine at max_staleness=0 diverges from the "
                 "synchronous engine\n";
    divergence = true;
  }

  double channel_s = 0.0, tcp_s = 0.0;
  {
    std::vector<std::unique_ptr<Transport>> server_ends, silo_ends;
    for (int s = 0; s < silos; ++s) {
      auto [a, b] = ChannelTransport::CreatePair();
      server_ends.push_back(std::move(a));
      silo_ends.push_back(std::move(b));
    }
    Vec out = RunTransportAsync(silos, dim, steps, step_scale,
                                std::move(server_ends), std::move(silo_ends),
                                &channel_s);
    if (out != reference) {
      std::cerr << "FATAL: channel-transport async run diverges from the "
                   "synchronous engine\n";
      divergence = true;
    }
  }
  {
    auto listener = TcpListener::Listen(0);
    if (!listener.ok()) {
      std::cerr << listener.status().ToString() << "\n";
      return 1;
    }
    std::vector<std::unique_ptr<Transport>> server_ends, silo_ends;
    for (int s = 0; s < silos; ++s) {
      auto client = TcpTransport::Connect("127.0.0.1",
                                          listener.value().port());
      if (!client.ok()) {
        std::cerr << client.status().ToString() << "\n";
        return 1;
      }
      silo_ends.push_back(std::move(client.value()));
      auto accepted = listener.value().Accept();
      if (!accepted.ok()) {
        std::cerr << accepted.status().ToString() << "\n";
        return 1;
      }
      server_ends.push_back(std::move(accepted.value()));
    }
    Vec out = RunTransportAsync(silos, dim, steps, step_scale,
                                std::move(server_ends), std::move(silo_ends),
                                &tcp_s);
    if (out != reference) {
      std::cerr << "FATAL: loopback-TCP async run diverges from the "
                   "synchronous engine\n";
      divergence = true;
    }
  }
  json.Add("round_seconds", channel_s, {{"mode", "channel_async"}});
  json.Add("round_seconds", tcp_s, {{"mode", "tcp_async"}});
  std::cout << "  determinism: engine/threaded/scheduled/channel/tcp at "
               "max_staleness=0 "
            << (divergence ? "DIVERGED" : "bitwise-identical") << " (channel "
            << channel_s << " s/step, tcp " << tcp_s << " s/step)\n";

  json.Add("bitwise_divergence", divergence ? 1.0 : 0.0);
  json.Write();
  std::cout << "wrote BENCH_async_rounds.json\n";
  return divergence ? 1 : 0;
}

}  // namespace
}  // namespace uldp

int main() { return uldp::Run(); }
