// Asynchronous staleness-bounded rounds: the update rule (discounting,
// rejection), determinism under injected arrival schedules, bitwise
// equality with the synchronous engine at max_staleness = 0 (threaded,
// scheduled, and over transports), thread-count invariance, and
// multi-round distributed protocol runs matching the in-process one.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/private_weighting.h"
#include "core/uldp_avg.h"
#include "core/uldp_group.h"
#include "core/uldp_naive.h"
#include "core/uldp_sgd.h"
#include "data/allocation.h"
#include "data/synthetic.h"
#include "fl/fedavg.h"
#include "fl/round_engine.h"
#include "net/async_rounds.h"
#include "net/demo.h"
#include "net/messages.h"
#include "net/protocol_node.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace uldp {
namespace {

constexpr uint64_t kWorkSeed = 77;
constexpr double kStepScale = 0.25;

FederatedDataset MakeFederated(int n_train, int users, int silos,
                               uint64_t seed) {
  Rng rng(seed);
  auto data = MakeCreditcardLike(n_train, 100, rng);
  AllocationOptions opt;
  opt.kind = AllocationKind::kZipf;
  EXPECT_TRUE(AllocateUsersAndSilos(data.train, users, silos, opt, rng).ok());
  return FederatedDataset(data.train, data.test, users, silos);
}

/// Deterministic, model-free silo work shared by every driver under test.
RoundEngine::SiloWork DemoEngineWork(int dim) {
  return [dim](int version, int silo, const Vec& snapshot, Model&,
               Vec& delta) {
    auto work = net::MakeAsyncDemoWork(kWorkSeed, silo, dim);
    Vec out;
    Status status = work(static_cast<uint64_t>(version), snapshot, &out);
    if (status.ok()) delta = std::move(out);
    return status;
  };
}

/// Synchronous barrier reference over the demo work.
Vec SyncReference(const Model& arch, int silos, int dim, int steps) {
  RoundEngineConfig config;
  config.num_threads = 2;
  RoundEngine engine(arch, silos, config, DemoEngineWork(dim));
  Vec global(dim, 0.0);
  for (int r = 0; r < steps; ++r) {
    auto total = engine.Step(r, global);
    EXPECT_TRUE(total.ok());
    Axpy(kStepScale, total.value(), global);
  }
  return global;
}

/// Async engine run over the demo work with the given async settings.
Result<Vec> AsyncEngineRun(const Model& arch, int silos, int dim, int steps,
                           RoundEngineConfig config, int threads,
                           AsyncStats* stats = nullptr) {
  config.num_threads = threads;
  config.async_rounds = true;
  RoundEngine engine(arch, silos, config, DemoEngineWork(dim));
  Vec global(dim, 0.0);
  for (int r = 0; r < steps; ++r) {
    auto total = engine.Step(r, global);
    if (!total.ok()) return total.status();
    Axpy(kStepScale, total.value(), global);
  }
  if (stats != nullptr) *stats = engine.async_stats();
  return global;
}

// ---------------------------------------------------------------------------
// Update rule

TEST(AsyncAggregatorTest, DiscountsByStalenessAndRejectsOverLimit) {
  AsyncAggregator agg(/*num_silos=*/3, /*max_staleness=*/1,
                      /*buffer_size=*/2);
  EXPECT_EQ(agg.Offer(0, 0, Vec{2.0, 4.0}), 0);
  EXPECT_EQ(agg.Offer(1, 0, Vec{1.0, 1.0}), 0);
  ASSERT_TRUE(agg.ReadyToFlush());
  Vec first = agg.Flush(false, 0, nullptr);
  EXPECT_EQ(first, (Vec{3.0, 5.0}));  // fresh deltas are untouched
  EXPECT_EQ(agg.version(), 1);

  // Silo 2's version-0 task lands one step late: discounted by 1/2.
  EXPECT_EQ(agg.Offer(2, 0, Vec{2.0, 2.0}), 1);
  EXPECT_EQ(agg.Offer(0, 1, Vec{1.0, 0.0}), 0);
  Vec second = agg.Flush(false, 1, nullptr);
  EXPECT_EQ(second, (Vec{2.0, 1.0}));  // 1/2 * (2,2) + (1,0)

  // A version-0 task at version 2 is 2 > max_staleness stale: rejected.
  EXPECT_EQ(agg.Offer(1, 0, Vec{9.0, 9.0}), -1);
  EXPECT_EQ(agg.stats().rejected, 1);
  EXPECT_EQ(agg.stats().applied, 4);
  EXPECT_EQ(agg.stats().max_staleness_seen, 1);
}

TEST(AsyncAggregatorTest, FlushOrderIsArrivalIndependent) {
  auto run = [](bool reversed) {
    AsyncAggregator agg(3, 0, 3);
    if (reversed) {
      agg.Offer(2, 0, Vec{0.3});
      agg.Offer(1, 0, Vec{0.2});
      agg.Offer(0, 0, Vec{0.1});
    } else {
      agg.Offer(0, 0, Vec{0.1});
      agg.Offer(1, 0, Vec{0.2});
      agg.Offer(2, 0, Vec{0.3});
    }
    return agg.Flush(false, 0, nullptr);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(StalenessDiscountTest, MatchesFedBuffPolynomial) {
  EXPECT_EQ(StalenessDiscount(0), 1.0);
  EXPECT_EQ(StalenessDiscount(1), 0.5);
  EXPECT_EQ(StalenessDiscount(3), 0.25);
}

TEST(AsyncNoiseMarginTest, BarrierIsExactlyOneElseConservative) {
  FlConfig sync_config;
  EXPECT_EQ(AsyncNoiseMargin(sync_config, 4), 1.0);
  FlConfig barrier;
  barrier.async_rounds = true;  // K = |S|, max_staleness = 0
  EXPECT_EQ(AsyncNoiseMargin(barrier, 4), 1.0);
  FlConfig partial = barrier;
  partial.async_buffer = 1;
  partial.max_staleness = 1;
  // (1 + 1) * sqrt(4 / 1): the worst 1-share flush, maximally discounted,
  // still carries the charged sigma * C of noise.
  EXPECT_DOUBLE_EQ(AsyncNoiseMargin(partial, 4), 4.0);
}

// ---------------------------------------------------------------------------
// Injected arrival schedules (fully deterministic async runs)

TEST(AsyncEngineTest, InOrderScheduleAtZeroStalenessMatchesSync) {
  auto arch = MakeMlp({5}, 2);
  const int silos = 3, steps = 3;
  const int dim = static_cast<int>(arch->NumParams());
  Vec reference = SyncReference(*arch, silos, dim, steps);
  RoundEngineConfig options;
  for (int r = 0; r < steps; ++r) {
    for (int s = 0; s < silos; ++s) options.arrival_schedule.push_back(s);
  }
  auto out = AsyncEngineRun(*arch, silos, dim, steps, options, 1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), reference);
}

TEST(AsyncEngineTest, ReversedScheduleAtZeroStalenessMatchesSync) {
  auto arch = MakeMlp({5}, 2);
  const int silos = 3, steps = 3;
  const int dim = static_cast<int>(arch->NumParams());
  Vec reference = SyncReference(*arch, silos, dim, steps);
  RoundEngineConfig options;
  for (int r = 0; r < steps; ++r) {
    for (int s = silos - 1; s >= 0; --s) options.arrival_schedule.push_back(s);
  }
  auto out = AsyncEngineRun(*arch, silos, dim, steps, options, 1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), reference);
}

TEST(AsyncEngineTest, BoundedStaleScheduleDiscountsAndIsDeterministic) {
  auto arch = MakeMlp({5}, 2);
  const int silos = 3, steps = 3;
  const int dim = static_cast<int>(arch->NumParams());
  // Fast silos 1,2 fill each step's buffer of 2; silo 0's task from the
  // previous version lands one step late each time (staleness 1).
  RoundEngineConfig options;
  options.max_staleness = 1;
  options.async_buffer = 2;
  options.arrival_schedule = {1, 2, /*step 1:*/ 0, 1, /*step 2:*/ 2, 0};
  AsyncStats stats;
  auto out = AsyncEngineRun(*arch, silos, dim, steps, options, 1, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.applied, 6);
  EXPECT_EQ(stats.max_staleness_seen, 1);
  // Stale contributions are discounted, so the trajectory differs from
  // the synchronous barrier...
  EXPECT_NE(out.value(), SyncReference(*arch, silos, dim, steps));
  // ...but the schedule pins every choice: a replay is bitwise identical.
  auto replay = AsyncEngineRun(*arch, silos, dim, steps, options, 1);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(out.value(), replay.value());
}

TEST(AsyncEngineTest, OverLimitArrivalIsRejectedAndRetrained) {
  auto arch = MakeMlp({5}, 2);
  const int silos = 3, steps = 2;
  const int dim = static_cast<int>(arch->NumParams());
  // max_staleness = 0 with a buffer of 2: silo 0's version-0 task arrives
  // after the version already advanced — rejected, retrained at version 1,
  // and its fresh task fills step 1's buffer.
  RoundEngineConfig options;
  options.max_staleness = 0;
  options.async_buffer = 2;
  options.arrival_schedule = {1, 2, /*stale:*/ 0, /*retrained:*/ 0, 1};
  AsyncStats stats;
  auto out = AsyncEngineRun(*arch, silos, dim, steps, options, 1, &stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.applied, 4);
  EXPECT_EQ(stats.max_staleness_seen, 0);
}

TEST(AsyncEngineTest, InvalidAsyncSettingsAreClearErrors) {
  auto arch = MakeMlp({5}, 2);
  const int dim = static_cast<int>(arch->NumParams());
  // Silo 0 cannot arrive twice without a re-release in between.
  RoundEngineConfig options;
  options.arrival_schedule = {0, 0, 1};
  EXPECT_FALSE(AsyncEngineRun(*arch, 3, dim, 1, options, 1).ok());
  // A schedule that runs dry is an error, not a hang.
  RoundEngineConfig dry;
  dry.arrival_schedule = {0};
  EXPECT_FALSE(AsyncEngineRun(*arch, 3, dim, 1, dry, 1).ok());
  // Out-of-range settings fail the first step with a Status.
  RoundEngineConfig wide;
  wide.async_buffer = 4;
  EXPECT_EQ(AsyncEngineRun(*arch, 3, dim, 1, wide, 2).status().code(),
            StatusCode::kInvalidArgument);
  RoundEngineConfig negative;
  negative.max_staleness = -1;
  EXPECT_EQ(AsyncEngineRun(*arch, 3, dim, 1, negative, 2).status().code(),
            StatusCode::kInvalidArgument);
  RoundEngineConfig unknown_silo;
  unknown_silo.arrival_schedule = {3};
  EXPECT_EQ(AsyncEngineRun(*arch, 3, dim, 1, unknown_silo, 1).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Threaded mode: sync equivalence and thread-count invariance

TEST(AsyncEngineTest, ThreadedBarrierMatchesSyncAcrossThreadCounts) {
  auto arch = MakeMlp({5}, 2);
  const int silos = 5, steps = 3;
  const int dim = static_cast<int>(arch->NumParams());
  Vec reference = SyncReference(*arch, silos, dim, steps);
  for (int threads : {1, 2, 5}) {
    auto out = AsyncEngineRun(*arch, silos, dim, steps, RoundEngineConfig{},
                              threads);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), reference) << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Trainer plumbing: every trainer's async barrier run equals its sync run

template <typename MakeTrainer>
Vec TrainerTrajectory(const MakeTrainer& make, const Model& arch, int rounds) {
  auto model = arch.Clone();
  Rng init(5);
  model->InitParams(init);
  Vec global = model->GetParams();
  auto trainer = make();
  for (int r = 0; r < rounds; ++r) {
    EXPECT_TRUE(trainer->RunRound(r, global).ok());
  }
  return global;
}

TEST(AsyncTrainerTest, AllTrainersBarrierAsyncMatchesSync) {
  auto fd = MakeFederated(400, 8, 3, 41);
  auto arch = MakeMlp({30}, 2);
  FlConfig base;
  base.seed = 91;
  base.sigma = 2.0;
  base.num_threads = 3;
  FlConfig async = base;
  async.async_rounds = true;  // max_staleness 0, full buffer: the barrier

  auto check = [&](auto make_with) {
    Vec sync_run = TrainerTrajectory([&] { return make_with(base); },
                                     *arch, 2);
    Vec async_run = TrainerTrajectory([&] { return make_with(async); },
                                      *arch, 2);
    EXPECT_EQ(sync_run, async_run);
  };
  check([&](const FlConfig& c) {
    return std::make_unique<FedAvgTrainer>(fd, *arch, c);
  });
  check([&](const FlConfig& c) {
    return std::make_unique<UldpNaiveTrainer>(fd, *arch, c);
  });
  check([&](const FlConfig& c) {
    return std::make_unique<UldpGroupTrainer>(fd, *arch, c,
                                              GroupSizeSpec::Fixed(4), 0.3,
                                              3);
  });
  check([&](const FlConfig& c) {
    return std::make_unique<UldpSgdTrainer>(
        fd, *arch, c, WeightingStrategy::kEnhanced, /*q=*/0.7);
  });
  check([&](const FlConfig& c) {
    UldpAvgOptions opt;
    opt.weighting = WeightingStrategy::kEnhanced;
    opt.user_sample_rate = 0.8;
    return std::make_unique<UldpAvgTrainer>(fd, *arch, c, opt);
  });
}

TEST(AsyncTrainerTest, StalenessBoundedTrainerIsDeterministicPerConfig) {
  // A threaded staleness-bounded run is timing-dependent by design, but a
  // barrier-buffered one (K = silos) only ever applies fresh updates, so
  // it must still match sync even with slack in the bound.
  auto fd = MakeFederated(300, 6, 3, 42);
  auto arch = MakeMlp({30}, 2);
  FlConfig sync_config;
  sync_config.seed = 93;
  FlConfig async = sync_config;
  async.async_rounds = true;
  async.max_staleness = 2;  // slack unused: the full buffer is a barrier
  Vec sync_run = TrainerTrajectory(
      [&] { return std::make_unique<FedAvgTrainer>(fd, *arch, sync_config); },
      *arch, 2);
  Vec async_run = TrainerTrajectory(
      [&] { return std::make_unique<FedAvgTrainer>(fd, *arch, async); },
      *arch, 2);
  EXPECT_EQ(sync_run, async_run);
}

TEST(AsyncTrainerTest, InvalidAsyncSettingsFailTheFirstRound) {
  auto fd = MakeFederated(300, 6, 3, 42);
  auto arch = MakeMlp({30}, 2);
  FlConfig config;
  config.async_rounds = true;
  config.async_buffer = 4;  // more than the 3 silos
  UldpAvgTrainer trainer(fd, *arch, config);
  Vec global(arch->NumParams(), 0.0);
  EXPECT_EQ(trainer.RunRound(0, global).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Transport-backed async rounds

Vec RunTransportAsync(int silos, int dim, int steps,
                      std::vector<std::unique_ptr<net::Transport>> server_ends,
                      std::vector<std::unique_ptr<net::Transport>> silo_ends) {
  net::AsyncRoundsConfig config;
  config.step_scale = kStepScale;
  config.seed = kWorkSeed;
  std::vector<std::thread> threads;
  std::vector<Status> silo_status(silos, Status::Ok());
  for (int s = 0; s < silos; ++s) {
    threads.emplace_back([&, s] {
      silo_status[s] =
          net::RunAsyncDemoSilo(config, s, silos, dim, *silo_ends[s]);
    });
  }
  net::AsyncRoundServer server(config, silos, dim);
  for (auto& end : server_ends) {
    EXPECT_TRUE(server.AddConnection(std::move(end)).ok());
  }
  auto out = server.Run(steps, Vec(dim, 0.0));
  for (auto& t : threads) t.join();
  for (const Status& s : silo_status) EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? out.value() : Vec();
}

TEST(AsyncNetTest, ChannelTransportBarrierMatchesSyncEngine) {
  auto arch = MakeMlp({5}, 2);
  const int silos = 3, steps = 3;
  const int dim = static_cast<int>(arch->NumParams());
  std::vector<std::unique_ptr<net::Transport>> server_ends, silo_ends;
  for (int s = 0; s < silos; ++s) {
    auto [a, b] = net::ChannelTransport::CreatePair();
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  Vec out = RunTransportAsync(silos, dim, steps, std::move(server_ends),
                              std::move(silo_ends));
  EXPECT_EQ(out, SyncReference(*arch, silos, dim, steps));
}

TEST(AsyncNetTest, LoopbackTcpBarrierMatchesSyncEngine) {
  auto arch = MakeMlp({5}, 2);
  const int silos = 2, steps = 2;
  const int dim = static_cast<int>(arch->NumParams());
  auto listener = net::TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::vector<std::unique_ptr<net::Transport>> server_ends, silo_ends;
  for (int s = 0; s < silos; ++s) {
    auto client = net::TcpTransport::Connect("127.0.0.1",
                                             listener.value().port());
    ASSERT_TRUE(client.ok());
    silo_ends.push_back(std::move(client.value()));
    auto accepted = listener.value().Accept();
    ASSERT_TRUE(accepted.ok());
    server_ends.push_back(std::move(accepted.value()));
  }
  Vec out = RunTransportAsync(silos, dim, steps, std::move(server_ends),
                              std::move(silo_ends));
  EXPECT_EQ(out, SyncReference(*arch, silos, dim, steps));
}

/// Current value of a counter in the global metrics registry.
uint64_t GlobalCounter(const std::string& name) {
  for (const obs::MetricSnapshot& m :
       obs::MetricsRegistry::Global().Snapshot()) {
    if (m.kind == obs::MetricSnapshot::Kind::kCounter && m.name == name) {
      return m.counter_value;
    }
  }
  return 0;
}

TEST(AsyncNetTest, AckPastTheStalenessBoundIsRejectedAndReleasedAgain) {
  // 2 silos, max_staleness 0, a buffer of 1, 2 steps. Silo 0's version-0
  // ack flushes step 0. Fake silo 1 answers its version-0 release only once
  // silo 0 has pulled version 1, so the server rejects that ack and
  // releases silo 1 again at version 1; its version-1 ack flushes the last
  // step. Silo 0's version-1 task is held until silo 1 reads its Shutdown,
  // so the server drains that task's ack at the end of the run.
  const int silos = 2, dim = 4, steps = 2;
  net::AsyncRoundsConfig config;
  config.step_scale = kStepScale;
  config.seed = kWorkSeed;
  config.max_staleness = 0;
  config.buffer_size = 1;
  std::vector<std::unique_ptr<net::Transport>> server_ends, silo_ends;
  for (int s = 0; s < silos; ++s) {
    auto [a, b] = net::ChannelTransport::CreatePair();
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  std::promise<void> pulled_v1, shutdown_seen;
  std::future<void> pulled = pulled_v1.get_future();
  std::future<void> freed = shutdown_seen.get_future();
  Status silo0_status, silo1_status;
  std::thread silo0([&] {
    net::AsyncRoundClient client(config, 0, silos, dim);
    auto work = net::MakeAsyncDemoWork(kWorkSeed, 0, dim);
    bool signalled = false;
    silo0_status = client.Run(
        *silo_ends[0], [&](uint64_t version, const Vec& params, Vec* delta) {
          if (version == 1) {
            signalled = true;
            pulled_v1.set_value();
            freed.wait();
          }
          return work(version, params, delta);
        });
    if (!signalled) pulled_v1.set_value();  // never leave silo 1 waiting
  });
  std::thread silo1([&] {
    net::Transport& t = *silo_ends[1];
    auto work = net::MakeAsyncDemoWork(kWorkSeed, 1, dim);
    silo1_status = [&]() -> Status {
      net::JoinMsg join;
      join.silo_id = 1;
      join.num_silos = silos;
      join.num_users = dim;
      join.config_digest = net::AsyncRoundsWireDigest(config, silos, dim);
      ULDP_RETURN_IF_ERROR(t.Send(net::ToFrame(join)));
      bool waited = false;
      for (;;) {
        auto frame = net::UnwrapErrorFrame(t.Recv(), "server");
        if (!frame.ok()) return frame.status();
        if (frame.value().type ==
            static_cast<uint16_t>(net::MessageType::kShutdown)) {
          return Status::Ok();
        }
        auto info = net::FromFrame<net::StalenessInfoMsg>(frame.value());
        if (!info.ok()) return info.status();
        if (!waited) pulled.wait();
        waited = true;
        net::RoundAckMsg ack;
        ack.version = info.value().version;
        ack.silo_id = 1;
        ULDP_RETURN_IF_ERROR(
            work(ack.version, info.value().params, &ack.delta));
        ULDP_RETURN_IF_ERROR(t.Send(net::ToFrame(ack)));
      }
    }();
    shutdown_seen.set_value();
  });

  const uint64_t rejected_before = GlobalCounter("fl.async.rejected");
  net::AsyncRoundServer server(config, silos, dim);
  for (auto& end : server_ends) {
    ASSERT_TRUE(server.AddConnection(std::move(end)).ok());
  }
  auto out = server.Run(steps, Vec(dim, 0.0));
  silo0.join();
  silo1.join();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(silo0_status.ok()) << silo0_status.ToString();
  EXPECT_TRUE(silo1_status.ok()) << silo1_status.ToString();
  EXPECT_EQ(server.stats().rejected, 1);
  EXPECT_EQ(server.stats().applied, 2);
  EXPECT_EQ(server.stats().steps, steps);
  EXPECT_EQ(GlobalCounter("fl.async.rejected") - rejected_before, 1u);

  // Serial replay of that arrival order: silo 0 at version 0, silo 1's
  // version-0 ack (rejected), then silo 1 at version 1.
  AsyncAggregator agg(silos, /*max_staleness=*/0, /*buffer_size=*/1);
  Vec ref(dim, 0.0);
  Vec delta;
  ASSERT_TRUE(net::MakeAsyncDemoWork(kWorkSeed, 0, dim)(0, ref, &delta).ok());
  ASSERT_EQ(agg.Offer(0, 0, delta), 0);
  Axpy(kStepScale, agg.Flush(false, 0, nullptr), ref);
  EXPECT_EQ(agg.Offer(1, 0, delta), -1);
  ASSERT_TRUE(net::MakeAsyncDemoWork(kWorkSeed, 1, dim)(1, ref, &delta).ok());
  ASSERT_EQ(agg.Offer(1, 1, delta), 0);
  Axpy(kStepScale, agg.Flush(false, 1, nullptr), ref);
  EXPECT_EQ(out.value(), ref);
}

TEST(AsyncNetTest, MismatchedConfigDigestIsRejectedAtJoin) {
  net::AsyncRoundsConfig server_config;
  server_config.seed = 1;
  net::AsyncRoundsConfig client_config;
  client_config.seed = 2;  // different work seed -> different digest
  auto [a, b] = net::ChannelTransport::CreatePair();
  net::AsyncRoundServer server(server_config, 1, 4);
  std::thread client_thread([&] {
    net::AsyncRoundClient client(client_config, 0, 1, 4);
    EXPECT_FALSE(
        client.Run(*b, net::MakeAsyncDemoWork(client_config.seed, 0, 4)).ok());
  });
  EXPECT_FALSE(server.AddConnection(std::move(a)).ok());
  client_thread.join();
}

// ---------------------------------------------------------------------------
// Multi-round distributed protocol

TEST(DistributedProtocolTest, MultiRoundChannelRunMatchesInProcess) {
  // Consecutive distributed rounds, with a different sampling mask every
  // round, must match the in-process simulation bitwise — the transport
  // subsystem's core invariant.
  const int silos = 2, users = 4, dim = 4, rounds = 3;
  ProtocolConfig config;
  config.paillier_bits = 512;
  config.n_max = 20;
  config.seed = 55;
  auto mask_of = [&](int r) {
    std::vector<bool> mask(users, true);
    mask[r % users] = false;
    return mask;
  };
  net::DemoInputs in = net::MakeDemoInputs(2027, silos, users, dim);
  PrivateWeightingProtocol protocol(config, silos, users);
  ASSERT_TRUE(protocol.Setup(in.histograms).ok());
  std::vector<Vec> reference;
  for (int r = 0; r < rounds; ++r) {
    auto out = protocol.WeightingRound(static_cast<uint64_t>(r), in.deltas,
                                       in.noise, mask_of(r));
    ASSERT_TRUE(out.ok());
    reference.push_back(std::move(out.value()));
  }

  std::vector<std::unique_ptr<net::Transport>> server_ends, silo_ends;
  for (int s = 0; s < silos; ++s) {
    auto [a, b] = net::ChannelTransport::CreatePair();
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  std::vector<std::thread> threads;
  std::vector<Status> silo_status(silos, Status::Ok());
  for (int s = 0; s < silos; ++s) {
    threads.emplace_back([&, s] {
      silo_status[s] = net::RunDemoSilo(config, s, silos, users, dim, 2027,
                                        *silo_ends[s]);
    });
  }
  net::ProtocolServer server(config, silos, users);
  for (auto& end : server_ends) {
    EXPECT_TRUE(server.AddConnection(std::move(end)).ok());
  }
  EXPECT_TRUE(server.RunSetup().ok());
  std::vector<Vec> outs;
  for (int r = 0; r < rounds; ++r) {
    auto out = server.RunRound(static_cast<uint64_t>(r), mask_of(r));
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    outs.push_back(out.ok() ? out.value() : Vec());
  }
  EXPECT_TRUE(server.Shutdown().ok());
  for (auto& t : threads) t.join();
  for (const Status& s : silo_status) EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(outs, reference);
}

}  // namespace
}  // namespace uldp
