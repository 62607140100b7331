// The serializable session layer (fl/session.h): canonical round-trips,
// strict rejection of corrupted/truncated/version-mismatched checkpoints,
// atomic file round-trips, and checkpoint/resume bitwise identity — for
// every trainer under the local experiment runner (sync and async rounds,
// at several thread counts; the thread knob is a pure perf knob) and for
// the transport-backed async round server.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/uldp_avg.h"
#include "core/uldp_group.h"
#include "core/uldp_naive.h"
#include "core/uldp_sgd.h"
#include "data/allocation.h"
#include "data/synthetic.h"
#include "fl/fedavg.h"
#include "fl/session.h"
#include "net/async_rounds.h"
#include "net/demo.h"
#include "net/messages.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace uldp {
namespace {

constexpr uint64_t kWorkSeed = 77;
constexpr double kStepScale = 0.25;

SessionState MakePopulatedState() {
  SessionState s;
  s.seed = 42;
  s.dim = 3;
  s.round = 7;
  s.model = {1.5, -2.25, 0.125};
  {
    SiloMember& m = s.Upsert(0);
    m.status = SiloStatus::kActive;
    m.join_round = 0;
    m.last_version = 7;
    m.user_count = 4;
  }
  {
    SiloMember& m = s.Upsert(2);
    m.status = SiloStatus::kEvicted;
    m.join_round = 1;
    m.depart_round = 5;
    m.user_count = 2;
  }
  s.SealEpoch(0);
  s.SealEpoch(5);
  s.stats.applied = 12;
  s.stats.rejected = 1;
  s.stats.dropped = 2;
  s.stats.steps = 7;
  s.stats.max_staleness_seen = 1;
  return s;
}

std::string MakeTempDir() {
  char tmpl[] = "/tmp/uldp_session_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir != nullptr ? dir : std::string();
}

// ---------------------------------------------------------------------------
// Serialization

TEST(SessionSerializeTest, PopulatedStateRoundTrips) {
  SessionState state = MakePopulatedState();
  std::vector<uint8_t> bytes = state.Serialize();
  auto back = SessionState::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value() == state);
  // The encoding is canonical: re-serializing reproduces the exact bytes.
  EXPECT_EQ(back.value().Serialize(), bytes);
}

TEST(SessionSerializeTest, EmptyStateRoundTrips) {
  SessionState state;
  auto back = SessionState::Deserialize(state.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value() == state);
}

TEST(SessionSerializeTest, EverySingleByteCorruptionIsRejected) {
  std::vector<uint8_t> bytes = MakePopulatedState().Serialize();
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= 0x5A;
    EXPECT_FALSE(SessionState::Deserialize(corrupt).ok())
        << "flip at byte " << i << " was accepted";
  }
}

TEST(SessionSerializeTest, TruncationAndTrailingBytesAreRejected) {
  std::vector<uint8_t> bytes = MakePopulatedState().Serialize();
  for (size_t n : {size_t{0}, size_t{4}, size_t{7}, bytes.size() / 2,
                   bytes.size() - 1}) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + n);
    EXPECT_FALSE(SessionState::Deserialize(prefix).ok())
        << "prefix of " << n << " bytes was accepted";
  }
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(SessionState::Deserialize(padded).ok());
}

TEST(SessionSerializeTest, UnknownFormatVersionIsRejectedEvenWithValidDigest) {
  std::vector<uint8_t> bytes = MakePopulatedState().Serialize();
  // Patch the u16 format version (right after the 4-byte magic) to 2 and
  // re-digest the payload, so the ONLY defect is the version number.
  net::WireWriter version;
  version.U16(2);
  bytes[4] = version.buffer()[0];
  bytes[5] = version.buffer()[1];
  net::WireWriter trailer;
  trailer.U64(net::WireDigest(bytes.data(), bytes.size() - 8));
  std::copy(trailer.buffer().begin(), trailer.buffer().end(),
            bytes.end() - 8);
  auto back = SessionState::Deserialize(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("version"), std::string::npos)
      << back.status().ToString();
}

TEST(SessionSerializeTest, CraftedCountsAreRejectedEvenWithValidDigest) {
  // An empty model, then a member or epoch count no file could hold, then
  // the recomputed (public, unkeyed) digest. Both counts come before any
  // element they count, so they must be checked before anything is
  // reserved.
  for (bool epochs : {false, true}) {
    net::WireWriter w;
    for (char c : {'U', 'L', 'S', 'S'}) w.U8(static_cast<uint8_t>(c));
    w.U16(1);   // format version
    w.U64(42);  // seed
    w.U32(0);   // dim
    w.U64(0);   // round
    w.U64(0);   // membership epoch
    w.F64Vec({});
    if (epochs) w.U32(0);  // no members
    w.U32(0xFFFFFFFFu);
    w.U64(net::WireDigest(w.buffer()));
    auto back = SessionState::Deserialize(w.buffer());
    ASSERT_FALSE(back.ok()) << (epochs ? "epoch" : "member") << " count";
    EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(back.status().message().find(epochs ? "epoch" : "member"),
              std::string::npos)
        << back.status().ToString();
  }
}

TEST(SessionFileTest, WriteReadRoundTripsAndMissingFileIsNotFound) {
  std::string dir = MakeTempDir();
  ASSERT_FALSE(dir.empty());
  std::string path = dir + "/session.ckpt";
  EXPECT_EQ(SessionState::ReadFile(path).status().code(),
            StatusCode::kNotFound);

  SessionState state = MakePopulatedState();
  ASSERT_TRUE(state.WriteFile(path).ok());
  auto back = SessionState::ReadFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value() == state);

  // The write is atomic (tmp + rename): no .tmp file survives.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(path.c_str());
  std::remove(dir.c_str());
}

// ---------------------------------------------------------------------------
// Experiment-level checkpoint/resume (local runner, threaded trainers)

FederatedDataset MakeFederated(int n_train, int users, int silos,
                               uint64_t seed) {
  Rng rng(seed);
  auto data = MakeCreditcardLike(n_train, 100, rng);
  AllocationOptions opt;
  opt.kind = AllocationKind::kZipf;
  EXPECT_TRUE(AllocateUsersAndSilos(data.train, users, silos, opt, rng).ok());
  return FederatedDataset(data.train, data.test, users, silos);
}

using TrainerFactory =
    std::function<std::unique_ptr<FlAlgorithm>(const FlConfig&)>;

using CounterMap = std::map<std::string, uint64_t>;

/// The registry's fl.async.* counters, as a --metrics-out snapshot
/// reports them.
CounterMap AsyncCounters() {
  CounterMap out;
  for (const auto& m : obs::MetricsRegistry::Global().Snapshot()) {
    if (m.kind == obs::MetricSnapshot::Kind::kCounter &&
        m.name.rfind("fl.async.", 0) == 0) {
      out[m.name] = m.counter_value;
    }
  }
  return out;
}

/// The counters that grew since `before`, by how much.
CounterMap CountersSince(const CounterMap& before) {
  CounterMap out;
  for (const auto& [name, value] : AsyncCounters()) {
    auto it = before.find(name);
    const uint64_t gained = value - (it == before.end() ? 0 : it->second);
    if (gained != 0) out[name] = gained;
  }
  return out;
}

uint64_t CounterIn(const CounterMap& counters, const std::string& name) {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

struct ResumeTraces {
  std::vector<RoundRecord> full;  // the uninterrupted run
  std::vector<RoundRecord> tail;  // the resumed run's rounds
  /// The async counters each run checkpointed at its last round: its
  /// engine's AsyncStats, mirrored into the bound session.
  SessionStats full_stats;
  SessionStats tail_stats;
  /// The fl.async.* registry counters each run reported.
  CounterMap full_counters;
  CounterMap tail_counters;
};

/// Runs `rounds` rounds uninterrupted; then runs the first `interrupt_at`
/// rounds, checkpointing into `dir` on the way out, and resumes a FRESH
/// trainer from that checkpoint up to `rounds`. The uninterrupted and the
/// resumed run each checkpoint their last round too.
ResumeTraces RunAndResume(const TrainerFactory& make, const FlConfig& fl,
                          Model& arch, const FederatedDataset& fd,
                          const std::string& dir, int rounds,
                          int interrupt_at) {
  ResumeTraces out;
  const std::string ckpt = dir + "/session.ckpt";
  auto last_stats = [&] {
    auto state = SessionState::ReadFile(ckpt);
    EXPECT_TRUE(state.ok()) << state.status().ToString();
    return state.ok() ? state.value().stats : SessionStats{};
  };
  ExperimentConfig direct;
  direct.rounds = rounds;
  direct.eval_every = 1;
  direct.checkpoint_dir = dir;
  direct.checkpoint_every = rounds;
  CounterMap before = AsyncCounters();
  auto full = RunExperiment(*make(fl), arch, fd, direct);
  EXPECT_TRUE(full.ok()) << full.status().ToString();
  if (!full.ok()) return out;
  out.full = std::move(full.value());
  out.full_counters = CountersSince(before);
  out.full_stats = last_stats();

  ExperimentConfig first = direct;
  first.rounds = interrupt_at;
  first.checkpoint_every = interrupt_at;
  auto head = RunExperiment(*make(fl), arch, fd, first);
  EXPECT_TRUE(head.ok()) << head.status().ToString();

  ExperimentConfig second = direct;
  second.resume = true;
  before = AsyncCounters();
  auto tail = RunExperiment(*make(fl), arch, fd, second);
  EXPECT_TRUE(tail.ok()) << tail.status().ToString();
  if (tail.ok()) out.tail = std::move(tail.value());
  out.tail_counters = CountersSince(before);
  out.tail_stats = last_stats();
  return out;
}

TEST(SessionResumeTest, ExperimentResumeIsBitwiseIdenticalAcrossThreads) {
  auto fd = MakeFederated(300, 8, 3, 41);
  auto arch = MakeMlp({30}, 2);
  const int rounds = 6, interrupt_at = 3;
  std::string dir = MakeTempDir();
  ASSERT_FALSE(dir.empty());

  const std::vector<std::pair<std::string, TrainerFactory>> trainers = {
      {"FedAvg",
       [&](const FlConfig& c) {
         return std::make_unique<FedAvgTrainer>(fd, *arch, c);
       }},
      {"ULDP-NAIVE",
       [&](const FlConfig& c) {
         return std::make_unique<UldpNaiveTrainer>(fd, *arch, c);
       }},
      {"ULDP-GROUP",
       [&](const FlConfig& c) {
         return std::make_unique<UldpGroupTrainer>(
             fd, *arch, c, GroupSizeSpec::Fixed(4), 0.3, 3);
       }},
      {"ULDP-SGD",
       [&](const FlConfig& c) {
         return std::make_unique<UldpSgdTrainer>(
             fd, *arch, c, WeightingStrategy::kEnhanced, /*q=*/0.7);
       }},
      {"ULDP-AVG",
       [&](const FlConfig& c) {
         return std::make_unique<UldpAvgTrainer>(fd, *arch, c,
                                                 UldpAvgOptions{});
       }},
  };
  for (const auto& [name, make] : trainers) {
    // Async at the barrier defaults (max_staleness 0, full buffer) is as
    // deterministic as sync, so its resumed tail must match bit for bit.
    for (bool async : {false, true}) {
      for (int threads : {1, 2, 5}) {
        SCOPED_TRACE(name + (async ? " async, " : " sync, ") +
                     std::to_string(threads) + " threads");
        FlConfig fl;
        fl.seed = 91;
        fl.sigma = 2.0;
        fl.num_threads = threads;
        fl.async_rounds = async;
        // The tail's loss, utility, and accounted epsilon (replayed via
        // AccountRestoredRounds) must equal the uninterrupted run's.
        ResumeTraces t =
            RunAndResume(make, fl, *arch, fd, dir, rounds, interrupt_at);
        ASSERT_EQ(t.full.size(), static_cast<size_t>(rounds));
        ASSERT_EQ(t.tail.size(), static_cast<size_t>(rounds - interrupt_at));
        for (size_t i = 0; i < t.tail.size(); ++i) {
          const RoundRecord& got = t.tail[i];
          const RoundRecord& want = t.full[interrupt_at + i];
          EXPECT_EQ(got.round, want.round);
          EXPECT_EQ(got.test_loss, want.test_loss);
          EXPECT_EQ(got.utility, want.utility);
          EXPECT_EQ(got.epsilon, want.epsilon);
        }
        // The resumed run continues the interrupted run's async counters:
        // its engine's stats and its registry counters end where the
        // uninterrupted run's do (all zero for sync rounds).
        const int64_t steps = async ? rounds : 0;
        EXPECT_EQ(t.full_stats.steps, steps);
        EXPECT_EQ(t.full_stats.applied, steps * fd.num_silos());
        EXPECT_EQ(t.tail_stats, t.full_stats);
        EXPECT_EQ(CounterIn(t.full_counters, "fl.async.steps"),
                  static_cast<uint64_t>(steps));
        EXPECT_EQ(t.tail_counters, t.full_counters);
      }
    }
  }

  // Staleness-bounded async rounds apply updates in real arrival order,
  // so the model is timing-dependent; the run must still resume and
  // account the same budget as the uninterrupted one.
  FlConfig stale;
  stale.seed = 91;
  stale.sigma = 2.0;
  stale.num_threads = 2;
  stale.async_rounds = true;
  stale.max_staleness = 1;
  stale.async_buffer = 1;
  ResumeTraces t = RunAndResume(trainers.back().second, stale, *arch, fd, dir,
                                rounds, interrupt_at);
  ASSERT_EQ(t.full.size(), static_cast<size_t>(rounds));
  ASSERT_EQ(t.tail.size(), static_cast<size_t>(rounds - interrupt_at));
  for (size_t i = 0; i < t.tail.size(); ++i) {
    EXPECT_EQ(t.tail[i].round, t.full[interrupt_at + i].round);
    EXPECT_EQ(t.tail[i].epsilon, t.full[interrupt_at + i].epsilon);
  }
  // One accepted update per step at buffer 1; rejections depend on timing.
  EXPECT_EQ(t.tail_stats.steps, rounds);
  EXPECT_EQ(t.tail_stats.applied, rounds);
  EXPECT_EQ(CounterIn(t.tail_counters, "fl.async.steps"),
            static_cast<uint64_t>(rounds));
  EXPECT_EQ(CounterIn(t.tail_counters, "fl.async.applied"),
            static_cast<uint64_t>(rounds));
  std::remove((dir + "/session.ckpt").c_str());
  std::remove(dir.c_str());
}

TEST(SessionResumeTest, ExperimentResumeErrorsAreClear) {
  auto fd = MakeFederated(200, 4, 2, 43);
  auto arch = MakeMlp({30}, 2);
  FlConfig fl;
  fl.seed = 7;
  UldpAvgTrainer trainer(fd, *arch, fl, UldpAvgOptions{});
  ExperimentConfig config;
  config.rounds = 2;
  config.resume = true;  // no checkpoint dir
  EXPECT_FALSE(RunExperiment(trainer, *arch, fd, config).ok());
  config.checkpoint_dir = "/nonexistent-dir-for-session-test";
  EXPECT_EQ(RunExperiment(trainer, *arch, fd, config).status().code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Async round server checkpoint/resume over channels

net::AsyncRoundsConfig ChannelConfig() {
  net::AsyncRoundsConfig config;
  config.step_scale = kStepScale;
  config.seed = kWorkSeed;
  return config;
}

/// Connects `silos` demo clients over channels and drives the server to
/// `total` cumulative steps (Run on a fresh session, Resume on a restored
/// one).
Vec Drive(net::AsyncRoundServer& server, const net::AsyncRoundsConfig& config,
          int silos, int dim, int total, bool resume) {
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
      silo_status[s] =
          net::RunAsyncDemoSilo(config, s, silos, dim, *silo_ends[s]);
    });
  }
  for (auto& end : server_ends) {
    EXPECT_TRUE(server.AddConnection(std::move(end)).ok());
  }
  auto out = resume ? server.Resume(total) : server.Run(total, Vec(dim, 0.0));
  for (auto& t : threads) t.join();
  for (const Status& s : silo_status) EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? out.value() : Vec();
}

TEST(SessionResumeTest, AsyncServerResumeIsBitwiseIdentical) {
  const int silos = 2, dim = 6, steps = 6, interrupt_at = 3;
  net::AsyncRoundsConfig config = ChannelConfig();

  Vec reference;
  {
    net::AsyncRoundServer server(config, silos, dim);
    reference = Drive(server, config, silos, dim, steps, /*resume=*/false);
    EXPECT_EQ(server.session().round, static_cast<uint64_t>(steps));
  }

  std::string dir = MakeTempDir();
  ASSERT_FALSE(dir.empty());
  Vec mid_model;
  {
    net::AsyncRoundServer server(config, silos, dim);
    server.SetCheckpoint(dir, 1);
    mid_model =
        Drive(server, config, silos, dim, interrupt_at, /*resume=*/false);
  }
  auto state = SessionState::ReadFile(dir + "/session.ckpt");
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state.value().round, static_cast<uint64_t>(interrupt_at));
  EXPECT_EQ(state.value().model, mid_model);

  {
    net::AsyncRoundServer server(config, silos, dim);
    ASSERT_TRUE(server.RestoreSession(state.value()).ok());
    Vec resumed = Drive(server, config, silos, dim, steps, /*resume=*/true);
    EXPECT_EQ(resumed, reference);
    // Counters are cumulative across the restore, not post-resume.
    EXPECT_EQ(server.session().stats.steps, static_cast<int64_t>(steps));
    EXPECT_EQ(server.session().stats.applied,
              static_cast<int64_t>(steps * silos));
  }

  // A session that already reached the target returns its model untouched
  // (no clients needed).
  {
    net::AsyncRoundServer server(config, silos, dim);
    ASSERT_TRUE(server.RestoreSession(state.value()).ok());
    auto out = server.Resume(interrupt_at);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out.value(), mid_model);
  }

  // A state whose shape disagrees with the server is rejected up front.
  {
    net::AsyncRoundServer server(config, silos, dim + 1);
    EXPECT_FALSE(server.RestoreSession(state.value()).ok());
    net::AsyncRoundsConfig other = config;
    other.seed = kWorkSeed + 1;
    net::AsyncRoundServer wrong_seed(other, silos, dim);
    EXPECT_FALSE(wrong_seed.RestoreSession(state.value()).ok());
  }
  std::remove((dir + "/session.ckpt").c_str());
  std::remove(dir.c_str());
}

}  // namespace
}  // namespace uldp
