// The must-hold invariant of the transport subsystem: a distributed
// Protocol 1 run over ANY transport produces bitwise-identical aggregates
// to the in-process simulation on the same Rng::Fork substreams.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <thread>
#include <utility>

#include "core/private_weighting.h"
#include "net/demo.h"
#include "net/protocol_node.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace uldp {
namespace net {
namespace {

constexpr int kSilos = 3;
constexpr int kUsers = 5;
constexpr int kDim = 4;
constexpr uint64_t kInputSeed = 424242;
constexpr int kRounds = 2;

ProtocolConfig TestConfig() {
  ProtocolConfig config;
  config.paillier_bits = 512;
  config.n_max = 30;
  config.seed = 77;
  return config;
}

ProtocolConfig OtTestConfig() {
  ProtocolConfig config = TestConfig();
  config.ot_slots = 4;
  config.sample_rate = 0.5;
  config.ot_group_bits = 192;
  return config;
}

/// Reference: the in-process simulation on the same config and inputs.
std::vector<Vec> RunInProcess(const ProtocolConfig& config) {
  DemoInputs in = MakeDemoInputs(kInputSeed, kSilos, kUsers, kDim);
  PrivateWeightingProtocol protocol(config, kSilos, kUsers);
  EXPECT_TRUE(protocol.Setup(in.histograms).ok());
  std::vector<Vec> outs;
  std::vector<bool> mask(kUsers, true);
  for (int r = 0; r < kRounds; ++r) {
    auto out = protocol.WeightingRound(r, in.deltas, in.noise, mask);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    outs.push_back(out.value());
  }
  return outs;
}

/// Distributed run: a ProtocolServer plus kSilos clients, each client on
/// its own thread, over the given already-connected transports.
/// `after_step`, when set, runs once setup completes and after each round.
std::vector<Vec> RunDistributed(
    const ProtocolConfig& config,
    std::vector<std::unique_ptr<Transport>> server_ends,
    std::vector<std::unique_ptr<Transport>> silo_ends, int rounds = kRounds,
    const std::function<void()>& after_step = {}) {
  std::vector<std::thread> silo_threads;
  std::vector<Status> silo_status(kSilos, Status::Ok());
  for (int s = 0; s < kSilos; ++s) {
    silo_threads.emplace_back([&, s] {
      silo_status[s] = RunDemoSilo(config, s, kSilos, kUsers, kDim,
                                   kInputSeed, *silo_ends[s]);
    });
  }

  ProtocolServer server(config, kSilos, kUsers);
  for (auto& end : server_ends) {
    EXPECT_TRUE(server.AddConnection(std::move(end)).ok());
  }
  EXPECT_TRUE(server.RunSetup().ok());
  if (after_step) after_step();
  std::vector<Vec> outs;
  std::vector<bool> mask(kUsers, true);
  for (int r = 0; r < rounds; ++r) {
    auto out = server.RunRound(r, mask);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    outs.push_back(out.value());
    if (after_step) after_step();
  }
  EXPECT_TRUE(server.Shutdown().ok());
  for (auto& t : silo_threads) t.join();
  for (int s = 0; s < kSilos; ++s) {
    EXPECT_TRUE(silo_status[s].ok()) << "silo " << s << ": "
                                     << silo_status[s].ToString();
  }
  // Every phase moved real bytes.
  EXPECT_GT(server.total_bytes_sent(), 0u);
  EXPECT_GT(server.total_bytes_received(), 0u);
  // Received bytes count toward the phase that consumes them, however
  // early a fast silo's cipher reaches the receive threads. Without OT or
  // streaming, no silo sends anything while the weights go out.
  const bool plain_round =
      config.ot_slots == 0 && StreamChunkUsers(config) == 0;
  for (const NetPhaseStats& phase : server.phase_stats()) {
    if (phase.phase == "silo_ciphers") {
      EXPECT_GT(phase.bytes_received, 0u);
    }
    if (phase.phase == "enc_weights" && plain_round) {
      EXPECT_EQ(phase.bytes_received, 0u);
    }
  }
  return outs;
}

std::vector<Vec> RunOverChannels(const ProtocolConfig& config,
                                 int rounds = kRounds,
                                 const std::function<void()>& after_step = {}) {
  std::vector<std::unique_ptr<Transport>> server_ends, silo_ends;
  for (int s = 0; s < kSilos; ++s) {
    auto [a, b] = ChannelTransport::CreatePair();
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  return RunDistributed(config, std::move(server_ends), std::move(silo_ends),
                        rounds, after_step);
}

std::vector<Vec> RunOverTcp(const ProtocolConfig& config) {
  auto listener = TcpListener::Listen(0);
  EXPECT_TRUE(listener.ok()) << listener.status().ToString();
  const int port = listener.value().port();
  std::vector<std::unique_ptr<Transport>> server_ends, silo_ends;
  for (int s = 0; s < kSilos; ++s) {
    // Connect first (the backlog holds it), then accept.
    auto client = TcpTransport::Connect("127.0.0.1", port);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    silo_ends.push_back(std::move(client.value()));
    auto accepted = listener.value().Accept();
    EXPECT_TRUE(accepted.ok()) << accepted.status().ToString();
    server_ends.push_back(std::move(accepted.value()));
  }
  return RunDistributed(config, std::move(server_ends),
                        std::move(silo_ends));
}

TEST(NetProtocolTest, ChannelAndTcpRoundsBitwiseMatchInProcess) {
  ProtocolConfig config = TestConfig();
  std::vector<Vec> reference = RunInProcess(config);
  ASSERT_EQ(reference.size(), static_cast<size_t>(kRounds));

  std::vector<Vec> channel = RunOverChannels(config);
  std::vector<Vec> tcp = RunOverTcp(config);
  // Exact double equality — bitwise-identical aggregates, not "close".
  EXPECT_EQ(channel, reference);
  EXPECT_EQ(tcp, reference);
}

uint64_t CounterValue(const std::string& name) {
  for (const obs::MetricSnapshot& m :
       obs::MetricsRegistry::Global().Snapshot()) {
    if (m.kind == obs::MetricSnapshot::Kind::kCounter && m.name == name) {
      return m.counter_value;
    }
  }
  return 0;
}

TEST(NetProtocolTest, ChannelRoundsRunThroughTheEpollMux) {
  // Channels expose an eventfd, so the server receives through the same
  // epoll loops a TCP deployment runs.
  const uint64_t wakeups = CounterValue("net.mux.epoll_wakeups");
  const uint64_t frames = CounterValue("net.mux.frames");
  ProtocolConfig config = TestConfig();
  EXPECT_EQ(RunOverChannels(config), RunInProcess(config));
  EXPECT_GT(CounterValue("net.mux.epoll_wakeups"), wakeups);
  // At least the DH key, the histogram and one cipher per silo per round.
  EXPECT_GE(CounterValue("net.mux.frames") - frames,
            static_cast<uint64_t>(kSilos * (2 + kRounds)));
}

// Each silo derives every blind r_u once per session, in BlindHistogram:
// the process-wide core.blind_derivations grows by silos x users over
// setup and then holds through every round, plain, streamed or with OT
// weights. A silo that re-derived r_u in its fold would add its active
// users each round.
TEST(NetProtocolTest, SilosDeriveEachBlindOncePerSession) {
  ProtocolConfig streamed = TestConfig();
  streamed.stream_chunk_users = 2;
  const int rounds = 3;
  for (const ProtocolConfig& config :
       {TestConfig(), streamed, OtTestConfig()}) {
    const uint64_t before = CounterValue("core.blind_derivations");
    std::vector<uint64_t> derived;
    const std::vector<Vec> outs = RunOverChannels(config, rounds, [&] {
      derived.push_back(CounterValue("core.blind_derivations") - before);
    });
    EXPECT_EQ(outs.size(), static_cast<size_t>(rounds));
    EXPECT_EQ(derived, std::vector<uint64_t>(rounds + 1, kSilos * kUsers))
        << "stream_chunk_users " << config.stream_chunk_users
        << ", ot_slots " << config.ot_slots;
  }
}

// A silo derives its session powers once per session: in a
// full-participation session (plain or streamed) core.session_powers
// reads the active (silo, user) pairs after round 0 and holds through
// rounds 1-2, since every round re-sends the same weight ciphertexts. OT
// rounds fetch fresh ciphertexts and derive none. A silo that re-derived
// every round would add its active users each round.
TEST(NetProtocolTest, SilosDeriveSessionPowersOncePerSession) {
  const DemoInputs in = MakeDemoInputs(kInputSeed, kSilos, kUsers, kDim);
  uint64_t active = 0;
  for (int s = 0; s < kSilos; ++s) {
    for (int u = 0; u < kUsers; ++u) {
      if (in.histograms[s][u] > 0 && !in.deltas[s][u].empty()) ++active;
    }
  }
  ASSERT_GT(active, 0u);
  ProtocolConfig streamed = TestConfig();
  streamed.stream_chunk_users = 2;
  const int rounds = 3;
  for (const ProtocolConfig& config :
       {TestConfig(), streamed, OtTestConfig()}) {
    const uint64_t before = CounterValue("core.session_powers");
    std::vector<uint64_t> derived;
    const std::vector<Vec> outs = RunOverChannels(config, rounds, [&] {
      derived.push_back(CounterValue("core.session_powers") - before);
    });
    EXPECT_EQ(outs.size(), static_cast<size_t>(rounds));
    const uint64_t expect = config.ot_slots > 0 ? 0 : active;
    EXPECT_EQ(derived, std::vector<uint64_t>({0, expect, expect, expect}))
        << "stream_chunk_users " << config.stream_chunk_users
        << ", ot_slots " << config.ot_slots;
  }
}

/// Runs setup and one round over channels, silo 0's connection wrapped by
/// `wrap` on the server's side, with `mask` as the round's sampling mask.
/// Returns the round's result and each silo's Run status.
std::pair<Result<Vec>, std::vector<Status>> RunOneWrappedRound(
    const ProtocolConfig& config, const std::vector<bool>& mask,
    const std::function<std::unique_ptr<Transport>(
        std::unique_ptr<Transport>)>& wrap) {
  std::vector<std::unique_ptr<Transport>> server_ends, silo_ends;
  for (int s = 0; s < kSilos; ++s) {
    auto [a, b] = ChannelTransport::CreatePair();
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  server_ends[0] = wrap(std::move(server_ends[0]));
  std::vector<std::thread> silo_threads;
  std::vector<Status> silo_status(kSilos, Status::Ok());
  for (int s = 0; s < kSilos; ++s) {
    silo_threads.emplace_back([&, s] {
      silo_status[s] = RunDemoSilo(config, s, kSilos, kUsers, kDim,
                                   kInputSeed, *silo_ends[s]);
    });
  }
  Result<Vec> out = Status::Internal("setup failed");
  {
    ProtocolServer server(config, kSilos, kUsers);
    for (auto& end : server_ends) {
      EXPECT_TRUE(server.AddConnection(std::move(end)).ok());
    }
    if (server.RunSetup().ok()) {
      out = server.RunRound(0, mask);
      if (out.ok()) server.Shutdown();
    }
  }
  for (auto& t : silo_threads) t.join();
  return {std::move(out), std::move(silo_status)};
}

// At q = 1 the server refuses a mask that drops a user before sending any
// weight (a repeated ciphertext would then tell the silos who was
// sampled), and FailAll ends every silo's run with the refusal.
TEST(NetProtocolTest, FullParticipationRoundRefusesAPartialMaskEverywhere) {
  ProtocolConfig streamed = TestConfig();
  streamed.stream_chunk_users = 2;
  std::vector<bool> partial(kUsers, true);
  partial[3] = false;
  for (const ProtocolConfig& config : {TestConfig(), streamed}) {
    auto [out, silo_status] = RunOneWrappedRound(
        config, partial, [](std::unique_ptr<Transport> t) { return t; });
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument)
        << out.status().ToString();
    for (int s = 0; s < kSilos; ++s) {
      EXPECT_EQ(silo_status[s].code(), StatusCode::kInvalidArgument)
          << "silo " << s << ": " << silo_status[s].ToString();
      EXPECT_NE(silo_status[s].message().find("full-participation"),
                std::string::npos)
          << silo_status[s].ToString();
    }
  }
}

/// The server's end of one silo's connection, rewriting the aggregate of
/// every RoundResult it sends.
class ResultRewritingTransport : public Transport {
 public:
  ResultRewritingTransport(std::unique_ptr<Transport> inner,
                           std::function<void(Vec*)> rewrite)
      : inner_(std::move(inner)), rewrite_(std::move(rewrite)) {}

  Status Send(const Frame& frame) override {
    if (frame.type == static_cast<uint16_t>(MessageType::kRoundResult)) {
      auto result = FromFrame<RoundResultMsg>(frame);
      if (result.ok()) {
        rewrite_(&result.value().aggregate);
        return inner_->Send(ToFrame(result.value()));
      }
    }
    return inner_->Send(frame);
  }
  Result<Frame> Recv() override { return inner_->Recv(); }
  void Close() override { inner_->Close(); }
  int NativeHandle() const override { return inner_->NativeHandle(); }
  Result<bool> TryReadFrame(Frame* out) override {
    return inner_->TryReadFrame(out);
  }

 private:
  std::unique_ptr<Transport> inner_;
  std::function<void(Vec*)> rewrite_;
};

// A silo checks the broadcast aggregate before handing it on: a length
// other than the model dimension, a non-finite value and a value past the
// decoded image of aggregate_bound, (|U| + |S|) * 2^63 * P, each fail the
// silo with InvalidArgument. The other silos receive the true result.
TEST(NetProtocolTest, SiloRefusesAMalformedRoundResult) {
  const std::vector<std::pair<std::string, std::function<void(Vec*)>>>
      rewrites = {
          {"wrong length", [](Vec* v) { v->push_back(0.0); }},
          {"NaN", [](Vec* v) { (*v)[1] = std::nan(""); }},
          {"1e143", [](Vec* v) { (*v)[2] = 1e143; }},
      };
  for (const auto& [what, rewrite] : rewrites) {
    auto [out, silo_status] = RunOneWrappedRound(
        TestConfig(), std::vector<bool>(kUsers, true),
        [&rewrite = rewrite](std::unique_ptr<Transport> t) {
          return std::make_unique<ResultRewritingTransport>(std::move(t),
                                                            rewrite);
        });
    EXPECT_TRUE(out.ok()) << what << ": " << out.status().ToString();
    EXPECT_EQ(silo_status[0].code(), StatusCode::kInvalidArgument)
        << what << ": " << silo_status[0].ToString();
    EXPECT_NE(silo_status[0].message().find("round result"),
              std::string::npos)
        << what << ": " << silo_status[0].ToString();
    for (int s = 1; s < kSilos; ++s) {
      EXPECT_TRUE(silo_status[s].ok())
          << what << ", silo " << s << ": " << silo_status[s].ToString();
    }
  }
}

TEST(NetProtocolTest, OtModeOverChannelsBitwiseMatchesInProcess) {
  ProtocolConfig config = OtTestConfig();
  std::vector<Vec> reference = RunInProcess(config);
  std::vector<Vec> channel = RunOverChannels(config);
  EXPECT_EQ(channel, reference);
}

TEST(NetProtocolTest, PackedRoundsBitwiseMatchUnpackedOverAllTransports) {
  // pack_slots = 4 fits the default precision/clip at 512-bit keys; the
  // packed distributed runs must decode to the exact doubles the unpacked
  // in-process simulation produces — packing is a pure wire/evaluation
  // layout, never a numerics change.
  ProtocolConfig unpacked = TestConfig();
  std::vector<Vec> reference = RunInProcess(unpacked);

  ProtocolConfig packed = TestConfig();
  packed.pack_slots = 4;
  std::vector<Vec> packed_local = RunInProcess(packed);
  std::vector<Vec> packed_channel = RunOverChannels(packed);
  std::vector<Vec> packed_tcp = RunOverTcp(packed);
  EXPECT_EQ(packed_local, reference);
  EXPECT_EQ(packed_channel, reference);
  EXPECT_EQ(packed_tcp, reference);
}

TEST(NetProtocolTest, PackedOtModeOverChannelsBitwiseMatchesInProcess) {
  ProtocolConfig config = OtTestConfig();
  config.pack_slots = 4;
  std::vector<Vec> reference = RunInProcess(config);
  std::vector<Vec> channel = RunOverChannels(config);
  EXPECT_EQ(channel, reference);

  ProtocolConfig unpacked = OtTestConfig();
  std::vector<Vec> unpacked_reference = RunInProcess(unpacked);
  EXPECT_EQ(reference, unpacked_reference);
}

TEST(NetProtocolTest, PackedConfigsAreDigestSeparated) {
  // A silo running a different slot layout must be rejected at Join, not
  // left to decode garbage aggregates.
  ProtocolConfig config = TestConfig();
  ProtocolConfig other = TestConfig();
  other.pack_slots = 4;
  EXPECT_NE(ProtocolWireDigest(config, kSilos, kUsers),
            ProtocolWireDigest(other, kSilos, kUsers));
  ProtocolConfig clip = TestConfig();
  clip.pack_clip = 32.0;
  EXPECT_NE(ProtocolWireDigest(config, kSilos, kUsers),
            ProtocolWireDigest(clip, kSilos, kUsers));
  // num_threads is party-local (bitwise-identical outputs), so it must
  // NOT split the wire digest.
  ProtocolConfig local = TestConfig();
  local.num_threads = 3;
  EXPECT_EQ(ProtocolWireDigest(config, kSilos, kUsers),
            ProtocolWireDigest(local, kSilos, kUsers));
}

TEST(NetProtocolTest, JoinRejectsMismatchedConfigAndBadIds) {
  ProtocolConfig config = TestConfig();
  ProtocolServer server(config, kSilos, kUsers);

  // Mismatched config (different n_max) → digest rejection, and the
  // client hears the reason.
  {
    auto [server_end, silo_end] = ChannelTransport::CreatePair();
    ProtocolConfig other = config;
    other.n_max = config.n_max + 1;
    Status client_status = Status::Ok();
    std::thread client([&] {
      client_status = RunDemoSilo(other, 0, kSilos, kUsers, kDim,
                                  kInputSeed, *silo_end);
    });
    Status added = server.AddConnection(std::move(server_end));
    EXPECT_FALSE(added.ok());
    EXPECT_NE(added.message().find("digest"), std::string::npos);
    client.join();
    EXPECT_FALSE(client_status.ok());
    EXPECT_NE(client_status.message().find("digest"), std::string::npos);
  }

  // Out-of-range silo ids — including a 2^31-range value that would wrap
  // negative under a signed cast and sail past the range check into a
  // vector index.
  for (uint32_t bad_id : {99u, 0x80000000u, 0xFFFFFFFFu}) {
    auto [server_end, silo_end] = ChannelTransport::CreatePair();
    JoinMsg join;
    join.silo_id = bad_id;
    join.num_silos = kSilos;
    join.num_users = kUsers;
    join.config_digest = ProtocolWireDigest(config, kSilos, kUsers);
    ASSERT_TRUE(silo_end->Send(ToFrame(join)).ok());
    Status added = server.AddConnection(std::move(server_end));
    EXPECT_FALSE(added.ok()) << bad_id;
    EXPECT_NE(added.message().find("out of range"), std::string::npos);
  }

  // Duplicate silo id: first join for id 0 succeeds, second is refused.
  {
    auto [server_end1, silo_end1] = ChannelTransport::CreatePair();
    JoinMsg join;
    join.silo_id = 0;
    join.num_silos = kSilos;
    join.num_users = kUsers;
    join.config_digest = ProtocolWireDigest(config, kSilos, kUsers);
    ASSERT_TRUE(silo_end1->Send(ToFrame(join)).ok());
    EXPECT_TRUE(server.AddConnection(std::move(server_end1)).ok());

    auto [server_end2, silo_end2] = ChannelTransport::CreatePair();
    ASSERT_TRUE(silo_end2->Send(ToFrame(join)).ok());
    Status dup = server.AddConnection(std::move(server_end2));
    EXPECT_FALSE(dup.ok());
    EXPECT_NE(dup.message().find("already"), std::string::npos);
  }

  // Setup with missing silos is a clear precondition failure.
  EXPECT_EQ(server.RunSetup().code(), StatusCode::kFailedPrecondition);
}

TEST(NetProtocolTest, MalformedSetupParamsFailTheJoinInsteadOfAborting) {
  // A silo builds Montgomery contexts and the OT generator table from the
  // n, p and g a server sends. Values those cannot take must end the join
  // with InvalidArgument, not abort the silo process.
  const BigInt one(1);
  const BigInt n_ok = (one << 511) + one;  // odd, 512 bits
  const BigInt p_ok = (one << 191) + one;  // odd, 192 bits
  struct Case {
    const char* what;
    bool ot;
    BigInt n, p, g;
  };
  const std::vector<Case> cases = {
      {"even n", false, one << 511, BigInt(0), BigInt(0)},
      {"short n", false, (one << 510) + one, BigInt(0), BigInt(0)},
      {"long n", false, (one << 512) + one, BigInt(0), BigInt(0)},
      {"zero n", false, BigInt(0), BigInt(0), BigInt(0)},
      {"negative n", false, -n_ok, BigInt(0), BigInt(0)},
      {"even p", true, n_ok, one << 191, BigInt(4)},
      {"short p", true, n_ok, (one << 190) + one, BigInt(4)},
      {"missing group", true, n_ok, BigInt(0), BigInt(0)},
      {"g = 1", true, n_ok, p_ok, one},
      {"g = p", true, n_ok, p_ok, p_ok},
  };
  for (const Case& c : cases) {
    const ProtocolConfig config = c.ot ? OtTestConfig() : TestConfig();
    auto [server_end, silo_end] = ChannelTransport::CreatePair();
    Status client_status = Status::Ok();
    std::thread client([&] {
      client_status = RunDemoSilo(config, 0, kSilos, kUsers, kDim,
                                  kInputSeed, *silo_end);
    });
    // The fake server reads the Join, answers with the bad parameters
    // and hangs up.
    EXPECT_TRUE(server_end->Recv().ok()) << c.what;
    SetupParamsMsg setup;
    setup.paillier_n = c.n;
    setup.ot_p = c.p;
    setup.ot_g = c.g;
    EXPECT_TRUE(server_end->Send(ToFrame(setup)).ok()) << c.what;
    server_end->Close();
    client.join();
    EXPECT_EQ(client_status.code(), StatusCode::kInvalidArgument)
        << c.what << ": " << client_status.ToString();
  }
}

TEST(NetProtocolTest, SiloRefusesARecordCountAboveNMaxAndSetupFailsEverywhere) {
  // The demo histograms reach 4 records per (silo, user), so at N_max = 2
  // some silo holds more records of one user than Protocol 1 can weight
  // exactly. That silo refuses before blinding; the server names the
  // refusal and fails setup for every silo rather than run a round whose
  // aggregate cannot decode.
  ProtocolConfig config = TestConfig();
  config.n_max = 2;
  const std::string refusal =
      "this silo holds more than N_max records of a user";
  const DemoInputs in = MakeDemoInputs(kInputSeed, kSilos, kUsers, kDim);
  std::vector<std::unique_ptr<Transport>> server_ends, silo_ends;
  for (int s = 0; s < kSilos; ++s) {
    auto [a, b] = ChannelTransport::CreatePair();
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  std::vector<std::thread> silo_threads;
  std::vector<Status> silo_status(kSilos, Status::Ok());
  for (int s = 0; s < kSilos; ++s) {
    silo_threads.emplace_back([&, s] {
      silo_status[s] = RunDemoSilo(config, s, kSilos, kUsers, kDim,
                                   kInputSeed, *silo_ends[s]);
    });
  }
  Status setup = Status::Ok();
  {
    ProtocolServer server(config, kSilos, kUsers);
    for (auto& end : server_ends) {
      EXPECT_TRUE(server.AddConnection(std::move(end)).ok());
    }
    setup = server.RunSetup();
  }
  for (auto& t : silo_threads) t.join();
  EXPECT_EQ(setup.code(), StatusCode::kInvalidArgument) << setup.ToString();
  EXPECT_NE(setup.message().find(refusal), std::string::npos)
      << setup.ToString();
  int refused = 0;
  for (int s = 0; s < kSilos; ++s) {
    EXPECT_FALSE(silo_status[s].ok()) << "silo " << s;
    bool over = false;
    for (int count : in.histograms[s]) over = over || count > config.n_max;
    if (!over) continue;
    // The refusal crosses the wire, so it names neither user nor count.
    ++refused;
    EXPECT_EQ(silo_status[s].code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(silo_status[s].message(), refusal);
  }
  EXPECT_GT(refused, 0);
}

TEST(NetProtocolTest, RoundBeyondTagLimitIsRejected) {
  // No connections needed: the range check precedes any traffic, but
  // setup must have run — so check the error class only.
  ProtocolConfig config = TestConfig();
  ProtocolServer server(config, kSilos, kUsers);
  std::vector<bool> mask(kUsers, true);
  auto out = server.RunRound(1ull << 56, mask);
  EXPECT_FALSE(out.ok());
}

}  // namespace
}  // namespace net
}  // namespace uldp
