// The must-hold invariant of the transport subsystem: a distributed
// Protocol 1 run over ANY transport produces bitwise-identical aggregates
// to the in-process simulation on the same Rng::Fork substreams.

#include <gtest/gtest.h>

#include <string>
#include <thread>

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
  config.ot_sample_rate = 0.5;
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
std::vector<Vec> RunDistributed(
    const ProtocolConfig& config,
    std::vector<std::unique_ptr<Transport>> server_ends,
    std::vector<std::unique_ptr<Transport>> silo_ends) {
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
  std::vector<Vec> outs;
  std::vector<bool> mask(kUsers, true);
  for (int r = 0; r < kRounds; ++r) {
    auto out = server.RunRound(r, mask);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    outs.push_back(out.value());
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

std::vector<Vec> RunOverChannels(const ProtocolConfig& config) {
  std::vector<std::unique_ptr<Transport>> server_ends, silo_ends;
  for (int s = 0; s < kSilos; ++s) {
    auto [a, b] = ChannelTransport::CreatePair();
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  return RunDistributed(config, std::move(server_ends),
                        std::move(silo_ends));
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
