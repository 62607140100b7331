// Streaming-round invariants: chunked rounds are bitwise-identical to the
// materializing path over every transport, and the chunk-stream state
// machine rejects every malformed sequence — gaps, duplicates, replays,
// corrupted frames, wrong phases — instead of folding garbage. Also
// covers the operational edge: a silo hanging mid-stream trips the
// server's recv deadline rather than wedging the round.

#include <gtest/gtest.h>

#include <functional>
#include <future>
#include <thread>

#include "core/private_weighting.h"
#include "net/demo.h"
#include "net/protocol_node.h"
#include "net/stream.h"
#include "net/tcp.h"
#include "net/transport.h"

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

/// Chunk sizes chosen to NOT divide the totals: 5 users in chunks of 2
/// (tail of 1) and dim-4 uploads in chunks of 3 (tail of 1), so every
/// streamed phase exercises a short final chunk.
ProtocolConfig StreamTestConfig() {
  ProtocolConfig config = TestConfig();
  config.stream_chunk_users = 2;
  config.stream_chunk_coords = 3;
  config.stream_window = 2;
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

TEST(NetStreamTest, StreamedRoundsBitwiseMatchMaterializedEverywhere) {
  // The materializing in-process simulation is the single reference; the
  // streamed path must reproduce it bit for bit in-process, over
  // channels, and over loopback TCP, at every thread count.
  std::vector<Vec> reference = RunInProcess(TestConfig());
  ASSERT_EQ(reference.size(), static_cast<size_t>(kRounds));

  EXPECT_EQ(RunInProcess(StreamTestConfig()), reference);
  for (int threads : {1, 2, 5}) {
    ProtocolConfig config = StreamTestConfig();
    config.num_threads = threads;
    EXPECT_EQ(RunOverChannels(config), reference) << threads << " threads";
    EXPECT_EQ(RunOverTcp(config), reference) << threads << " threads";
  }
}

TEST(NetStreamTest, StreamedOtModeBitwiseMatchesMaterialized) {
  // OT mode keeps the weight distribution materialized (it IS the OT
  // dance) but streams the cipher upload; aggregates must not move.
  std::vector<Vec> reference = RunInProcess(OtTestConfig());
  ProtocolConfig config = OtTestConfig();
  config.stream_chunk_users = 2;
  config.stream_chunk_coords = 3;
  EXPECT_EQ(RunOverChannels(config), reference);
}

TEST(NetStreamTest, StreamedPackedRoundsBitwiseMatchUnpacked) {
  // Packing shrinks the cipher vector (cdim = ceil(dim/slots) = 1 here,
  // below chunk_coords — a one-chunk stream), and must still decode to
  // the exact unpacked materialized aggregates.
  std::vector<Vec> reference = RunInProcess(TestConfig());
  ProtocolConfig config = StreamTestConfig();
  config.pack_slots = 4;
  EXPECT_EQ(RunOverChannels(config), reference);
  EXPECT_EQ(RunOverTcp(config), reference);
}

TEST(NetStreamTest, StreamKnobsDigestSeparation) {
  // Chunk geometry is part of the wire contract (both sides validate
  // chunk sizes against it), so it must split the digest; the send window
  // is sender-local flow control and must NOT.
  ProtocolConfig config = TestConfig();
  ProtocolConfig chunked = StreamTestConfig();
  EXPECT_NE(ProtocolWireDigest(config, kSilos, kUsers),
            ProtocolWireDigest(chunked, kSilos, kUsers));
  ProtocolConfig coords = StreamTestConfig();
  coords.stream_chunk_coords = 2;
  EXPECT_NE(ProtocolWireDigest(chunked, kSilos, kUsers),
            ProtocolWireDigest(coords, kSilos, kUsers));
  ProtocolConfig window = StreamTestConfig();
  window.stream_window = 7;
  EXPECT_EQ(ProtocolWireDigest(chunked, kSilos, kUsers),
            ProtocolWireDigest(window, kSilos, kUsers));
}

StreamBeginMsg TestBegin() {
  StreamBeginMsg begin;
  begin.phase_tag = 0x1234;
  begin.kind = static_cast<uint8_t>(StreamKind::kSiloCipher);
  begin.sender_id = 1;
  begin.total_count = 10;
  begin.chunk_elems = 4;  // chunks of 4, 4, 2 — short tail
  begin.dim = 10;
  return begin;
}

StreamChunkMsg TestChunk(uint32_t index, size_t count) {
  StreamChunkMsg chunk;
  chunk.phase_tag = 0x1234;
  chunk.kind = static_cast<uint8_t>(StreamKind::kSiloCipher);
  chunk.index = index;
  for (size_t i = 0; i < count; ++i) {
    chunk.values.push_back(BigInt(static_cast<int64_t>(index * 100 + i)));
  }
  return chunk;
}

Status NoFold(std::vector<BigInt>&&, size_t) { return Status::Ok(); }

TEST(NetStreamTest, ReceiverRejectsMismatchedBegin) {
  StreamBeginMsg begin = TestBegin();
  // Wrong kind.
  auto r = ChunkStreamReceiver::Create(begin, StreamKind::kEncWeights,
                                       0x1234, 10, 4);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("kind"), std::string::npos);
  // Wrong phase tag (stale round replay).
  r = ChunkStreamReceiver::Create(begin, StreamKind::kSiloCipher, 0x9999,
                                  10, 4);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("phase"), std::string::npos);
  // Announced total disagrees with the receiver's own state.
  r = ChunkStreamReceiver::Create(begin, StreamKind::kSiloCipher, 0x1234,
                                  12, 4);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("expected 12"), std::string::npos);
  // Chunk size disagrees with the configured (digest-agreed) value.
  r = ChunkStreamReceiver::Create(begin, StreamKind::kSiloCipher, 0x1234,
                                  10, 8);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("disagrees"), std::string::npos);
  // Zero chunk_elems can never make progress.
  StreamBeginMsg zero = begin;
  zero.chunk_elems = 0;
  r = ChunkStreamReceiver::Create(zero, StreamKind::kSiloCipher, 0x1234,
                                  10, 0);
  EXPECT_FALSE(r.ok());
}

TEST(NetStreamTest, ReceiverRejectsGapsDuplicatesAndOverruns) {
  auto make = [] {
    auto r = ChunkStreamReceiver::Create(TestBegin(),
                                         StreamKind::kSiloCipher, 0x1234,
                                         10, 4);
    EXPECT_TRUE(r.ok());
    return std::move(r.value());
  };
  {
    // Missing chunk: index 1 arrives before index 0.
    ChunkStreamReceiver receiver = make();
    auto ack = receiver.Feed(TestChunk(1, 4), NoFold);
    EXPECT_FALSE(ack.ok());
    EXPECT_NE(ack.status().message().find("missing or reordered"),
              std::string::npos);
  }
  {
    // Duplicate chunk: index 0 delivered twice.
    ChunkStreamReceiver receiver = make();
    EXPECT_TRUE(receiver.Feed(TestChunk(0, 4), NoFold).ok());
    auto ack = receiver.Feed(TestChunk(0, 4), NoFold);
    EXPECT_FALSE(ack.ok());
    EXPECT_NE(ack.status().message().find("duplicate or reordered"),
              std::string::npos);
  }
  {
    // A well-formed stream completes (4 + 4 + 2-tail), then one more
    // chunk is an overrun, not a silent re-fold.
    ChunkStreamReceiver receiver = make();
    EXPECT_TRUE(receiver.Feed(TestChunk(0, 4), NoFold).ok());
    EXPECT_TRUE(receiver.Feed(TestChunk(1, 4), NoFold).ok());
    EXPECT_FALSE(receiver.Done());
    EXPECT_TRUE(receiver.Feed(TestChunk(2, 2), NoFold).ok());
    EXPECT_TRUE(receiver.Done());
    auto ack = receiver.Feed(TestChunk(3, 4), NoFold);
    EXPECT_FALSE(ack.ok());
    EXPECT_NE(ack.status().message().find("after the stream completed"),
              std::string::npos);
  }
}

TEST(NetStreamTest, ReceiverRejectsCorruptedChunks) {
  auto create = ChunkStreamReceiver::Create(
      TestBegin(), StreamKind::kSiloCipher, 0x1234, 10, 4);
  ASSERT_TRUE(create.ok());
  ChunkStreamReceiver receiver = std::move(create.value());
  {
    // Truncated values (a corrupted or hand-rolled frame): the fold never
    // runs, so no accumulator slot is left half-written.
    bool folded = false;
    auto ack = receiver.Feed(TestChunk(0, 3), [&](std::vector<BigInt>&&,
                                                  size_t) {
      folded = true;
      return Status::Ok();
    });
    EXPECT_FALSE(ack.ok());
    EXPECT_NE(ack.status().message().find("carries 3"), std::string::npos);
    EXPECT_FALSE(folded);
  }
  {
    // Cross-stream confusion: an enc-weights chunk on a silo-cipher
    // stream, and a stale-round chunk, are both rejected.
    StreamChunkMsg wrong_kind = TestChunk(0, 4);
    wrong_kind.kind = static_cast<uint8_t>(StreamKind::kEncWeights);
    EXPECT_FALSE(receiver.Feed(std::move(wrong_kind), NoFold).ok());
    StreamChunkMsg wrong_phase = TestChunk(0, 4);
    wrong_phase.phase_tag = 0x5678;
    EXPECT_FALSE(receiver.Feed(std::move(wrong_phase), NoFold).ok());
  }
  {
    // Byte-level corruption is caught at parse time, before Feed.
    Frame frame = ToFrame(TestChunk(0, 4));
    frame.payload.resize(frame.payload.size() / 2);
    EXPECT_FALSE(FromFrame<StreamChunkMsg>(frame).ok());
  }
}

TEST(NetStreamTest, SenderHonorsWindowAndReassemblesWithTail) {
  // Drive SendChunkedBigVec against an in-memory receiver: the sender
  // must never exceed the credit window, and the folded elements must
  // reassemble the input exactly — including the short final chunk.
  const size_t total = 11;
  const int chunk = 3, window = 2;
  std::vector<BigInt> values;
  for (size_t i = 0; i < total; ++i) {
    values.push_back(BigInt(static_cast<int64_t>(1000 + i)));
  }

  StreamSendOptions opts;
  opts.phase_tag = 42;
  opts.kind = StreamKind::kSiloCipher;
  opts.chunk_elems = chunk;
  opts.window = window;

  std::unique_ptr<ChunkStreamReceiver> receiver;
  std::vector<BigInt> folded(total);
  std::vector<StreamAckMsg> pending_acks;
  int in_flight = 0, max_in_flight = 0;
  auto send = [&](const Frame& frame) -> Status {
    if (frame.type == static_cast<uint16_t>(MessageType::kStreamBegin)) {
      auto begin = FromFrame<StreamBeginMsg>(frame);
      EXPECT_TRUE(begin.ok());
      auto r = ChunkStreamReceiver::Create(begin.value(),
                                           StreamKind::kSiloCipher, 42,
                                           total, chunk);
      EXPECT_TRUE(r.ok());
      receiver = std::make_unique<ChunkStreamReceiver>(std::move(r.value()));
      return Status::Ok();
    }
    ++in_flight;
    max_in_flight = std::max(max_in_flight, in_flight);
    auto msg = FromFrame<StreamChunkMsg>(frame);
    EXPECT_TRUE(msg.ok());
    auto ack = receiver->Feed(std::move(msg.value()),
                              [&](std::vector<BigInt>&& vals, size_t off) {
                                for (size_t i = 0; i < vals.size(); ++i) {
                                  folded[off + i] = vals[i];
                                }
                                return Status::Ok();
                              });
    EXPECT_TRUE(ack.ok()) << ack.status().ToString();
    pending_acks.push_back(ack.value());
    return Status::Ok();
  };
  auto recv = [&]() -> Result<Frame> {
    if (pending_acks.empty()) {
      return Status::Internal("sender awaited an ack with none pending");
    }
    StreamAckMsg ack = pending_acks.front();
    pending_acks.erase(pending_acks.begin());
    --in_flight;
    return ToFrame(ack);
  };

  ASSERT_TRUE(SendChunkedBigVec(values, opts, send, recv).ok());
  ASSERT_TRUE(receiver != nullptr);
  EXPECT_TRUE(receiver->Done());
  EXPECT_EQ(receiver->chunk_count(), 4u);  // 3 + 3 + 3 + 2-tail
  EXPECT_EQ(folded, values);
  // With window 2 the sender may have at most 2 unacked chunks out.
  EXPECT_LE(max_in_flight, window);
  EXPECT_GE(max_in_flight, window);  // and it does use the full window
}

TEST(NetStreamTest, SenderAbortsOnPeerErrorFrame) {
  StreamSendOptions opts;
  opts.phase_tag = 7;
  opts.kind = StreamKind::kSiloCipher;
  opts.chunk_elems = 2;
  opts.window = 1;
  std::vector<BigInt> values(6, BigInt(3));
  int chunks_sent = 0;
  auto send = [&](const Frame& frame) -> Status {
    if (frame.type == static_cast<uint16_t>(MessageType::kStreamChunk)) {
      ++chunks_sent;
    }
    return Status::Ok();
  };
  auto recv = [&]() -> Result<Frame> {
    ErrorMsg error;
    error.code = static_cast<uint16_t>(StatusCode::kInvalidArgument);
    error.message = "fold rejected the chunk";
    return ToFrame(error);
  };
  Status status = SendChunkedBigVec(values, opts, send, recv);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("fold rejected"), std::string::npos);
  // window=1: the error ack after chunk 0 stops the stream immediately.
  EXPECT_EQ(chunks_sent, 1);
}

TEST(NetStreamTest, SiloHangingMidStreamHitsRecvDeadline) {
  // A silo that joins, completes setup, then goes silent at the start of
  // the streamed round (its round-input hook blocks) must fail the round
  // with the server's recv deadline — never wedge RunRound. Over real
  // TCP so the epoll mux's waiter deadline is what fires. The deadline is
  // armed only once setup is done, so it bounds the round alone.
  ProtocolConfig config = StreamTestConfig();
  DemoInputs in = MakeDemoInputs(kInputSeed, kSilos, kUsers, kDim);

  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const int port = listener.value().port();
  std::vector<std::unique_ptr<Transport>> server_ends, silo_ends;
  std::vector<TcpTransport*> server_tcp;
  for (int s = 0; s < kSilos; ++s) {
    auto client = TcpTransport::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    silo_ends.push_back(std::move(client.value()));
    auto accepted = listener.value().Accept();
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
    server_tcp.push_back(accepted.value().get());
    server_ends.push_back(std::move(accepted.value()));
  }

  // Silo 0 hangs in its round-input hook until released; the rest serve
  // the round normally.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::vector<std::thread> silo_threads;
  std::vector<Status> silo_status(kSilos, Status::Ok());
  // Runs on every exit path, after the server below is destroyed (which
  // closes its connections), so a failed ASSERT never leaves a joinable
  // thread behind to std::terminate the test binary.
  struct OnExit {
    std::function<void()> fn;
    ~OnExit() { fn(); }
  };
  bool release_sent = false;
  OnExit join_silos{[&] {
    if (!release_sent) release.set_value();
    server_ends.clear();
    for (auto& t : silo_threads) {
      if (t.joinable()) t.join();
    }
  }};
  silo_threads.emplace_back([&] {
    SiloClient client(config, 0, kSilos, kUsers, in.histograms[0]);
    auto input = [&](uint64_t, std::vector<Vec>* deltas, Vec* noise) {
      released.wait();
      *deltas = in.deltas[0];
      *noise = in.noise[0];
      return Status::Ok();
    };
    silo_status[0] = client.Run(*silo_ends[0], input);
  });
  for (int s = 1; s < kSilos; ++s) {
    silo_threads.emplace_back([&, s] {
      silo_status[s] = RunDemoSilo(config, s, kSilos, kUsers, kDim,
                                   kInputSeed, *silo_ends[s]);
    });
  }

  ProtocolServer server(config, kSilos, kUsers);
  for (auto& end : server_ends) {
    ASSERT_TRUE(server.AddConnection(std::move(end)).ok());
  }
  ASSERT_TRUE(server.RunSetup().ok());
  // The epoll mux reads each transport's deadline at wait time, so arming
  // it now covers exactly the round.
  for (TcpTransport* t : server_tcp) ASSERT_TRUE(t->SetRecvTimeout(400).ok());
  std::vector<bool> mask(kUsers, true);
  auto out = server.RunRound(0, mask);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded)
      << out.status().ToString();
  EXPECT_NE(out.status().message().find("deadline"), std::string::npos)
      << out.status().ToString();

  // FailAll + mux shutdown already ran inside the failed RunRound; the
  // stalled silo wakes, hears the dead connection, and its thread joins —
  // the guarantee that no reader outlives a failed round.
  release.set_value();
  release_sent = true;
  for (auto& t : silo_threads) t.join();
  for (int s = 0; s < kSilos; ++s) {
    EXPECT_FALSE(silo_status[s].ok()) << "silo " << s;
  }
}

}  // namespace
}  // namespace net
}  // namespace uldp
