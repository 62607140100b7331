// Streaming-round invariants: chunked rounds are bitwise-identical to the
// materializing path over every transport, and the chunk-stream state
// machine rejects every malformed sequence — gaps, duplicates, replays,
// corrupted frames, wrong phases — instead of folding garbage. Also
// covers the operational edge: a silo hanging mid-stream trips the
// server's recv deadline rather than wedging the round.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
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
  // chunk sizes against it), so it must split the digest.
  ProtocolConfig config = TestConfig();
  ProtocolConfig chunked = StreamTestConfig();
  EXPECT_NE(ProtocolWireDigest(config, kSilos, kUsers),
            ProtocolWireDigest(chunked, kSilos, kUsers));
  ProtocolConfig coords = StreamTestConfig();
  coords.stream_chunk_coords = 2;
  EXPECT_NE(ProtocolWireDigest(chunked, kSilos, kUsers),
            ProtocolWireDigest(coords, kSilos, kUsers));
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

/// SendChunkedStream's make_chunk over an in-memory vector.
std::function<Result<std::vector<BigInt>>(size_t, size_t)> ChunksOf(
    const std::vector<BigInt>& values) {
  return [&values](size_t c0, size_t c1) -> Result<std::vector<BigInt>> {
    return std::vector<BigInt>(values.begin() + static_cast<long>(c0),
                               values.begin() + static_cast<long>(c1));
  };
}

/// In-memory receivers for SendChunkedStream: each receiver folds the
/// chunks `send` hands it into its own copy and queues its ack, and
/// `recv(peer)` pops that peer's oldest queued ack. Tracks the most
/// chunks any receiver ever had unacknowledged.
struct LoopbackReceivers {
  LoopbackReceivers(int receivers, size_t total, int chunk)
      : total(total), chunk(chunk), states(receivers) {}

  struct State {
    std::unique_ptr<ChunkStreamReceiver> receiver;
    std::vector<BigInt> folded;
    std::vector<StreamAckMsg> acks;
    int in_flight = 0;
  };

  Status Send(const Frame& frame) {
    for (State& st : states) {
      if (frame.type == static_cast<uint16_t>(MessageType::kStreamBegin)) {
        auto begin = FromFrame<StreamBeginMsg>(frame);
        EXPECT_TRUE(begin.ok());
        auto r = ChunkStreamReceiver::Create(
            begin.value(), StreamKind::kSiloCipher, 42, total,
            static_cast<uint32_t>(chunk));
        EXPECT_TRUE(r.ok());
        st.receiver =
            std::make_unique<ChunkStreamReceiver>(std::move(r.value()));
        st.folded.assign(total, BigInt(0));
        continue;
      }
      max_in_flight = std::max(max_in_flight, ++st.in_flight);
      auto msg = FromFrame<StreamChunkMsg>(frame);
      EXPECT_TRUE(msg.ok());
      auto ack = st.receiver->Feed(
          std::move(msg.value()), [&](std::vector<BigInt>&& vals, size_t off) {
            for (size_t i = 0; i < vals.size(); ++i) {
              st.folded[off + i] = vals[i];
            }
            return Status::Ok();
          });
      EXPECT_TRUE(ack.ok()) << ack.status().ToString();
      st.acks.push_back(ack.value());
    }
    return Status::Ok();
  }

  Result<Frame> Recv(int peer) {
    State& st = states[peer];
    if (st.acks.empty()) {
      return Status::Internal("sender awaited an ack with none pending");
    }
    StreamAckMsg ack = st.acks.front();
    st.acks.erase(st.acks.begin());
    --st.in_flight;
    return ToFrame(ack);
  }

  size_t total;
  int chunk;
  std::vector<State> states;
  int max_in_flight = 0;
};

TEST(NetStreamTest, SenderHonorsWindowAndReassemblesWithTail) {
  // Drive SendChunkedStream against in-memory receivers, one and several:
  // the sender must never exceed kStreamWindow unacked chunks per
  // receiver, and every receiver's folded elements must reassemble the
  // input exactly — including the short final chunk.
  const int chunk = 3;
  const size_t total = static_cast<size_t>(chunk) * 2 * kStreamWindow + 2;
  std::vector<BigInt> values;
  for (size_t i = 0; i < total; ++i) {
    values.push_back(BigInt(static_cast<int64_t>(1000 + i)));
  }
  StreamSendOptions opts;
  opts.phase_tag = 42;
  opts.kind = StreamKind::kSiloCipher;
  opts.chunk_elems = chunk;

  for (int receivers : {1, 3}) {
    SCOPED_TRACE(std::to_string(receivers) + " receivers");
    LoopbackReceivers peers(receivers, total, chunk);
    int chunks_made = 0;
    Status sent = SendChunkedStream(
        total, opts, receivers,
        [&](size_t c0, size_t c1) {
          ++chunks_made;
          return ChunksOf(values)(c0, c1);
        },
        [&](const Frame& frame) { return peers.Send(frame); },
        [&](int peer) { return peers.Recv(peer); });
    ASSERT_TRUE(sent.ok()) << sent.ToString();
    // 2 * kStreamWindow full chunks + the 2-element tail, made once each
    // however many receivers there are.
    EXPECT_EQ(chunks_made, 2 * kStreamWindow + 1);
    for (const auto& st : peers.states) {
      ASSERT_TRUE(st.receiver != nullptr);
      EXPECT_TRUE(st.receiver->Done());
      EXPECT_EQ(st.receiver->chunk_count(),
                static_cast<uint32_t>(chunks_made));
      EXPECT_EQ(st.folded, values);
      EXPECT_EQ(st.in_flight, 0);  // every ack consumed before returning
    }
    // Never more than the window out, and the full window used.
    EXPECT_EQ(peers.max_in_flight, kStreamWindow);
  }
}

TEST(NetStreamTest, SenderRejectsAnAckForTheWrongChunk) {
  // An ack must name the oldest unacknowledged chunk: one that skips
  // ahead (or repeats) is a protocol error, not a permit.
  StreamSendOptions opts;
  opts.phase_tag = 7;
  opts.kind = StreamKind::kSiloCipher;
  opts.chunk_elems = 2;
  std::vector<BigInt> values(4, BigInt(3));
  auto recv = [&](int) -> Result<Frame> {
    StreamAckMsg ack;
    ack.phase_tag = 7;
    ack.kind = static_cast<uint8_t>(StreamKind::kSiloCipher);
    ack.index = 1;  // chunk 0 is still outstanding
    return ToFrame(ack);
  };
  Status status = SendChunkedStream(
      values.size(), opts, 1,
      ChunksOf(values),
      [](const Frame&) { return Status::Ok(); }, recv);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("ack for chunk 1, expected chunk 0"),
            std::string::npos)
      << status.ToString();
}

TEST(NetStreamTest, SenderAbortsOnPeerErrorFrame) {
  StreamSendOptions opts;
  opts.phase_tag = 7;
  opts.kind = StreamKind::kSiloCipher;
  opts.chunk_elems = 2;
  // Two chunks more than the window, so the sender must await an ack
  // before it may send them all.
  std::vector<BigInt> values(2 * (kStreamWindow + 2), BigInt(3));
  int chunks_sent = 0;
  auto send = [&](const Frame& frame) -> Status {
    if (frame.type == static_cast<uint16_t>(MessageType::kStreamChunk)) {
      ++chunks_sent;
    }
    return Status::Ok();
  };
  auto recv = [&](int) -> Result<Frame> {
    ErrorMsg error;
    error.code = static_cast<uint16_t>(StatusCode::kInvalidArgument);
    error.message = "fold rejected the chunk";
    return ToFrame(error);
  };
  Status status = SendChunkedStream(
      values.size(), opts, 1,
      ChunksOf(values),
      send, recv);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("fold rejected"), std::string::npos);
  // The error in place of the first awaited ack stops the stream with a
  // full window sent and nothing beyond it.
  EXPECT_EQ(chunks_sent, kStreamWindow);
}

/// Forwards a real silo's frames, except that its cipher stream announces
/// dim = total_count = 2^32 - 1 and its chunk 0 becomes a full chunk of
/// BigInt(1)s. The real silo's short tail chunk follows.
class HostileBeginTransport : public Transport {
 public:
  HostileBeginTransport(std::unique_ptr<Transport> inner, int chunk_coords)
      : inner_(std::move(inner)), chunk_coords_(chunk_coords) {}

  Status Send(const Frame& frame) override {
    const auto cipher = static_cast<uint8_t>(StreamKind::kSiloCipher);
    if (frame.type == static_cast<uint16_t>(MessageType::kStreamBegin)) {
      auto begin = FromFrame<StreamBeginMsg>(frame);
      if (begin.ok() && begin.value().kind == cipher) {
        begin.value().dim = begin.value().total_count = UINT32_MAX;
        return inner_->Send(ToFrame(begin.value()));
      }
    }
    if (frame.type == static_cast<uint16_t>(MessageType::kStreamChunk)) {
      auto chunk = FromFrame<StreamChunkMsg>(frame);
      if (chunk.ok() && chunk.value().kind == cipher &&
          chunk.value().index == 0) {
        chunk.value().values.assign(chunk_coords_, BigInt(1));
        return inner_->Send(ToFrame(chunk.value()));
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
  size_t chunk_coords_;
};

TEST(NetStreamTest, HostileCipherStreamBeginFailsTheRoundInsteadOfAborting) {
  // A silo announcing a 2^32 - 1 coordinate cipher used to make the
  // server size the aggregate from that claim on the first chunk and die
  // in std::bad_alloc. The aggregate now grows only over coordinates that
  // arrived, so the round fails on the silo's real tail chunk (dim 4 in
  // chunks of 3: its second chunk carries 1 element, not 3).
  const ProtocolConfig config = StreamTestConfig();
  std::vector<std::unique_ptr<Transport>> server_ends, silo_ends;
  for (int s = 0; s < kSilos; ++s) {
    auto [a, b] = ChannelTransport::CreatePair();
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  silo_ends[0] = std::make_unique<HostileBeginTransport>(
      std::move(silo_ends[0]), StreamChunkCoords(config));
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
      out = server.RunRound(0, std::vector<bool>(kUsers, true));
    }
  }
  for (auto& t : silo_threads) t.join();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument)
      << out.status().ToString();
  EXPECT_NE(out.status().message().find(
                "stream: chunk 1 carries 1 elements, expected 3"),
            std::string::npos)
      << out.status().ToString();
  EXPECT_FALSE(silo_status[0].ok());
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
