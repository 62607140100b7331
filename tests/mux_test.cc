// FrameMux (net/mux.h): the one receive front end every server runs. The
// same tests run over in-process channels and loopback TCP, and over
// transcript replays where a replay applies, so the mux code the protocol
// tests certify is the code every transport exercises.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "net/mux.h"
#include "net/tcp.h"
#include "net/transcript.h"
#include "net/transport.h"

namespace uldp {
namespace net {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Frame SeqFrame(uint16_t type, uint32_t seq, size_t payload = 8) {
  Frame frame;
  frame.type = type;
  frame.payload.assign(payload, 0);
  for (int b = 0; b < 4; ++b) {
    frame.payload[b] = static_cast<uint8_t>(seq >> (8 * b));
  }
  return frame;
}

uint32_t SeqOf(const Frame& frame) {
  uint32_t seq = 0;
  for (int b = 0; b < 4; ++b) {
    seq |= static_cast<uint32_t>(frame.payload[b]) << (8 * b);
  }
  return seq;
}

enum class Kind { kChannel, kTcp };

/// Connected endpoint pairs: `server[i]` is read through the mux, its
/// peer `remote[i]` sends.
struct Links {
  std::vector<std::unique_ptr<Transport>> server;
  std::vector<std::unique_ptr<Transport>> remote;

  std::vector<Transport*> Borrowed() const {
    std::vector<Transport*> out;
    for (const auto& t : server) out.push_back(t.get());
    return out;
  }
};

void AddLink(Kind kind, Links* links) {
  if (kind == Kind::kChannel) {
    auto [a, b] = ChannelTransport::CreatePair();
    links->server.push_back(std::move(a));
    links->remote.push_back(std::move(b));
    return;
  }
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  // Connect first (the backlog holds it), then accept.
  auto client = TcpTransport::Connect("127.0.0.1", listener.value().port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto accepted = listener.value().Accept();
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  links->server.push_back(std::move(accepted.value()));
  links->remote.push_back(std::move(client.value()));
}

Links Connect(Kind kind, int n) {
  Links links;
  for (int i = 0; i < n; ++i) AddLink(kind, &links);
  return links;
}

class MuxTest : public ::testing::TestWithParam<Kind> {};

TEST_P(MuxTest, PerPeerFifoAcrossInterleavedPeers) {
  constexpr int kPeers = 3;
  constexpr uint32_t kFrames = 40;
  Links links = Connect(GetParam(), kPeers);
  FrameMux mux(links.Borrowed());
  ASSERT_TRUE(mux.Start().ok());
  std::vector<std::thread> senders;
  for (int p = 0; p < kPeers; ++p) {
    senders.emplace_back([&links, p] {
      for (uint32_t i = 0; i < kFrames; ++i) {
        // Varying sizes so TCP frames straddle reads.
        ASSERT_TRUE(links.remote[p]
                        ->Send(SeqFrame(static_cast<uint16_t>(10 + p), i,
                                        8 + (i * 37) % 3000))
                        .ok());
      }
    });
  }
  // Peer 0 through RecvFrom, the others through RecvAny: both orders are
  // the per-peer send order.
  for (uint32_t i = 0; i < kFrames; ++i) {
    auto frame = mux.RecvFrom(0);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame.value().type, 10);
    EXPECT_EQ(SeqOf(frame.value()), i);
  }
  std::vector<uint32_t> next(kPeers, 0);
  for (uint32_t n = 0; n < (kPeers - 1) * kFrames; ++n) {
    auto event = mux.RecvAny();
    ASSERT_TRUE(event.ok()) << event.status().ToString();
    const int p = event.value().peer;
    ASSERT_TRUE(p == 1 || p == 2) << p;
    ASSERT_TRUE(event.value().frame.ok());
    EXPECT_EQ(event.value().frame.value().type, 10 + p);
    EXPECT_EQ(SeqOf(event.value().frame.value()), next[p]++);
  }
  for (auto& t : senders) t.join();
  EXPECT_EQ(next[1], kFrames);
  EXPECT_EQ(next[2], kFrames);
}

TEST_P(MuxTest, RecvAnySurfacesEachTerminalStatusOnceThenFails) {
  Links links = Connect(GetParam(), 2);
  FrameMux mux(links.Borrowed());
  ASSERT_TRUE(mux.Start().ok());
  for (int p = 0; p < 2; ++p) {
    ASSERT_TRUE(links.remote[p]->Send(SeqFrame(7, p)).ok());
    links.remote[p]->Close();
  }
  int frames = 0;
  std::vector<int> terminals(2, 0);
  for (int n = 0; n < 4; ++n) {
    auto event = mux.RecvAny();
    ASSERT_TRUE(event.ok()) << event.status().ToString();
    const int p = event.value().peer;
    if (event.value().frame.ok()) {
      // A peer's frames all precede its terminal status.
      EXPECT_EQ(terminals[p], 0);
      EXPECT_EQ(SeqOf(event.value().frame.value()), static_cast<uint32_t>(p));
      ++frames;
    } else {
      ++terminals[p];
    }
  }
  EXPECT_EQ(frames, 2);
  EXPECT_EQ(terminals, std::vector<int>({1, 1}));
  auto gone = mux.RecvAny();
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kFailedPrecondition);
  // The terminal status stays sticky for RecvFrom.
  EXPECT_FALSE(mux.RecvFrom(0).ok());
  EXPECT_FALSE(mux.RecvFrom(1).ok());
}

TEST_P(MuxTest, InterruptPeerDropsQueuedFramesAndIsNeverSurfaced) {
  Links links = Connect(GetParam(), 2);
  FrameMux mux(links.Borrowed());
  ASSERT_TRUE(mux.Start().ok());
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(links.remote[0]->Send(SeqFrame(5, i)).ok());
  }
  // Wait until the mux has read all three frames off peer 0.
  const uint64_t sent = links.remote[0]->bytes_sent();
  const auto start = Clock::now();
  while (links.server[0]->bytes_received() < sent &&
         SecondsSince(start) < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(links.server[0]->bytes_received(), sent);

  // A code no transport produces, so the test sees whose status won.
  mux.InterruptPeer(0, Status::NotFound("retired"));
  auto retired = mux.RecvFrom(0);
  ASSERT_FALSE(retired.ok());
  EXPECT_EQ(retired.status().code(), StatusCode::kNotFound);
  // The interrupted connection ends for its peer too.
  if (GetParam() == Kind::kChannel) {
    EXPECT_FALSE(links.remote[0]->Recv().ok());
  }

  ASSERT_TRUE(links.remote[1]->Send(SeqFrame(6, 9)).ok());
  links.remote[1]->Close();
  auto event = mux.RecvAny();
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event.value().peer, 1);
  ASSERT_TRUE(event.value().frame.ok());
  EXPECT_EQ(SeqOf(event.value().frame.value()), 9u);
  event = mux.RecvAny();
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event.value().peer, 1);
  EXPECT_FALSE(event.value().frame.ok());
  // Peer 0 is never surfaced: with peer 1 gone the mux reports no peers.
  auto gone = mux.RecvAny();
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kFailedPrecondition);
}

TEST_P(MuxTest, AddPeerGetsNextIndexAndDeliversEarlierFrames) {
  Links links = Connect(GetParam(), 2);
  FrameMux mux(links.Borrowed());
  EXPECT_FALSE(mux.AddPeer(links.server[0].get()).ok());  // not started
  ASSERT_TRUE(mux.Start().ok());
  AddLink(GetParam(), &links);
  // Sent before registration: already queued on the transport.
  ASSERT_TRUE(links.remote[2]->Send(SeqFrame(3, 0)).ok());
  ASSERT_TRUE(links.remote[2]->Send(SeqFrame(3, 1)).ok());
  auto peer = mux.AddPeer(links.server[2].get());
  ASSERT_TRUE(peer.ok()) << peer.status().ToString();
  EXPECT_EQ(peer.value(), 2);
  for (uint32_t i = 0; i < 2; ++i) {
    auto frame = mux.RecvFrom(2);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(SeqOf(frame.value()), i);
  }
  ASSERT_TRUE(links.remote[2]->Send(SeqFrame(3, 2)).ok());
  auto later = mux.RecvFrom(2);
  ASSERT_TRUE(later.ok());
  EXPECT_EQ(SeqOf(later.value()), 2u);
  mux.Shutdown();
  EXPECT_FALSE(mux.AddPeer(links.server[2].get()).ok());
}

TEST_P(MuxTest, OversizedFrameFailsWithTheBlockingRecvStatus) {
  // Link 0 is read by blocking Recv, link 1 through the mux; both carry
  // the same 1 KiB cap and the same oversized frame.
  Links links = Connect(GetParam(), 2);
  for (auto& t : links.server) t->set_max_frame_payload(1024);
  for (auto& t : links.remote) {
    ASSERT_TRUE(t->Send(SeqFrame(4, 0, 4096)).ok());
  }
  auto blocking = links.server[0]->Recv();
  ASSERT_FALSE(blocking.ok());

  FrameMux mux({links.server[1].get()});
  ASSERT_TRUE(mux.Start().ok());
  auto muxed = mux.RecvFrom(0);
  ASSERT_FALSE(muxed.ok());
  EXPECT_EQ(muxed.status().code(), blocking.status().code());
  EXPECT_EQ(muxed.status().message(), blocking.status().message());
}

TEST_P(MuxTest, ShutdownUnblocksWaitersPromptly) {
  Links links = Connect(GetParam(), 2);
  FrameMux mux(links.Borrowed());
  ASSERT_TRUE(mux.Start().ok());
  Status from = Status::Ok();
  Status any = Status::Ok();
  std::thread from_waiter([&] { from = mux.RecvFrom(0).status(); });
  std::thread any_waiter([&] { any = mux.RecvAny().status(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto start = Clock::now();
  mux.Shutdown();
  from_waiter.join();
  any_waiter.join();
  EXPECT_LT(SecondsSince(start), 0.05);
  EXPECT_FALSE(from.ok());
  EXPECT_FALSE(any.ok());
  EXPECT_FALSE(mux.RecvFrom(1).ok());
}

TEST_P(MuxTest, ShutdownIsPromptWhenEveryPeerIsAlreadyTerminal) {
  Links links = Connect(GetParam(), 2);
  FrameMux mux(links.Borrowed());
  ASSERT_TRUE(mux.Start().ok());
  for (auto& t : links.remote) t->Close();
  for (int n = 0; n < 2; ++n) {
    auto event = mux.RecvAny();
    ASSERT_TRUE(event.ok());
    EXPECT_FALSE(event.value().frame.ok());
  }
  ASSERT_FALSE(mux.RecvAny().ok());  // every peer gone; loops now idle
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto start = Clock::now();
  mux.Shutdown();
  EXPECT_LT(SecondsSince(start), 0.05);
}

INSTANTIATE_TEST_SUITE_P(Transports, MuxTest,
                         ::testing::Values(Kind::kChannel, Kind::kTcp),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           return info.param == Kind::kChannel ? "Channel"
                                                               : "Tcp";
                         });

TEST(MuxTcpTest, SilentPeerWithRecvDeadlineFailsRecvFrom) {
  Links links = Connect(Kind::kTcp, 1);
  auto* server = static_cast<TcpTransport*>(links.server[0].get());
  ASSERT_TRUE(server->SetRecvTimeout(100).ok());
  FrameMux mux(links.Borrowed());
  ASSERT_TRUE(mux.Start().ok());
  const auto start = Clock::now();
  auto frame = mux.RecvFrom(0);
  const double elapsed = SecondsSince(start);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(elapsed, 0.09);
  EXPECT_LT(elapsed, 5.0);
  // Sticky: the connection is unframeable after a deadline.
  auto again = mux.RecvFrom(0);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kDeadlineExceeded);
}

std::shared_ptr<ReplayTransport::State> ReplayOf(uint16_t type,
                                                 uint32_t frames) {
  auto state = std::make_shared<ReplayTransport::State>();
  for (uint32_t i = 0; i < frames; ++i) {
    state->inbound.push_back(EncodeFrame(SeqFrame(type, i)));
  }
  return state;
}

TEST(MuxReplayTest, RecordedFramesArriveInOrderThenTheRunDriesUp) {
  std::vector<std::unique_ptr<ReplayTransport>> peers;
  peers.push_back(std::make_unique<ReplayTransport>(ReplayOf(1, 5)));
  peers.push_back(std::make_unique<ReplayTransport>(ReplayOf(2, 3)));
  FrameMux mux({peers[0].get(), peers[1].get()});
  ASSERT_TRUE(mux.Start().ok());
  for (uint32_t i = 0; i < 5; ++i) {
    auto frame = mux.RecvFrom(0);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(SeqOf(frame.value()), i);
  }
  // A driver asking past the recording fails instead of waiting forever.
  auto dry = mux.RecvFrom(0);
  ASSERT_FALSE(dry.ok());
  EXPECT_EQ(dry.status().code(), StatusCode::kFailedPrecondition);

  // Peer 1's frames precede its terminal status; each status comes once.
  uint32_t next = 0;
  std::vector<int> terminals(2, 0);
  while (terminals[0] + terminals[1] < 2) {
    auto event = mux.RecvAny();
    ASSERT_TRUE(event.ok()) << event.status().ToString();
    const int p = event.value().peer;
    if (!event.value().frame.ok()) {
      ++terminals[p];
      continue;
    }
    EXPECT_EQ(p, 1);
    EXPECT_EQ(terminals[1], 0);
    EXPECT_EQ(SeqOf(event.value().frame.value()), next++);
  }
  EXPECT_EQ(terminals, std::vector<int>({1, 1}));
  EXPECT_EQ(next, 3u);
  EXPECT_FALSE(mux.RecvAny().ok());
  const auto start = Clock::now();
  mux.Shutdown();
  EXPECT_LT(SecondsSince(start), 0.05);
}

}  // namespace
}  // namespace net
}  // namespace uldp
