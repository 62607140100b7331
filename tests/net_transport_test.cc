#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "net/tcp.h"
#include "net/transport.h"

namespace uldp {
namespace net {
namespace {

Frame TestFrame(uint16_t type, size_t payload_size) {
  Frame frame;
  frame.type = type;
  frame.payload.resize(payload_size);
  for (size_t i = 0; i < payload_size; ++i) {
    frame.payload[i] = static_cast<uint8_t>(i * 31 + type);
  }
  return frame;
}

TEST(ChannelTransportTest, SendRecvAcrossThreads) {
  auto [a, b] = ChannelTransport::CreatePair();
  std::thread peer([&b = b] {
    for (int i = 0; i < 10; ++i) {
      auto frame = b->Recv();
      ASSERT_TRUE(frame.ok());
      EXPECT_EQ(frame.value().type, i + 1);
      // Echo back with doubled type.
      Frame reply = frame.value();
      reply.type = static_cast<uint16_t>(2 * (i + 1));
      ASSERT_TRUE(b->Send(reply).ok());
    }
  });
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(a->Send(TestFrame(static_cast<uint16_t>(i + 1), 100)).ok());
    auto reply = a->Recv();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().type, 2 * (i + 1));
  }
  peer.join();
  // Counters include frame headers, symmetric across the pair.
  EXPECT_EQ(a->bytes_sent(), 10 * (kFrameHeaderSize + 100));
  EXPECT_EQ(a->bytes_sent(), b->bytes_received());
  EXPECT_EQ(a->bytes_received(), b->bytes_sent());
}

TEST(ChannelTransportTest, CloseUnblocksAndFailsCleanly) {
  auto [a, b] = ChannelTransport::CreatePair();
  std::thread closer([&b = b] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    b->Close();
  });
  auto frame = a->Recv();  // blocked until the peer closes
  EXPECT_FALSE(frame.ok());
  closer.join();
  EXPECT_FALSE(a->Send(TestFrame(1, 4)).ok());
}

TEST(ChannelTransportTest, QueuedFramesSurviveUntilDrained) {
  auto [a, b] = ChannelTransport::CreatePair();
  ASSERT_TRUE(a->Send(TestFrame(5, 16)).ok());
  ASSERT_TRUE(a->Send(TestFrame(6, 16)).ok());
  EXPECT_EQ(b->Recv().value().type, 5);
  EXPECT_EQ(b->Recv().value().type, 6);
}

bool Readable(const Transport& t) {
  pollfd pfd{t.NativeHandle(), POLLIN, 0};
  return ::poll(&pfd, 1, 0) == 1 && (pfd.revents & POLLIN) != 0;
}

TEST(ChannelTransportTest, HandleIsReadableExactlyWhileFramesQueuedOrClosed) {
  auto [a, b] = ChannelTransport::CreatePair();
  Frame frame;
  EXPECT_FALSE(Readable(*b));
  ASSERT_TRUE(a->Send(TestFrame(1, 8)).ok());
  ASSERT_TRUE(a->Send(TestFrame(2, 8)).ok());
  EXPECT_TRUE(Readable(*b));
  ASSERT_TRUE(b->TryReadFrame(&frame).value());
  EXPECT_EQ(frame.type, 1);
  EXPECT_TRUE(Readable(*b));  // one frame still queued
  ASSERT_TRUE(b->TryReadFrame(&frame).value());
  EXPECT_EQ(frame.type, 2);
  EXPECT_FALSE(Readable(*b));  // emptied: level-triggered epoll rests
  EXPECT_FALSE(b->TryReadFrame(&frame).value());

  // A blocking Recv takes the frame but leaves its count; the next
  // TryReadFrame finds the queue empty and clears it.
  ASSERT_TRUE(a->Send(TestFrame(3, 8)).ok());
  EXPECT_EQ(b->Recv().value().type, 3);
  EXPECT_FALSE(b->TryReadFrame(&frame).value());
  EXPECT_FALSE(Readable(*b));

  // Close keeps the handle readable so the mux reads the terminal status,
  // after any frames still queued.
  ASSERT_TRUE(a->Send(TestFrame(4, 8)).ok());
  a->Close();
  EXPECT_TRUE(Readable(*b));
  ASSERT_TRUE(b->TryReadFrame(&frame).value());
  EXPECT_EQ(frame.type, 4);
  EXPECT_TRUE(Readable(*b));
  EXPECT_FALSE(b->TryReadFrame(&frame).ok());
  EXPECT_TRUE(Readable(*b));
}

TEST(TcpTransportTest, LoopbackSendRecv) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  int port = listener.value().port();
  ASSERT_GT(port, 0);

  std::thread client_thread([port] {
    auto client = TcpTransport::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    // Big frame to exercise partial reads/writes.
    ASSERT_TRUE(client.value()->Send(TestFrame(9, 1 << 20)).ok());
    auto reply = client.value()->Recv();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().type, 10);
    EXPECT_EQ(reply.value().payload.size(), 0u);
  });

  auto server = listener.value().Accept();
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto frame = server.value()->Recv();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().type, 9);
  EXPECT_EQ(frame.value().payload, TestFrame(9, 1 << 20).payload);
  ASSERT_TRUE(server.value()->Send(TestFrame(10, 0)).ok());
  client_thread.join();
  EXPECT_EQ(server.value()->bytes_received(),
            kFrameHeaderSize + (1u << 20));
}

TEST(TcpTransportTest, RecvDeadlineFailsFastOnSilentPeer) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  auto client = TcpTransport::Connect("127.0.0.1", listener.value().port());
  ASSERT_TRUE(client.ok());
  auto server = listener.value().Accept();
  ASSERT_TRUE(server.ok());

  // The client never sends a byte; without the deadline this Recv would
  // block forever (the ROADMAP's silent-peer hang).
  ASSERT_TRUE(server.value()->SetRecvTimeout(100).ok());
  auto start = std::chrono::steady_clock::now();
  auto frame = server.value()->Recv();
  auto elapsed = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 5.0);
  // The timed-out transport is closed (mid-frame timeouts desync the
  // stream); further reads fail as closed, not as timeouts.
  EXPECT_FALSE(server.value()->Recv().ok());
}

TEST(TcpTransportTest, RecvDeadlineZeroRestoresBlockingReads) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  auto client = TcpTransport::Connect("127.0.0.1", listener.value().port());
  ASSERT_TRUE(client.ok());
  auto server = listener.value().Accept();
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->SetRecvTimeout(200).ok());
  ASSERT_TRUE(server.value()->SetRecvTimeout(0).ok());
  std::thread sender([&client] {
    std::this_thread::sleep_for(std::chrono::milliseconds(350));
    ASSERT_TRUE(client.value()->Send(TestFrame(3, 16)).ok());
  });
  // With the deadline cleared, a frame arriving after the old 200 ms
  // deadline is still received.
  auto frame = server.value()->Recv();
  sender.join();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().type, 3);
}

TEST(TcpTransportTest, ConnectErrorsAreStatusesNotAborts) {
  EXPECT_FALSE(TcpTransport::Connect("127.0.0.1", 0).ok());
  EXPECT_FALSE(TcpTransport::Connect("not-an-address", 4444).ok());
  EXPECT_FALSE(TcpListener::Listen(-1).ok());
  EXPECT_FALSE(TcpListener::Listen(70000).ok());
}

TEST(TcpTransportTest, PeerHangupMidFrameIsAnError) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  int port = listener.value().port();
  std::thread client_thread([port] {
    auto client = TcpTransport::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok());
    // Close without sending anything: the server's Recv must error, not
    // hang or abort.
    client.value()->Close();
  });
  auto server = listener.value().Accept();
  ASSERT_TRUE(server.ok());
  EXPECT_FALSE(server.value()->Recv().ok());
  client_thread.join();
}

// Writes raw bytes to 127.0.0.1:port over a plain socket (bypassing the
// frame codec) so the receiving TcpTransport sees exactly these bytes.
void SendRawBytes(int port, const std::vector<uint8_t>& bytes) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<uint16_t>(port));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + done, bytes.size() - done, 0);
    ASSERT_GT(n, 0);
    done += static_cast<size_t>(n);
  }
  ::close(fd);
}

TEST(TcpTransportTest, GarbageBytesAreRejectedAsBadFrames) {
  auto make_listener = [] { return TcpListener::Listen(0); };

  // Corrupted magic.
  {
    auto listener = make_listener();
    ASSERT_TRUE(listener.ok());
    auto bytes = EncodeFrame(TestFrame(3, 8));
    bytes[0] ^= 0xFF;
    std::thread writer(SendRawBytes, listener.value().port(), bytes);
    auto server = listener.value().Accept();
    ASSERT_TRUE(server.ok());
    auto frame = server.value()->Recv();
    EXPECT_FALSE(frame.ok());
    EXPECT_NE(frame.status().message().find("magic"), std::string::npos);
    writer.join();
  }
  // Unsupported version.
  {
    auto listener = make_listener();
    ASSERT_TRUE(listener.ok());
    auto bytes = EncodeFrame(TestFrame(3, 8));
    bytes[4] = 99;
    std::thread writer(SendRawBytes, listener.value().port(), bytes);
    auto server = listener.value().Accept();
    ASSERT_TRUE(server.ok());
    EXPECT_FALSE(server.value()->Recv().ok());
    writer.join();
  }
  // Header promises more payload than the peer ever sends (truncated
  // frame): the read must fail on hangup instead of blocking forever.
  {
    auto listener = make_listener();
    ASSERT_TRUE(listener.ok());
    auto bytes = EncodeFrame(TestFrame(3, 64));
    bytes.resize(kFrameHeaderSize + 10);
    std::thread writer(SendRawBytes, listener.value().port(), bytes);
    auto server = listener.value().Accept();
    ASSERT_TRUE(server.ok());
    EXPECT_FALSE(server.value()->Recv().ok());
    writer.join();
  }
  // Payload length field above the cap.
  {
    auto listener = make_listener();
    ASSERT_TRUE(listener.ok());
    auto bytes = EncodeFrame(TestFrame(3, 0));
    bytes[8] = 0xFF;
    bytes[9] = 0xFF;
    bytes[10] = 0xFF;
    bytes[11] = 0xFF;
    std::thread writer(SendRawBytes, listener.value().port(), bytes);
    auto server = listener.value().Accept();
    ASSERT_TRUE(server.ok());
    EXPECT_FALSE(server.value()->Recv().ok());
    writer.join();
  }
}

}  // namespace
}  // namespace net
}  // namespace uldp
