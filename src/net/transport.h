// Transport abstraction for the cross-silo protocol: a bidirectional,
// frame-oriented channel between one silo and the server, read either by
// blocking Recv (clients, join handshakes) or by the server's epoll mux
// (net/mux.h) through NativeHandle + non-blocking TryReadFrame.
//
// Two backends:
//   * ChannelTransport — an in-process queue pair for tests and
//     single-machine simulations. Frames are serialized to wire bytes and
//     decoded on receive, so the codec path (and the byte counters) are
//     exercised identically to a real network. Each queue carries an
//     eventfd, so the mux serves channels with the code it runs for
//     sockets.
//   * TcpTransport (net/tcp.h) — POSIX sockets, loopback-tested.
//
// Both endpoints count bytes sent/received (wire bytes, frame headers
// included) so the bench can report bytes-on-the-wire per phase. The
// counters live on the metrics registry (src/obs): per-connection
// accessors read this object's own instances (exact, as before) while a
// registry snapshot reports fleet totals across live and closed
// connections under net.transport.*.

#ifndef ULDP_NET_TRANSPORT_H_
#define ULDP_NET_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace uldp {
namespace net {

/// An eventfd used as a level-triggered readiness flag: readable from
/// Signal() until Clear(). The queue-backed transports expose one as
/// their NativeHandle, and the mux uses one to wake its loops.
class EventFd {
 public:
  EventFd();
  ~EventFd();
  EventFd(const EventFd&) = delete;
  EventFd& operator=(const EventFd&) = delete;

  int fd() const { return fd_; }
  void Signal();
  void Clear();

 private:
  int fd_;
};

/// Observer of the exact wire bytes crossing a transport, in both
/// directions — the recording hook behind tamper-evident run transcripts
/// (net/transcript.h). A sink bound to several transports receives each
/// frame tagged with the peer id it was bound under; implementations must
/// be thread-safe (sends and receives tap from different threads).
class TranscriptSink {
 public:
  virtual ~TranscriptSink() = default;
  /// One complete frame exactly as encoded on the wire (header included).
  /// `sent` is from the local party's perspective.
  virtual void RecordFrame(uint32_t peer_id, bool sent, const uint8_t* data,
                           size_t size) = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends one frame; blocks until the frame is handed to the backend.
  virtual Status Send(const Frame& frame) = 0;
  /// Blocks until a full frame arrives. Errors on close, disconnect, or a
  /// malformed/truncated frame.
  virtual Result<Frame> Recv() = 0;
  /// Closes both directions; pending and future Recv calls fail.
  virtual void Close() = 0;
  /// Unblocks any thread stuck in Recv without tearing the object down
  /// (the mux shutdown path, net/mux.h). Backends where Close is already
  /// safe against a concurrent Recv just close.
  virtual void Interrupt() { Close(); }

  /// Kernel handle the epoll mux (net/mux.h) waits on: level-triggered
  /// readable whenever TryReadFrame can make progress.
  virtual int NativeHandle() const = 0;

  /// Non-blocking read step for the mux: consume whatever is available
  /// and return true with a complete frame, false when no complete frame
  /// is available yet, or the same terminal errors Recv produces.
  virtual Result<bool> TryReadFrame(Frame* out) = 0;

  uint64_t bytes_sent() const { return sent_bytes_.value(); }
  uint64_t bytes_received() const { return received_bytes_.value(); }

  /// Per-connection receive cap on one frame's payload: an incoming frame
  /// whose header announces more than this is rejected before any payload
  /// allocation. Clamped to [kFrameHeaderSize, kMaxFramePayload]; the
  /// default is kDefaultMaxFramePayload (--max-frame-bytes on the CLI).
  void set_max_frame_payload(uint32_t cap) {
    if (cap < 1024) cap = 1024;
    if (cap > kMaxFramePayload) cap = kMaxFramePayload;
    max_frame_payload_.store(cap, std::memory_order_relaxed);
  }
  uint32_t max_frame_payload() const {
    return max_frame_payload_.load(std::memory_order_relaxed);
  }

  /// Receive deadline in milliseconds (0 = none). Set by the TCP backend's
  /// SetRecvTimeout; the mux reads it to enforce the same deadline on its
  /// waiters.
  int recv_timeout_ms() const {
    return recv_timeout_ms_.load(std::memory_order_relaxed);
  }

  /// Largest single frame seen in either direction (wire bytes, header
  /// included) — the stream-scaling bench's per-chunk byte ceiling. Backed
  /// by a max-aggregated registry gauge, so a snapshot reports the fleet
  /// high-water mark while this accessor stays per-connection.
  uint64_t largest_frame_bytes() const {
    return static_cast<uint64_t>(largest_frame_.value());
  }
  /// Returns largest_frame_bytes() and resets the window, so a caller can
  /// measure the largest frame of one protocol phase (e.g. the weighting
  /// rounds, excluding the setup handshake) in isolation.
  uint64_t TakeLargestFrame() {
    return static_cast<uint64_t>(largest_frame_.Exchange(0));
  }

  /// Attaches a transcript recorder: every frame subsequently sent or
  /// received on this transport is reported to `sink` as the exact wire
  /// bytes, tagged with `peer_id`. Bind before any traffic flows (the CLI
  /// binds right after accept/connect); a null sink detaches. The tap is
  /// strictly passive — it observes encoded bytes and never alters them,
  /// so recorded and unrecorded runs are bitwise identical.
  void BindTranscript(std::shared_ptr<TranscriptSink> sink,
                      uint32_t peer_id) {
    transcript_peer_ = peer_id;
    std::atomic_store_explicit(&transcript_, std::move(sink),
                               std::memory_order_release);
  }

 protected:
  /// Backends call these with the full encoded frame (header + payload)
  /// at the moment it hits — or arrives from — the wire.
  void TapSent(const uint8_t* data, size_t size) {
    auto sink = std::atomic_load_explicit(&transcript_,
                                          std::memory_order_acquire);
    if (sink != nullptr) sink->RecordFrame(transcript_peer_, true, data, size);
  }
  void TapReceived(const uint8_t* data, size_t size) {
    auto sink = std::atomic_load_explicit(&transcript_,
                                          std::memory_order_acquire);
    if (sink != nullptr) {
      sink->RecordFrame(transcript_peer_, false, data, size);
    }
  }
  bool transcript_bound() const {
    return std::atomic_load_explicit(&transcript_,
                                     std::memory_order_acquire) != nullptr;
  }
  void NoteFrame(uint64_t wire_bytes) {
    largest_frame_.SetMax(static_cast<int64_t>(wire_bytes));
    frame_bytes_.Record(wire_bytes);
  }
  void NoteSent(uint64_t n) { sent_bytes_.Add(n); }
  void NoteReceived(uint64_t n) { received_bytes_.Add(n); }
  void set_recv_timeout_ms(int ms) {
    recv_timeout_ms_.store(ms, std::memory_order_relaxed);
  }
  /// The receive step of the queue-backed backends (channels, replay),
  /// shared by their Recv and TryReadFrame: counts the bytes, enforces
  /// the frame cap, decodes, and taps the frame into a bound transcript
  /// once the wire layer accepted it.
  Result<Frame> AcceptWireFrame(const std::vector<uint8_t>& bytes);

 private:
  std::shared_ptr<TranscriptSink> transcript_;  // atomic free-function access
  uint32_t transcript_peer_ = 0;
  std::atomic<uint32_t> max_frame_payload_{kDefaultMaxFramePayload};
  std::atomic<int> recv_timeout_ms_{0};
  obs::Counter sent_bytes_{"net.transport.bytes_sent"};
  obs::Counter received_bytes_{"net.transport.bytes_received"};
  obs::Gauge largest_frame_{"net.transport.largest_frame_bytes",
                            obs::Gauge::Agg::kMax};
  obs::Histogram frame_bytes_{"net.transport.frame_bytes"};
};

/// In-process transport: a pair of endpoints connected by two one-way
/// frame queues (mutex + condvar; senders never block on capacity). Each
/// queue's eventfd is readable exactly while frames are queued or the pair
/// is closed: Send and Close signal it, and TryReadFrame clears it when it
/// empties the queue, so level-triggered epoll never spins.
class ChannelTransport : public Transport {
 public:
  /// Creates a connected endpoint pair; either side may be handed to
  /// another thread.
  static std::pair<std::unique_ptr<ChannelTransport>,
                   std::unique_ptr<ChannelTransport>>
  CreatePair();

  Status Send(const Frame& frame) override;
  Result<Frame> Recv() override;
  void Close() override;
  int NativeHandle() const override { return rx_->ready.fd(); }
  Result<bool> TryReadFrame(Frame* out) override;

 private:
  struct Queue {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::vector<uint8_t>> frames;
    bool closed = false;
    EventFd ready;
  };

  ChannelTransport(std::shared_ptr<Queue> tx, std::shared_ptr<Queue> rx)
      : tx_(std::move(tx)), rx_(std::move(rx)) {}

  std::shared_ptr<Queue> tx_, rx_;
};

}  // namespace net
}  // namespace uldp

#endif  // ULDP_NET_TRANSPORT_H_
