// Frame demultiplexer: one receive front end over many transports, so a
// server with hundreds of silo connections does not need one blocked
// reader thread per peer.
//
// One epoll backend serves every transport: TCP sockets, in-process
// channels and transcript replays all expose a level-triggered readable
// handle (Transport::NativeHandle) and a non-blocking read step
// (Transport::TryReadFrame). min(4, 1 + peers/64) event-loop threads
// share fd-partitioned epoll sets and drain ready transports, so no loop
// ever blocks on a slow peer. Receive deadlines are enforced at the
// waiter: a RecvFrom that sees no bytes from its peer for the transport's
// recv_timeout_ms fails with the same DeadlineExceeded a blocking TCP Recv
// produces, and interrupts the connection.
//
// Shutdown() wakes every loop through an eventfd registered in each epoll
// set, interrupts every transport and joins all mux threads, so a peer
// that hangs mid-frame can never leave a reader blocked after the server
// has failed the run, and teardown never waits on a quiet peer.
//
// Thread safety: Start once, then RecvFrom/RecvAny from any threads
// (multiple concurrent RecvFrom callers must target distinct peers;
// concurrent RecvAny callers race for arrivals, which is the point).

#ifndef ULDP_NET_MUX_H_
#define ULDP_NET_MUX_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace uldp {
namespace net {

/// One arrival surfaced by RecvAny: the peer index and either its frame or
/// its transport's terminal status (delivered once per peer).
struct MuxEvent {
  int peer = -1;
  Result<Frame> frame = Frame{};
};

class FrameMux {
 public:
  /// Transports are borrowed, not owned, and must outlive the mux; null
  /// entries are rejected at Start.
  explicit FrameMux(std::vector<Transport*> peers);
  ~FrameMux();

  FrameMux(const FrameMux&) = delete;
  FrameMux& operator=(const FrameMux&) = delete;

  /// Spawns the event loops. Call exactly once, after every peer's
  /// handshake traffic (blocking Recv) is finished — the mux owns all
  /// receives from then on.
  Status Start();

  /// Next frame from `peer`, in arrival order. A transport-level failure
  /// (disconnect, deadline, malformed frame) is sticky: every later call
  /// returns the same status. Error *frames* are returned as frames — the
  /// caller interprets them, exactly as with a direct Recv.
  Result<Frame> RecvFrom(int peer);

  /// Next arrival from any peer. A peer's terminal status is surfaced as
  /// one event and the peer is then ignored. Fails outright only when the
  /// mux is shut down, every peer is gone, or a waiter deadline expires.
  Result<MuxEvent> RecvAny();

  /// Interrupts every transport and joins all mux threads. Idempotent;
  /// pending RecvFrom/RecvAny callers fail promptly.
  void Shutdown();

  /// Registers a transport on a running mux and returns its peer index
  /// (indices only grow; existing peers keep theirs) — the elastic
  /// server's mid-run admission path. The transport is borrowed like the
  /// Start-time peers and must outlive the mux. Frames it queued before
  /// registration are delivered. Fails before Start or after Shutdown.
  Result<int> AddPeer(Transport* peer);

  /// Retires one peer: any queued frames are dropped, its terminal status
  /// becomes `status` without ever being surfaced through RecvAny, and
  /// its transport is interrupted so its peer sees the connection end now
  /// instead of at the recv deadline — eviction support, and the
  /// membership-aware owed-frame settle at shutdown (an evicted silo is
  /// never waited on). Out-of-range indices are ignored; a peer already
  /// terminal keeps its first status but still stops being surfaced.
  void InterruptPeer(int peer, Status status);

 private:
  struct PeerState {
    std::deque<Frame> frames;
    /// Deliver timestamps parallel to `frames` (NoteDispatchLocked pops
    /// one per frame) — the queue-residency half of dispatch latency.
    std::deque<uint64_t> enqueue_ns;
    Status terminal = Status::Ok();
    bool is_terminal = false;
    bool terminal_reported = false;
  };

  void NoteDispatchLocked(PeerState& st);
  void Deliver(int peer, Frame frame);
  void MarkTerminal(int peer, Status status);
  void MarkTerminalLocked(int peer, Status status);
  uint64_t TotalBytes() const;
  void CloseEpollFds();
  void Loop(int k);
  /// Returns the number of frames delivered from this peer.
  uint64_t DrainPeer(int k, int peer);

  std::vector<Transport*> peers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<PeerState> state_;
  bool started_ = false;
  bool stopped_ = false;
  std::vector<int> epoll_fds_;
  /// Registered in every epoll set; Shutdown signals it to end the loops.
  EventFd wake_;
  obs::Counter frames_{"net.mux.frames"};
  obs::Histogram dispatch_ns_{"net.mux.dispatch_ns"};
  obs::Histogram queue_depth_{"net.mux.queue_depth"};
  obs::Counter wakeups_{"net.mux.epoll_wakeups"};
  obs::Histogram epoll_wait_ns_{"net.mux.epoll_wait_ns"};
  obs::Histogram frames_per_wakeup_{"net.mux.frames_per_wakeup"};
  /// Last: the loops use every member above.
  std::vector<std::thread> loops_;
};

}  // namespace net
}  // namespace uldp

#endif  // ULDP_NET_MUX_H_
