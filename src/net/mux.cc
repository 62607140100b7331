#include "net/mux.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

#include "obs/trace.h"

namespace uldp {
namespace net {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// epoll data of the Shutdown eventfd; peer indices never reach it.
constexpr uint64_t kWakeToken = ~uint64_t{0};

Status DeadlineStatus() {
  return Status::DeadlineExceeded(
      "tcp: recv deadline exceeded waiting for a peer frame");
}

Status EpollError(const char* op) {
  return Status::Internal(std::string(op) + ": " + std::strerror(errno));
}

}  // namespace

FrameMux::FrameMux(std::vector<Transport*> peers)
    : peers_(std::move(peers)), state_(peers_.size()) {}

FrameMux::~FrameMux() { Shutdown(); }

Status FrameMux::Start() {
  for (const Transport* t : peers_) {
    if (t == nullptr) return Status::InvalidArgument("mux: null transport");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return Status::FailedPrecondition("mux already started");
    started_ = true;
  }
  // Enough loops that a huge cohort shares the drain work, few enough
  // that a small one costs a single thread.
  const int num_loops =
      static_cast<int>(std::min<size_t>(4, 1 + peers_.size() / 64));
  epoll_fds_.assign(num_loops, -1);
  Status status = Status::Ok();
  for (int k = 0; k < num_loops && status.ok(); ++k) {
    epoll_fds_[k] = ::epoll_create1(EPOLL_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeToken;
    if (epoll_fds_[k] < 0) {
      status = EpollError("epoll_create1");
    } else if (::epoll_ctl(epoll_fds_[k], EPOLL_CTL_ADD, wake_.fd(), &ev) !=
               0) {
      status = EpollError("epoll_ctl");
    }
  }
  for (size_t i = 0; i < peers_.size() && status.ok(); ++i) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.u64 = static_cast<uint64_t>(i);
    if (::epoll_ctl(epoll_fds_[i % num_loops], EPOLL_CTL_ADD,
                    peers_[i]->NativeHandle(), &ev) != 0) {
      status = EpollError("epoll_ctl");
    }
  }
  if (!status.ok()) {
    CloseEpollFds();
    return status;
  }
  loops_.reserve(num_loops);
  for (int k = 0; k < num_loops; ++k) {
    loops_.emplace_back([this, k] { Loop(k); });
  }
  return Status::Ok();
}

Result<Frame> FrameMux::RecvFrom(int peer) {
  std::unique_lock<std::mutex> lock(mu_);  // AddPeer may grow peers_
  if (peer < 0 || peer >= static_cast<int>(peers_.size())) {
    return Status::InvalidArgument("mux: peer index out of range");
  }
  if (!started_) return Status::FailedPrecondition("mux not started");
  uint64_t seen_bytes = peers_[peer]->bytes_received();
  auto wait_start = SteadyClock::now();
  for (;;) {
    PeerState& st = state_[peer];
    if (!st.frames.empty()) {
      Frame frame = std::move(st.frames.front());
      st.frames.pop_front();
      NoteDispatchLocked(st);
      return frame;
    }
    if (st.is_terminal) return st.terminal;
    if (stopped_) return Status::FailedPrecondition("mux shut down");
    const int timeout_ms = peers_[peer]->recv_timeout_ms();
    if (timeout_ms <= 0) {
      cv_.wait(lock);
      continue;
    }
    const auto deadline = wait_start + std::chrono::milliseconds(timeout_ms);
    if (cv_.wait_until(lock, deadline) != std::cv_status::timeout) continue;
    if (!state_[peer].frames.empty() || state_[peer].is_terminal ||
        stopped_) {
      continue;
    }
    const uint64_t now_bytes = peers_[peer]->bytes_received();
    if (now_bytes != seen_bytes) {
      // Mid-frame progress restarts the window — the same "no bytes for
      // timeout_ms" rule SO_RCVTIMEO applies to a blocking Recv.
      seen_bytes = now_bytes;
      wait_start = SteadyClock::now();
      continue;
    }
    MarkTerminalLocked(peer, DeadlineStatus());
    peers_[peer]->Interrupt();
  }
}

Result<MuxEvent> FrameMux::RecvAny() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!started_) return Status::FailedPrecondition("mux not started");
  uint64_t seen_bytes = TotalBytes();
  auto wait_start = SteadyClock::now();
  for (;;) {
    for (size_t i = 0; i < state_.size(); ++i) {
      if (state_[i].frames.empty()) continue;
      MuxEvent event;
      event.peer = static_cast<int>(i);
      event.frame = std::move(state_[i].frames.front());
      state_[i].frames.pop_front();
      NoteDispatchLocked(state_[i]);
      return event;
    }
    bool all_gone = true;
    for (size_t i = 0; i < state_.size(); ++i) {
      if (!state_[i].is_terminal) {
        all_gone = false;
        continue;
      }
      if (state_[i].terminal_reported) continue;
      state_[i].terminal_reported = true;
      MuxEvent event;
      event.peer = static_cast<int>(i);
      event.frame = state_[i].terminal;
      return event;
    }
    if (stopped_) return Status::FailedPrecondition("mux shut down");
    if (all_gone) {
      return Status::FailedPrecondition("mux: every peer disconnected");
    }
    int timeout_ms = 0;
    for (size_t i = 0; i < state_.size(); ++i) {
      if (state_[i].is_terminal) continue;
      const int t = peers_[i]->recv_timeout_ms();
      if (t > 0 && (timeout_ms == 0 || t < timeout_ms)) timeout_ms = t;
    }
    if (timeout_ms <= 0) {
      cv_.wait(lock);
      continue;
    }
    const auto deadline = wait_start + std::chrono::milliseconds(timeout_ms);
    if (cv_.wait_until(lock, deadline) != std::cv_status::timeout) continue;
    const uint64_t now_bytes = TotalBytes();
    if (now_bytes != seen_bytes) {
      seen_bytes = now_bytes;
      wait_start = SteadyClock::now();
      continue;
    }
    bool anything_queued = false;
    for (const PeerState& st : state_) {
      if (!st.frames.empty() || (st.is_terminal && !st.terminal_reported)) {
        anything_queued = true;
      }
    }
    if (anything_queued || stopped_) continue;
    return DeadlineStatus();
  }
}

void FrameMux::Shutdown() {
  std::vector<Transport*> peers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const bool running = started_ && !stopped_;
    stopped_ = true;
    started_ = true;  // later Recv calls fail with "mux shut down"
    if (running) peers = peers_;
  }
  cv_.notify_all();
  wake_.Signal();
  for (Transport* t : peers) t->Interrupt();
  for (std::thread& t : loops_) {
    if (t.joinable()) t.join();
  }
  CloseEpollFds();
}

Result<int> FrameMux::AddPeer(Transport* t) {
  if (t == nullptr) return Status::InvalidArgument("mux: null transport");
  int peer = -1;
  int epfd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopped_) {
      return Status::FailedPrecondition(
          "mux: AddPeer needs a started, un-shutdown mux");
    }
    peers_.push_back(t);
    state_.emplace_back();
    peer = static_cast<int>(peers_.size()) - 1;
    epfd = epoll_fds_[peer % epoll_fds_.size()];
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP;
  ev.data.u64 = static_cast<uint64_t>(peer);
  // Level-triggered: frames already queued on the transport wake the loop
  // immediately, so nothing sent before registration is lost.
  if (::epoll_ctl(epfd, EPOLL_CTL_ADD, t->NativeHandle(), &ev) != 0) {
    MarkTerminal(peer, EpollError("epoll_ctl"));
  }
  return peer;
}

void FrameMux::InterruptPeer(int peer, Status status) {
  Transport* t = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (peer < 0 || peer >= static_cast<int>(peers_.size())) return;
    PeerState& st = state_[peer];
    st.frames.clear();
    st.enqueue_ns.clear();
    MarkTerminalLocked(peer, std::move(status));
    // Retired, not failed: RecvAny must never surface this peer again.
    st.terminal_reported = true;
    t = peers_[peer];
  }
  cv_.notify_all();
  t->Interrupt();
}

void FrameMux::NoteDispatchLocked(PeerState& st) {
  // Records how long the frame sat queued between the loop's Deliver and
  // the waiter's pop.
  if (st.enqueue_ns.empty()) return;
  dispatch_ns_.Record(obs::NowNs() - st.enqueue_ns.front());
  st.enqueue_ns.pop_front();
}

void FrameMux::Deliver(int peer, Frame frame) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A frame racing an InterruptPeer retire is dropped, not queued —
    // the caller already declared this peer gone.
    if (state_[peer].is_terminal) return;
    state_[peer].frames.push_back(std::move(frame));
    state_[peer].enqueue_ns.push_back(obs::NowNs());
    frames_.Add(1);
    queue_depth_.Record(state_[peer].frames.size());
  }
  cv_.notify_all();
}

void FrameMux::MarkTerminal(int peer, Status status) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MarkTerminalLocked(peer, std::move(status));
  }
  cv_.notify_all();
}

void FrameMux::MarkTerminalLocked(int peer, Status status) {
  PeerState& st = state_[peer];
  if (st.is_terminal) return;  // first failure wins
  st.is_terminal = true;
  st.terminal = std::move(status);
}

uint64_t FrameMux::TotalBytes() const {
  uint64_t total = 0;
  for (const Transport* t : peers_) total += t->bytes_received();
  return total;
}

void FrameMux::CloseEpollFds() {
  for (int& fd : epoll_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void FrameMux::Loop(int k) {
  epoll_event events[64];
  for (;;) {
    const uint64_t wait_start = obs::NowNs();
    const int n = ::epoll_wait(epoll_fds_[k], events, 64, -1);
    epoll_wait_ns_.Record(obs::NowNs() - wait_start);
    if (n < 0) {
      if (errno == EINTR) continue;
      // An unusable epoll set fails every peer of this loop rather than
      // spinning.
      const Status status = EpollError("epoll_wait");
      size_t peer_count;
      {
        std::lock_guard<std::mutex> lock(mu_);
        peer_count = peers_.size();
      }
      for (size_t i = static_cast<size_t>(k); i < peer_count;
           i += epoll_fds_.size()) {
        MarkTerminal(static_cast<int>(i), status);
      }
      return;
    }
    for (int e = 0; e < n; ++e) {
      if (events[e].data.u64 == kWakeToken) return;  // Shutdown
    }
    wakeups_.Add(1);
    obs::TraceSpan span("mux.drain", "ready_fds", n);
    uint64_t delivered = 0;
    for (int e = 0; e < n; ++e) {
      delivered += DrainPeer(k, static_cast<int>(events[e].data.u64));
    }
    frames_per_wakeup_.Record(delivered);
  }
}

uint64_t FrameMux::DrainPeer(int k, int peer) {
  Transport* t;
  {
    // peers_ grows under mu_ (AddPeer); snapshot the pointer instead of
    // holding a reference into a vector that may reallocate.
    std::lock_guard<std::mutex> lock(mu_);
    if (peer < 0 || peer >= static_cast<int>(peers_.size())) return 0;
    t = peers_[peer];
  }
  uint64_t delivered = 0;
  for (;;) {
    Frame frame;
    auto complete = t->TryReadFrame(&frame);
    if (!complete.ok()) {
      // Stop watching a finished transport, or level-triggered epoll
      // would spin on its EOF.
      ::epoll_ctl(epoll_fds_[k], EPOLL_CTL_DEL, t->NativeHandle(), nullptr);
      MarkTerminal(peer, complete.status());
      return delivered;
    }
    if (!complete.value()) return delivered;  // drained; next wakeup
    Deliver(peer, std::move(frame));
    ++delivered;
  }
}

}  // namespace net
}  // namespace uldp
