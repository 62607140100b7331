#include "net/transport.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <string>

namespace uldp {
namespace net {

EventFd::EventFd() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}

EventFd::~EventFd() {
  if (fd_ >= 0) ::close(fd_);
}

void EventFd::Signal() {
  const uint64_t one = 1;
  while (::write(fd_, &one, sizeof(one)) < 0 && errno == EINTR) {
  }
}

void EventFd::Clear() {
  uint64_t count = 0;
  while (::read(fd_, &count, sizeof(count)) < 0 && errno == EINTR) {
  }
}

Result<Frame> Transport::AcceptWireFrame(const std::vector<uint8_t>& bytes) {
  NoteReceived(bytes.size());
  NoteFrame(bytes.size());
  // The bytes were produced in-process, but the configured receive cap is
  // enforced all the same so queue-backed runs exercise the exact
  // oversized-frame rejection a TCP endpoint applies.
  if (bytes.size() > kFrameHeaderSize &&
      bytes.size() - kFrameHeaderSize > max_frame_payload()) {
    return Status::InvalidArgument(
        "wire: frame payload length " +
        std::to_string(bytes.size() - kFrameHeaderSize) + " exceeds cap " +
        std::to_string(max_frame_payload()));
  }
  Result<Frame> frame = DecodeFrame(bytes);
  // Only frames the wire layer accepted enter the transcript: a decode
  // failure terminates the connection, and a replay has nothing to say
  // about bytes no driver ever saw.
  if (frame.ok()) TapReceived(bytes.data(), bytes.size());
  return frame;
}

std::pair<std::unique_ptr<ChannelTransport>, std::unique_ptr<ChannelTransport>>
ChannelTransport::CreatePair() {
  auto a_to_b = std::make_shared<Queue>();
  auto b_to_a = std::make_shared<Queue>();
  std::unique_ptr<ChannelTransport> a(new ChannelTransport(a_to_b, b_to_a));
  std::unique_ptr<ChannelTransport> b(new ChannelTransport(b_to_a, a_to_b));
  return {std::move(a), std::move(b)};
}

Status ChannelTransport::Send(const Frame& frame) {
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  const size_t size = bytes.size();
  {
    std::lock_guard<std::mutex> lock(tx_->mu);
    if (tx_->closed) {
      return Status::FailedPrecondition("channel transport closed");
    }
    TapSent(bytes.data(), size);
    tx_->frames.push_back(std::move(bytes));
    tx_->ready.Signal();
  }
  tx_->cv.notify_one();
  NoteSent(size);
  NoteFrame(size);
  return Status::Ok();
}

Result<Frame> ChannelTransport::Recv() {
  std::vector<uint8_t> bytes;
  {
    std::unique_lock<std::mutex> lock(rx_->mu);
    rx_->cv.wait(lock, [&] { return !rx_->frames.empty() || rx_->closed; });
    if (rx_->frames.empty()) {
      return Status::FailedPrecondition("channel transport closed");
    }
    bytes = std::move(rx_->frames.front());
    rx_->frames.pop_front();
  }
  return AcceptWireFrame(bytes);
}

Result<bool> ChannelTransport::TryReadFrame(Frame* out) {
  std::vector<uint8_t> bytes;
  {
    std::lock_guard<std::mutex> lock(rx_->mu);
    if (rx_->frames.empty() && rx_->closed) {
      return Status::FailedPrecondition("channel transport closed");
    }
    if (!rx_->frames.empty()) {
      bytes = std::move(rx_->frames.front());
      rx_->frames.pop_front();
    }
    // Send signals under this lock, so an empty open queue means no
    // frame is pending, including one a blocking Recv already took.
    if (rx_->frames.empty() && !rx_->closed) rx_->ready.Clear();
  }
  if (bytes.empty()) return false;
  Result<Frame> frame = AcceptWireFrame(bytes);
  if (!frame.ok()) return frame.status();
  *out = std::move(frame.value());
  return true;
}

void ChannelTransport::Close() {
  for (const auto& q : {tx_, rx_}) {
    {
      std::lock_guard<std::mutex> lock(q->mu);
      q->closed = true;
      q->ready.Signal();
    }
    q->cv.notify_all();
  }
}

}  // namespace net
}  // namespace uldp
