#include "net/stream.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace uldp {
namespace net {

namespace {

uint32_t ChunkCountFor(size_t total, uint32_t chunk_elems) {
  if (total == 0) return 0;
  return static_cast<uint32_t>((total + chunk_elems - 1) / chunk_elems);
}

std::string KindName(uint8_t kind) {
  switch (static_cast<StreamKind>(kind)) {
    case StreamKind::kEncWeights:
      return "enc-weights";
    case StreamKind::kSiloCipher:
      return "silo-cipher";
  }
  return "kind-" + std::to_string(static_cast<int>(kind));
}

/// Static span names (the trace buffer stores pointers, not copies).
const char* ChunkSpanName(StreamKind kind) {
  switch (kind) {
    case StreamKind::kEncWeights:
      return "stream.chunk.enc_weights";
    case StreamKind::kSiloCipher:
      return "stream.chunk.silo_cipher";
  }
  return "stream.chunk";
}

const char* FoldSpanName(StreamKind kind) {
  switch (kind) {
    case StreamKind::kEncWeights:
      return "stream.fold.enc_weights";
    case StreamKind::kSiloCipher:
      return "stream.fold.silo_cipher";
  }
  return "stream.fold";
}

}  // namespace

Status SendChunkedStream(
    size_t total_count, const StreamSendOptions& opts, int receivers,
    const std::function<Result<std::vector<BigInt>>(size_t c0, size_t c1)>&
        make_chunk,
    const std::function<Status(const Frame&)>& send,
    const std::function<Result<Frame>(int peer)>& recv) {
  if (opts.chunk_elems <= 0) {
    return Status::InvalidArgument("stream: chunk_elems must be > 0");
  }
  if (receivers <= 0) {
    return Status::InvalidArgument("stream: receivers must be > 0");
  }
  const uint32_t chunk_elems = static_cast<uint32_t>(opts.chunk_elems);
  const uint32_t chunk_count = ChunkCountFor(total_count, chunk_elems);

  // Per-kind stream metrics; instances fold into the registry's retained
  // aggregates when the stream finishes, so totals accumulate per kind.
  const std::string metric_base =
      "net.stream." + KindName(static_cast<uint8_t>(opts.kind));
  obs::Counter chunks_sent(metric_base + ".chunks_sent");
  obs::Counter chunk_bytes(metric_base + ".chunk_bytes");
  obs::Histogram ack_wait_ns(metric_base + ".ack_wait_ns");

  StreamBeginMsg begin;
  begin.phase_tag = opts.phase_tag;
  begin.kind = static_cast<uint8_t>(opts.kind);
  begin.sender_id = opts.sender_id;
  begin.total_count = static_cast<uint32_t>(total_count);
  begin.chunk_elems = chunk_elems;
  begin.dim = opts.dim;
  ULDP_RETURN_IF_ERROR(send(ToFrame(begin)));

  // acked[peer] counts the chunks `peer` has acknowledged, so its next ack
  // must name chunk acked[peer]. Acks are drained whenever a peer's window
  // is full, and to the last chunk at the end so every receiver's
  // completion is confirmed before the caller moves on.
  std::vector<uint32_t> acked(static_cast<size_t>(receivers), 0);
  auto await_ack = [&](int peer) -> Status {
    obs::ScopedTimerNs timer(&ack_wait_ns);
    auto frame = UnwrapErrorFrame(recv(peer), "stream peer");
    if (!frame.ok()) return frame.status();
    auto ack = FromFrame<StreamAckMsg>(frame.value());
    if (!ack.ok()) return ack.status();
    if (ack.value().phase_tag != opts.phase_tag ||
        ack.value().kind != static_cast<uint8_t>(opts.kind)) {
      return Status::InvalidArgument(
          "stream: ack for a different stream (kind " +
          KindName(ack.value().kind) + ")");
    }
    if (ack.value().index != acked[peer]) {
      return Status::InvalidArgument(
          "stream: ack for chunk " + std::to_string(ack.value().index) +
          ", expected chunk " + std::to_string(acked[peer]));
    }
    ++acked[peer];
    return Status::Ok();
  };

  for (uint32_t index = 0; index < chunk_count; ++index) {
    for (int peer = 0; peer < receivers; ++peer) {
      while (index - acked[peer] >= static_cast<uint32_t>(kStreamWindow)) {
        ULDP_RETURN_IF_ERROR(await_ack(peer));
      }
    }
    obs::TraceSpan span(ChunkSpanName(opts.kind), "index",
                        static_cast<int64_t>(index));
    const size_t c0 = static_cast<size_t>(index) * chunk_elems;
    const size_t c1 = std::min(total_count, c0 + chunk_elems);
    auto values = make_chunk(c0, c1);
    if (!values.ok()) return values.status();
    if (values.value().size() != c1 - c0) {
      return Status::Internal(
          "stream: make_chunk produced " +
          std::to_string(values.value().size()) + " elements for [" +
          std::to_string(c0) + ", " + std::to_string(c1) + ")");
    }
    StreamChunkMsg chunk;
    chunk.phase_tag = opts.phase_tag;
    chunk.kind = static_cast<uint8_t>(opts.kind);
    chunk.index = index;
    chunk.values = std::move(values.value());
    Frame frame = ToFrame(chunk);
    chunks_sent.Add(1);
    chunk_bytes.Add(kFrameHeaderSize + frame.payload.size());
    ULDP_RETURN_IF_ERROR(send(frame));
  }
  for (int peer = 0; peer < receivers; ++peer) {
    while (acked[peer] < chunk_count) {
      ULDP_RETURN_IF_ERROR(await_ack(peer));
    }
  }
  return Status::Ok();
}

Result<ChunkStreamReceiver> ChunkStreamReceiver::Create(
    const StreamBeginMsg& begin, StreamKind expect_kind,
    uint64_t expect_phase_tag, size_t expect_total,
    uint32_t expect_chunk_elems) {
  if (begin.kind != static_cast<uint8_t>(expect_kind)) {
    return Status::InvalidArgument(
        "stream: begin kind " + KindName(begin.kind) + " (expected " +
        KindName(static_cast<uint8_t>(expect_kind)) + ")");
  }
  if (begin.phase_tag != expect_phase_tag) {
    return Status::InvalidArgument(
        "stream: begin phase tag mismatch (wrong phase or round)");
  }
  if (begin.total_count != expect_total) {
    return Status::InvalidArgument(
        "stream: announced " + std::to_string(begin.total_count) +
        " elements, expected " + std::to_string(expect_total));
  }
  if (begin.chunk_elems == 0) {
    return Status::InvalidArgument("stream: chunk_elems must be > 0");
  }
  if (expect_chunk_elems > 0 && begin.chunk_elems != expect_chunk_elems) {
    return Status::InvalidArgument(
        "stream: chunk size " + std::to_string(begin.chunk_elems) +
        " disagrees with the configured " +
        std::to_string(expect_chunk_elems));
  }
  ChunkStreamReceiver receiver;
  receiver.phase_tag_ = begin.phase_tag;
  receiver.kind_ = static_cast<StreamKind>(begin.kind);
  receiver.total_count_ = begin.total_count;
  receiver.chunk_elems_ = begin.chunk_elems;
  receiver.chunk_count_ = ChunkCountFor(begin.total_count, begin.chunk_elems);
  return receiver;
}

Result<StreamAckMsg> ChunkStreamReceiver::Feed(
    StreamChunkMsg chunk,
    const std::function<Status(std::vector<BigInt>&&, size_t offset)>&
        fold) {
  if (chunk.kind != static_cast<uint8_t>(kind_)) {
    return Status::InvalidArgument(
        "stream: chunk kind " + KindName(chunk.kind) +
        " on a " + KindName(static_cast<uint8_t>(kind_)) + " stream");
  }
  if (chunk.phase_tag != phase_tag_) {
    return Status::InvalidArgument(
        "stream: chunk phase tag mismatch (wrong phase or round)");
  }
  if (next_index_ == chunk_count_) {
    return Status::InvalidArgument(
        "stream: chunk " + std::to_string(chunk.index) +
        " after the stream completed");
  }
  if (chunk.index != next_index_) {
    const bool replay = chunk.index < next_index_;
    return Status::InvalidArgument(
        std::string("stream: ") +
        (replay ? "duplicate or reordered" : "missing or reordered") +
        " chunk (got index " + std::to_string(chunk.index) + ", expected " +
        std::to_string(next_index_) + ")");
  }
  const size_t offset = static_cast<size_t>(chunk.index) * chunk_elems_;
  const size_t expect_size =
      std::min<size_t>(chunk_elems_, total_count_ - offset);
  if (chunk.values.size() != expect_size) {
    return Status::InvalidArgument(
        "stream: chunk " + std::to_string(chunk.index) + " carries " +
        std::to_string(chunk.values.size()) + " elements, expected " +
        std::to_string(expect_size));
  }
  obs::TraceSpan span(FoldSpanName(kind_), "index",
                      static_cast<int64_t>(chunk.index));
  ULDP_RETURN_IF_ERROR(fold(std::move(chunk.values), offset));
  StreamAckMsg ack;
  ack.phase_tag = phase_tag_;
  ack.kind = static_cast<uint8_t>(kind_);
  ack.index = next_index_;
  ++next_index_;
  return ack;
}

Status ReceiveChunkedStream(
    ChunkStreamReceiver receiver,
    const std::function<Status(std::vector<BigInt>&&, size_t offset)>& fold,
    const std::function<Status(const Frame&)>& send,
    const std::function<Result<Frame>()>& recv) {
  while (!receiver.Done()) {
    auto frame = UnwrapErrorFrame(recv(), "stream peer");
    if (!frame.ok()) return frame.status();
    auto chunk = FromFrame<StreamChunkMsg>(frame.value());
    if (!chunk.ok()) return chunk.status();
    auto ack = receiver.Feed(std::move(chunk.value()), fold);
    if (!ack.ok()) return ack.status();
    ULDP_RETURN_IF_ERROR(send(ToFrame(ack.value())));
  }
  return Status::Ok();
}

}  // namespace net
}  // namespace uldp
