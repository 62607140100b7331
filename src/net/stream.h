// Chunked BigInt-vector streams with windowed-credit flow control — the
// wire discipline behind memory-bounded streaming rounds
// (ProtocolConfig::stream_chunk_users).
//
// A stream replaces one monolithic frame (RoundBegin's enc-weight vector
// or SiloCipher's masked cipher) with:
//
//   sender                                receiver
//   ------                                --------
//   StreamBegin{kind, total, chunk, dim}
//   StreamChunk{index=0, values}    -->   validate, fold, discard
//                                   <--   StreamAck{index=0, credits=1}
//   StreamChunk{index=1, values}    -->   ...
//
// The sender keeps at most `window` chunks unacknowledged, so neither
// side ever buffers more than O(window * chunk) elements and no frame
// approaches the transport's size cap. Chunks travel over a reliable
// ordered transport and carry explicit indices; the receiver enforces
// strictly sequential arrival, so any gap, duplicate, or reordering —
// however it was introduced — fails loudly instead of corrupting a fold.
//
// Both halves are transport-agnostic: the sender takes send/recv
// callbacks (drivers route recv through their demultiplexer so acks
// coexist with other traffic), and the receiver is a pure state machine
// fed parsed frames.

#ifndef ULDP_NET_STREAM_H_
#define ULDP_NET_STREAM_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "math/bigint.h"
#include "net/messages.h"

namespace uldp {
namespace net {

struct StreamSendOptions {
  uint64_t phase_tag = 0;
  StreamKind kind = StreamKind::kEncWeights;
  uint32_t sender_id = 0;
  /// Context dimension announced in StreamBegin (model dim for cipher
  /// streams; 0 when the receiver derives it locally).
  uint32_t dim = 0;
  /// Elements per chunk (> 0); the last chunk may be short.
  int chunk_elems = 0;
  /// Maximum unacknowledged chunks in flight (> 0).
  int window = 0;
};

/// Streams `total_count` elements produced on demand by `make_chunk(c0,
/// c1)` (returning elements [c0, c1) — called in order, each chunk
/// discarded after its frame is handed to `send`). `recv` must block until
/// the receiver's next frame arrives; a StreamAck for this stream returns
/// credits, an Error frame aborts with its carried Status, anything else
/// is a protocol error. This is how a sender ships O(total) elements while
/// holding O(window * chunk) of them.
Status SendChunkedStream(
    size_t total_count, const StreamSendOptions& opts,
    const std::function<Result<std::vector<BigInt>>(size_t c0, size_t c1)>&
        make_chunk,
    const std::function<Status(const Frame&)>& send,
    const std::function<Result<Frame>()>& recv);

/// Convenience wrapper streaming an already-materialized vector.
Status SendChunkedBigVec(const std::vector<BigInt>& values,
                         const StreamSendOptions& opts,
                         const std::function<Status(const Frame&)>& send,
                         const std::function<Result<Frame>()>& recv);

/// Receiver state machine for one stream. Construct from the validated
/// StreamBegin, Feed each StreamChunk (in arrival order) to fold-and-ack,
/// and check Done() when the peer says the stream is over. Rejects any
/// index gap, duplicate, reordering, size mismatch, or phase/kind
/// mismatch.
class ChunkStreamReceiver {
 public:
  /// Validates `begin` against what this receiver expects. `expect_total`
  /// is the element count the receiver's own state implies; pass
  /// `expect_chunk_elems` > 0 to also pin the chunk size (the wire-digest
  /// agreed value).
  static Result<ChunkStreamReceiver> Create(const StreamBeginMsg& begin,
                                            StreamKind expect_kind,
                                            uint64_t expect_phase_tag,
                                            size_t expect_total,
                                            uint32_t expect_chunk_elems);

  /// Validates one chunk and hands its values (with their absolute element
  /// offset) to `fold`; the values are moved in, so the receiver retains
  /// nothing. On success returns the ack to send back (credits = 1).
  Result<StreamAckMsg> Feed(
      StreamChunkMsg chunk,
      const std::function<Status(std::vector<BigInt>&&, size_t offset)>&
          fold);

  /// True once every chunk has been folded.
  bool Done() const { return next_index_ == chunk_count_; }
  uint32_t chunk_count() const { return chunk_count_; }
  uint32_t next_index() const { return next_index_; }

 private:
  uint64_t phase_tag_ = 0;
  StreamKind kind_ = StreamKind::kEncWeights;
  uint32_t total_count_ = 0;
  uint32_t chunk_elems_ = 0;
  uint32_t chunk_count_ = 0;
  uint32_t next_index_ = 0;
};

}  // namespace net
}  // namespace uldp

#endif  // ULDP_NET_STREAM_H_
