// Canonical wire format for the cross-silo transport subsystem.
//
// Every payload travels as a length-prefixed, versioned frame:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//   0       4     magic "ULDP"
//   4       2     wire version (little-endian, currently 2)
//   6       2     message type (net/messages.h MessageType)
//   8       4     payload length in bytes (<= kMaxFramePayload)
//   12      len   payload (message-specific, see WireWriter/WireReader)
//
// All integers are little-endian fixed-width; BigInts are serialized as a
// sign byte plus a length-prefixed little-endian magnitude (the exact
// ToBytesLE/FromBytesLE round trip); field vectors as a count plus k
// little-endian u64 limbs per element, k being the modulus's limb count;
// doubles travel as their IEEE-754 bit pattern. Decoders never trust peer-supplied lengths: every read is
// bounds-checked against the actual buffer and element counts are validated
// against the minimum encoded size, so a malformed or truncated frame
// yields a clear Status instead of an allocation bomb or an abort.

#ifndef ULDP_NET_WIRE_H_
#define ULDP_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "crypto/secure_agg.h"
#include "math/bigint.h"

namespace uldp {
namespace net {

/// Wire protocol version; bump on any incompatible framing/codec change.
constexpr uint16_t kWireVersion = 3;
/// Frame header size in bytes (magic + version + type + payload length).
constexpr size_t kFrameHeaderSize = 12;
/// Hard upper bound on a single frame's payload. Large enough for a full
/// Paillier-ciphertext vector at production scale, small enough that a
/// corrupted length field cannot trigger a gigantic allocation.
constexpr uint32_t kMaxFramePayload = 1u << 30;
/// Default per-connection receive cap (Transport::set_max_frame_payload,
/// --max-frame-bytes). Chunked streaming keeps legitimate frames far below
/// this, so an oversized length field is rejected before allocation well
/// under the 1 GiB hard cap.
constexpr uint32_t kDefaultMaxFramePayload = 256u << 20;

/// One framed message: the typed header plus its serialized payload.
struct Frame {
  uint16_t type = 0;
  std::vector<uint8_t> payload;
};

/// Appends primitives to a growing byte buffer in canonical encoding.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  /// IEEE-754 bit pattern as U64.
  void F64(double v);
  /// u32 length + raw bytes.
  void Bytes(const std::vector<uint8_t>& b);
  /// Sign byte + u32 magnitude length + little-endian magnitude.
  void Big(const BigInt& v);
  void BigVec(const std::vector<BigInt>& v);
  /// u32 count + v.limbs() little-endian u64 limbs per element, written
  /// straight from the limbs in one pass (16 B per element over the
  /// two-limb aggregation prime).
  void FieldVec(const FieldVector& v);
  /// u32 count + each double's bit pattern as U64, in one pass.
  void F64Vec(const std::vector<double>& v);
  void BytesVec(const std::vector<std::vector<uint8_t>>& v);

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked reader over a received payload. Every accessor returns a
/// Status; once a read fails the reader is poisoned (subsequent reads keep
/// failing), so decoders can chain reads and check once.
class WireReader {
 public:
  explicit WireReader(const std::vector<uint8_t>& data)
      : data_(data.data()), size_(data.size()) {}
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Status U8(uint8_t* v);
  Status U16(uint16_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status F64(double* v);
  Status Bytes(std::vector<uint8_t>* b);
  Status Big(BigInt* v);
  Status BigVec(std::vector<BigInt>* v);
  /// Reads FieldVec's layout with k = the modulus's limb count: a count
  /// the remaining payload cannot hold at 8k bytes per element fails
  /// before anything is allocated, and an element >= modulus fails with
  /// InvalidArgument naming its index.
  Status FieldVec(const BigInt& modulus, FieldVector* v);
  Status F64Vec(std::vector<double>* v);
  Status BytesVec(std::vector<std::vector<uint8_t>>* v);

  /// True when the whole payload has been consumed — message decoders
  /// require this so trailing garbage is rejected, not ignored.
  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  Status Need(size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

/// Serializes a frame (header + payload) to wire bytes.
std::vector<uint8_t> EncodeFrame(const Frame& frame);

/// Validates a 12-byte frame header; on success returns the message type
/// and payload length via the out-params. Rejects bad magic, unsupported
/// versions, and payload lengths above min(max_payload, kMaxFramePayload)
/// — the check runs before any payload allocation, so a corrupted or
/// hostile length field costs nothing.
Status ParseFrameHeader(const uint8_t* header, uint16_t* type,
                        uint32_t* payload_len,
                        uint32_t max_payload = kMaxFramePayload);

/// Decodes one complete frame from `data`. Fails on truncation, bad
/// header, or trailing bytes after the frame.
Result<Frame> DecodeFrame(const std::vector<uint8_t>& data);

}  // namespace net
}  // namespace uldp

#endif  // ULDP_NET_WIRE_H_
