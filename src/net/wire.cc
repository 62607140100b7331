#include "net/wire.h"

#include <cstring>

#include "math/limbs.h"

namespace uldp {
namespace net {

namespace {

constexpr uint8_t kMagic[4] = {'U', 'L', 'D', 'P'};

// Minimum encoded size of one element, used to validate peer-supplied
// element counts before reserving memory: a BigInt is at least sign byte +
// length (5), bytes at least a length prefix (4), a double exactly 8.
constexpr size_t kMinBigSize = 5;
constexpr size_t kMinBytesSize = 4;

inline void StoreLE32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

inline void StoreLE64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

inline uint32_t LoadLE32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

inline uint64_t LoadLE64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

/// The first n < 8 bytes at p as a little-endian integer.
inline uint64_t LoadLE64Prefix(const uint8_t* p, size_t n) {
  uint64_t v = 0;
  for (size_t i = 0; i < n; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

void WireWriter::U16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void WireWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void WireWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void WireWriter::F64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::Bytes(const std::vector<uint8_t>& b) {
  U32(static_cast<uint32_t>(b.size()));
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void WireWriter::Big(const BigInt& v) {
  U8(v.IsNegative() ? 1 : 0);
  const size_t len = static_cast<size_t>((v.BitLength() + 7) / 8);
  U32(static_cast<uint32_t>(len));
  BigInt magnitude = v.IsNegative() ? v.Abs() : v;
  std::vector<uint8_t> bytes = magnitude.ToBytesLE(len);
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void WireWriter::BigVec(const std::vector<BigInt>& v) {
  U32(static_cast<uint32_t>(v.size()));
  for (const BigInt& x : v) Big(x);
}

void WireWriter::FieldVec(const FieldVector& v) {
  U32(static_cast<uint32_t>(v.size()));
  const size_t k = v.limbs();
  const size_t start = buf_.size();
  buf_.resize(start + v.size() * (kMinBigSize + 8 * k));
  uint8_t* p = buf_.data() + start;
  for (size_t i = 0; i < v.size(); ++i) {
    const uint64_t* x = v.element(i);
    // Big()'s magnitude length: the significant bytes only.
    const size_t len = static_cast<size_t>(limbs::BitLength(x, k) + 7) / 8;
    p[0] = 0;  // sign byte: elements are non-negative
    StoreLE32(p + 1, static_cast<uint32_t>(len));
    p += kMinBigSize;
    size_t b = 0;
    for (; b + 8 <= len; b += 8) StoreLE64(p + b, x[b / 8]);
    for (; b < len; ++b) p[b] = static_cast<uint8_t>(x[b / 8] >> (8 * (b % 8)));
    p += len;
  }
  buf_.resize(static_cast<size_t>(p - buf_.data()));
}

void WireWriter::F64Vec(const std::vector<double>& v) {
  U32(static_cast<uint32_t>(v.size()));
  const size_t start = buf_.size();
  buf_.resize(start + 8 * v.size());
  uint8_t* p = buf_.data() + start;
  for (double x : v) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    StoreLE64(p, bits);
    p += 8;
  }
}

void WireWriter::BytesVec(const std::vector<std::vector<uint8_t>>& v) {
  U32(static_cast<uint32_t>(v.size()));
  for (const auto& b : v) Bytes(b);
}

Status WireReader::Need(size_t n) {
  if (failed_) return Status::InvalidArgument("wire: reader already failed");
  if (size_ - pos_ < n) {
    failed_ = true;
    return Status::InvalidArgument(
        "wire: truncated payload (need " + std::to_string(n) + " bytes, " +
        std::to_string(size_ - pos_) + " left)");
  }
  return Status::Ok();
}

Status WireReader::U8(uint8_t* v) {
  ULDP_RETURN_IF_ERROR(Need(1));
  *v = data_[pos_++];
  return Status::Ok();
}

Status WireReader::U16(uint16_t* v) {
  ULDP_RETURN_IF_ERROR(Need(2));
  *v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return Status::Ok();
}

Status WireReader::U32(uint32_t* v) {
  ULDP_RETURN_IF_ERROR(Need(4));
  *v = LoadLE32(data_ + pos_);
  pos_ += 4;
  return Status::Ok();
}

Status WireReader::U64(uint64_t* v) {
  ULDP_RETURN_IF_ERROR(Need(8));
  *v = LoadLE64(data_ + pos_);
  pos_ += 8;
  return Status::Ok();
}

Status WireReader::F64(double* v) {
  uint64_t bits;
  ULDP_RETURN_IF_ERROR(U64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::Ok();
}

Status WireReader::Bytes(std::vector<uint8_t>* b) {
  uint32_t len;
  ULDP_RETURN_IF_ERROR(U32(&len));
  ULDP_RETURN_IF_ERROR(Need(len));
  b->assign(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return Status::Ok();
}

Status WireReader::Big(BigInt* v) {
  uint8_t negative;
  uint32_t len;
  ULDP_RETURN_IF_ERROR(U8(&negative));
  if (negative > 1) {
    failed_ = true;
    return Status::InvalidArgument("wire: BigInt sign byte must be 0 or 1");
  }
  ULDP_RETURN_IF_ERROR(U32(&len));
  ULDP_RETURN_IF_ERROR(Need(len));
  std::vector<uint8_t> bytes(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  BigInt magnitude = BigInt::FromBytesLE(bytes);
  if (negative == 1 && magnitude.IsZero()) {
    failed_ = true;
    return Status::InvalidArgument("wire: negative zero BigInt");
  }
  *v = negative == 1 ? -magnitude : magnitude;
  return Status::Ok();
}

Status WireReader::BigVec(std::vector<BigInt>* v) {
  uint32_t count;
  ULDP_RETURN_IF_ERROR(U32(&count));
  if (static_cast<size_t>(count) > remaining() / kMinBigSize) {
    failed_ = true;
    return Status::InvalidArgument("wire: BigInt vector count exceeds payload");
  }
  v->assign(count, BigInt());
  for (uint32_t i = 0; i < count; ++i) ULDP_RETURN_IF_ERROR(Big(&(*v)[i]));
  return Status::Ok();
}

Status WireReader::FieldVec(const BigInt& modulus, FieldVector* v) {
  uint32_t count;
  ULDP_RETURN_IF_ERROR(U32(&count));
  if (static_cast<size_t>(count) > remaining() / kMinBigSize) {
    failed_ = true;
    return Status::InvalidArgument("wire: BigInt vector count exceeds payload");
  }
  const size_t k = modulus.limbs().size();
  const uint64_t* n = modulus.limbs().data();
  FieldVector out(count, k);
  for (uint32_t i = 0; i < count; ++i) {
    // Big()'s layout: sign byte, u32 magnitude length, magnitude.
    ULDP_RETURN_IF_ERROR(Need(kMinBigSize));
    const uint8_t negative = data_[pos_];
    const uint32_t len = LoadLE32(data_ + pos_ + 1);
    pos_ += kMinBigSize;
    if (negative != 0 || len > 8 * k) {
      failed_ = true;
      return Status::InvalidArgument(
          "wire: field element " + std::to_string(i) +
          (negative != 0 ? " is not a non-negative integer"
                         : " is longer than the modulus"));
    }
    ULDP_RETURN_IF_ERROR(Need(len));
    const uint8_t* p = data_ + pos_;
    uint64_t* x = out.element(i);
    size_t b = 0;
    for (; b + 8 <= len; b += 8) x[b / 8] = LoadLE64(p + b);
    if (b < len) x[b / 8] = LoadLE64Prefix(p + b, len - b);
    pos_ += len;
    if (limbs::Compare(x, n, k) >= 0) {
      failed_ = true;
      return Status::InvalidArgument("wire: field element " +
                                     std::to_string(i) +
                                     " is not below the modulus");
    }
  }
  *v = std::move(out);
  return Status::Ok();
}

Status WireReader::F64Vec(std::vector<double>* v) {
  uint32_t count;
  ULDP_RETURN_IF_ERROR(U32(&count));
  if (static_cast<size_t>(count) > remaining() / 8) {
    failed_ = true;
    return Status::InvalidArgument("wire: double vector count exceeds payload");
  }
  v->resize(count);
  const uint8_t* p = data_ + pos_;
  for (uint32_t i = 0; i < count; ++i, p += 8) {
    const uint64_t bits = LoadLE64(p);
    std::memcpy(&(*v)[i], &bits, sizeof(bits));
  }
  pos_ += 8 * static_cast<size_t>(count);
  return Status::Ok();
}

Status WireReader::BytesVec(std::vector<std::vector<uint8_t>>* v) {
  uint32_t count;
  ULDP_RETURN_IF_ERROR(U32(&count));
  if (static_cast<size_t>(count) > remaining() / kMinBytesSize) {
    failed_ = true;
    return Status::InvalidArgument("wire: byte-string count exceeds payload");
  }
  v->assign(count, {});
  for (uint32_t i = 0; i < count; ++i) ULDP_RETURN_IF_ERROR(Bytes(&(*v)[i]));
  return Status::Ok();
}

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderSize + frame.payload.size());
  out.insert(out.end(), kMagic, kMagic + 4);
  out.push_back(static_cast<uint8_t>(kWireVersion));
  out.push_back(static_cast<uint8_t>(kWireVersion >> 8));
  out.push_back(static_cast<uint8_t>(frame.type));
  out.push_back(static_cast<uint8_t>(frame.type >> 8));
  uint32_t len = static_cast<uint32_t>(frame.payload.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(len >> (8 * i)));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

Status ParseFrameHeader(const uint8_t* header, uint16_t* type,
                        uint32_t* payload_len, uint32_t max_payload) {
  if (std::memcmp(header, kMagic, 4) != 0) {
    return Status::InvalidArgument("wire: bad frame magic");
  }
  uint16_t version = static_cast<uint16_t>(header[4] | (header[5] << 8));
  if (version != kWireVersion) {
    return Status::InvalidArgument("wire: unsupported version " +
                                   std::to_string(version) + " (expected " +
                                   std::to_string(kWireVersion) + ")");
  }
  *type = static_cast<uint16_t>(header[6] | (header[7] << 8));
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<uint32_t>(header[8 + i]) << (8 * i);
  const uint32_t cap =
      max_payload < kMaxFramePayload ? max_payload : kMaxFramePayload;
  if (len > cap) {
    return Status::InvalidArgument("wire: frame payload length " +
                                   std::to_string(len) + " exceeds cap " +
                                   std::to_string(cap));
  }
  *payload_len = len;
  return Status::Ok();
}

Result<Frame> DecodeFrame(const std::vector<uint8_t>& data) {
  if (data.size() < kFrameHeaderSize) {
    return Status::InvalidArgument("wire: truncated frame header");
  }
  Frame frame;
  uint32_t len;
  ULDP_RETURN_IF_ERROR(ParseFrameHeader(data.data(), &frame.type, &len));
  if (data.size() < kFrameHeaderSize + len) {
    return Status::InvalidArgument("wire: truncated frame payload");
  }
  if (data.size() > kFrameHeaderSize + len) {
    return Status::InvalidArgument("wire: trailing bytes after frame");
  }
  frame.payload.assign(data.begin() + kFrameHeaderSize, data.end());
  return frame;
}

}  // namespace net
}  // namespace uldp
