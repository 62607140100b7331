#include "crypto/chacha.h"

#include <cstring>

#include "common/check.h"
#include "crypto/sha256.h"
#include "math/limbs.h"

namespace uldp {

namespace {

inline uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b;
  d = Rotl(d ^ a, 16);
  c += d;
  b = Rotl(b ^ c, 12);
  a += b;
  d = Rotl(d ^ a, 8);
  c += d;
  b = Rotl(b ^ c, 7);
}

void ChaChaBlock(const std::array<uint32_t, 16>& in,
                 std::array<uint32_t, 16>& out) {
  std::array<uint32_t, 16> x = in;
  for (int round = 0; round < 10; ++round) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) out[i] = x[i] + in[i];
}

}  // namespace

ChaChaRng::ChaChaRng(const Key& key, const Nonce& nonce) {
  // "expand 32-byte k" constants.
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) {
    state_[4 + i] = uint32_t{key[4 * i]} | (uint32_t{key[4 * i + 1]} << 8) |
                    (uint32_t{key[4 * i + 2]} << 16) |
                    (uint32_t{key[4 * i + 3]} << 24);
  }
  state_[12] = 0;  // block counter
  for (int i = 0; i < 3; ++i) {
    state_[13 + i] = uint32_t{nonce[4 * i]} | (uint32_t{nonce[4 * i + 1]} << 8) |
                     (uint32_t{nonce[4 * i + 2]} << 16) |
                     (uint32_t{nonce[4 * i + 3]} << 24);
  }
}

ChaChaRng::Key ChaChaRng::DeriveKey(const std::string& material) {
  Sha256Digest digest = Sha256(material);
  Key key;
  std::memcpy(key.data(), digest.data(), key.size());
  return key;
}

ChaChaRng::Nonce ChaChaRng::MakeNonce(uint64_t tag, uint32_t stream_id) {
  Nonce nonce;
  for (int i = 0; i < 8; ++i) nonce[i] = static_cast<uint8_t>(tag >> (8 * i));
  for (int i = 0; i < 4; ++i) {
    nonce[8 + i] = static_cast<uint8_t>(stream_id >> (8 * i));
  }
  return nonce;
}

void ChaChaRng::RefillBlock() {
  ChaChaBlock(state_, block_);
  state_[12] += 1;
  ULDP_CHECK_MSG(state_[12] != 0, "ChaCha20 block counter exhausted");
  offset_ = 0;
}

uint64_t ChaChaRng::NextUint64() {
  if (offset_ + 2 > block_.size()) RefillBlock();
  // The next 8 keystream bytes read little-endian: RFC 8439 serializes
  // each state word little-endian, so they are word w plus word w+1 << 32.
  const uint64_t v = block_[offset_] |
                     static_cast<uint64_t>(block_[offset_ + 1]) << 32;
  offset_ += 2;
  return v;
}

void ChaChaRng::UniformBelow(const uint64_t* m, size_t k, uint64_t* out) {
  ULDP_CHECK(k > 0 && m[k - 1] != 0);
  const int top_bits = 64 - __builtin_clzll(m[k - 1]);
  const uint64_t top_mask =
      top_bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << top_bits) - 1;
  do {
    for (size_t i = 0; i < k; ++i) out[i] = NextUint64();
    out[k - 1] &= top_mask;
  } while (limbs::Compare(out, m, k) >= 0);
}

BigInt ChaChaRng::UniformBelow(const BigInt& modulus) {
  ULDP_CHECK(!modulus.IsZero() && !modulus.IsNegative());
  const std::vector<uint64_t>& m = modulus.limbs();
  std::vector<uint64_t> out(m.size());
  UniformBelow(m.data(), m.size(), out.data());
  return BigInt::FromLimbs(std::move(out));
}

}  // namespace uldp
