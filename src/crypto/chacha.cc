#include "crypto/chacha.h"

#include <cstring>

#include "common/check.h"
#include "common/cpu.h"
#include "crypto/sha256.h"
#include "math/limbs.h"
#include "obs/metrics.h"

namespace uldp {

namespace {

// The last counter a 16-block batch may start at: its blocks end at
// 2^32 - 2, so the block that exhausts the counter is always a scalar one.
constexpr uint32_t kLastBatchStart = 0xFFFFFFFFu - 16;

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

// The RFC 8439 block function: the reference every vector kernel matches.
void ChaChaBlock(const std::array<uint32_t, 16>& in, uint32_t* out) {
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

#if defined(__x86_64__)
// The vector kernels share one body over GCC vector types. Everything is
// always_inline and takes vectors by reference only: a 64-byte vector
// crossing a call compiled without AVX-512 changes the ABI (-Wpsabi).

template <typename V>
__attribute__((always_inline)) inline void VecQuarterRound(V& a, V& b, V& c,
                                                           V& d) {
  a += b;
  d ^= a;
  d = d << 16 | d >> 16;
  c += d;
  b ^= c;
  b = b << 12 | b >> 20;
  a += b;
  d ^= a;
  d = d << 8 | d >> 24;
  c += d;
  b ^= c;
  b = b << 7 | b >> 25;
}

typedef uint32_t U32x8 __attribute__((vector_size(32)));
typedef uint32_t U32x16 __attribute__((vector_size(64)));

// Lane numbers; a vector's first lanes load them as a constant.
constexpr uint32_t kLaneIndex[16] = {0, 1, 2,  3,  4,  5,  6,  7,
                                     8, 9, 10, 11, 12, 13, 14, 15};

// L consecutive blocks from block `counter` of `state`, one per lane of the
// L-lane vector type V. Word w of the block in lane b goes to
// out[16 w + b]. Lane b's counter is counter + b, which the caller keeps
// below 2^32.
template <typename V>
__attribute__((always_inline)) inline void Blocks(const uint32_t* state,
                                                  uint32_t counter,
                                                  uint32_t* out) {
  V lane;
  std::memcpy(&lane, kLaneIndex, sizeof(V));
  V in[16];
  V x[16];
#pragma GCC unroll 16
  for (int w = 0; w < 16; ++w) in[w] = V{} + state[w];
  in[12] = counter + lane;
#pragma GCC unroll 16
  for (int w = 0; w < 16; ++w) x[w] = in[w];
  for (int round = 0; round < 10; ++round) {
    VecQuarterRound(x[0], x[4], x[8], x[12]);
    VecQuarterRound(x[1], x[5], x[9], x[13]);
    VecQuarterRound(x[2], x[6], x[10], x[14]);
    VecQuarterRound(x[3], x[7], x[11], x[15]);
    VecQuarterRound(x[0], x[5], x[10], x[15]);
    VecQuarterRound(x[1], x[6], x[11], x[12]);
    VecQuarterRound(x[2], x[7], x[8], x[13]);
    VecQuarterRound(x[3], x[4], x[9], x[14]);
  }
#pragma GCC unroll 16
  for (int w = 0; w < 16; ++w) {
    x[w] += in[w];
    std::memcpy(out + 16 * w, &x[w], sizeof(V));
  }
}

__attribute__((target("avx512f"))) void BatchAvx512(const uint32_t* state,
                                                    uint32_t* out) {
  Blocks<U32x16>(state, state[12], out);
}

// Sixteen lanes would spill AVX2's 16 ymm registers, so two passes of 8.
__attribute__((target("avx2"))) void BatchAvx2(const uint32_t* state,
                                               uint32_t* out) {
  Blocks<U32x8>(state, state[12], out);
  Blocks<U32x8>(state, state[12] + 8, out + 8);
}
#endif

// Keystream blocks per kernel, so a metrics snapshot says which kernel a
// run's mask timings come from. All three register together, so a kernel
// that never ran reads 0 instead of going missing.
void CountBlocks(ChaChaKernel kernel, uint64_t batch, uint64_t scalar) {
  struct Counters {
    obs::Counter scalar{"crypto.chacha.scalar_blocks"};
    obs::Counter avx2{"crypto.chacha.avx2_blocks"};
    obs::Counter avx512{"crypto.chacha.avx512_blocks"};
  };
  static Counters counters;
  counters.scalar.Add(scalar);
  if (kernel == ChaChaKernel::kAvx2) counters.avx2.Add(batch);
  if (kernel == ChaChaKernel::kAvx512) counters.avx512.Add(batch);
}

}  // namespace

bool ChaChaKernels::Available(ChaChaKernel kernel) {
  // XCR0 bits 1 and 2 are SSE and AVX state; 5, 6 and 7 add the opmask
  // and all 32 zmm registers. Leaf 7 EBX bit 5 is AVX2, bit 16 AVX512F.
  switch (kernel) {
    case ChaChaKernel::kScalar:
      return true;
    case ChaChaKernel::kAvx2:
      return CpuHasLeaf7(1u << 5, 0x06);
    case ChaChaKernel::kAvx512:
      return CpuHasLeaf7(1u << 16, 0xE6);
  }
  return false;
}

ChaChaKernel ChaChaKernels::Picked() {
  static const ChaChaKernel picked =
      Available(ChaChaKernel::kAvx512) ? ChaChaKernel::kAvx512
      : Available(ChaChaKernel::kAvx2) ? ChaChaKernel::kAvx2
                                       : ChaChaKernel::kScalar;
  return picked;
}

ChaChaRng ChaChaKernels::On(const ChaChaRng::Key& key,
                            const ChaChaRng::Nonce& nonce, ChaChaKernel kernel,
                            uint32_t first_block) {
  ULDP_CHECK_MSG(Available(kernel), "ChaCha kernel unavailable on this CPU");
  return ChaChaRng(key, nonce, kernel, first_block);
}

ChaChaRng::ChaChaRng(const Key& key, const Nonce& nonce)
    : ChaChaRng(key, nonce, ChaChaKernels::Picked(), 0) {}

ChaChaRng::ChaChaRng(const Key& key, const Nonce& nonce, ChaChaKernel kernel,
                     uint32_t first_block)
    : kernel_(kernel) {
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
  state_[12] = first_block;  // block counter
  for (int i = 0; i < 3; ++i) {
    state_[13 + i] = uint32_t{nonce[4 * i]} | (uint32_t{nonce[4 * i + 1]} << 8) |
                     (uint32_t{nonce[4 * i + 2]} << 16) |
                     (uint32_t{nonce[4 * i + 3]} << 24);
  }
}

ChaChaRng::~ChaChaRng() {
  // One update per stream: per-refill updates from concurrent masking
  // threads would bounce the counters' cache line.
  if (batch_blocks_ + scalar_blocks_ > 0) {
    CountBlocks(kernel_, batch_blocks_, scalar_blocks_);
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

void ChaChaRng::Refill() {
#if defined(__x86_64__)
  if (kernel_ != ChaChaKernel::kScalar && state_[12] <= kLastBatchStart) {
    if (kernel_ == ChaChaKernel::kAvx512) {
      BatchAvx512(state_.data(), words_.data());
    } else {
      BatchAvx2(state_.data(), words_.data());
    }
    state_[12] += kBatchBlocks;
    batch_blocks_ += kBatchBlocks;
    end_ = words_.size();
    offset_ = 0;
    return;
  }
#endif
  uint32_t block[16];
  ChaChaBlock(state_, block);
  for (int w = 0; w < 16; ++w) words_[16 * w] = block[w];
  ++scalar_blocks_;
  state_[12] += 1;
  ULDP_CHECK_MSG(state_[12] != 0, "ChaCha20 block counter exhausted");
  end_ = 16;
  offset_ = 0;
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
