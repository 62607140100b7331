// ChaCha20 stream generator used as the PRF for deriving secure-aggregation
// masks and multiplicative blinds from Diffie-Hellman shared secrets
// (Protocol 1 steps 1.(c)-(e)).
//
// The keystream is the RFC 8439 block function in counter mode; the "Rng"
// wrapper exposes it as uniform integers and finite-field elements.
//
// Kernels. A refill computes 16 consecutive blocks (1 KiB) at once, one
// block per vector lane (Goll & Gueron, "Vectorization of ChaCha Stream
// Cipher", ITNG 2014): 16 lanes under AVX-512F, or two passes of 8 lanes
// under AVX2. CPUID and XGETBV pick the kernel once per process. A CPU with
// neither refills one block at a time with the scalar RFC 8439 block, which
// stays the reference the kernels are tested against. Every kernel yields
// the same words in the same order for every (key, nonce).
//
// The counter. State word 12 is RFC 8439's 32-bit block counter, and a
// stream starts at block 0. A 16-block batch never crosses 2^32: once fewer
// than 16 blocks remain before the wrap, refills fall back to one scalar
// block each. So lane offsets never carry into nonce word 13, and a stream
// aborts with "ChaCha20 block counter exhausted" at the same word on every
// kernel.

#ifndef ULDP_CRYPTO_CHACHA_H_
#define ULDP_CRYPTO_CHACHA_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "math/bigint.h"

namespace uldp {

/// The block function behind a stream's refills.
enum class ChaChaKernel { kScalar, kAvx2, kAvx512 };

/// Deterministic cryptographic stream: ChaCha20 keyed by a 256-bit key and
/// a 96-bit nonce. Two parties holding the same (key, nonce) derive the
/// same stream — the property pairwise secure-aggregation masks rely on.
/// Each caller owns its stream; one stream is not shared between threads.
class ChaChaRng {
 public:
  using Key = std::array<uint8_t, 32>;
  using Nonce = std::array<uint8_t, 12>;

  ChaChaRng(const Key& key, const Nonce& nonce);
  /// Adds the blocks this stream computed to the crypto.chacha.*_blocks
  /// counters, which register with the first stream that drew keystream.
  ~ChaChaRng();
  // A copy would fork the keystream and count its blocks twice.
  ChaChaRng(const ChaChaRng&) = delete;
  ChaChaRng& operator=(const ChaChaRng&) = delete;

  /// Builds a key from an arbitrary string (hashed with SHA-256) — used to
  /// bind a DH shared secret plus a context label to a stream.
  static Key DeriveKey(const std::string& material);
  /// Builds a nonce from a round/tag pair so per-round streams differ.
  static Nonce MakeNonce(uint64_t tag, uint32_t stream_id = 0);

  /// Next 64 uniform bits of keystream: the next 8 keystream bytes read
  /// little-endian. RFC 8439 serializes each state word little-endian, so
  /// they are word w plus word w+1 << 32.
  uint64_t NextUint64() {
    if (offset_ == end_) Refill();
    const uint64_t v = WordsAt(offset_);
    offset_ += 2;
    return v;
  }

  /// Uniform elements of [0, m) by rejection sampling, limb-level: `m` is
  /// k little-endian limbs with a nonzero top limb, and `count` draws are
  /// written to `out` one after another, k limbs each. Each attempt takes
  /// k words of keystream, masks the top one to m's bit length, and is kept
  /// iff it is below m. An attempt whose words all sit in the current
  /// refill reads them in place, so a bulk draw costs little more than its
  /// keystream; the words and draws are those of `count` single draws.
  void UniformBelow(const uint64_t* m, size_t k, uint64_t* out,
                    size_t count = 1);
  /// The same draw as a BigInt; consumes the identical keystream.
  BigInt UniformBelow(const BigInt& modulus);

 private:
  friend struct ChaChaKernels;
  static constexpr size_t kBatchBlocks = 16;

  ChaChaRng(const Key& key, const Nonce& nonce, ChaChaKernel kernel,
            uint32_t first_block);
  void Refill();
  /// Words `offset` and `offset` + 1 of the last refill (counted block
  /// after block, as offset_ is), the second one high. Word w of block b
  /// is at words_[16 w + b], and w + 1 is 16 further.
  uint64_t WordsAt(size_t offset) const {
    const size_t i = offset % 16 * 16 + offset / 16;
    return words_[i] | static_cast<uint64_t>(words_[i + 16]) << 32;
  }

  std::array<uint32_t, 16> state_;
  ChaChaKernel kernel_;
  // Words of the last refill already read (offset_) and written (end_),
  // counted block after block, 16 per block; offset_ == end_ refills.
  size_t offset_ = 0;
  size_t end_ = 0;
  uint64_t batch_blocks_ = 0;   // blocks from kernel_'s 16-block batches
  uint64_t scalar_blocks_ = 0;  // blocks from the scalar block
  // The keystream's state words, word-major: word w of the refill's block
  // b at [16 w + b], so a vector kernel stores each word of its lanes'
  // blocks with one write.
  alignas(64) std::array<uint32_t, 16 * kBatchBlocks> words_{};
};

/// Builds streams on a chosen kernel and starting block, which production
/// code never does: ChaChaRng(key, nonce) runs Picked() from block 0. The
/// cross-kernel tests and micro_crypto use it to reach every kernel the CPU
/// runs and the counter wrap.
struct ChaChaKernels {
  /// True when `kernel` runs on this CPU.
  static bool Available(ChaChaKernel kernel);
  /// The kernel this process picked from CPUID: AVX-512F when the CPU has
  /// it and the OS saves zmm state, else AVX2 likewise, else scalar.
  static ChaChaKernel Picked();
  /// A stream on `kernel`, which must be Available, whose first block is
  /// block `first_block` of the (key, nonce) keystream.
  static ChaChaRng On(const ChaChaRng::Key& key,
                      const ChaChaRng::Nonce& nonce, ChaChaKernel kernel,
                      uint32_t first_block = 0);
};

}  // namespace uldp

#endif  // ULDP_CRYPTO_CHACHA_H_
