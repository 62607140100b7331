// ChaCha20 stream generator used as the PRF for deriving secure-aggregation
// masks and multiplicative blinds from Diffie-Hellman shared secrets
// (Protocol 1 steps 1.(c)-(e)).
//
// This is the plain RFC 8439 block function in counter mode; the "Rng"
// wrapper exposes the keystream as uniform integers and finite-field
// elements.

#ifndef ULDP_CRYPTO_CHACHA_H_
#define ULDP_CRYPTO_CHACHA_H_

#include <array>
#include <cstdint>
#include <string>

#include "math/bigint.h"

namespace uldp {

/// Deterministic cryptographic stream: ChaCha20 keyed by a 256-bit key and
/// a 96-bit nonce. Two parties holding the same (key, nonce) derive the
/// same stream — the property pairwise secure-aggregation masks rely on.
class ChaChaRng {
 public:
  using Key = std::array<uint8_t, 32>;
  using Nonce = std::array<uint8_t, 12>;

  ChaChaRng(const Key& key, const Nonce& nonce);

  /// Builds a key from an arbitrary string (hashed with SHA-256) — used to
  /// bind a DH shared secret plus a context label to a stream.
  static Key DeriveKey(const std::string& material);
  /// Builds a nonce from a round/tag pair so per-round streams differ.
  static Nonce MakeNonce(uint64_t tag, uint32_t stream_id = 0);

  /// Next 64 uniform bits of keystream.
  uint64_t NextUint64();

  /// Uniform element of [0, m) by rejection sampling, limb-level: `m` is k
  /// little-endian limbs with a nonzero top limb, and the draw is written
  /// to `out` as k limbs. Each attempt takes k words of keystream, masks
  /// the top one to m's bit length, and is kept iff it is below m.
  void UniformBelow(const uint64_t* m, size_t k, uint64_t* out);
  /// The same draw as a BigInt; consumes the identical keystream.
  BigInt UniformBelow(const BigInt& modulus);

 private:
  void RefillBlock();

  std::array<uint32_t, 16> state_;
  std::array<uint32_t, 16> block_;  // keystream block as state words
  size_t offset_ = 16;  // next unread word; 16 forces a refill
};

}  // namespace uldp

#endif  // ULDP_CRYPTO_CHACHA_H_
