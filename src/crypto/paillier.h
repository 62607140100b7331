// Paillier additively homomorphic cryptosystem (Paillier, EUROCRYPT'99),
// implemented from scratch on the BigInt substrate. Used by the private
// weighting protocol (Protocol 1) so silos can weight their clipped model
// deltas by encrypted inverse histograms without learning them.
//
// We use the standard g = n + 1 simplification:
//   Enc(m; r) = (1 + m*n) * r^n  mod n^2
//   Dec(c)    = L(c^lambda mod n^2) * mu  mod n,  L(x) = (x-1)/n
// with lambda = lcm(p-1, q-1) and mu = lambda^{-1} mod n.

#ifndef ULDP_CRYPTO_PAILLIER_H_
#define ULDP_CRYPTO_PAILLIER_H_

#include "common/rng.h"
#include "common/status.h"
#include "math/bigint.h"

namespace uldp {

class ThreadPool;

/// Public key: modulus n (and cached n^2). Plaintexts live in F_n; signed
/// quantities are mapped into F_n by the fixed-point codec.
struct PaillierPublicKey {
  BigInt n;
  BigInt n_squared;
  int modulus_bits = 0;
};

/// Secret key. Holding it allows decryption of any ciphertext under the
/// matching public key — which is exactly why Protocol 1 layers secure
/// aggregation masks on top (the server holds SK).
struct PaillierSecretKey {
  BigInt lambda;  // lcm(p-1, q-1)
  BigInt mu;      // lambda^{-1} mod n
  BigInt p;
  BigInt q;
};

/// Static one-shot Paillier operations. These rebuild the modular-arithmetic
/// contexts on every call; hot paths (Protocol 1, the benches) should hold a
/// PaillierContext (crypto/paillier_ctx.h) instead, which caches the
/// Montgomery state and decrypts via CRT with bitwise-identical results
/// (encryption too, on an eval-only context; the key holder's fixed-base
/// randomizers differ). This API is kept as the simple compatibility
/// surface and as the cold-path baseline the micro benchmarks compare
/// against.
class Paillier {
 public:
  /// Generates a key pair with an `modulus_bits`-bit modulus n = p*q
  /// (p, q random primes of modulus_bits/2 bits each).
  /// modulus_bits >= 64; the paper's default security parameter is 3072.
  /// The two prime searches are independent and run concurrently on `pool`
  /// (the process-global pool when null); each search draws from its own
  /// deterministic Rng::Fork substream, so the generated key is a pure
  /// function of `rng`'s state regardless of the pool's thread count.
  static Status GenerateKeyPair(int modulus_bits, Rng& rng,
                                PaillierPublicKey* public_key,
                                PaillierSecretKey* secret_key,
                                ThreadPool* pool = nullptr);

  /// Encrypts plaintext m in [0, n). Randomness r drawn from rng.
  static Result<BigInt> Encrypt(const PaillierPublicKey& pk, const BigInt& m,
                                Rng& rng);

  /// Draws the encryption randomizer base: r uniform in [1, n) with
  /// gcd(r, n) = 1 (holds w.h.p.; retries otherwise). Shared by Encrypt
  /// and eval-only PaillierContexts so both consume identical draw
  /// sequences — the bitwise fast/cold parity contract depends on this
  /// being the single implementation. The key holder's context draws its
  /// fixed randomizer base x with it too.
  static BigInt DrawUnit(const PaillierPublicKey& pk, Rng& rng);

  /// (1 + m*n) * r_n mod n^2 for a randomizer r_n, an n-th power mod n^2
  /// (r^n, or the key holder's h_s^a in PaillierContext). The
  /// plaintext-dependent half of encryption, shared with PaillierContext.
  /// No range checks: m must be in [0, n).
  static BigInt ComposeCiphertext(const PaillierPublicKey& pk, const BigInt& m,
                                  const BigInt& r_n);

  /// Decrypts ciphertext c in [0, n^2) to the plaintext in [0, n).
  static Result<BigInt> Decrypt(const PaillierPublicKey& pk,
                                const PaillierSecretKey& sk, const BigInt& c);

  /// Homomorphic addition: Dec(AddCiphertexts(c1, c2)) = m1 + m2 mod n.
  static BigInt AddCiphertexts(const PaillierPublicKey& pk, const BigInt& c1,
                               const BigInt& c2);

  /// Homomorphic plaintext addition: Dec(out) = m + k mod n.
  static BigInt AddPlaintext(const PaillierPublicKey& pk, const BigInt& c,
                             const BigInt& k);

  /// Homomorphic scalar multiplication: Dec(out) = m * k mod n.
  static BigInt MulPlaintext(const PaillierPublicKey& pk, const BigInt& c,
                             const BigInt& k);

  /// Re-randomizes a ciphertext (multiplies by a fresh encryption of 0),
  /// making it unlinkable to the original.
  static Result<BigInt> Rerandomize(const PaillierPublicKey& pk,
                                    const BigInt& c, Rng& rng);
};

}  // namespace uldp

#endif  // ULDP_CRYPTO_PAILLIER_H_
