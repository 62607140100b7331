// Long-lived Paillier evaluation context — the crypto fast path behind
// Protocol 1. The static Paillier API rebuilds a Montgomery context (REDC
// constants, R^2 mod m) for every single modular exponentiation; at one
// encryption per (silo, user) plus one MulPlaintext and one decryption per
// model coordinate, that setup cost and the generic multiplication path
// dominate the protocol's wall clock. A PaillierContext instead:
//
//   * owns the Montgomery context for n^2 (and p, q, p^2, q^2 with the
//     secret key) for the lifetime of the key, so every exponentiation
//     (Encrypt's r^n, MulPlaintext, Rerandomize, CRT Decrypt) reuses it —
//     lone modular multiplies (AddCiphertexts / AddPlaintext) stay on the
//     plain multiply+reduce path, which is faster than a Montgomery
//     round trip for a single product;
//   * decrypts via the Chinese Remainder Theorem when the secret key is
//     present: c^(p-1) mod p^2 and c^(q-1) mod q^2 with half-size exponents
//     over half-size moduli, then Garner recombination — a ~4x asymptotic
//     win over the classic L(c^lambda mod n^2) path, bitwise-identical
//     output;
//   * separates encryption into a plaintext-independent randomizer
//     (r^n mod n^2) and a single modular multiply, so randomizers can be
//     precomputed in batch on a ThreadPool while preserving the engine's
//     bitwise thread-count-invariance (each item draws r from its own
//     Rng::Fork substream in the same order a sequential Encrypt would);
//   * builds that randomizer from the factors when it holds the secret key:
//     r^n mod p^2 = ((r mod p)^q mod p)^p mod p^2 (and the same over q^2),
//     Garner-recombined — a half-size exponent mod p plus a half-size
//     exponent mod p^2 per side instead of one n-bit exponent mod n^2,
//     ~2x faster at 1024 bits and ~2.5x at 3072, same number.
//
// All operations produce bitwise-identical results to the static Paillier
// shim given the same randomness stream.

#ifndef ULDP_CRYPTO_PAILLIER_CTX_H_
#define ULDP_CRYPTO_PAILLIER_CTX_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "crypto/paillier.h"
#include "math/bigint.h"
#include "math/fixed_base.h"
#include "math/montgomery.h"

namespace uldp {

class PaillierContext {
 public:
  /// Evaluation-only context (encrypt + homomorphic ops). Decrypt errors.
  explicit PaillierContext(const PaillierPublicKey& pk);
  /// Full context: adds CRT decryption from the stored p, q factors.
  PaillierContext(const PaillierPublicKey& pk, const PaillierSecretKey& sk);

  const PaillierPublicKey& public_key() const { return pk_; }
  bool has_secret_key() const { return has_sk_; }

  /// Encrypts m in [0, n). Draws r exactly as Paillier::Encrypt does, so
  /// the ciphertext is bitwise identical given the same rng substream.
  Result<BigInt> Encrypt(const BigInt& m, Rng& rng) const;

  /// CRT decryption of c in [0, n^2). Bitwise-identical to the classic
  /// Paillier::Decrypt for every ciphertext in Z*_{n^2}.
  Result<BigInt> Decrypt(const BigInt& c) const;

  BigInt AddCiphertexts(const BigInt& c1, const BigInt& c2) const;
  BigInt AddPlaintext(const BigInt& c, const BigInt& k) const;
  BigInt MulPlaintext(const BigInt& c, const BigInt& k) const;
  Result<BigInt> Rerandomize(const BigInt& c, Rng& rng) const;

  // -- Fixed-base MulPlaintext ----------------------------------------------
  // MulPlaintext is c^k mod n^2 with k < n. When one ciphertext is raised
  // to many scalars — the silo-weighting loop raises Enc(B_inv(N_u)) once
  // per shipped coordinate — a per-ciphertext fixed-base table removes
  // most squarings from those exponentiations (math/fixed_base.h). The
  // silo fold builds them when ChooseFoldPath says they beat one Straus
  // chain shared by the batch.

  /// Precomputes the fixed-base table for ciphertext `c` over the cached
  /// n^2 context. `expected_uses` is the number of MulPlaintextWithTable
  /// calls the table will serve (sizes the window). The table is immutable
  /// and safe to share across threads; it must not outlive this context.
  FixedBaseTable MakeMulPlaintextTable(const BigInt& c,
                                       size_t expected_uses) const;

  /// c^k mod n^2 through `table` (built from c by MakeMulPlaintextTable).
  /// Bitwise identical to MulPlaintext(c, k).
  BigInt MulPlaintextWithTable(const FixedBaseTable& table,
                               const BigInt& k) const;

  // -- Randomizer pipeline --------------------------------------------------
  // r^n mod n^2 does not depend on the plaintext, so it can be produced
  // ahead of (or concurrently with) the rest of a round and consumed by a
  // one-multiply encryption.

  /// Draws r from `rng` exactly as Encrypt would (uniform unit of F_n,
  /// retry on non-units) and returns r^n mod n^2. With the secret key the
  /// value comes from the CRT halves; eval-only contexts run the n^2
  /// exponentiation. Both return the same number for the same draws.
  BigInt ComputeRandomizer(Rng& rng) const;

  /// Batch-precomputes `count` randomizers on `pool`. `fork(i)` must return
  /// the independent Rng substream the i-th Encrypt would consume (it is
  /// called concurrently and must be a pure function of i). The output is
  /// bitwise independent of the pool's thread count.
  std::vector<BigInt> PrecomputeRandomizers(
      size_t count, const std::function<Rng(size_t)>& fork,
      ThreadPool& pool) const;

  /// Encryption hot path: (1 + m*n) * r_n mod n^2 — one modular multiply.
  /// `r_n` must come from ComputeRandomizer / PrecomputeRandomizers.
  Result<BigInt> EncryptWithRandomizer(const BigInt& m,
                                       const BigInt& r_n) const;

  /// Encrypts ms[i] under randomness fork(i) with the randomizer pipeline
  /// on `pool`. Bitwise equal to calling Encrypt(ms[i], fork(i)) serially,
  /// at any thread count.
  Result<std::vector<BigInt>> EncryptBatch(
      const std::vector<BigInt>& ms, const std::function<Rng(size_t)>& fork,
      ThreadPool& pool) const;

  /// Cached n^2 context, exposed for callers with bespoke exponentiations.
  const Montgomery& mont_n_squared() const { return mont_n2_; }

 private:
  Status CheckCiphertext(const BigInt& c) const;

  PaillierPublicKey pk_;
  Montgomery mont_n2_;

  // CRT decryption and randomizer state (present iff constructed with the
  // secret key).
  bool has_sk_ = false;
  BigInt p_, q_;
  BigInt p2_, q2_;                  // p^2, q^2
  BigInt p_minus_1_, q_minus_1_;    // half-size CRT exponents
  BigInt h_p_, h_q_;                // L_p((1+n)^(p-1) mod p^2)^{-1} mod p, ~q
  BigInt q_inv_mod_p_;              // Garner recombination constant
  BigInt q2_inv_mod_p2_;            // Garner constant over p^2, q^2
  std::unique_ptr<Montgomery> mont_p_, mont_q_;
  std::unique_ptr<Montgomery> mont_p2_, mont_q2_;
};

}  // namespace uldp

#endif  // ULDP_CRYPTO_PAILLIER_CTX_H_
