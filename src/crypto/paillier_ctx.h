// Long-lived Paillier evaluation context — the crypto fast path behind
// Protocol 1. The static Paillier API rebuilds a Montgomery context (REDC
// constants, R^2 mod m) for every single modular exponentiation; at one
// encryption per (silo, user) plus one MulPlaintext and one decryption per
// model coordinate, that setup cost and the generic multiplication path
// dominate the protocol's wall clock. A PaillierContext instead:
//
//   * owns the Montgomery context for n^2 (and p^2, q^2 with the secret
//     key) for the lifetime of the key, so every exponentiation
//     (Encrypt's randomizer, MulPlaintext, Rerandomize, CRT Decrypt) reuses
//     it — lone modular multiplies (AddCiphertexts / AddPlaintext) stay on
//     the plain multiply+reduce path, which is faster than a Montgomery
//     round trip for a single product;
//   * decrypts via the Chinese Remainder Theorem when the secret key is
//     present: c^(p-1) mod p^2 and c^(q-1) mod q^2 with half-size exponents
//     over half-size moduli, then Garner recombination — a ~4x asymptotic
//     win over the classic L(c^lambda mod n^2) path, bitwise-identical
//     output;
//   * encrypts as (1 + m*n) * rho mod n^2 with a randomizer rho that is an
//     n-th power drawn from the encryption's own Rng substream, so batches
//     run on a ThreadPool bitwise identically at any thread count. An
//     eval-only context draws a unit r and returns r^n mod n^2, as the
//     static shim does: its ciphertexts are bitwise Paillier::Encrypt's;
//   * on the key holder, the one party Protocol 1 lets encrypt, takes
//     rho = h_s^a instead (Damgård, Jurik & Nielsen, IJIS 2010): h = -x^2
//     mod n for a unit x drawn once from the context's base stream,
//     h_s = h^n mod n^2, and a fresh exponent a of |n| + 128 bits, so a
//     mod ord(h_s) is within 2^-127 of uniform and semantic security rests
//     on DCR, as DJN show. h_s is an n-th power, so its order mod p^2
//     divides p - 1: a fixed-base comb over p^2 raises it to a mod (p-1),
//     one over q^2 to a mod (q-1), and Garner joins the halves — an
//     order of magnitude cheaper than a fresh r^n at 1024-3072 bits, from
//     two combs of at most 128 entries each (at most 126 KiB together at
//     3072 bits).
//
// Decryption and the homomorphic operations produce bitwise-identical
// results to the static Paillier shim; encryption does too on eval-only
// contexts given the same randomness stream.

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
  /// Key holder's context: adds CRT decryption from the stored p, q
  /// factors and the fixed-base randomizer, whose base x is drawn from
  /// `base_rng` (redrawn until it is a unit mod n). Contexts built from
  /// one key and one base stream encrypt identically.
  PaillierContext(const PaillierPublicKey& pk, const PaillierSecretKey& sk,
                  Rng& base_rng);

  /// Bits the key holder's randomizer exponent a carries beyond |n|.
  static constexpr int kExponentSlackBits = 128;

  const PaillierPublicKey& public_key() const { return pk_; }
  bool has_secret_key() const { return has_sk_; }

  /// Encrypts m in [0, n): (1 + m*n) * ComputeRandomizer(rng) mod n^2.
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

  /// The plaintext-independent half of Encrypt, drawn from `rng` as
  /// Encrypt draws it. Eval-only: a unit r from Paillier::DrawUnit (retry
  /// on non-units), then r^n mod n^2, bitwise the static shim's. Key
  /// holder: a = BigInt::RandomBits(|n| + kExponentSlackBits, rng), then
  /// h_s^a mod n^2 from the two combs, bitwise equal to
  /// mont_n_squared().MontExp(randomizer_base(), a).
  BigInt ComputeRandomizer(Rng& rng) const;

  /// Encrypts ms[i] under randomness fork(i) on `pool`. Bitwise equal to
  /// calling Encrypt(ms[i], fork(i)) serially, at any thread count.
  /// `fork` is called concurrently and must be a pure function of i.
  Result<std::vector<BigInt>> EncryptBatch(
      const std::vector<BigInt>& ms, const std::function<Rng(size_t)>& fork,
      ThreadPool& pool) const;

  /// Cached n^2 context, exposed for callers with bespoke exponentiations.
  const Montgomery& mont_n_squared() const { return mont_n2_; }
  /// The key holder's randomizer base h_s = h^n mod n^2 (zero on an
  /// eval-only context), exposed so checks can recompute h_s^a.
  const BigInt& randomizer_base() const { return h_s_; }

 private:
  Status CheckPlaintext(const BigInt& m) const;
  Status CheckCiphertext(const BigInt& c) const;
  // Garner over p^2, q^2: the unique value in [0, n^2) with residues x_p
  // mod p^2 and x_q mod q^2.
  BigInt JoinSquares(const BigInt& x_p, const BigInt& x_q) const;

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
  BigInt h_s_;                      // randomizer base h^n mod n^2
  std::unique_ptr<Montgomery> mont_p2_, mont_q2_;
  // Combs over h_s mod p^2 and h_s mod q^2, for exponents mod p-1, q-1.
  std::unique_ptr<FixedBaseTable> comb_p2_, comb_q2_;
};

}  // namespace uldp

#endif  // ULDP_CRYPTO_PAILLIER_CTX_H_
