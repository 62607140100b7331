// Montgomery modular arithmetic context for odd moduli. Precomputes the
// REDC constants once so repeated ModMul / ModExp (the hot path of Paillier
// and Diffie-Hellman) avoid per-operation division.

#ifndef ULDP_MATH_MONTGOMERY_H_
#define ULDP_MATH_MONTGOMERY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/bigint.h"

namespace uldp {

/// Fixed-modulus Montgomery multiplier. The modulus must be odd and > 1.
/// Values are handled in the ordinary (non-Montgomery) domain at the API
/// boundary; conversion happens internally.
class Montgomery {
 public:
  explicit Montgomery(const BigInt& modulus);

  /// (a * b) mod n, a and b already reduced into [0, n).
  BigInt ModMul(const BigInt& a, const BigInt& b) const;

  /// (a * a) mod n through the dedicated squaring path (cross products
  /// computed once and doubled), ~1.5x faster than a generic ModMul.
  BigInt MontSqr(const BigInt& a) const;

  /// base^exp mod n, base in [0, n), exp >= 0. Sliding window over
  /// precomputed odd powers, squarings through the dedicated path. This is
  /// the context-reuse entry point the Paillier/DH fast paths call with a
  /// long-lived context; ModExp forwards here.
  BigInt MontExp(const BigInt& base, const BigInt& exp) const;

  /// Alias for MontExp (kept for existing call sites).
  BigInt ModExp(const BigInt& base, const BigInt& exp) const;

  const BigInt& modulus() const { return modulus_; }

 private:
  // FixedBaseTable builds per-base power tables directly in the Montgomery
  // domain (math/fixed_base.h), and MultiExp builds its odd-power tables
  // and runs its shared squaring chain there (math/multi_exp.h), so both
  // share the private limb-level ops.
  friend class FixedBaseTable;
  friend class MultiExp;

  // All internal vectors have exactly k_ limbs (little endian).
  using Limbs = std::vector<uint64_t>;

  // Every product, squaring and reduction below is a sequence of
  // multiply-accumulate rows (math/mont_row.h), run by the row kernel the
  // CPU supports.
  Limbs ToMont(const BigInt& x) const;
  BigInt FromMont(const Limbs& x) const;
  /// Montgomery product of two k-limb values (in Montgomery domain).
  Limbs MontMul(const Limbs& a, const Limbs& b) const;
  /// Montgomery square of a k-limb value (in Montgomery domain).
  Limbs MontSqrLimbs(const Limbs& a) const;
  /// REDC of the 2k-limb value at t, which it overwrites: returns
  /// t * R^{-1} mod n as k limbs.
  Limbs Redc(uint64_t* t) const;

  BigInt modulus_;
  std::vector<uint64_t> n_limbs_;
  size_t k_ = 0;
  uint64_t n_prime_ = 0;  // -n^{-1} mod 2^64
  Limbs r2_;              // R^2 mod n
  Limbs one_mont_;        // R mod n (Montgomery representation of 1)
};

}  // namespace uldp

#endif  // ULDP_MATH_MONTGOMERY_H_
