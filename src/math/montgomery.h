// Montgomery modular arithmetic context for odd moduli. Precomputes the
// REDC constants once so repeated ModMul / ModExp (the hot path of Paillier
// and Diffie-Hellman) avoid per-operation division.
//
// A context runs one of two limb radices, picked at construction. The
// 64-bit radix runs every product as multiply-accumulate rows
// (math/mont_row.h): MULX/ADCX/ADOX where the CPU has BMI2 and ADX, else
// a portable loop. The 52-bit radix runs every product as one
// almost-Montgomery multiplication on AVX-512 IFMA (math/mont_ifma.h), and
// serves moduli of 833 to 6656 bits on CPUs with AVX-512F and IFMA. Every
// product is fully reduced into [0, n), so both radices return the same
// numbers.

#ifndef ULDP_MATH_MONTGOMERY_H_
#define ULDP_MATH_MONTGOMERY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/bigint.h"

namespace uldp {

/// The arithmetic under a Montgomery context: 64-bit rows in portable C++
/// or on MULX/ADCX/ADOX, or 52-bit digits on AVX-512 IFMA.
enum class MontKernel { kPortable, kAdx, kIfma };

/// Fixed-modulus Montgomery multiplier. The modulus must be odd and > 1.
/// Values are handled in the ordinary (non-Montgomery) domain at the API
/// boundary; conversion happens internally.
class Montgomery {
 public:
  /// Picks the kernel from CPUID, read once per process, and the modulus
  /// size: kIfma where the CPU has it and the modulus is 833 to 6656 bits,
  /// else kAdx where the CPU has BMI2 and ADX, else kPortable.
  explicit Montgomery(const BigInt& modulus);

  /// (a * b) mod n, a and b already reduced into [0, n).
  BigInt ModMul(const BigInt& a, const BigInt& b) const;

  /// (a * a) mod n. On 64-bit contexts this runs the dedicated squaring
  /// path (cross products computed once and doubled), ~1.5x faster than a
  /// generic ModMul; an IFMA context squares as a generic product.
  BigInt MontSqr(const BigInt& a) const;

  /// base^exp mod n, base in [0, n), exp >= 0. Sliding window over
  /// precomputed odd powers, squarings through the dedicated path. This is
  /// the context-reuse entry point the Paillier/DH fast paths call with a
  /// long-lived context; ModExp forwards here.
  BigInt MontExp(const BigInt& base, const BigInt& exp) const;

  /// Alias for MontExp (kept for existing call sites).
  BigInt ModExp(const BigInt& base, const BigInt& exp) const;

  const BigInt& modulus() const { return modulus_; }
  MontKernel kernel() const { return kernel_; }

 private:
  // The cross-kernel tests and benches build contexts on a chosen kernel
  // (math/mont_ifma.h).
  friend struct MontKernels;
  Montgomery(const BigInt& modulus, MontKernel kernel);

  // FixedBaseTable builds per-base power tables directly in the Montgomery
  // domain (math/fixed_base.h), and MultiExp builds its odd-power tables
  // and runs its shared squaring chain there (math/multi_exp.h), so both
  // share the private limb-level ops.
  friend class FixedBaseTable;
  friend class MultiExp;

  // A Montgomery-domain value, little endian: k_ 64-bit limbs, or on the
  // IFMA kernel 52-bit digits padded to whole vectors of eight.
  using Limbs = std::vector<uint64_t>;

  /// x * R mod n for any x >= 0 of at most k_ limbs, including x >= n.
  Limbs ToMont(const BigInt& x) const;
  BigInt FromMont(const Limbs& x) const;
  /// Montgomery product of two Montgomery-domain values.
  Limbs MontMul(const Limbs& a, const Limbs& b) const;
  /// Montgomery square of a Montgomery-domain value.
  Limbs MontSqrLimbs(const Limbs& a) const;
  /// 64-bit radix: REDC of the 2k-limb value at t, which it overwrites:
  /// returns t * R^{-1} mod n as k limbs.
  Limbs Redc(uint64_t* t) const;

  BigInt modulus_;
  MontKernel kernel_;
  std::vector<uint64_t> n_limbs_;
  size_t k_ = 0;
  uint64_t n_prime_ = 0;  // -n^{-1} mod 2^64
  // 64-bit radix: the row kernel (math/mont_row.h), R = 2^(64 k).
  uint64_t (*add_mul_row_)(uint64_t*, const uint64_t*, size_t,
                           uint64_t) = nullptr;
  // 52-bit radix: the product kernel (math/mont_ifma.h), the modulus's
  // digits padded to whole vectors, and R = 2^(52 digits_).
  void (*amm_)(uint64_t*, const uint64_t*, const uint64_t*, const uint64_t*,
               uint64_t, size_t) = nullptr;
  size_t digits_ = 0;
  Limbs n_digits_;
  Limbs r2_;        // R^2 mod n
  Limbs one_mont_;  // R mod n (Montgomery representation of 1)
};

}  // namespace uldp

#endif  // ULDP_MATH_MONTGOMERY_H_
