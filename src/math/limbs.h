// Fixed-width little-endian limb arithmetic: the allocation-free core under
// flat field vectors (crypto/secure_agg.h). Every function works on k-limb
// operands held in caller memory; BigInt::ToDouble wraps the same rounding
// rule, so a value converts to the same double in either form.

#ifndef ULDP_MATH_LIMBS_H_
#define ULDP_MATH_LIMBS_H_

#include <cstddef>
#include <cstdint>

namespace uldp {
namespace limbs {

/// Three-way comparison of two k-limb magnitudes: -1, 0 or +1.
inline int Compare(const uint64_t* a, const uint64_t* b, size_t k) {
  for (size_t i = k; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// Number of significant bits of a k-limb magnitude (0 for zero).
inline int BitLength(const uint64_t* a, size_t k) {
  while (k > 0 && a[k - 1] == 0) --k;
  return k == 0 ? 0
                : static_cast<int>(64 * k) - __builtin_clzll(a[k - 1]);
}

/// out = a + b over k limbs; returns the carry out of the top limb. `out`
/// may alias either input.
inline uint64_t Add(uint64_t* out, const uint64_t* a, const uint64_t* b,
                    size_t k) {
  unsigned __int128 carry = 0;
  for (size_t i = 0; i < k; ++i) {
    carry += static_cast<unsigned __int128>(a[i]) + b[i];
    out[i] = static_cast<uint64_t>(carry);
    carry >>= 64;
  }
  return static_cast<uint64_t>(carry);
}

/// out = a - b over k limbs; returns the borrow out of the top limb. `out`
/// may alias either input.
inline uint64_t Sub(uint64_t* out, const uint64_t* a, const uint64_t* b,
                    size_t k) {
  uint64_t borrow = 0;
  for (size_t i = 0; i < k; ++i) {
    const unsigned __int128 diff =
        static_cast<unsigned __int128>(a[i]) - b[i] - borrow;
    out[i] = static_cast<uint64_t>(diff);
    borrow = static_cast<uint64_t>(diff >> 64) & 1;
  }
  return borrow;
}

/// a = (a + b) mod m, for a and b already in [0, m).
inline void ModAdd(uint64_t* a, const uint64_t* b, const uint64_t* m,
                   size_t k) {
  if (Add(a, a, b, k) != 0 || Compare(a, m, k) >= 0) Sub(a, a, m, k);
}

/// a = (a - b) mod m, for a and b already in [0, m).
inline void ModSub(uint64_t* a, const uint64_t* b, const uint64_t* m,
                   size_t k) {
  if (Sub(a, a, b, k) != 0) Add(a, a, m, k);
}

/// The magnitude as a double, accumulated top-down as out * 2^64 + limb.
/// Leading zero limbs leave the result unchanged.
inline double ToDouble(const uint64_t* a, size_t k) {
  double out = 0.0;
  for (size_t i = k; i-- > 0;) {
    out = out * 18446744073709551616.0 + static_cast<double>(a[i]);
  }
  return out;
}

}  // namespace limbs
}  // namespace uldp

#endif  // ULDP_MATH_LIMBS_H_
