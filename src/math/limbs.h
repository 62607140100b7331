// Fixed-width little-endian limb arithmetic: the allocation-free core under
// flat field vectors (crypto/secure_agg.h). Every function works on k-limb
// operands held in caller memory; BigInt::ToDouble wraps the same rounding
// rule, so a value converts to the same double in either form.
//
// The modular add and subtract are branch-free carry chains, so a loop of
// them over random field elements runs without mispredictions. A loop over
// many elements passes its width through WithWidth, which compiles the
// body once with the aggregation field's two limbs as a constant.

#ifndef ULDP_MATH_LIMBS_H_
#define ULDP_MATH_LIMBS_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>

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

/// a + b + carry (carry 0 or 1) into *sum; returns the carry out.
inline uint64_t AddCarry(uint64_t a, uint64_t b, uint64_t carry,
                         uint64_t* sum) {
  uint64_t partial;
  const bool first = __builtin_add_overflow(a, b, &partial);
  const bool second = __builtin_add_overflow(partial, carry, sum);
  return static_cast<uint64_t>(first | second);
}

/// a - b - borrow (borrow 0 or 1) into *diff; returns the borrow out.
inline uint64_t SubBorrow(uint64_t a, uint64_t b, uint64_t borrow,
                          uint64_t* diff) {
  uint64_t partial;
  const bool first = __builtin_sub_overflow(a, b, &partial);
  const bool second = __builtin_sub_overflow(partial, borrow, diff);
  return static_cast<uint64_t>(first | second);
}

/// out = a + b over k limbs; returns the carry out of the top limb. `out`
/// may alias either input.
inline uint64_t Add(uint64_t* out, const uint64_t* a, const uint64_t* b,
                    size_t k) {
  uint64_t carry = 0;
  for (size_t i = 0; i < k; ++i) carry = AddCarry(a[i], b[i], carry, &out[i]);
  return carry;
}

/// out = a - b over k limbs; returns the borrow out of the top limb. `out`
/// may alias either input.
inline uint64_t Sub(uint64_t* out, const uint64_t* a, const uint64_t* b,
                    size_t k) {
  uint64_t borrow = 0;
  for (size_t i = 0; i < k; ++i) {
    borrow = SubBorrow(a[i], b[i], borrow, &out[i]);
  }
  return borrow;
}

/// The borrow out of a - b over k limbs, without storing the difference:
/// 1 iff a < b.
inline uint64_t Borrow(const uint64_t* a, const uint64_t* b, size_t k) {
  uint64_t borrow = 0;
  for (size_t i = 0; i < k; ++i) {
    uint64_t unused;
    borrow = SubBorrow(a[i], b[i], borrow, &unused);
  }
  return borrow;
}

/// a = (a + b) mod m, for a and b already in [0, m).
inline void ModAdd(uint64_t* a, const uint64_t* b, const uint64_t* m,
                   size_t k) {
  const uint64_t carry = Add(a, a, b, k);
  // a + b < 2m, so m comes off unless the sum stayed below m without
  // carrying out of the top limb (a carry always borrows below m).
  const uint64_t mask = (Borrow(a, m, k) & ~carry) - 1;
  uint64_t borrow = 0;
  for (size_t i = 0; i < k; ++i) {
    borrow = SubBorrow(a[i], m[i] & mask, borrow, &a[i]);
  }
}

/// a = (a - b) mod m, for a and b already in [0, m).
inline void ModSub(uint64_t* a, const uint64_t* b, const uint64_t* m,
                   size_t k) {
  // m goes back on iff the difference borrowed.
  const uint64_t mask = uint64_t{0} - Sub(a, a, b, k);
  uint64_t carry = 0;
  for (size_t i = 0; i < k; ++i) {
    carry = AddCarry(a[i], m[i] & mask, carry, &a[i]);
  }
}

/// Calls fn(k) with k as a compile-time constant when it is 2, the
/// aggregation field's width (crypto/secure_agg.h), and as a runtime
/// size_t otherwise. A loop written once as the body of `fn` then runs
/// every limb loop above unrolled into straight-line carry chains for the
/// two-limb field, and as a loop for any other width.
template <typename Fn>
inline void WithWidth(size_t k, Fn&& fn) {
  if (k == 2) {
    fn(std::integral_constant<size_t, 2>());
  } else {
    fn(k);
  }
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
