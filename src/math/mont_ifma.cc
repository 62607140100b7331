#include "math/mont_ifma.h"

#include "common/check.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace uldp {
namespace mont_ifma {

#if defined(__x86_64__)
namespace {

using uint128 = unsigned __int128;

// Resolves one ripple of carries (or borrows) across a number held in V
// vectors of eight lanes, one mask bit per lane in 64-bit chunks: g marks
// the lanes that generate a carry, p the lanes that pass an incoming one
// on (disjoint from g). Adding g << 1 to p runs each carry up through the
// passing lanes above it, so a lane takes a carry in exactly where its sum
// bit differs from its pass bit. Writes those lanes to `in` and returns
// the carry out of the top lane.
template <int V>
using LaneMask = uint64_t[(V + 7) / 8];

template <int V>
bool CarryLanes(const LaneMask<V>& g, const LaneMask<V>& p, LaneMask<V>& in) {
  uint64_t carry = 0;
  for (int c = 0; c < (V + 7) / 8; ++c) {
    in[c] = (((g[c] << 1) | carry) + p[c]) ^ p[c];
    carry = (g[c] >> 63) | (p[c] >> 63 & in[c] >> 63);
  }
  // Lanes above the top one neither generate nor pass, so the top lane's
  // carry lands on the first of them.
  if (V % 8 == 0) return carry != 0;
  return (in[V / 8] >> (8 * (V % 8)) & 1) != 0;
}

// Almost Montgomery multiplication over V vectors of eight 52-bit digits,
// one digit of b per step. Step i adds a * b_i and y_i * m, with y_i
// chosen so digit 0 becomes zero mod 2^52, then drops digit 0 by shifting
// every lane down one. The low halves of the 104-bit digit products land
// before the shift, the high halves (one digit up) after it. A lane gains
// at most four half-products of < 2^52 per step, so over at most 128 steps
// its 64 bits never need a carry pass. Digit 0 also lives in a scalar
// register, which computes y_i from full 104-bit products without waiting
// on a vector extract; lane 0 keeps only a stale copy until the end.
template <int V>
__attribute__((target("avx512f,avx512ifma"))) void Amm(
    uint64_t* out, const uint64_t* a, const uint64_t* b, const uint64_t* m,
    uint64_t k0, size_t digits) {
  // The unmasked forms of alignr and srli start from an undefined vector,
  // which gcc 12 reports as uninitialized; all-lane masked forms do not.
  constexpr __mmask8 kAll = 0xFF;
  const __m512i zero = _mm512_setzero_si512();
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kDigitMask));
  __m512i acc[V];
#pragma GCC unroll 16
  for (int v = 0; v < V; ++v) acc[v] = zero;
  uint64_t acc0 = 0;
  const uint64_t a0 = a[0];
  const uint64_t m0 = m[0];
  for (size_t i = 0; i < digits; ++i) {
    const uint64_t bi = b[i];
    uint128 t = static_cast<uint128>(a0) * bi + acc0;
    const uint64_t y = (static_cast<uint64_t>(t) * k0) & kDigitMask;
    t += static_cast<uint128>(m0) * y;
    acc0 = static_cast<uint64_t>(t >> kDigitBits);
    const __m512i bv = _mm512_set1_epi64(static_cast<long long>(bi));
    const __m512i yv = _mm512_set1_epi64(static_cast<long long>(y));
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) {
      acc[v] = _mm512_madd52lo_epu64(acc[v], _mm512_loadu_si512(a + 8 * v),
                                     bv);
      acc[v] = _mm512_madd52lo_epu64(acc[v], _mm512_loadu_si512(m + 8 * v),
                                     yv);
    }
#pragma GCC unroll 16
    for (int v = 0; v + 1 < V; ++v) {
      acc[v] = _mm512_maskz_alignr_epi64(kAll, acc[v + 1], acc[v], 1);
    }
    acc[V - 1] = _mm512_maskz_alignr_epi64(kAll, zero, acc[V - 1], 1);
    acc0 += static_cast<uint64_t>(acc[0][0]);
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) {
      acc[v] = _mm512_madd52hi_epu64(acc[v], _mm512_loadu_si512(a + 8 * v),
                                     bv);
      acc[v] = _mm512_madd52hi_epu64(acc[v], _mm512_loadu_si512(m + 8 * v),
                                     yv);
    }
  }
  acc[0] = _mm512_mask_set1_epi64(acc[0], 1, static_cast<long long>(acc0));

  // Normalize to 52-bit digits. Each lane's bits above 52 (< 2^10) move
  // one lane up, the top lane's into `top`; then a lane above the mask
  // generates a carry of one and a lane equal to it passes one on.
  __m512i carry[V];
#pragma GCC unroll 16
  for (int v = 0; v < V; ++v) {
    carry[v] = _mm512_maskz_srli_epi64(kAll, acc[v], kDigitBits);
    acc[v] = _mm512_and_si512(acc[v], mask);
  }
  uint64_t top = static_cast<uint64_t>(carry[V - 1][7]);
#pragma GCC unroll 16
  for (int v = V - 1; v > 0; --v) {
    acc[v] = _mm512_add_epi64(
        acc[v], _mm512_maskz_alignr_epi64(kAll, carry[v], carry[v - 1], 7));
  }
  acc[0] = _mm512_add_epi64(acc[0],
                            _mm512_maskz_alignr_epi64(kAll, carry[0], zero, 7));
  LaneMask<V> g = {};
  LaneMask<V> p = {};
  LaneMask<V> in = {};
#pragma GCC unroll 16
  for (int v = 0; v < V; ++v) {
    const int shift = 8 * (v % 8);
    g[v / 8] |= static_cast<uint64_t>(_mm512_cmpgt_epu64_mask(acc[v], mask))
                << shift;
    p[v / 8] |= static_cast<uint64_t>(_mm512_cmpeq_epu64_mask(acc[v], mask))
                << shift;
  }
  top += CarryLanes<V>(g, p, in) ? 1 : 0;
#pragma GCC unroll 16
  for (int v = 0; v < V; ++v) {
    // Adding one and masking is subtracting the mask and masking.
    const __mmask8 take = static_cast<__mmask8>(in[v / 8] >> (8 * (v % 8)));
    acc[v] = _mm512_and_si512(
        _mm512_mask_sub_epi64(acc[v], take, acc[v], mask), mask);
  }

  // The value is acc + top * 2^(52 * 8V) < 2m. Subtract m lane by lane; a
  // negative lane generates a borrow and a zero lane passes one on. Keep
  // the difference when top absorbs the final borrow (value >= m).
  __m512i diff[V];
#pragma GCC unroll 16
  for (int v = 0; v < V; ++v) {
    diff[v] = _mm512_sub_epi64(acc[v], _mm512_loadu_si512(m + 8 * v));
  }
  LaneMask<V> bg = {};
  LaneMask<V> bp = {};
#pragma GCC unroll 16
  for (int v = 0; v < V; ++v) {
    const int shift = 8 * (v % 8);
    bg[v / 8] |= static_cast<uint64_t>(_mm512_cmplt_epi64_mask(diff[v], zero))
                 << shift;
    bp[v / 8] |= static_cast<uint64_t>(_mm512_cmpeq_epi64_mask(diff[v], zero))
                 << shift;
  }
  const bool borrow = CarryLanes<V>(bg, bp, in);
  const __mmask8 reduce = top != 0 || !borrow ? 0xFF : 0;
  const __m512i one = _mm512_set1_epi64(1);
#pragma GCC unroll 16
  for (int v = 0; v < V; ++v) {
    const __mmask8 take = static_cast<__mmask8>(in[v / 8] >> (8 * (v % 8)));
    diff[v] = _mm512_and_si512(
        _mm512_mask_sub_epi64(diff[v], take, diff[v], one), mask);
    _mm512_storeu_si512(out + 8 * v,
                        _mm512_mask_mov_epi64(acc[v], reduce, diff[v]));
  }
}

}  // namespace
#endif

std::vector<uint64_t> ToDigits(const std::vector<uint64_t>& limbs,
                               size_t width) {
  std::vector<uint64_t> digits(width, 0);
  for (size_t j = 0; j < width; ++j) {
    const size_t bit = static_cast<size_t>(kDigitBits) * j;
    const size_t word = bit / 64;
    const size_t shift = bit % 64;
    if (word >= limbs.size()) break;
    uint64_t d = limbs[word] >> shift;
    if (shift > 64 - kDigitBits && word + 1 < limbs.size()) {
      d |= limbs[word + 1] << (64 - shift);
    }
    digits[j] = d & kDigitMask;
  }
  return digits;
}

std::vector<uint64_t> FromDigits(const std::vector<uint64_t>& digits) {
  std::vector<uint64_t> limbs((kDigitBits * digits.size() + 63) / 64, 0);
  for (size_t j = 0; j < digits.size(); ++j) {
    const size_t bit = static_cast<size_t>(kDigitBits) * j;
    const size_t word = bit / 64;
    const size_t shift = bit % 64;
    limbs[word] |= digits[j] << shift;
    if (shift > 64 - kDigitBits) limbs[word + 1] |= digits[j] >> (64 - shift);
  }
  return limbs;
}

AmmFn AmmFor(int vectors) {
  ULDP_CHECK(vectors >= kMinVectors && vectors <= kMaxVectors);
#if defined(__x86_64__)
  static constexpr AmmFn kKernels[] = {
      &Amm<3>,  &Amm<4>,  &Amm<5>,  &Amm<6>,  &Amm<7>,  &Amm<8>,  &Amm<9>,
      &Amm<10>, &Amm<11>, &Amm<12>, &Amm<13>, &Amm<14>, &Amm<15>, &Amm<16>};
  return kKernels[vectors - kMinVectors];
#else
  ULDP_CHECK_MSG(false, "the IFMA kernel exists only on x86-64");
  return nullptr;
#endif
}

bool CpuHasIfma() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  constexpr unsigned kOsxsave = 1u << 27;
  if ((ecx & kOsxsave) == 0) return false;
  // XCR0 bits 1, 2, 5, 6, 7: SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM.
  constexpr uint64_t kZmmState = 0xE6;
  uint32_t xcr0_lo = 0, xcr0_hi = 0;
  __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  const uint64_t xcr0 = static_cast<uint64_t>(xcr0_hi) << 32 | xcr0_lo;
  if ((xcr0 & kZmmState) != kZmmState) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  constexpr unsigned kAvx512f = 1u << 16;
  constexpr unsigned kAvx512Ifma = 1u << 21;
  return (ebx & kAvx512f) != 0 && (ebx & kAvx512Ifma) != 0;
#else
  return false;
#endif
}

}  // namespace mont_ifma
}  // namespace uldp
