// Internal to src/math: the radix-2^52 Montgomery product on AVX-512 IFMA
// (VPMADD52LUQ/VPMADD52HUQ), after Gueron & Krasnov, "Accelerating Big
// Integer Arithmetic Using Intel IFMA Extensions" (ARITH 2016). A context
// on this kernel holds its Montgomery-domain values as 52-bit digits, eight
// to a 512-bit vector. Exposed so the kernel tests and micro_crypto can
// build contexts on every kernel for one modulus and compare them.

#ifndef ULDP_MATH_MONT_IFMA_H_
#define ULDP_MATH_MONT_IFMA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/bigint.h"
#include "math/montgomery.h"

namespace uldp {
namespace mont_ifma {

/// Bits per digit and digits per vector.
inline constexpr int kDigitBits = 52;
inline constexpr int kLanes = 8;
inline constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;

/// Vector counts the kernel is compiled for: moduli of 833 to 6656 bits.
/// Sixteen keep the accumulator inside the 32 zmm registers. Moduli below
/// three vectors stay on the 64-bit rows until an end-to-end measurement
/// settles that crossover: a lone MontExp favours IFMA there too, but
/// concurrent AVX-512 work may lower the clock of a busy host.
inline constexpr int kMinVectors = 3;
inline constexpr int kMaxVectors = 16;

/// 52-bit digits of a modulus of `bits` bits, and the vectors holding them.
inline size_t DigitsFor(int bits) {
  return static_cast<size_t>((bits + kDigitBits - 1) / kDigitBits);
}
inline int VectorsFor(int bits) {
  return static_cast<int>((DigitsFor(bits) + kLanes - 1) / kLanes);
}

/// True when a modulus of `bits` bits fills kMinVectors to kMaxVectors
/// vectors.
inline bool Covers(int bits) {
  return VectorsFor(bits) >= kMinVectors && VectorsFor(bits) <= kMaxVectors;
}

/// The low `width` 52-bit digits of a little-endian 64-bit limb vector.
std::vector<uint64_t> ToDigits(const std::vector<uint64_t>& limbs,
                               size_t width);

/// The 64-bit limbs of a little-endian 52-bit digit vector (not
/// normalized: high limbs may be zero).
std::vector<uint64_t> FromDigits(const std::vector<uint64_t>& digits);

/// out = a * b * 2^(-52 * digits) mod m, fully reduced into [0, m). a, b,
/// m and out hold one vector count's 8 * vectors digits (little endian,
/// zero from `digits` up); a, b < m < 2^(52 * digits), m odd, and
/// k0 = -m^{-1} mod 2^52. out may alias a or b. Reads and writes nothing
/// else, so one context serves any number of threads.
using AmmFn = void (*)(uint64_t* out, const uint64_t* a, const uint64_t* b,
                       const uint64_t* m, uint64_t k0, size_t digits);

/// The kernel for `vectors` in [kMinVectors, kMaxVectors]. Callable only
/// when CpuHasIfma() is true.
AmmFn AmmFor(int vectors);

/// CPUID leaf 7 AVX512F (EBX bit 16) and AVX512IFMA (EBX bit 21), and
/// XGETBV: the OS saves the opmask and all zmm state. False off x86-64.
bool CpuHasIfma();

}  // namespace mont_ifma

/// Builds Montgomery contexts on a chosen kernel, which production code
/// never does: Montgomery(modulus) picks from CPUID and the modulus size.
struct MontKernels {
  /// True when `kernel` runs on this CPU for a modulus of `bits` bits.
  static bool Available(MontKernel kernel, int bits);
  /// A context for `modulus` on `kernel`, which must be Available.
  static Montgomery On(const BigInt& modulus, MontKernel kernel);
};

}  // namespace uldp

#endif  // ULDP_MATH_MONT_IFMA_H_
