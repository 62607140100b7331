#include "math/mont_row.h"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace uldp {
namespace mont_row {

namespace {

using uint128 = unsigned __int128;

// rp[j] += x * up[j] for j in [begin, len) on top of an incoming carry;
// returns the outgoing carry.
inline uint64_t AddMulLimbs(uint64_t* rp, const uint64_t* up, size_t begin,
                            size_t len, uint64_t x, uint64_t carry) {
  for (size_t j = begin; j < len; ++j) {
    uint128 cur = static_cast<uint128>(x) * up[j] + rp[j] + carry;
    rp[j] = static_cast<uint64_t>(cur);
    carry = static_cast<uint64_t>(cur >> 64);
  }
  return carry;
}

}  // namespace

uint64_t AddMulRowPortable(uint64_t* rp, const uint64_t* up, size_t len,
                           uint64_t x) {
  return AddMulLimbs(rp, up, 0, len, x, 0);
}

#if defined(__x86_64__)
__attribute__((target("bmi2,adx"))) uint64_t AddMulRowAdx(
    uint64_t* rp, const uint64_t* up, size_t len, uint64_t x) {
  // Four limbs per pass. Limb j: MULX (rdx = x) -> lo, hi; ADCX adds rp[j]
  // to lo on the CF chain; ADOX adds the previous limb's hi on the OF
  // chain. The two high-word registers alternate, so after a pass the
  // high word in flight is in `carry` again. Loop control uses only LEA
  // and JRCXZ, which leave CF and OF alone. After the last pass both
  // pending carry bits fold into the high word in flight.
  size_t blocks = len / 4;
  uint64_t* r = rp;
  const uint64_t* u = up;
  uint64_t carry, hi, lo, zero;
  __asm__(
      "xor %k[zero], %k[zero]\n\t"
      "xor %k[carry], %k[carry]\n\t"  // also clears CF and OF
      "1:\n\t"
      "jrcxz 2f\n\t"
      "mulx (%[u]), %[lo], %[hi]\n\t"
      "adcx (%[r]), %[lo]\n\t"
      "adox %[carry], %[lo]\n\t"
      "mov %[lo], (%[r])\n\t"
      "mulx 8(%[u]), %[lo], %[carry]\n\t"
      "adcx 8(%[r]), %[lo]\n\t"
      "adox %[hi], %[lo]\n\t"
      "mov %[lo], 8(%[r])\n\t"
      "mulx 16(%[u]), %[lo], %[hi]\n\t"
      "adcx 16(%[r]), %[lo]\n\t"
      "adox %[carry], %[lo]\n\t"
      "mov %[lo], 16(%[r])\n\t"
      "mulx 24(%[u]), %[lo], %[carry]\n\t"
      "adcx 24(%[r]), %[lo]\n\t"
      "adox %[hi], %[lo]\n\t"
      "mov %[lo], 24(%[r])\n\t"
      "lea 32(%[u]), %[u]\n\t"
      "lea 32(%[r]), %[r]\n\t"
      "lea -1(%%rcx), %%rcx\n\t"
      "jmp 1b\n\t"
      "2:\n\t"
      "adcx %[zero], %[carry]\n\t"
      "adox %[zero], %[carry]\n\t"
      : [carry] "=&r"(carry), [hi] "=&r"(hi), [lo] "=&r"(lo),
        [zero] "=&r"(zero), [r] "+r"(r), [u] "+r"(u), "+c"(blocks)
      : "d"(x)
      : "cc", "memory");
  return AddMulLimbs(rp, up, len & ~static_cast<size_t>(3), len, x, carry);
}
#endif

bool CpuHasBmi2Adx() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  constexpr unsigned kBmi2 = 1u << 8;
  constexpr unsigned kAdx = 1u << 19;
  return (ebx & kBmi2) != 0 && (ebx & kAdx) != 0;
#else
  return false;
#endif
}

AddMulRowFn ActiveAddMulRow() {
  static const AddMulRowFn active = []() -> AddMulRowFn {
#if defined(__x86_64__)
    if (CpuHasBmi2Adx()) return &AddMulRowAdx;
#endif
    return &AddMulRowPortable;
  }();
  return active;
}

}  // namespace mont_row
}  // namespace uldp
