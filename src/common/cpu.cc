#include "common/cpu.h"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace uldp {

bool CpuHasLeaf7(unsigned leaf7_ebx, uint64_t xcr0_state) {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (xcr0_state != 0) {
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
    constexpr unsigned kOsxsave = 1u << 27;
    if ((ecx & kOsxsave) == 0) return false;
    uint32_t xcr0_lo = 0, xcr0_hi = 0;
    __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
    const uint64_t xcr0 = static_cast<uint64_t>(xcr0_hi) << 32 | xcr0_lo;
    if ((xcr0 & xcr0_state) != xcr0_state) return false;
  }
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & leaf7_ebx) == leaf7_ebx;
#else
  (void)leaf7_ebx;
  (void)xcr0_state;
  return false;
#endif
}

}  // namespace uldp
