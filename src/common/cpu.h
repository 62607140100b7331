// The one CPUID probe behind every kernel picker (ChaCha20 blocks, the
// Montgomery rows and the IFMA products), so they all read the CPU's
// features the same way.

#ifndef ULDP_COMMON_CPU_H_
#define ULDP_COMMON_CPU_H_

#include <cstdint>

namespace uldp {

/// True when CPUID leaf 7 (subleaf 0) EBX holds every bit of `leaf7_ebx`
/// and, unless `xcr0_state` is 0, CPUID leaf 1 reports OSXSAVE and
/// XGETBV's XCR0 holds every bit of `xcr0_state` (the OS saves that
/// vector state). Scalar extensions such as BMI2 and ADX pass 0. False
/// off x86-64.
bool CpuHasLeaf7(unsigned leaf7_ebx, uint64_t xcr0_state = 0);

}  // namespace uldp

#endif  // ULDP_COMMON_CPU_H_
