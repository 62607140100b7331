// Internal to src/math: the multiply-accumulate row every Montgomery
// product, squaring and reduction is built from. Exposed only so the
// kernel tests can compare the two implementations limb for limb.

#ifndef ULDP_MATH_MONT_ROW_H_
#define ULDP_MATH_MONT_ROW_H_

#include <cstddef>
#include <cstdint>

namespace uldp {
namespace mont_row {

/// rp[0, len) += x * up[0, len); returns the carry word that belongs at
/// rp[len]. The result always fits: rp + x*up < 2^(64 (len + 1)).
using AddMulRowFn = uint64_t (*)(uint64_t* rp, const uint64_t* up,
                                 size_t len, uint64_t x);

/// The reference: one serial carry chain through unsigned __int128.
uint64_t AddMulRowPortable(uint64_t* rp, const uint64_t* up, size_t len,
                           uint64_t x);

#if defined(__x86_64__)
/// MULX with two independent carry chains: ADCX carries the low words
/// plus rp, ADOX carries the high words. Callable only when
/// CpuHasBmi2Adx() is true.
uint64_t AddMulRowAdx(uint64_t* rp, const uint64_t* up, size_t len,
                      uint64_t x);
#endif

/// CPUID leaf 7: BMI2 (EBX bit 8) and ADX (EBX bit 19). False off x86-64.
bool CpuHasBmi2Adx();

/// The implementation this process uses: AddMulRowAdx when the CPU has
/// BMI2 and ADX, else AddMulRowPortable. Resolved on the first call.
AddMulRowFn ActiveAddMulRow();

}  // namespace mont_row
}  // namespace uldp

#endif  // ULDP_MATH_MONT_ROW_H_
