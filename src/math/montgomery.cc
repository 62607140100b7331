#include "math/montgomery.h"

#include "common/check.h"
#include "math/mont_ifma.h"
#include "math/mont_row.h"
#include "obs/metrics.h"

namespace uldp {

namespace {

using uint128 = unsigned __int128;

// x^{-1} mod 2^64 for odd x, by Newton iteration (doubles correct bits).
uint64_t InverseMod2_64(uint64_t x) {
  uint64_t inv = x;  // correct to 3 bits for odd x
  for (int i = 0; i < 5; ++i) inv *= 2 - x * inv;
  return inv;
}

// a >= b on k-limb little-endian magnitudes.
bool GreaterEqual(const std::vector<uint64_t>& a,
                  const std::vector<uint64_t>& b) {
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;  // equal
}

// a -= b (in place), assumes a >= b.
void SubInPlace(std::vector<uint64_t>& a, const std::vector<uint64_t>& b) {
  uint64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    uint128 diff = static_cast<uint128>(a[i]) - b[i] - borrow;
    a[i] = static_cast<uint64_t>(diff);
    borrow = (diff >> 64) ? 1 : 0;
  }
}

// Sliding-window width for an exponent of the given bit length. Balances
// the 2^(w-1)-entry odd-power table against the expected multiplications
// per window (standard cutoffs).
int WindowBits(int exp_bits) {
  if (exp_bits >= 1024) return 6;
  if (exp_bits >= 384) return 5;
  if (exp_bits >= 96) return 4;
  if (exp_bits >= 24) return 3;
  return 2;
}

// The kernel a new context runs on. CPUID is read once per process.
MontKernel PickKernel(int bits) {
  static const bool has_ifma = mont_ifma::CpuHasIfma();
  if (has_ifma && mont_ifma::Covers(bits)) return MontKernel::kIfma;
  return mont_row::ActiveAddMulRow() == &mont_row::AddMulRowPortable
             ? MontKernel::kPortable
             : MontKernel::kAdx;
}

// Contexts built per kernel, so a metrics snapshot says which arithmetic
// a run's timings come from. All three register with the first context,
// so a kernel no context ran reads 0 instead of going missing.
void CountContext(MontKernel kernel) {
  struct Counters {
    obs::Counter portable{"math.mont.portable_contexts"};
    obs::Counter adx{"math.mont.adx_contexts"};
    obs::Counter ifma{"math.mont.ifma_contexts"};
  };
  static Counters counters;
  switch (kernel) {
    case MontKernel::kPortable:
      counters.portable.Add(1);
      break;
    case MontKernel::kAdx:
      counters.adx.Add(1);
      break;
    case MontKernel::kIfma:
      counters.ifma.Add(1);
      break;
  }
}

}  // namespace

bool MontKernels::Available(MontKernel kernel, int bits) {
  switch (kernel) {
    case MontKernel::kPortable:
      return true;
    case MontKernel::kAdx:
      return mont_row::CpuHasBmi2Adx();
    case MontKernel::kIfma:
      return mont_ifma::CpuHasIfma() && mont_ifma::Covers(bits);
  }
  return false;
}

Montgomery MontKernels::On(const BigInt& modulus, MontKernel kernel) {
  ULDP_CHECK_MSG(Available(kernel, modulus.BitLength()),
                 "Montgomery kernel unavailable for this CPU or modulus");
  return Montgomery(modulus, kernel);
}

Montgomery::Montgomery(const BigInt& modulus)
    : Montgomery(modulus, PickKernel(modulus.BitLength())) {}

Montgomery::Montgomery(const BigInt& modulus, MontKernel kernel)
    : modulus_(modulus), kernel_(kernel) {
  ULDP_CHECK_MSG(modulus.IsOdd() && modulus > BigInt(1),
                 "Montgomery modulus must be odd and > 1");
  n_limbs_ = modulus.limbs();
  k_ = n_limbs_.size();
  n_prime_ = ~InverseMod2_64(n_limbs_[0]) + 1;  // -n^{-1} mod 2^64
  CountContext(kernel);

  if (kernel == MontKernel::kIfma) {
    // R = 2^(52 digits); R^2 mod n computed once with plain division, and
    // R mod n as the product of R^2 and 1.
    const int bits = modulus.BitLength();
    const int vectors = mont_ifma::VectorsFor(bits);
    const size_t width = static_cast<size_t>(mont_ifma::kLanes * vectors);
    amm_ = mont_ifma::AmmFor(vectors);
    digits_ = mont_ifma::DigitsFor(bits);
    n_digits_ = mont_ifma::ToDigits(n_limbs_, width);
    const BigInt r2 =
        (BigInt(1) << static_cast<int>(2 * mont_ifma::kDigitBits * digits_))
            .Mod(modulus);
    r2_ = mont_ifma::ToDigits(r2.limbs(), width);
    Limbs one(width, 0);
    one[0] = 1;
    one_mont_ = MontMul(r2_, one);
    return;
  }

  add_mul_row_ = kernel == MontKernel::kPortable
                     ? &mont_row::AddMulRowPortable
                     : mont_row::ActiveAddMulRow();
  // R^2 mod n with R = 2^(64 k), computed once with plain division.
  BigInt r2 = (BigInt(1) << static_cast<int>(128 * k_)).Mod(modulus);
  r2_ = r2.limbs();
  r2_.resize(k_, 0);
  // one_mont_ = R mod n = REDC(R^2).
  std::vector<uint64_t> t(r2_);
  t.resize(2 * k_, 0);
  one_mont_ = Redc(t.data());
}

Montgomery::Limbs Montgomery::Redc(uint64_t* t) const {
  // Row i adds m * n at limb i, which zeroes t[i]; its carry lands on
  // t[i + k]. The carry out of that addition belongs one limb higher,
  // where row i + 1 lands its own carry, so it waits in `top` until then.
  // After the last row, `top` is the overflow bit t[2k].
  uint64_t top = 0;
  for (size_t i = 0; i < k_; ++i) {
    uint64_t m = t[i] * n_prime_;
    uint64_t carry = add_mul_row_(t + i, n_limbs_.data(), k_, m);
    uint128 cur = static_cast<uint128>(t[i + k_]) + carry + top;
    t[i + k_] = static_cast<uint64_t>(cur);
    top = static_cast<uint64_t>(cur >> 64);
  }
  Limbs out(t + k_, t + 2 * k_);
  // The REDC result may exceed n by at most n (the overflow bit means
  // result + 2^(64k) — handled by one conditional subtraction since
  // result < 2n is guaranteed for inputs < n*R).
  if (top != 0 || GreaterEqual(out, n_limbs_)) {
    SubInPlace(out, n_limbs_);
  }
  return out;
}

Montgomery::Limbs Montgomery::MontMul(const Limbs& a, const Limbs& b) const {
  if (amm_ != nullptr) {
    Limbs out(n_digits_.size());
    amm_(out.data(), a.data(), b.data(), n_digits_.data(),
         n_prime_ & mont_ifma::kDigitMask, digits_);
    return out;
  }
  // Full product then REDC. Schoolbook is optimal at Paillier limb counts.
  // Row i covers t[i, i + k); no earlier row reaches t[i + k], so its
  // carry is stored there.
  std::vector<uint64_t> t(2 * k_, 0);
  for (size_t i = 0; i < k_; ++i) {
    if (a[i] == 0) continue;
    t[i + k_] = add_mul_row_(t.data() + i, b.data(), k_, a[i]);
  }
  return Redc(t.data());
}

Montgomery::Limbs Montgomery::MontSqrLimbs(const Limbs& a) const {
  if (amm_ != nullptr) return MontMul(a, a);
  // a^2 = 2 * sum_{i<j} a_i a_j B^{i+j} + sum_i a_i^2 B^{2i}: the cross
  // products are computed once and doubled, roughly halving the inner-loop
  // work of a generic MontMul. Cross row i covers t[2i + 1, i + k); no
  // earlier row reaches t[i + k], so its carry is stored there.
  std::vector<uint64_t> t(2 * k_, 0);
  for (size_t i = 0; i + 1 < k_; ++i) {
    if (a[i] == 0) continue;
    t[i + k_] =
        add_mul_row_(t.data() + 2 * i + 1, a.data() + i + 1, k_ - i - 1, a[i]);
  }
  // Double the cross-product sum (cannot overflow 2k limbs: 2*cross <= a^2
  // < R^2).
  uint64_t carry_bit = 0;
  for (size_t i = 0; i < 2 * k_; ++i) {
    uint64_t hi = t[i] >> 63;
    t[i] = (t[i] << 1) | carry_bit;
    carry_bit = hi;
  }
  // Add the diagonal squares.
  uint64_t carry = 0;
  for (size_t i = 0; i < k_; ++i) {
    uint128 sq = static_cast<uint128>(a[i]) * a[i];
    uint128 lo = static_cast<uint128>(t[2 * i]) +
                 static_cast<uint64_t>(sq) + carry;
    t[2 * i] = static_cast<uint64_t>(lo);
    uint128 hi = static_cast<uint128>(t[2 * i + 1]) +
                 static_cast<uint64_t>(sq >> 64) +
                 static_cast<uint64_t>(lo >> 64);
    t[2 * i + 1] = static_cast<uint64_t>(hi);
    carry = static_cast<uint64_t>(hi >> 64);
  }
  return Redc(t.data());
}

Montgomery::Limbs Montgomery::ToMont(const BigInt& x) const {
  ULDP_CHECK(!x.IsNegative());
  ULDP_CHECK_LE(x.limbs().size(), k_);
  if (amm_ != nullptr) {
    // The product needs x < n, and a k-limb x >= n may not even fit the
    // digits, so it is reduced first (callers on hot paths pass x < n).
    const size_t width = n_digits_.size();
    const Limbs xd = x < modulus_
                         ? mont_ifma::ToDigits(x.limbs(), width)
                         : mont_ifma::ToDigits(x.Mod(modulus_).limbs(), width);
    return MontMul(xd, r2_);
  }
  // REDC reduces any k-limb x: x * R^2 < R * n.
  Limbs xl = x.limbs();
  xl.resize(k_, 0);
  return MontMul(xl, r2_);
}

BigInt Montgomery::FromMont(const Limbs& x) const {
  if (amm_ != nullptr) {
    Limbs one(x.size(), 0);
    one[0] = 1;
    return BigInt::FromLimbs(mont_ifma::FromDigits(MontMul(x, one)));
  }
  std::vector<uint64_t> t(x);
  t.resize(2 * k_, 0);
  return BigInt::FromLimbs(Redc(t.data()));
}

BigInt Montgomery::ModMul(const BigInt& a, const BigInt& b) const {
  Limbs am = ToMont(a);
  Limbs bm = ToMont(b);
  return FromMont(MontMul(am, bm));
}

BigInt Montgomery::MontSqr(const BigInt& a) const {
  return FromMont(MontSqrLimbs(ToMont(a)));
}

BigInt Montgomery::ModExp(const BigInt& base, const BigInt& exp) const {
  return MontExp(base, exp);
}

BigInt Montgomery::MontExp(const BigInt& base, const BigInt& exp) const {
  ULDP_CHECK(!exp.IsNegative());
  if (exp.IsZero()) return FromMont(one_mont_);

  const int bits = exp.BitLength();
  const int w = WindowBits(bits);
  Limbs base_m = ToMont(base);
  // Odd-power table: odd[i] = base^(2i+1) in the Montgomery domain. A
  // sliding window only ever multiplies by odd powers, so the table is
  // half the size of a fixed-window table of the same width.
  std::vector<Limbs> odd(static_cast<size_t>(1) << (w - 1));
  odd[0] = base_m;
  if (odd.size() > 1) {
    Limbs sq = MontSqrLimbs(base_m);
    for (size_t i = 1; i < odd.size(); ++i) odd[i] = MontMul(odd[i - 1], sq);
  }

  Limbs acc;
  bool started = false;
  int i = bits - 1;
  while (i >= 0) {
    if (!exp.Bit(i)) {
      if (started) acc = MontSqrLimbs(acc);
      --i;
      continue;
    }
    // Greedy window [i, j]: at most w bits, both ends set, so the window
    // value is odd and indexes the half-size table.
    int j = i - w + 1 < 0 ? 0 : i - w + 1;
    while (!exp.Bit(j)) ++j;
    int window = 0;
    for (int b = i; b >= j; --b) window = (window << 1) | (exp.Bit(b) ? 1 : 0);
    if (started) {
      for (int s = 0; s <= i - j; ++s) acc = MontSqrLimbs(acc);
      acc = MontMul(acc, odd[window >> 1]);
    } else {
      acc = odd[window >> 1];
      started = true;
    }
    i = j - 1;
  }
  return FromMont(acc);
}

}  // namespace uldp
