#include "math/bigint.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "math/limbs.h"
#include "math/montgomery.h"

namespace uldp {

namespace {

using uint128 = unsigned __int128;

// Karatsuba pays off only for operands well beyond Paillier's 2n-limb sizes;
// the threshold is in limbs of the smaller operand.
constexpr size_t kKaratsubaThreshold = 24;

// Knuth TAOCP vol. 2, algorithm 4.3.1 D, on 64-bit limbs: divides the
// m + n + 1 limbs of `un` by the n >= 2 limbs of `vn`, whose top limb has
// its high bit set. Writes the m + 1 quotient limbs to `quot` and leaves
// the remainder in un[0, n), zeroing un[n, m + n + 1).
void DivideNormalized(uint64_t* un, const uint64_t* vn, size_t n, size_t m,
                      uint64_t* quot) {
  for (size_t j = m + 1; j-- > 0;) {
    // Estimate quotient digit from the top two limbs of the current window.
    uint128 numerator = (static_cast<uint128>(un[j + n]) << 64) | un[j + n - 1];
    uint128 qhat = numerator / vn[n - 1];
    uint128 rhat = numerator % vn[n - 1];
    while (qhat >> 64 ||
           qhat * vn[n - 2] > ((rhat << 64) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >> 64) break;
    }
    // Multiply-subtract qhat * v from the window u[j .. j+n].
    uint128 borrow = 0;
    uint128 carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint128 p = qhat * vn[i] + carry;
      carry = p >> 64;
      uint128 sub = static_cast<uint128>(un[i + j]) -
                    static_cast<uint64_t>(p) - borrow;
      un[i + j] = static_cast<uint64_t>(sub);
      borrow = (sub >> 64) ? 1 : 0;
    }
    uint128 sub = static_cast<uint128>(un[j + n]) -
                  static_cast<uint64_t>(carry) - borrow;
    un[j + n] = static_cast<uint64_t>(sub);
    bool went_negative = (sub >> 64) != 0;

    if (went_negative) {
      // qhat was one too large: add v back once.
      --qhat;
      uint128 c = 0;
      for (size_t i = 0; i < n; ++i) {
        uint128 s = static_cast<uint128>(un[i + j]) + vn[i] + c;
        un[i + j] = static_cast<uint64_t>(s);
        c = s >> 64;
      }
      un[j + n] = static_cast<uint64_t>(un[j + n] + c);
    }
    quot[j] = static_cast<uint64_t>(qhat);
  }
}

// Divides the n limbs of `u` by the one-limb `d`: writes the n quotient
// limbs to `quot` and returns the remainder.
uint64_t DivideByLimb(const uint64_t* u, size_t n, uint64_t d,
                      uint64_t* quot) {
  uint128 rem = 0;
  for (size_t i = n; i-- > 0;) {
    const uint128 cur = (rem << 64) | u[i];
    quot[i] = static_cast<uint64_t>(cur / d);
    rem = cur % d;
  }
  return static_cast<uint64_t>(rem);
}

// Normalized length of n limbs.
size_t TrimLen(const uint64_t* a, size_t n) {
  while (n > 0 && a[n - 1] == 0) --n;
  return n;
}

// out[0, n) = a[0, n) << s for 0 <= s < 64; returns the bits shifted out.
uint64_t ShiftLimbsLeft(uint64_t* out, const uint64_t* a, size_t n, int s) {
  if (s == 0) {
    std::copy(a, a + n, out);
    return 0;
  }
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t x = a[i];
    out[i] = (x << s) | carry;
    carry = x >> (64 - s);
  }
  return carry;
}

// out[0, n) = a[0, n) >> s for 0 <= s < 64.
void ShiftLimbsRight(uint64_t* out, const uint64_t* a, size_t n, int s) {
  if (s == 0) {
    std::copy(a, a + n, out);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    out[i] = (a[i] >> s) | (i + 1 < n ? a[i + 1] << (64 - s) : 0);
  }
}

// Euclid's algorithm on limbs by Lehmer's method (Knuth TAOCP vol. 2,
// 4.5.2, algorithm L) under Collins' one-quotient test as Jebelean proves
// it: the leading 64 bits of the pair run Euclid's steps in one word for
// as long as every quotient provably equals the full-precision one, then
// one 2x2 cosequence matrix applies those steps to the full values. When
// the leading words decide fewer than two quotients, one Knuth D division
// takes the step. Every buffer is sized once per call, so no step
// allocates.
//
// After i full-precision steps on (|a|, |b|), a_ = r_i > b_ = r_{i+1}
// (a_ >= b_ at the start). With cofactors on, ua_ and ub_ hold |s_i| and
// |s_{i+1}|, where r_j = s_j |a| + t_j |b|. The s_j alternate in sign,
// s_i having the sign of (-1)^i, so each step adds magnitudes and odd_
// carries every sign.
class LimbEuclid {
 public:
  LimbEuclid(const std::vector<uint64_t>& a, const std::vector<uint64_t>& b,
             bool cofactors)
      : cofactors_(cofactors),
        width_(std::max(a.size(), b.size()) + 2),
        buf_(8 * width_, 0) {
    uint64_t* region = buf_.data();
    for (uint64_t** p : {&a_, &b_, &un_, &vn_, &q_, &ua_, &ub_, &tmp_}) {
      *p = region;
      region += width_;
    }
    // When |a| < |b| the first step's quotient is 0: it only swaps the
    // pair, so the run starts at i = 1 with (r_1, r_2) = (|b|, |a|) and
    // (s_1, s_2) = (0, 1).
    odd_ = a.size() < b.size() ||
           (a.size() == b.size() &&
            limbs::Compare(a.data(), b.data(), a.size()) < 0);
    const std::vector<uint64_t>& hi = odd_ ? b : a;
    const std::vector<uint64_t>& lo = odd_ ? a : b;
    std::copy(hi.begin(), hi.end(), a_);
    std::copy(lo.begin(), lo.end(), b_);
    na_ = hi.size();
    nb_ = lo.size();
    (odd_ ? ub_ : ua_)[0] = 1;
    nu_ = 1;
  }

  void Run() {
    while (nb_ > 0) {
      if (nb_ < 2 || !LehmerStep()) DivisionStep();
    }
  }

  /// gcd(|a|, |b|): the last nonzero remainder.
  std::vector<uint64_t> Gcd() const { return {a_, a_ + na_}; }
  /// |s| and sign of the Bezout coefficient of |a| in gcd = s|a| + t|b|.
  std::vector<uint64_t> CofactorOfA() const { return {ua_, ua_ + nu_}; }
  bool cofactor_negative() const { return odd_; }

 private:
  // Takes every step the leading words decide; false when they decide
  // fewer than two, so the matrix would be the identity.
  bool LehmerStep() {
    const size_t n = na_;
    const int h = __builtin_clzll(a_[n - 1]);
    // Bits [64n - 64 - h, 64n - h) of a value; b_ is zero above nb_.
    auto lead = [&](const uint64_t* x) {
      return h == 0 ? x[n - 1] : (x[n - 1] << h) | (x[n - 2] >> (64 - h));
    };
    uint64_t a1 = lead(a_), a2 = lead(b_);
    // Word cosequence magnitudes after j word steps: (u0, u1, u2) are
    // |s| and (v0, v1, v2) are |t| of the remainders j - 1, j and j + 1.
    // The test validates step j; on exit, steps 1..j-1 hold.
    uint64_t u0 = 0, u1 = 1, u2 = 0, v0 = 0, v1 = 0, v2 = 1;
    size_t j = 0;
    while (a2 >= v2 && a1 - a2 >= v1 + v2) {
      const uint64_t q = a1 / a2, r = a1 % a2;
      a1 = a2;
      a2 = r;
      const uint64_t u_next = u1 + q * u2, v_next = v1 + q * v2;
      u0 = u1;
      u1 = u2;
      u2 = u_next;
      v0 = v1;
      v1 = v2;
      v2 = v_next;
      ++j;
    }
    if (v0 == 0) return false;
    // (a, b) <- (r_{j-1}, r_j) of the full values; the signs alternate, so
    // with j - 1 even, r_{j-1} = u0 a - v0 b and r_j = v1 b - u1 a, and
    // the other way round with j - 1 odd.
    const bool back_even = (j - 1) % 2 == 0;
    uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0, borrow_a = 0, borrow_b = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint128 pa = static_cast<uint128>(u0) * a_[i] + c0;
      const uint128 pb = static_cast<uint128>(v0) * b_[i] + c1;
      const uint128 pc = static_cast<uint128>(u1) * a_[i] + c2;
      const uint128 pd = static_cast<uint128>(v1) * b_[i] + c3;
      c0 = static_cast<uint64_t>(pa >> 64);
      c1 = static_cast<uint64_t>(pb >> 64);
      c2 = static_cast<uint64_t>(pc >> 64);
      c3 = static_cast<uint64_t>(pd >> 64);
      const uint64_t la = static_cast<uint64_t>(pa);
      const uint64_t lb = static_cast<uint64_t>(pb);
      const uint64_t lc = static_cast<uint64_t>(pc);
      const uint64_t ld = static_cast<uint64_t>(pd);
      borrow_a = back_even ? limbs::SubBorrow(la, lb, borrow_a, &a_[i])
                           : limbs::SubBorrow(lb, la, borrow_a, &a_[i]);
      borrow_b = back_even ? limbs::SubBorrow(ld, lc, borrow_b, &b_[i])
                           : limbs::SubBorrow(lc, ld, borrow_b, &b_[i]);
    }
    na_ = TrimLen(a_, n);
    nb_ = TrimLen(b_, n);
    odd_ ^= !back_even;
    if (cofactors_) {
      // (|s_i|, |s_{i+1}|) <- (u0 |s_i| + v0 |s_{i+1}|,
      // u1 |s_i| + v1 |s_{i+1}|); limb nu_ of both is zero and takes the
      // carries.
      uint64_t d0 = 0, d1 = 0, d2 = 0, d3 = 0, carry_a = 0, carry_b = 0;
      for (size_t i = 0; i <= nu_; ++i) {
        const uint128 p0 = static_cast<uint128>(u0) * ua_[i] + d0;
        const uint128 p1 = static_cast<uint128>(v0) * ub_[i] + d1;
        const uint128 p2 = static_cast<uint128>(u1) * ua_[i] + d2;
        const uint128 p3 = static_cast<uint128>(v1) * ub_[i] + d3;
        d0 = static_cast<uint64_t>(p0 >> 64);
        d1 = static_cast<uint64_t>(p1 >> 64);
        d2 = static_cast<uint64_t>(p2 >> 64);
        d3 = static_cast<uint64_t>(p3 >> 64);
        carry_a = limbs::AddCarry(static_cast<uint64_t>(p0),
                                  static_cast<uint64_t>(p1), carry_a, &ua_[i]);
        carry_b = limbs::AddCarry(static_cast<uint64_t>(p2),
                                  static_cast<uint64_t>(p3), carry_b, &ub_[i]);
      }
      nu_ = std::max(TrimLen(ua_, nu_ + 1), TrimLen(ub_, nu_ + 1));
    }
    return true;
  }

  // One full-precision step: (a, b) <- (b, a mod b) and, with cofactors,
  // (|s_i|, |s_{i+1}|) <- (|s_{i+1}|, |s_i| + q |s_{i+1}|).
  void DivisionStep() {
    const size_t n = nb_;
    size_t nq = 0;
    if (n == 1) {
      const uint64_t rem = DivideByLimb(a_, na_, b_[0], q_);
      std::fill(a_, a_ + na_, 0);
      a_[0] = rem;
      nq = na_;
    } else {
      const int shift = __builtin_clzll(b_[n - 1]);
      ShiftLimbsLeft(vn_, b_, n, shift);
      un_[na_] = ShiftLimbsLeft(un_, a_, na_, shift);
      DivideNormalized(un_, vn_, n, na_ - n, q_);
      ShiftLimbsRight(a_, un_, n, shift);
      std::fill(a_ + n, a_ + na_, 0);
      nq = na_ - n + 1;
    }
    std::swap(a_, b_);
    na_ = n;
    nb_ = TrimLen(b_, n);
    odd_ = !odd_;
    if (!cofactors_) return;
    // |s_i| + q |s_{i+1}| is the next cofactor, below max(|a|, |b|), so
    // every partial sum stays inside the region.
    nq = TrimLen(q_, nq);
    const size_t nub = TrimLen(ub_, nu_);
    std::copy(ua_, ua_ + width_, tmp_);
    for (size_t j = 0; j < nq; ++j) {
      uint64_t carry = 0;
      for (size_t i = 0; i < nub; ++i) {
        const uint128 t =
            static_cast<uint128>(q_[j]) * ub_[i] + tmp_[i + j] + carry;
        tmp_[i + j] = static_cast<uint64_t>(t);
        carry = static_cast<uint64_t>(t >> 64);
      }
      for (size_t i = nub + j; carry != 0; ++i) {
        carry = limbs::AddCarry(tmp_[i], carry, 0, &tmp_[i]);
      }
    }
    uint64_t* old_ua = ua_;
    ua_ = ub_;
    ub_ = tmp_;
    tmp_ = old_ua;
    nu_ = std::max(nu_, TrimLen(ub_, width_));
  }

  bool cofactors_;
  size_t width_;  // limbs per region: the longer input plus two
  std::vector<uint64_t> buf_;
  // a_, b_: the remainder pair; un_, vn_, q_: a division step's
  // normalized dividend, divisor and quotient; ua_, ub_, tmp_: cofactor
  // magnitudes. Each is zero above its length.
  uint64_t *a_ = nullptr, *b_ = nullptr, *un_ = nullptr, *vn_ = nullptr,
           *q_ = nullptr, *ua_ = nullptr, *ub_ = nullptr, *tmp_ = nullptr;
  size_t na_ = 0, nb_ = 0, nu_ = 0;
  bool odd_ = false;
};

}  // namespace

BigInt::BigInt(int64_t value) {
  if (value == 0) return;
  negative_ = value < 0;
  // Careful with INT64_MIN: negate in unsigned domain.
  uint64_t mag = negative_ ? ~static_cast<uint64_t>(value) + 1
                           : static_cast<uint64_t>(value);
  limbs_.push_back(mag);
}

BigInt::BigInt(uint64_t value) {
  if (value != 0) limbs_.push_back(value);
}

void BigInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

BigInt BigInt::FromLimbs(std::vector<uint64_t> limbs, bool negative) {
  BigInt out;
  out.limbs_ = std::move(limbs);
  out.negative_ = negative;
  out.Normalize();
  return out;
}

std::vector<uint8_t> BigInt::ToBytesLE(size_t len) const {
  ULDP_CHECK_MSG(!negative_, "ToBytesLE requires a non-negative value");
  // Bound on the *significant* bytes, not the limb count: a value whose
  // top limb has high zero bytes (or, for callers constructing unnormalized
  // limb vectors, trailing zero limbs) still fits.
  ULDP_CHECK_LE(static_cast<size_t>((BitLength() + 7) / 8), len);
  std::vector<uint8_t> out(len, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    for (int b = 0; b < 8; ++b) {
      size_t pos = i * 8 + b;
      if (pos >= len) break;  // only zero padding bytes remain
      out[pos] = static_cast<uint8_t>(limbs_[i] >> (8 * b));
    }
  }
  return out;
}

BigInt BigInt::FromBytesLE(const std::vector<uint8_t>& bytes) {
  std::vector<uint64_t> limbs((bytes.size() + 7) / 8, 0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    limbs[i / 8] |= static_cast<uint64_t>(bytes[i]) << (8 * (i % 8));
  }
  return FromLimbs(std::move(limbs));
}

Result<BigInt> BigInt::FromDecimal(const std::string& s) {
  if (s.empty()) return Status::InvalidArgument("empty decimal string");
  size_t i = 0;
  bool neg = false;
  if (s[0] == '-' || s[0] == '+') {
    neg = s[0] == '-';
    i = 1;
  }
  if (i == s.size()) return Status::InvalidArgument("sign without digits");
  BigInt out;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') {
      return Status::InvalidArgument("invalid decimal digit in: " + s);
    }
    out = out * BigInt(static_cast<uint64_t>(10));
    out = out + BigInt(static_cast<uint64_t>(s[i] - '0'));
  }
  out.negative_ = neg && !out.IsZero();
  return out;
}

Result<BigInt> BigInt::FromHex(const std::string& s) {
  if (s.empty()) return Status::InvalidArgument("empty hex string");
  size_t i = 0;
  bool neg = false;
  if (s[0] == '-' || s[0] == '+') {
    neg = s[0] == '-';
    i = 1;
  }
  if (i == s.size()) return Status::InvalidArgument("sign without digits");
  BigInt out;
  for (; i < s.size(); ++i) {
    char c = s[i];
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return Status::InvalidArgument("invalid hex digit in: " + s);
    }
    out = (out << 4) + BigInt(static_cast<uint64_t>(digit));
  }
  out.negative_ = neg && !out.IsZero();
  return out;
}

BigInt BigInt::RandomBits(int bits, Rng& rng) {
  ULDP_CHECK_GE(bits, 1);
  size_t nlimbs = (bits + 63) / 64;
  std::vector<uint64_t> limbs(nlimbs);
  for (auto& l : limbs) l = rng.NextUint64();
  int top_bits = bits - static_cast<int>(nlimbs - 1) * 64;  // in [1, 64]
  if (top_bits < 64) limbs.back() &= (uint64_t{1} << top_bits) - 1;
  limbs.back() |= uint64_t{1} << (top_bits - 1);  // force exact bit length
  return FromLimbs(std::move(limbs));
}

BigInt BigInt::RandomBelow(const BigInt& bound, Rng& rng) {
  ULDP_CHECK(!bound.IsZero() && !bound.IsNegative());
  int bits = bound.BitLength();
  size_t nlimbs = (bits + 63) / 64;
  int top_bits = bits - static_cast<int>(nlimbs - 1) * 64;
  uint64_t top_mask =
      top_bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << top_bits) - 1;
  // Rejection sampling: mask to the bound's bit length, retry if >= bound.
  // Expected < 2 iterations.
  for (;;) {
    std::vector<uint64_t> limbs(nlimbs);
    for (auto& l : limbs) l = rng.NextUint64();
    limbs.back() &= top_mask;
    BigInt candidate = FromLimbs(std::move(limbs));
    if (candidate < bound) return candidate;
  }
}

int BigInt::BitLength() const {
  return limbs::BitLength(limbs_.data(), limbs_.size());
}

bool BigInt::Bit(int i) const {
  ULDP_CHECK_GE(i, 0);
  size_t limb = static_cast<size_t>(i) / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

Result<int64_t> BigInt::ToInt64() const {
  if (limbs_.size() > 1) return Status::OutOfRange("does not fit in int64");
  uint64_t mag = LowUint64();
  if (negative_) {
    if (mag > uint64_t{1} << 63) return Status::OutOfRange("below INT64_MIN");
    return static_cast<int64_t>(~mag + 1);
  }
  if (mag > static_cast<uint64_t>(INT64_MAX)) {
    return Status::OutOfRange("above INT64_MAX");
  }
  return static_cast<int64_t>(mag);
}

double BigInt::ToDouble() const {
  const double out = limbs::ToDouble(limbs_.data(), limbs_.size());
  return negative_ ? -out : out;
}

std::string BigInt::ToDecimal() const {
  if (IsZero()) return "0";
  // Repeated division by 10^19 (largest power of ten in a limb).
  constexpr uint64_t kChunk = 10000000000000000000ull;
  BigInt cur = Abs();
  std::string out;
  while (!cur.IsZero()) {
    BigInt q, r;
    DivModMagnitude(cur, BigInt(kChunk), &q, &r);
    uint64_t digits = r.LowUint64();
    cur = q;
    for (int i = 0; i < 19; ++i) {
      out.push_back(static_cast<char>('0' + digits % 10));
      digits /= 10;
      if (cur.IsZero() && digits == 0) break;
    }
  }
  if (negative_) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

std::string BigInt::ToHex() const {
  if (IsZero()) return "0";
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t limb = limbs_[i];
    for (int nib = 0; nib < 16; ++nib) {
      out.push_back(kDigits[limb & 0xf]);
      limb >>= 4;
    }
  }
  while (out.size() > 1 && out.back() == '0') out.pop_back();
  if (negative_) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

int BigInt::CompareMagnitude(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

int BigInt::Compare(const BigInt& other) const {
  if (negative_ != other.negative_) return negative_ ? -1 : 1;
  int mag = CompareMagnitude(*this, other);
  return negative_ ? -mag : mag;
}

BigInt BigInt::Abs() const {
  BigInt out = *this;
  out.negative_ = false;
  return out;
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.IsZero()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::AddMagnitude(const BigInt& a, const BigInt& b) {
  const auto& x = a.limbs_.size() >= b.limbs_.size() ? a.limbs_ : b.limbs_;
  const auto& y = a.limbs_.size() >= b.limbs_.size() ? b.limbs_ : a.limbs_;
  std::vector<uint64_t> out(x.size() + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    uint128 sum = static_cast<uint128>(x[i]) + (i < y.size() ? y[i] : 0) + carry;
    out[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  out[x.size()] = carry;
  return FromLimbs(std::move(out));
}

BigInt BigInt::SubMagnitude(const BigInt& a, const BigInt& b) {
  ULDP_CHECK_GE(CompareMagnitude(a, b), 0);
  std::vector<uint64_t> out(a.limbs_.size(), 0);
  uint64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t bi = i < b.limbs_.size() ? b.limbs_[i] : 0;
    uint128 diff = static_cast<uint128>(a.limbs_[i]) - bi - borrow;
    out[i] = static_cast<uint64_t>(diff);
    borrow = (diff >> 64) ? 1 : 0;  // underflow wraps the high part
  }
  return FromLimbs(std::move(out));
}

BigInt BigInt::operator+(const BigInt& o) const {
  if (negative_ == o.negative_) {
    BigInt out = AddMagnitude(*this, o);
    out.negative_ = negative_ && !out.IsZero();
    return out;
  }
  int cmp = CompareMagnitude(*this, o);
  if (cmp == 0) return BigInt();
  if (cmp > 0) {
    BigInt out = SubMagnitude(*this, o);
    out.negative_ = negative_ && !out.IsZero();
    return out;
  }
  BigInt out = SubMagnitude(o, *this);
  out.negative_ = o.negative_ && !out.IsZero();
  return out;
}

BigInt BigInt::operator-(const BigInt& o) const { return *this + (-o); }

BigInt BigInt::MulSchoolbook(const BigInt& a, const BigInt& b) {
  std::vector<uint64_t> out(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a.limbs_[i];
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      uint128 cur = static_cast<uint128>(ai) * b.limbs_[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out[i + b.limbs_.size()] += carry;
  }
  return FromLimbs(std::move(out));
}

BigInt BigInt::MulKaratsuba(const BigInt& a, const BigInt& b) {
  size_t half = std::max(a.limbs_.size(), b.limbs_.size()) / 2;
  auto split = [half](const BigInt& v) {
    BigInt lo, hi;
    if (v.limbs_.size() <= half) {
      lo = v;
    } else {
      lo.limbs_.assign(v.limbs_.begin(), v.limbs_.begin() + half);
      hi.limbs_.assign(v.limbs_.begin() + half, v.limbs_.end());
      lo.Normalize();
      hi.Normalize();
    }
    return std::pair<BigInt, BigInt>(std::move(lo), std::move(hi));
  };
  auto [a_lo, a_hi] = split(a);
  auto [b_lo, b_hi] = split(b);
  BigInt z0 = MulMagnitude(a_lo, b_lo);
  BigInt z2 = MulMagnitude(a_hi, b_hi);
  BigInt z1 = MulMagnitude(AddMagnitude(a_lo, a_hi), AddMagnitude(b_lo, b_hi));
  z1 = SubMagnitude(z1, AddMagnitude(z0, z2));
  int shift = static_cast<int>(half) * 64;
  return AddMagnitude(AddMagnitude(z0, z1 << shift), z2 << (2 * shift));
}

BigInt BigInt::MulMagnitude(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) return BigInt();
  if (std::min(a.limbs_.size(), b.limbs_.size()) < kKaratsubaThreshold) {
    return MulSchoolbook(a, b);
  }
  return MulKaratsuba(a, b);
}

BigInt BigInt::operator*(const BigInt& o) const {
  BigInt out = MulMagnitude(*this, o);
  out.negative_ = (negative_ != o.negative_) && !out.IsZero();
  return out;
}

BigInt BigInt::operator<<(int bits) const {
  ULDP_CHECK_GE(bits, 0);
  if (IsZero() || bits == 0) return *this;
  size_t limb_shift = static_cast<size_t>(bits) / 64;
  int bit_shift = bits % 64;
  std::vector<uint64_t> out(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    out[i + limb_shift] |= bit_shift == 0 ? limbs_[i] : limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      out[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  return FromLimbs(std::move(out), negative_);
}

BigInt BigInt::operator>>(int bits) const {
  ULDP_CHECK_GE(bits, 0);
  if (IsZero() || bits == 0) return *this;
  size_t limb_shift = static_cast<size_t>(bits) / 64;
  int bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return BigInt();
  std::vector<uint64_t> out(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  return FromLimbs(std::move(out), negative_);
}

// Knuth TAOCP vol. 2, algorithm 4.3.1 D, on 64-bit limbs.
void BigInt::DivModMagnitude(const BigInt& u_in, const BigInt& v_in, BigInt* q,
                             BigInt* r) {
  ULDP_CHECK(!v_in.IsZero());
  if (CompareMagnitude(u_in, v_in) < 0) {
    *q = BigInt();
    *r = u_in.Abs();
    return;
  }
  if (v_in.limbs_.size() == 1) {
    // Short division.
    std::vector<uint64_t> quot(u_in.limbs_.size(), 0);
    const uint64_t rem = DivideByLimb(u_in.limbs_.data(), u_in.limbs_.size(),
                                      v_in.limbs_[0], quot.data());
    *q = FromLimbs(std::move(quot));
    *r = BigInt(rem);
    return;
  }

  // Normalize: shift so the divisor's top limb has its high bit set.
  int shift = __builtin_clzll(v_in.limbs_.back());
  BigInt u = u_in.Abs() << shift;
  BigInt v = v_in.Abs() << shift;
  size_t n = v.limbs_.size();
  size_t m = u.limbs_.size() - n;
  std::vector<uint64_t> un(u.limbs_);
  un.push_back(0);  // u_{m+n} slot
  const std::vector<uint64_t>& vn = v.limbs_;
  std::vector<uint64_t> quot(m + 1, 0);

  DivideNormalized(un.data(), vn.data(), n, m, quot.data());
  *q = FromLimbs(std::move(quot));
  un.resize(n);
  *r = FromLimbs(std::move(un)) >> shift;
}

Status BigInt::DivRem(const BigInt& divisor, BigInt* quotient,
                      BigInt* remainder) const {
  if (divisor.IsZero()) return Status::InvalidArgument("division by zero");
  BigInt q, r;
  DivModMagnitude(*this, divisor, &q, &r);
  // Truncated-division sign rules.
  q.negative_ = (negative_ != divisor.negative_) && !q.IsZero();
  r.negative_ = negative_ && !r.IsZero();
  if (quotient != nullptr) *quotient = std::move(q);
  if (remainder != nullptr) *remainder = std::move(r);
  return Status::Ok();
}

BigInt BigInt::operator/(const BigInt& o) const {
  BigInt q;
  Status st = DivRem(o, &q, nullptr);
  ULDP_CHECK_MSG(st.ok(), st.ToString());
  return q;
}

BigInt BigInt::operator%(const BigInt& o) const {
  BigInt r;
  Status st = DivRem(o, nullptr, &r);
  ULDP_CHECK_MSG(st.ok(), st.ToString());
  return r;
}

BigInt BigInt::Mod(const BigInt& m) const {
  ULDP_CHECK(!m.IsZero() && !m.IsNegative());
  BigInt r = *this % m;
  if (r.IsNegative()) r = r + m;
  return r;
}

BigInt BigInt::ModAdd(const BigInt& o, const BigInt& m) const {
  BigInt s = *this + o;
  if (s >= m) s = s - m;
  return s;
}

BigInt BigInt::ModSub(const BigInt& o, const BigInt& m) const {
  BigInt s = *this - o;
  if (s.IsNegative()) s = s + m;
  return s;
}

BigInt BigInt::ModMul(const BigInt& o, const BigInt& m) const {
  return (*this * o).Mod(m);
}

BigInt BigInt::ModExp(const BigInt& exponent, const BigInt& m) const {
  ULDP_CHECK(!m.IsZero() && !m.IsNegative());
  ULDP_CHECK(!exponent.IsNegative());
  if (m == BigInt(1)) return BigInt();
  if (m.IsOdd()) {
    Montgomery ctx(m);
    return ctx.ModExp(this->Mod(m), exponent);
  }
  // Generic square-and-multiply for even moduli (rare in this codebase).
  BigInt base = Mod(m);
  BigInt result(1);
  int bits = exponent.BitLength();
  for (int i = bits - 1; i >= 0; --i) {
    result = result.ModMul(result, m);
    if (exponent.Bit(i)) result = result.ModMul(base, m);
  }
  return result;
}

void BigInt::EGcd(const BigInt& a, const BigInt& b, BigInt* g, BigInt* x,
                  BigInt* y) {
  LimbEuclid euclid(a.limbs_, b.limbs_,
                    /*cofactors=*/x != nullptr || y != nullptr);
  euclid.Run();
  BigInt gcd = FromLimbs(euclid.Gcd());
  if (x != nullptr || y != nullptr) {
    // gcd = s|a| + t|b|, so x = s * sign(a), and y = (gcd - a x) / b
    // divides exactly.
    BigInt xa = FromLimbs(euclid.CofactorOfA(),
                          euclid.cofactor_negative() != a.negative_);
    if (y != nullptr) *y = b.IsZero() ? BigInt() : (gcd - a * xa) / b;
    if (x != nullptr) *x = std::move(xa);
  }
  if (g != nullptr) *g = std::move(gcd);
}

Result<BigInt> BigInt::ModInverse(const BigInt& m) const {
  if (m.IsZero() || m.IsNegative()) {
    return Status::InvalidArgument("modulus must be positive");
  }
  BigInt g, x;
  EGcd(this->Mod(m), m, &g, &x, nullptr);
  if (g != BigInt(1)) {
    return Status::InvalidArgument("not invertible: gcd != 1");
  }
  return x.Mod(m);
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  LimbEuclid euclid(a.limbs_, b.limbs_, /*cofactors=*/false);
  euclid.Run();
  return FromLimbs(euclid.Gcd());
}

BigInt BigInt::Lcm(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) return BigInt();
  BigInt g = Gcd(a, b);
  return (a.Abs() / g) * b.Abs();
}

BigInt LcmUpTo(uint64_t n) {
  // lcm(1..n) = prod over primes p <= n of p^floor(log_p n).
  // Sieve of Eratosthenes over [2, n].
  BigInt out(1);
  if (n < 2) return out;
  std::vector<bool> composite(n + 1, false);
  for (uint64_t p = 2; p <= n; ++p) {
    if (composite[p]) continue;
    for (uint64_t q = p * p; q <= n; q += p) composite[q] = true;
    uint64_t pk = p;
    while (pk <= n / p) pk *= p;  // largest power of p that is <= n
    out = out * BigInt(pk);
  }
  return out;
}

}  // namespace uldp
