#include "crypto/fixed_point.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "common/check.h"
#include "math/limbs.h"

namespace uldp {

namespace {

// Sub-unit resolution used when dividing out C_LCM: the quotient is
// computed at 10^15 extra digits so the final double conversion keeps
// ~15 significant digits below one fixed-point unit.
const uint64_t kDecodeScale = 1000000000000000ull;  // 1e15

// Shared with Encode: |x/P| must stay well inside int64 so later
// multiplications by small integers in protocol terms cannot silently
// wrap before reaching BigInt domain.
constexpr double kMaxUnits = 4.6e18;

// The rounding of every encoder: `scaled` = x/P rounded half away from
// zero, as std::llround, while |scaled| < kMaxUnits; false otherwise,
// NaN and infinities included.
inline bool RoundUnits(double scaled, int64_t* units) {
  if (!(std::fabs(scaled) < kMaxUnits)) return false;
  // std::llround inline: truncation is exact below 2^63 in magnitude, and
  // the fraction it leaves is exact too; a half or more steps away from
  // zero.
  const auto whole = static_cast<int64_t>(scaled);
  const double fraction = scaled - static_cast<double>(whole);
  *units = whole + static_cast<int64_t>(fraction >= 0.5) -
           static_cast<int64_t>(fraction <= -0.5);
  return true;
}

}  // namespace

FixedPointCodec::FixedPointCodec(BigInt modulus, double precision)
    : modulus_(std::move(modulus)), precision_(precision) {
  ULDP_CHECK(modulus_ > BigInt(3));
  ULDP_CHECK_GT(precision_, 0.0);
  half_modulus_ = modulus_ >> 1;
  half_limbs_ = half_modulus_.limbs();
  half_limbs_.resize(limbs(), 0);
  // Ambiguity bound: the signed value must survive centering, which maps
  // field elements into (-n/2, n/2]. Magnitudes above n/2 alias; for an
  // even modulus, -n/2 and +n/2 land on the same field element (Decode
  // returns it as +n/2), so exactly -n/2 is rejected as well. |units|
  // stays below 2^63, so a half-modulus of two or more limbs bounds
  // nothing.
  const uint64_t half = half_modulus_.limbs().size() > 1
                            ? ~uint64_t{0}
                            : half_modulus_.LowUint64();
  max_units_nonneg_ = half;
  max_units_neg_ = modulus_.IsEven() ? half - 1 : half;
}

Result<BigInt> FixedPointCodec::Encode(double x) const {
  Result<int64_t> units = Units(x);
  if (!units.ok()) return units.status();
  // A negative value maps to n - |units|.
  if (units.value() < 0) return modulus_ - BigInt(-units.value());
  return BigInt(units.value());
}

bool FixedPointCodec::UnitsOf(double x, int64_t* units) const {
  if (!RoundUnits(x / precision_, units)) return false;
  const uint64_t negative = uint64_t{0} - (*units < 0);  // all ones or 0
  const uint64_t mag = (static_cast<uint64_t>(*units) ^ negative) - negative;
  return mag <= (negative ? max_units_neg_ : max_units_nonneg_);
}

Result<int64_t> FixedPointCodec::Units(double x) const {
  int64_t units = 0;
  if (UnitsOf(x, &units)) return units;
  if (!std::isfinite(x)) {
    return Status::InvalidArgument("cannot encode non-finite value");
  }
  if (std::fabs(x / precision_) >= kMaxUnits) {
    return Status::OutOfRange("value too large for fixed-point range");
  }
  return Status::OutOfRange("encoded magnitude exceeds modulus/2");
}

Status FixedPointCodec::EncodeLimbs(double x, uint64_t* out) const {
  if (EncodeRun(&x, 1, out) == 1) return Status::Ok();
  return Units(x).status();
}

Status FixedPointCodec::EncodeLimbs(const double* x, size_t count,
                                    uint64_t* out) const {
  const size_t done = EncodeRun(x, count, out);
  if (done == count) return Status::Ok();
  const Status error = EncodeLimbs(x[done], out + done * limbs());
  return Status(error.code(), "coordinate " + std::to_string(done) + ": " +
                                  error.message());
}

size_t FixedPointCodec::EncodeRun(const double* x, size_t count,
                                  uint64_t* out) const {
  const uint64_t* n = modulus_.limbs().data();
  size_t done = 0;
  limbs::WithWidth(limbs(), [&](auto k) {
    for (; done < count; ++done, out += k) {
      int64_t units = 0;
      if (!UnitsOf(x[done], &units)) return;
      const uint64_t negative = uint64_t{0} - (units < 0);  // all ones or 0
      // A negative value maps to n - |units|: n plus units sign-extended,
      // whose carry out of the top limb drops.
      uint64_t carry = 0;
      for (size_t i = 0; i < k; ++i) {
        carry = limbs::AddCarry(
            n[i] & negative, i == 0 ? static_cast<uint64_t>(units) : negative,
            carry, &out[i]);
      }
    }
  });
  return done;
}

BigInt FixedPointCodec::Center(const BigInt& x) const {
  ULDP_CHECK(!x.IsNegative() && x < modulus_);
  if (x > half_modulus_) return x - modulus_;
  return x;
}

double FixedPointCodec::DecodePlain(const BigInt& x) const {
  ULDP_CHECK(!x.IsNegative() && x < modulus_);
  std::vector<uint64_t> padded = x.limbs();
  padded.resize(limbs(), 0);
  double out;
  DecodePlainLimbs(padded.data(), 1, &out);
  return out;
}

void FixedPointCodec::DecodePlainLimbs(const uint64_t* x, size_t count,
                                       double* out) const {
  const uint64_t* n = modulus_.limbs().data();
  const uint64_t* half = half_limbs_.data();
  std::vector<uint64_t> mag(limbs());
  limbs::WithWidth(limbs(), [&](auto k) {
    for (size_t i = 0; i < count; ++i, x += k) {
      ULDP_CHECK(limbs::Borrow(x, n, k) == 1);  // x < n
      // Center: an element above n/2 stands for -(n - x). Both magnitudes
      // are formed and one is kept, so random signs cost no mispredicts.
      const uint64_t negative = uint64_t{0} - limbs::Borrow(half, x, k);
      limbs::Sub(mag.data(), n, x, k);
      for (size_t j = 0; j < k; ++j) {
        mag[j] = (mag[j] & negative) | (x[j] & ~negative);
      }
      // -a * P is -(a * P) bitwise, so the sign goes on last.
      double value = limbs::ToDouble(mag.data(), k) * precision_;
      uint64_t bits;
      std::memcpy(&bits, &value, sizeof(bits));
      bits ^= negative & (uint64_t{1} << 63);
      std::memcpy(&out[i], &bits, sizeof(bits));
    }
  });
}

double FixedPointCodec::Decode(const BigInt& x, const BigInt& c_lcm) const {
  return DecodeCentered(Center(x), c_lcm);
}

double FixedPointCodec::DecodeCentered(const BigInt& centered,
                                       const BigInt& c_lcm) const {
  ULDP_CHECK(c_lcm > BigInt(0));
  bool negative = centered.IsNegative();
  BigInt mag = centered.Abs();
  // q = round(mag * 1e15 / c_lcm); double(q) stays far below 2^1024 for all
  // admissible protocol values, unlike double(c_lcm) which may overflow.
  BigInt q = (mag * BigInt(kDecodeScale) + (c_lcm >> 1)) / c_lcm;
  double out = q.ToDouble() / static_cast<double>(kDecodeScale) * precision_;
  return negative ? -out : out;
}

Result<PackedCodec> PackedCodec::Create(const BigInt& modulus,
                                        double precision, int pack_slots,
                                        double pack_clip, const BigInt& c_lcm,
                                        int num_silos, int num_users) {
  if (pack_slots < 1 || pack_slots > 64) {
    return Status::InvalidArgument("pack_slots must be in [1, 64]");
  }
  if (!(precision > 0.0) || !(pack_clip > 0.0) || !std::isfinite(pack_clip)) {
    return Status::InvalidArgument(
        "pack_clip and precision must be positive and finite");
  }
  if (c_lcm <= BigInt(0) || num_silos < 1 || num_users < 1) {
    return Status::InvalidArgument("invalid packing aggregate bounds");
  }
  PackedCodec codec;
  codec.modulus_ = modulus;
  codec.half_modulus_ = modulus >> 1;
  codec.precision_ = precision;
  codec.pack_clip_ = pack_clip;
  if (pack_slots == 1) return codec;  // inactive

  const double units = std::ceil(pack_clip / precision);
  if (units >= kMaxUnits) {
    return Status::OutOfRange("pack_clip/precision exceeds fixed-point range");
  }
  codec.units_max_ = std::llround(units);
  // Worst-case per-slot aggregate magnitude: every one of num_users
  // weighted terms at full clip with weight factor n_su·C_LCM/N_u <= C_LCM,
  // plus num_silos noise terms each carrying C_LCM. Two guard bits on top
  // of that bound keep the signed digit strictly inside (-2^(B-1), 2^(B-1)).
  const BigInt bound = c_lcm * BigInt(codec.units_max_) *
                       BigInt(static_cast<int64_t>(num_users) + num_silos);
  codec.slot_bits_ = bound.BitLength() + 2;
  codec.slots_ = pack_slots;
  // The full packed aggregate Σ_j V_j·2^(jB) must survive centering in
  // (-n/2, n/2]: k·B significant bits plus sign headroom.
  if (codec.slot_bits_ * pack_slots + 2 > modulus.BitLength()) {
    return Status::FailedPrecondition(
        "pack_slots x slot width does not fit the modulus: " +
        std::to_string(pack_slots) + " slots x " +
        std::to_string(codec.slot_bits_) + " bits vs " +
        std::to_string(modulus.BitLength()) +
        "-bit key; lower pack_slots/pack_clip/n_max or use a larger key");
  }
  codec.slot_base_ = BigInt(1) << codec.slot_bits_;
  codec.slot_half_ = BigInt(1) << (codec.slot_bits_ - 1);
  return codec;
}

Result<BigInt> PackedCodec::EncodeGroup(const double* xs, size_t count) const {
  std::vector<int64_t> units(count);
  ULDP_RETURN_IF_ERROR(GroupUnits(xs, count, units.data()));
  BigInt sum;
  for (size_t j = 0; j < count; ++j) {
    if (units[j] != 0) {
      sum += BigInt(units[j]) << (static_cast<int>(j) * slot_bits_);
    }
  }
  return sum.Mod(modulus_);
}

Status PackedCodec::GroupUnits(const double* xs, size_t count,
                               int64_t* units) const {
  ULDP_CHECK(active());
  ULDP_CHECK(count >= 1 && count <= static_cast<size_t>(slots_));
  for (size_t j = 0; j < count; ++j) {
    if (!RoundUnits(xs[j] / precision_, &units[j])) {
      if (!std::isfinite(xs[j])) {
        return Status::InvalidArgument("cannot encode non-finite value");
      }
      return Status::OutOfRange("value too large for fixed-point range");
    }
    // The carry guard was sized for |x| <= pack_clip; anything beyond it
    // could bleed into the neighboring slot, so it is a hard error here.
    if (units[j] > units_max_ || units[j] < -units_max_) {
      return Status::OutOfRange("weight magnitude exceeds pack_clip");
    }
  }
  return Status::Ok();
}

Status PackedCodec::DecodeGroup(const BigInt& x, const FixedPointCodec& codec,
                                const BigInt& c_lcm, size_t count,
                                double* out) const {
  ULDP_CHECK(active());
  if (count < 1 || count > static_cast<size_t>(slots_)) {
    return Status::InvalidArgument("packed group count out of range");
  }
  if (x.IsNegative() || x >= modulus_) {
    return Status::InvalidArgument("packed aggregate not reduced mod n");
  }
  // Center, then shift every slot by 2^(B-1) so the digits become plain
  // non-negative radix-2^B digits: s = t + Σ_j 2^(B-1)·2^(jB).
  BigInt s = x > half_modulus_ ? x - modulus_ : x;
  for (size_t j = 0; j < count; ++j) {
    s += slot_half_ << (static_cast<int>(j) * slot_bits_);
  }
  if (s.IsNegative()) {
    return Status::InvalidArgument(
        "packed aggregate underflows the slot layout");
  }
  for (size_t j = 0; j < count; ++j) {
    BigInt digit = s.Mod(slot_base_);
    out[j] = codec.DecodeCentered(digit - slot_half_, c_lcm);
    s = s >> slot_bits_;
  }
  if (!s.IsZero()) {
    return Status::InvalidArgument(
        "packed aggregate has a nonzero residue past the last slot "
        "(corrupt frame or slot overflow)");
  }
  return Status::Ok();
}

}  // namespace uldp
