// Fixed-point encoding of real numbers into a finite field F_n
// (Algorithm 5, "Encode and Decode"). Negative values map to the upper
// half of the field; Decode centers them back.
//
// Decode additionally divides out the C_LCM factor that Protocol 1
// multiplies into every term so that the 1/N_u weights stay integral.
//
// PackedCodec layers a slot layout on top: k weights share one Paillier
// plaintext as signed radix-2^B digits, with B sized from the worst-case
// aggregate magnitude (C_LCM · clip/P units · (users + silos) terms) plus
// guard bits, so additive aggregation across every user and silo provably
// cannot carry across a slot boundary. Configurations where it could are
// rejected at Create() time.

#ifndef ULDP_CRYPTO_FIXED_POINT_H_
#define ULDP_CRYPTO_FIXED_POINT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "math/bigint.h"

namespace uldp {

class FixedPointCodec {
 public:
  /// `modulus`: the field size n. `precision`: the paper's P, e.g. 1e-10
  /// (one fixed-point unit corresponds to P in real space).
  FixedPointCodec(BigInt modulus, double precision);

  /// Encode(x, P, n): x/P rounded to integer, mapped into F_n.
  /// Errors if |x/P| does not fit a 63-bit integer or exceeds n/2 (value
  /// would be ambiguous under centering).
  Result<BigInt> Encode(double x) const;

  /// Decode for values carrying no C_LCM factor: center then scale by P.
  double DecodePlain(const BigInt& x) const;

  /// n's limb count k: the width of every element the limb-level forms
  /// below read and write.
  size_t limbs() const { return modulus_.limbs().size(); }

  /// Limb-level Encode: writes Encode(x) to `out` as k limbs, with the
  /// same range checks and Status. Encode is this plus a BigInt.
  Status EncodeLimbs(double x, uint64_t* out) const;

  /// Limb-level DecodePlain over `count` consecutive k-limb elements, each
  /// in [0, n) (checked): out[i] is DecodePlain of element i, bitwise.
  /// DecodePlain is this at count 1.
  void DecodePlainLimbs(const uint64_t* x, size_t count, double* out) const;

  /// Decode(x, P, C_LCM, n): center into (-n/2, n/2], divide by c_lcm
  /// (rounded), then scale by P.
  double Decode(const BigInt& x, const BigInt& c_lcm) const;

  /// The arithmetic tail of Decode on an already-centered signed value:
  /// divide by c_lcm (rounded), scale by P. Shared with the packed path so
  /// packed and unpacked aggregates decode to bitwise-identical doubles.
  double DecodeCentered(const BigInt& centered, const BigInt& c_lcm) const;

  const BigInt& modulus() const { return modulus_; }
  double precision() const { return precision_; }

 private:
  /// Maps field element to signed representative in (-n/2, n/2].
  BigInt Center(const BigInt& x) const;

  BigInt modulus_;
  BigInt half_modulus_;
  /// half_modulus_ zero-padded to k limbs, for the limb-level forms.
  std::vector<uint64_t> half_limbs_;
  /// Largest |units| Encode accepts for a non-negative / negative value.
  uint64_t max_units_nonneg_ = 0;
  uint64_t max_units_neg_ = 0;
  double precision_;
};

/// Slot layout packing up to `slots` fixed-point weights into one field
/// element as signed radix-2^B digits. Homomorphic aggregation is mod-n
/// linear, so the final aggregate is congruent to Σ_j V_j · 2^(jB) with
/// V_j the per-slot signed aggregate; DecodeGroup recovers the digits
/// exactly as long as |V_j| stays inside the carry guard, which Create()
/// verifies against the worst admissible protocol inputs.
///
/// Default-constructed instances are inactive (slots() == 1, PackedDim is
/// the identity) so the codec can live by value in copied param structs.
class PackedCodec {
 public:
  PackedCodec() = default;

  /// Builds the layout for `pack_slots` slots of weights clipped to
  /// |x| <= pack_clip, aggregated across at most num_users weighted terms
  /// plus num_silos noise terms, each carrying a C_LCM factor. Fails with
  /// FailedPrecondition when slots · B cannot fit the modulus — the caller
  /// must shrink pack_slots, pack_clip, or n_max, or grow the key.
  /// pack_slots == 1 yields an inactive codec.
  static Result<PackedCodec> Create(const BigInt& modulus, double precision,
                                    int pack_slots, double pack_clip,
                                    const BigInt& c_lcm, int num_silos,
                                    int num_users);

  bool active() const { return slots_ > 1; }
  int slots() const { return slots_; }
  int slot_bits() const { return slot_bits_; }
  double pack_clip() const { return pack_clip_; }
  /// Ciphertexts needed for a model of `dim` coordinates: ceil(dim/slots).
  size_t PackedDim(size_t dim) const {
    return slots_ <= 1 ? dim
                       : (dim + static_cast<size_t>(slots_) - 1) /
                             static_cast<size_t>(slots_);
  }

  /// Σ_j units(xs[j]) · 2^(jB) mod n over `count` (1..slots) weights —
  /// the packed counterpart of FixedPointCodec::Encode, with units(x) the
  /// identical llround(x/P). Errors on non-finite input or |x| beyond the
  /// clip bound the carry guard was sized for.
  Result<BigInt> EncodeGroup(const double* xs, size_t count) const;

  /// Decodes an aggregate group plaintext: center into (-n/2, n/2],
  /// extract `count` signed radix-2^B digits, decode each through
  /// codec.DecodeCentered — bitwise identical to the unpacked Decode of
  /// the same per-coordinate aggregate. Errors when the residue past the
  /// last slot is nonzero (corrupt or overflowed aggregate).
  Status DecodeGroup(const BigInt& x, const FixedPointCodec& codec,
                     const BigInt& c_lcm, size_t count, double* out) const;

 private:
  BigInt modulus_;
  BigInt half_modulus_;
  double precision_ = 0.0;
  double pack_clip_ = 0.0;
  int64_t units_max_ = 0;  // ceil(pack_clip / precision)
  int slots_ = 1;
  int slot_bits_ = 0;  // B
  BigInt slot_base_;   // 2^B
  BigInt slot_half_;   // 2^(B-1)
};

}  // namespace uldp

#endif  // ULDP_CRYPTO_FIXED_POINT_H_
