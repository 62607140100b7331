// Pairwise additive-mask secure aggregation over a finite field F_n
// (Bonawitz et al., CCS'17, simplified to the cross-silo setting where all
// parties participate in every round, so no dropout recovery is needed —
// exactly the assumption in the paper §3.1).
//
// Party i adds +PRF(s_{ij}) for every j > i and -PRF(s_{ij}) for every
// j < i; summing all parties' masked values cancels every mask (Theorem 4's
// first step). Mask streams are ChaCha20 keyed by pairwise DH secrets.
//
// Masked vectors are FieldVectors: one contiguous array of k-limb elements,
// k being the modulus's limb count (4 for the 256-bit aggregation prime).
// Masks are drawn and added in place, so masking, summing, the wire codec
// (net/wire.h) and the fixed-point codec (crypto/fixed_point.h) allocate
// per vector, never per element. Every element is canonical in [0, n).

#ifndef ULDP_CRYPTO_SECURE_AGG_H_
#define ULDP_CRYPTO_SECURE_AGG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/chacha.h"
#include "math/bigint.h"

namespace uldp {

class ThreadPool;

/// The public 256-bit prime field the FL layer aggregates over (fixed: it
/// is public anyway, so aggregation is deterministic across parties).
const BigInt& AggregationPrime();
/// AggregationPrime()'s limb count.
constexpr size_t kAggregationLimbs = 4;

/// A vector of field elements stored as size() * limbs() little-endian
/// limbs, element i at element(i).
class FieldVector {
 public:
  FieldVector() = default;
  /// `dim` zero elements of `limbs` limbs each (limbs >= 1).
  FieldVector(size_t dim, size_t limbs);
  /// Conversion from the BigInt API (fl/local_trainer.h MaskSiloDelta /
  /// UnmaskMaskedSum). Each value must be non-negative and fit `limbs`
  /// limbs (checked); by default the aggregation field's width.
  FieldVector(const std::vector<BigInt>& values,  // NOLINT: implicit
              size_t limbs = kAggregationLimbs);

  size_t size() const { return limbs_ == 0 ? 0 : data_.size() / limbs_; }
  size_t limbs() const { return limbs_; }
  uint64_t* element(size_t i) { return data_.data() + i * limbs_; }
  const uint64_t* element(size_t i) const {
    return data_.data() + i * limbs_;
  }

  /// Conversion back to the BigInt API.
  std::vector<BigInt> ToBigInts() const;

  /// Same elements: equal dimension and limbs (all empty vectors match).
  bool operator==(const FieldVector& o) const {
    return size() == o.size() && data_ == o.data_;
  }
  bool operator!=(const FieldVector& o) const { return !(*this == o); }

 private:
  size_t limbs_ = 0;
  std::vector<uint64_t> data_;
};

/// Secure aggregation context for a fixed party set and modulus.
class SecureAggregator {
 public:
  /// `modulus`: the field F_n (Paillier n for Protocol 1, or any public
  /// prime for standalone use). `num_parties` >= 2.
  SecureAggregator(BigInt modulus, int num_parties);

  /// Adds party `me`'s mask vector for round `tag` to `values` in place,
  /// elementwise mod n. `values` must hold limbs()-limb elements in
  /// [0, n). `pairwise_keys[j]` is the ChaCha key shared between `me` and
  /// party j (entry for j == me is ignored). Both parties of a pair must
  /// have derived identical keys (see DeriveSharedSeedMaterial).
  /// With a `pool`, the per-peer PRF streams are generated concurrently
  /// (each peer's stream is an independent ChaCha evaluation) and added
  /// in fixed peer order; the result is the same residue either way, so it
  /// is bitwise identical to the serial path at any thread count.
  void AddMasks(int me, const std::vector<ChaChaRng::Key>& pairwise_keys,
                uint64_t tag, FieldVector& values,
                ThreadPool* pool = nullptr) const;

  /// Element-wise sum of all parties' vectors mod n (the server-side
  /// reduce; masks cancel if every party masked its vector).
  FieldVector Sum(const std::vector<FieldVector>& vectors) const;

  const BigInt& modulus() const { return modulus_; }
  /// n's limb count: the width of every element this context reads.
  size_t limbs() const { return modulus_.limbs().size(); }
  int num_parties() const { return num_parties_; }

 private:
  BigInt modulus_;
  int num_parties_;
};

}  // namespace uldp

#endif  // ULDP_CRYPTO_SECURE_AGG_H_
