// Typed tag domains for Protocol 1's PRF streams. Every pairwise mask and
// every shared-seed stream is a ChaCha20 evaluation keyed by a long-lived
// secret and addressed by a (tag, index) nonce; if two protocol phases ever
// issue the same (key, tag, index) triple, the identical mask appears in
// two places and the blinded-histogram privacy argument (Theorem 5's
// "masks are one-time pads" step) silently collapses. The seed code used a
// flat namespace — raw tag 0 for the histogram phase, the magic constant
// 0x5EC0000 + round for the weighting phase — which stayed collision-free
// only by inspection. This header makes the domain separation structural:
// a phase enum packed into the tag's high byte, the round number in the
// low 56 bits, with the packing checked at the call site.

#ifndef ULDP_CORE_MASK_TAGS_H_
#define ULDP_CORE_MASK_TAGS_H_

#include <cstdint>

#include "common/check.h"

namespace uldp {

/// Protocol phases that consume PRF streams. Values are part of the wire
/// discipline (both parties of a pair must derive the same tag): never
/// renumber, only append.
enum class MaskPhase : uint64_t {
  /// Setup (e): pairwise additive masks over the blinded histograms,
  /// indexed by user. One-shot (round is always 0).
  kHistogramBlind = 1,
  /// Weighting (c): per-round pairwise masks over the encrypted weighted
  /// sums, indexed by coordinate.
  kRoundWeighting = 2,
  /// OT-mode slot choice: per-round shared-seed stream picking each user's
  /// slot, indexed by user. (Keyed by the shared seed R rather than a
  /// pairwise key, but tagged from the same namespace so no two phases can
  /// alias even if their keys are ever unified.)
  kOtSlotChoice = 3,
  /// Multiplicative blind r_u derivation from the shared seed R, packed
  /// with the user id (the low-56 index) rather than a round; the nonce's
  /// stream slot carries the non-unit retry counter.
  kUserBlind = 4,
  /// OT-mode weight relay: the receiver silo re-encrypts the fetched
  /// Enc(B_inv) vector under each pairwise key before the server relays it,
  /// so the server cannot match fetched ciphertexts against its slots (that
  /// match would reveal the hidden sampling outcome). Per-round, the
  /// nonce's stream slot carries the destination silo.
  kOtWeightRelay = 5,
  /// Setup (c): silo 0 encrypts the shared random seed R under each
  /// pairwise key for the server to relay. One-shot (round is always 0);
  /// the nonce's stream slot carries the destination silo.
  kSeedRelay = 6,
  /// FL-layer secure aggregation: per-round pairwise masks over the silo
  /// deltas (fl/local_trainer.h MaskDelta, and the async transport's
  /// masked mode), indexed by coordinate.
  kFlAggregation = 7,
};

/// Phase byte of a packed tag (inverse of MakeMaskTag).
inline MaskPhase MaskTagPhase(uint64_t tag) {
  return static_cast<MaskPhase>(tag >> 56);
}
/// Round (or index) bits of a packed tag.
inline uint64_t MaskTagRound(uint64_t tag) {
  return tag & ((1ull << 56) - 1);
}

/// Rounds must fit the 56 bits below the phase byte.
constexpr uint64_t kMaskTagRoundLimit = 1ull << 56;

/// Packs (phase, round) into a single stream tag. Distinct phases differ in
/// the high byte and distinct rounds in the low bits, so no two
/// (phase, round) pairs share a ChaCha stream under one key.
inline uint64_t MakeMaskTag(MaskPhase phase, uint64_t round) {
  ULDP_CHECK_LT(round, kMaskTagRoundLimit);
  return (static_cast<uint64_t>(phase) << 56) | round;
}

}  // namespace uldp

#endif  // ULDP_CORE_MASK_TAGS_H_
