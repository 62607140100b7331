// Explicit serializable session state: the single owned home for the
// server-side training state of async rounds, whether the in-process
// RoundEngine/AsyncAggregator (src/fl) or the AsyncRoundServer (src/net)
// runs them — the global model, the round/version counter, the silo
// membership table with per-silo user counts, the membership-epoch log
// feeding reweighting + DP accounting, and the aggregation counters.
// Protocol 1's lockstep server keeps a fixed cohort and holds none.
//
// SessionState is a plain value type. The async round server's aggregator
// BINDS to one (AsyncAggregator::BindSession) and mirrors its progress
// into it; a local experiment writes one per checkpoint. Checkpoint =
// Serialize(state) and Restore = Deserialize + resume at its round:
// a resumed run continues bitwise-identically to the uninterrupted run on
// the same seed, because every trainer derives its randomness from
// Rng::Fork(round, silo, ...) counters that the state carries.
//
// Serialized layout (versioned, digest-checked; WireWriter canonical
// encoding):
//
//   payload:
//     "ULSS" magic (4 bytes)         format version (u16, currently 1)
//     seed (u64)  dim (u32)  round (u64)  membership_epoch (u64)
//     model (f64 vec)
//     member count (u32) + members   epoch count (u32) + epoch records
//     stats (applied/rejected/dropped/steps u64, max_staleness u32)
//   trailer:
//     FNV-1a digest of the payload bytes (u64)
//
// The digest is checked BEFORE any field is parsed, so a corrupted or
// truncated checkpoint is rejected with one clear error instead of a
// field-level parse failure deep inside. WriteFile is atomic
// (tmp + rename): a crash mid-checkpoint leaves the previous checkpoint
// intact.

#ifndef ULDP_FL_SESSION_H_
#define ULDP_FL_SESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "nn/tensor.h"

namespace uldp {

/// Lifecycle of one silo inside a session.
///
///   kJoined --admit--> kActive --leave--> kLeft
///                         |
///                         +----evict----> kEvicted
///
/// kJoined: handshake accepted, waiting for the next flush boundary to be
/// admitted. kActive: participating; its updates are aggregated and its
/// users count toward the weighting population. kLeft/kEvicted: departed
/// (voluntarily / declared dead); buffered updates dropped, weight 0.
/// Serialized as one byte — values are wire-stable, append only.
enum class SiloStatus : uint8_t {
  kJoined = 0,
  kActive = 1,
  kLeft = 2,
  kEvicted = 3,
};

const char* SiloStatusName(SiloStatus status);

/// One row of the membership table.
struct SiloMember {
  uint32_t silo_id = 0;
  SiloStatus status = SiloStatus::kJoined;
  uint64_t join_round = 0;    // server version at admission
  uint64_t depart_round = 0;  // server version at leave/evict (else 0)
  uint64_t last_version = 0;  // most recent model version released to it
  /// Users this silo contributes to the weighting population. The
  /// fixed-membership paths never read it (they weight by 1/num_silos);
  /// elastic reweighting divides each epoch's budget over the user total
  /// of the silos actually present.
  uint32_t user_count = 1;
  /// Per-silo aggregation weight for the current membership epoch
  /// (recomputed by SealEpoch; 0 for departed silos).
  double weight = 0.0;

  bool operator==(const SiloMember& o) const;
};

/// One entry of the membership-epoch log: the population between two
/// membership changes. The DP accountant consumes this log — each epoch's
/// rounds are accounted against the users actually participating.
struct MembershipEpochRecord {
  uint64_t epoch = 0;
  uint64_t start_round = 0;
  uint32_t active_silos = 0;
  uint64_t user_total = 0;

  bool operator==(const MembershipEpochRecord& o) const;
};

/// Aggregation counters mirrored from AsyncAggregator / the round server
/// so a restored run reports cumulative totals, not post-resume ones.
struct SessionStats {
  int64_t applied = 0;
  int64_t rejected = 0;
  int64_t dropped = 0;  // accepted offers discarded by eviction
  int64_t steps = 0;
  int32_t max_staleness_seen = 0;

  bool operator==(const SessionStats& o) const;
};

/// The serializable session: everything a server needs to continue a run
/// after a process restart.
struct SessionState {
  uint64_t seed = 0;
  uint32_t dim = 0;
  /// Server model version == next round/step index to execute.
  uint64_t round = 0;
  uint64_t membership_epoch = 0;
  Vec model;
  std::vector<SiloMember> members;
  std::vector<MembershipEpochRecord> epochs;
  SessionStats stats;

  /// Membership-table row for `silo_id`, or nullptr.
  const SiloMember* Find(uint32_t silo_id) const;
  SiloMember* Find(uint32_t silo_id);
  /// Returns the row for `silo_id`, inserting a default one if absent.
  SiloMember& Upsert(uint32_t silo_id);

  int ActiveCount() const;
  uint64_t ActiveUserTotal() const;

  /// Recomputes per-silo weights for the current population (1/active for
  /// active silos, 0 otherwise), advances the epoch counter, and appends
  /// an epoch record starting at `start_round`. Call on every membership
  /// change that takes aggregation effect.
  const MembershipEpochRecord& SealEpoch(uint64_t start_round);

  /// Canonical digest-checked bytes (layout in the header comment).
  std::vector<uint8_t> Serialize() const;
  /// Strict inverse: rejects corrupted/truncated input (digest mismatch),
  /// unknown format versions, invalid enum values, a model whose size
  /// disagrees with `dim`, and trailing bytes.
  static Result<SessionState> Deserialize(const std::vector<uint8_t>& bytes);

  /// Atomic checkpoint to `path` (write `path`.tmp, rename over `path`).
  Status WriteFile(const std::string& path) const;
  /// NotFound when no checkpoint exists at `path`.
  static Result<SessionState> ReadFile(const std::string& path);

  bool operator==(const SessionState& o) const;
};

}  // namespace uldp

#endif  // ULDP_FL_SESSION_H_
