#include "fl/session.h"

#include <cstring>

#include "common/file_io.h"
#include "net/messages.h"  // WireDigest
#include "net/wire.h"

namespace uldp {
namespace {

/// Session checkpoint format version; bump on any layout change.
constexpr uint16_t kSessionFormatVersion = 1;
constexpr uint8_t kMagic[4] = {'U', 'L', 'S', 'S'};
/// Encoded sizes of one SiloMember and one MembershipEpochRecord.
constexpr size_t kMemberBytes = 4 + 1 + 8 + 8 + 8 + 4 + 8;
constexpr size_t kEpochBytes = 8 + 8 + 4 + 8;

}  // namespace

const char* SiloStatusName(SiloStatus status) {
  switch (status) {
    case SiloStatus::kJoined:
      return "joined";
    case SiloStatus::kActive:
      return "active";
    case SiloStatus::kLeft:
      return "left";
    case SiloStatus::kEvicted:
      return "evicted";
  }
  return "unknown";
}

bool SiloMember::operator==(const SiloMember& o) const {
  return silo_id == o.silo_id && status == o.status &&
         join_round == o.join_round && depart_round == o.depart_round &&
         last_version == o.last_version && user_count == o.user_count &&
         weight == o.weight;
}

bool MembershipEpochRecord::operator==(const MembershipEpochRecord& o) const {
  return epoch == o.epoch && start_round == o.start_round &&
         active_silos == o.active_silos && user_total == o.user_total;
}

bool SessionStats::operator==(const SessionStats& o) const {
  return applied == o.applied && rejected == o.rejected &&
         dropped == o.dropped && steps == o.steps &&
         max_staleness_seen == o.max_staleness_seen;
}

bool SessionState::operator==(const SessionState& o) const {
  return seed == o.seed && dim == o.dim && round == o.round &&
         membership_epoch == o.membership_epoch && model == o.model &&
         members == o.members && epochs == o.epochs && stats == o.stats;
}

const SiloMember* SessionState::Find(uint32_t silo_id) const {
  for (const auto& m : members) {
    if (m.silo_id == silo_id) return &m;
  }
  return nullptr;
}

SiloMember* SessionState::Find(uint32_t silo_id) {
  for (auto& m : members) {
    if (m.silo_id == silo_id) return &m;
  }
  return nullptr;
}

SiloMember& SessionState::Upsert(uint32_t silo_id) {
  if (SiloMember* m = Find(silo_id)) return *m;
  SiloMember fresh;
  fresh.silo_id = silo_id;
  members.push_back(fresh);
  return members.back();
}

int SessionState::ActiveCount() const {
  int n = 0;
  for (const auto& m : members) {
    if (m.status == SiloStatus::kActive) ++n;
  }
  return n;
}

uint64_t SessionState::ActiveUserTotal() const {
  uint64_t n = 0;
  for (const auto& m : members) {
    if (m.status == SiloStatus::kActive) n += m.user_count;
  }
  return n;
}

const MembershipEpochRecord& SessionState::SealEpoch(uint64_t start_round) {
  int active = ActiveCount();
  for (auto& m : members) {
    m.weight =
        (m.status == SiloStatus::kActive && active > 0) ? 1.0 / active : 0.0;
  }
  ++membership_epoch;
  MembershipEpochRecord record;
  record.epoch = membership_epoch;
  record.start_round = start_round;
  record.active_silos = static_cast<uint32_t>(active);
  record.user_total = ActiveUserTotal();
  epochs.push_back(record);
  return epochs.back();
}

std::vector<uint8_t> SessionState::Serialize() const {
  net::WireWriter w;
  for (uint8_t c : kMagic) w.U8(c);
  w.U16(kSessionFormatVersion);
  w.U64(seed);
  w.U32(dim);
  w.U64(round);
  w.U64(membership_epoch);
  w.F64Vec(model);
  w.U32(static_cast<uint32_t>(members.size()));
  for (const auto& m : members) {
    w.U32(m.silo_id);
    w.U8(static_cast<uint8_t>(m.status));
    w.U64(m.join_round);
    w.U64(m.depart_round);
    w.U64(m.last_version);
    w.U32(m.user_count);
    w.F64(m.weight);
  }
  w.U32(static_cast<uint32_t>(epochs.size()));
  for (const auto& e : epochs) {
    w.U64(e.epoch);
    w.U64(e.start_round);
    w.U32(e.active_silos);
    w.U64(e.user_total);
  }
  w.U64(static_cast<uint64_t>(stats.applied));
  w.U64(static_cast<uint64_t>(stats.rejected));
  w.U64(static_cast<uint64_t>(stats.dropped));
  w.U64(static_cast<uint64_t>(stats.steps));
  w.U32(static_cast<uint32_t>(stats.max_staleness_seen));
  uint64_t digest = net::WireDigest(w.buffer());
  w.U64(digest);
  return w.Take();
}

Result<SessionState> SessionState::Deserialize(
    const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 8) {
    return Status::InvalidArgument(
        "session checkpoint too short to hold its digest");
  }
  size_t payload_size = bytes.size() - 8;
  uint64_t stored = 0;
  {
    net::WireReader tail(bytes.data() + payload_size, 8);
    ULDP_RETURN_IF_ERROR(tail.U64(&stored));
  }
  uint64_t computed = net::WireDigest(bytes.data(), payload_size);
  if (stored != computed) {
    return Status::InvalidArgument(
        "session checkpoint digest mismatch (corrupted or truncated)");
  }

  net::WireReader r(bytes.data(), payload_size);
  uint8_t magic[4];
  for (uint8_t& c : magic) ULDP_RETURN_IF_ERROR(r.U8(&c));
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("not a session checkpoint (bad magic)");
  }
  uint16_t version = 0;
  ULDP_RETURN_IF_ERROR(r.U16(&version));
  if (version != kSessionFormatVersion) {
    return Status::InvalidArgument(
        "unsupported session format version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(kSessionFormatVersion) + ")");
  }

  SessionState state;
  ULDP_RETURN_IF_ERROR(r.U64(&state.seed));
  ULDP_RETURN_IF_ERROR(r.U32(&state.dim));
  ULDP_RETURN_IF_ERROR(r.U64(&state.round));
  ULDP_RETURN_IF_ERROR(r.U64(&state.membership_epoch));
  ULDP_RETURN_IF_ERROR(r.F64Vec(&state.model));
  if (state.model.size() != state.dim) {
    return Status::InvalidArgument(
        "session checkpoint model size disagrees with its dim field");
  }
  uint32_t member_count = 0;
  ULDP_RETURN_IF_ERROR(r.U32(&member_count));
  // The digest is unkeyed, so a crafted file passes it: reject counts the
  // remaining payload cannot hold before reserving anything.
  if (member_count > r.remaining() / kMemberBytes) {
    return Status::InvalidArgument(
        "session checkpoint member count exceeds what the file could hold");
  }
  state.members.reserve(member_count);
  for (uint32_t i = 0; i < member_count; ++i) {
    SiloMember m;
    uint8_t status = 0;
    ULDP_RETURN_IF_ERROR(r.U32(&m.silo_id));
    ULDP_RETURN_IF_ERROR(r.U8(&status));
    if (status > static_cast<uint8_t>(SiloStatus::kEvicted)) {
      return Status::InvalidArgument("session checkpoint has invalid silo "
                                     "status " + std::to_string(status));
    }
    m.status = static_cast<SiloStatus>(status);
    ULDP_RETURN_IF_ERROR(r.U64(&m.join_round));
    ULDP_RETURN_IF_ERROR(r.U64(&m.depart_round));
    ULDP_RETURN_IF_ERROR(r.U64(&m.last_version));
    ULDP_RETURN_IF_ERROR(r.U32(&m.user_count));
    ULDP_RETURN_IF_ERROR(r.F64(&m.weight));
    state.members.push_back(m);
  }
  uint32_t epoch_count = 0;
  ULDP_RETURN_IF_ERROR(r.U32(&epoch_count));
  if (epoch_count > r.remaining() / kEpochBytes) {
    return Status::InvalidArgument(
        "session checkpoint epoch count exceeds what the file could hold");
  }
  state.epochs.reserve(epoch_count);
  for (uint32_t i = 0; i < epoch_count; ++i) {
    MembershipEpochRecord e;
    ULDP_RETURN_IF_ERROR(r.U64(&e.epoch));
    ULDP_RETURN_IF_ERROR(r.U64(&e.start_round));
    ULDP_RETURN_IF_ERROR(r.U32(&e.active_silos));
    ULDP_RETURN_IF_ERROR(r.U64(&e.user_total));
    state.epochs.push_back(e);
  }
  uint64_t applied = 0, rejected = 0, dropped = 0, steps = 0;
  uint32_t max_staleness = 0;
  ULDP_RETURN_IF_ERROR(r.U64(&applied));
  ULDP_RETURN_IF_ERROR(r.U64(&rejected));
  ULDP_RETURN_IF_ERROR(r.U64(&dropped));
  ULDP_RETURN_IF_ERROR(r.U64(&steps));
  ULDP_RETURN_IF_ERROR(r.U32(&max_staleness));
  state.stats.applied = static_cast<int64_t>(applied);
  state.stats.rejected = static_cast<int64_t>(rejected);
  state.stats.dropped = static_cast<int64_t>(dropped);
  state.stats.steps = static_cast<int64_t>(steps);
  state.stats.max_staleness_seen = static_cast<int32_t>(max_staleness);
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "session checkpoint has trailing bytes before its digest");
  }
  return state;
}

Status SessionState::WriteFile(const std::string& path) const {
  const std::vector<uint8_t> bytes = Serialize();
  return WriteFileAtomic(path, bytes.data(), bytes.size(),
                         "session checkpoint");
}

Result<SessionState> SessionState::ReadFile(const std::string& path) {
  auto bytes = ReadFileBytes(path, "session checkpoint");
  if (!bytes.ok()) return bytes.status();
  return Deserialize(bytes.value());
}

}  // namespace uldp
