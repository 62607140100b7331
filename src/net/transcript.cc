#include "net/transcript.h"

#include <cstring>
#include <map>

#include "common/file_io.h"
#include "crypto/hmac.h"
#include "net/demo.h"
#include "net/messages.h"
#include "net/protocol_node.h"
#include "net/wire.h"

namespace uldp {
namespace net {

namespace {

/// Transcript format version; bump on any layout change.
constexpr uint16_t kTranscriptFormatVersion = 4;
constexpr uint8_t kMagic[4] = {'U', 'L', 'T', 'R'};

void AppendDigest(WireWriter& w, const Sha256Digest& d) {
  for (uint8_t b : d) w.U8(b);
}

Status ParseDigest(WireReader& r, Sha256Digest* d) {
  for (uint8_t& b : *d) ULDP_RETURN_IF_ERROR(r.U8(&b));
  return Status::Ok();
}

void AppendMeta(WireWriter& w, const TranscriptMeta& m) {
  w.U8(static_cast<uint8_t>(m.role));
  w.U32(m.silo_id);
  w.U32(m.num_silos);
  w.U32(m.num_users);
  w.U32(m.dim);
  w.U64(m.rounds);
  w.U64(m.config_digest);
  AppendProtocolConfig(w, m.config);
}

Status ParseMeta(WireReader& r, TranscriptMeta* m) {
  uint8_t role = 0;
  ULDP_RETURN_IF_ERROR(r.U8(&role));
  if (role > static_cast<uint8_t>(TranscriptRole::kAsyncSilo)) {
    return Status::InvalidArgument("transcript has invalid role " +
                                   std::to_string(role));
  }
  m->role = static_cast<TranscriptRole>(role);
  ULDP_RETURN_IF_ERROR(r.U32(&m->silo_id));
  ULDP_RETURN_IF_ERROR(r.U32(&m->num_silos));
  ULDP_RETURN_IF_ERROR(r.U32(&m->num_users));
  ULDP_RETURN_IF_ERROR(r.U32(&m->dim));
  ULDP_RETURN_IF_ERROR(r.U64(&m->rounds));
  ULDP_RETURN_IF_ERROR(r.U64(&m->config_digest));
  auto config = ParseProtocolConfig(r);
  if (!config.ok()) return config.status();
  m->config = config.value();
  return Status::Ok();
}

/// The earliest latched divergence in transcript order across a replay's
/// peer transports, if any — preferred over the driver's surface error,
/// which is usually a downstream symptom ("recorded inbound exhausted") of
/// the divergence. Later divergences are symptoms too: once one peer's
/// frame diverges, the replayed server fails the run, and the Error
/// frames it sends the other peers diverge from their recorded traffic.
Status FirstDivergence(
    const std::map<uint32_t, std::shared_ptr<ReplayTransport::State>>&
        peers) {
  Status first = Status::Ok();
  uint64_t first_seq = 0;
  for (const auto& entry : peers) {
    std::lock_guard<std::mutex> lock(entry.second->mu);
    const ReplayTransport::State& state = *entry.second;
    if (!state.divergence.ok() &&
        (first.ok() || state.divergence_seq < first_seq)) {
      first = state.divergence;
      first_seq = state.divergence_seq;
    }
  }
  return first;
}

Status ReplayFailure(
    const std::map<uint32_t, std::shared_ptr<ReplayTransport::State>>& peers,
    const std::string& where, const Status& driver) {
  Status diverged = FirstDivergence(peers);
  if (!diverged.ok()) return diverged;
  return Status::InvalidArgument("replay " + where + ": " +
                                 driver.ToString());
}

/// After a clean driver run, every recorded frame must have been
/// consumed: leftover outbound means the recorded party sent frames the
/// replay never reproduced; leftover inbound means the recorded party
/// consumed frames the replay never asked for.
Status CheckDrained(
    const std::map<uint32_t, std::shared_ptr<ReplayTransport::State>>&
        peers) {
  ULDP_RETURN_IF_ERROR(FirstDivergence(peers));
  for (const auto& entry : peers) {
    std::lock_guard<std::mutex> lock(entry.second->mu);
    if (!entry.second->outbound.empty()) {
      return Status::InvalidArgument(
          "replay: " + std::to_string(entry.second->outbound.size()) +
          " recorded outbound frame(s) for peer " +
          std::to_string(entry.first) + " were never reproduced");
    }
    if (!entry.second->inbound.empty()) {
      return Status::InvalidArgument(
          "replay: " + std::to_string(entry.second->inbound.size()) +
          " recorded inbound frame(s) for peer " +
          std::to_string(entry.first) + " were never consumed");
    }
  }
  return Status::Ok();
}

void FillReport(
    const std::map<uint32_t, std::shared_ptr<ReplayTransport::State>>& peers,
    ReplayReport* report) {
  if (report == nullptr) return;
  for (const auto& entry : peers) {
    std::lock_guard<std::mutex> lock(entry.second->mu);
    report->frames_matched += entry.second->matched;
    report->frames_fed += entry.second->fed;
  }
}

/// Splits a transcript's entries into per-peer inbound/outbound queues,
/// preserving the recorded order within each (peer, direction).
std::map<uint32_t, std::shared_ptr<ReplayTransport::State>> GroupByPeer(
    const TranscriptFile& file) {
  std::map<uint32_t, std::shared_ptr<ReplayTransport::State>> peers;
  for (const TranscriptEntry& e : file.entries) {
    auto& state = peers[e.peer];
    if (state == nullptr) {
      state = std::make_shared<ReplayTransport::State>();
      state->peer = e.peer;
    }
    if (e.sent != 0) {
      state->outbound.push_back({e.seq, e.frame});
    } else {
      state->inbound.push_back(e.frame);
    }
  }
  return peers;
}

Status CheckConfigDigest(const TranscriptFile& file) {
  const TranscriptMeta& m = file.meta;
  uint64_t digest = ProtocolWireDigest(
      m.config, static_cast<int>(m.num_silos), static_cast<int>(m.num_users));
  if (digest != m.config_digest) {
    return Status::InvalidArgument(
        "transcript config digest mismatch: the reconstructed protocol "
        "config disagrees with the one recorded (this build's defaults "
        "drifted from the recorder's, or the meta was edited and "
        "re-chained without the HMAC key)");
  }
  return Status::Ok();
}

Status ReplayProtocolServer(const TranscriptFile& file,
                            ReplayReport* report) {
  ULDP_RETURN_IF_ERROR(CheckConfigDigest(file));
  const TranscriptMeta& m = file.meta;
  auto peers = GroupByPeer(file);
  ProtocolServer server(m.config, static_cast<int>(m.num_silos),
                        static_cast<int>(m.num_users));
  // Feed connections in recorded accept order (peer ids are the server's
  // accept counter). A recorded rejected join replays as a rejected join
  // — its Error frame must still match the recorded outbound.
  uint32_t accepted = 0;
  for (const auto& entry : peers) {
    Status added = server.AddConnection(
        std::make_unique<ReplayTransport>(entry.second));
    if (added.ok()) {
      ++accepted;
      continue;
    }
    std::lock_guard<std::mutex> lock(entry.second->mu);
    if (!entry.second->divergence.ok()) return entry.second->divergence;
    if (!entry.second->outbound.empty() || !entry.second->inbound.empty()) {
      return Status::InvalidArgument(
          "replay: peer " + std::to_string(entry.first) +
          " was rejected at join (" + added.ToString() +
          ") but has unconsumed recorded traffic");
    }
  }
  if (accepted != m.num_silos) {
    return Status::InvalidArgument(
        "replay: transcript shows " + std::to_string(accepted) + " of " +
        std::to_string(m.num_silos) +
        " silos joining — an incomplete run cannot be replay-verified");
  }
  Status setup = server.RunSetup();
  if (!setup.ok()) return ReplayFailure(peers, "setup", setup);
  // The CLI server drives every round with the all-users-sampled mask
  // (ignored entirely in OT mode); that schedule is part of what the
  // transcript attests to.
  std::vector<bool> mask(m.num_users, true);
  for (uint64_t r = 0; r < m.rounds; ++r) {
    auto out = server.RunRound(r, mask);
    if (!out.ok()) {
      return ReplayFailure(peers, "round " + std::to_string(r),
                           out.status());
    }
  }
  Status shutdown = server.Shutdown();
  if (!shutdown.ok()) return ReplayFailure(peers, "shutdown", shutdown);
  ULDP_RETURN_IF_ERROR(CheckDrained(peers));
  FillReport(peers, report);
  return Status::Ok();
}

Status ReplayProtocolSilo(const TranscriptFile& file, ReplayReport* report) {
  ULDP_RETURN_IF_ERROR(CheckConfigDigest(file));
  const TranscriptMeta& m = file.meta;
  auto peers = GroupByPeer(file);
  if (peers.size() != 1) {
    return Status::InvalidArgument(
        "replay: a silo transcript must record exactly one connection "
        "(the server), found " + std::to_string(peers.size()));
  }
  auto state = peers.begin()->second;
  ReplayTransport transport(state);
  Status ran = RunDemoSilo(m.config, static_cast<int>(m.silo_id),
                           static_cast<int>(m.num_silos),
                           static_cast<int>(m.num_users),
                           static_cast<int>(m.dim), m.config.seed, transport);
  if (!ran.ok()) return ReplayFailure(peers, "silo run", ran);
  ULDP_RETURN_IF_ERROR(CheckDrained(peers));
  FillReport(peers, report);
  return Status::Ok();
}

}  // namespace

const char* TranscriptRoleName(TranscriptRole role) {
  switch (role) {
    case TranscriptRole::kProtocolServer:
      return "protocol-server";
    case TranscriptRole::kProtocolSilo:
      return "protocol-silo";
    case TranscriptRole::kAsyncServer:
      return "async-server";
    case TranscriptRole::kAsyncSilo:
      return "async-silo";
  }
  return "unknown";
}

TranscriptMeta TranscriptMeta::FromProtocolConfig(
    const ProtocolConfig& config, TranscriptRole role, uint32_t silo_id,
    int num_silos, int num_users, int dim, uint64_t rounds) {
  TranscriptMeta m;
  m.role = role;
  m.silo_id = silo_id;
  m.num_silos = static_cast<uint32_t>(num_silos);
  m.num_users = static_cast<uint32_t>(num_users);
  m.dim = static_cast<uint32_t>(dim);
  m.rounds = rounds;
  m.config_digest = ProtocolWireDigest(config, num_silos, num_users);
  m.config = config;
  return m;
}

std::vector<uint8_t> TranscriptMeta::Serialized() const {
  WireWriter w;
  AppendMeta(w, *this);
  return w.Take();
}

Sha256Digest TranscriptGenesis(const TranscriptMeta& meta) {
  std::vector<uint8_t> bytes = meta.Serialized();
  return Sha256(bytes.data(), bytes.size());
}

Sha256Digest TranscriptEntryHash(const Sha256Digest& prev, uint64_t seq,
                                 uint32_t peer, bool sent,
                                 const uint8_t* frame, size_t size) {
  std::vector<uint8_t> buf;
  buf.reserve(prev.size() + 8 + 4 + 1 + size);
  buf.insert(buf.end(), prev.begin(), prev.end());
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<uint8_t>(seq >> (8 * i)));
  }
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<uint8_t>(peer >> (8 * i)));
  }
  buf.push_back(sent ? 1 : 0);
  if (size > 0) buf.insert(buf.end(), frame, frame + size);
  return Sha256(buf.data(), buf.size());
}

std::vector<uint8_t> TranscriptFile::Serialize() const {
  WireWriter w;
  for (uint8_t c : kMagic) w.U8(c);
  w.U16(kTranscriptFormatVersion);
  w.U8(has_hmac);
  AppendMeta(w, meta);
  w.U64(static_cast<uint64_t>(entries.size()));
  for (const TranscriptEntry& e : entries) {
    w.U64(e.seq);
    w.U32(e.peer);
    w.U8(e.sent);
    w.Bytes(e.frame);
    AppendDigest(w, e.hash);
  }
  AppendDigest(w, head);
  if (has_hmac != 0) AppendDigest(w, hmac);
  uint64_t digest = WireDigest(w.buffer());
  w.U64(digest);
  return w.Take();
}

Result<TranscriptFile> TranscriptFile::Deserialize(
    const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 8) {
    return Status::InvalidArgument(
        "transcript too short to hold its digest");
  }
  size_t payload_size = bytes.size() - 8;
  uint64_t stored = 0;
  {
    WireReader tail(bytes.data() + payload_size, 8);
    ULDP_RETURN_IF_ERROR(tail.U64(&stored));
  }
  uint64_t computed = WireDigest(bytes.data(), payload_size);
  if (stored != computed) {
    return Status::InvalidArgument(
        "transcript digest mismatch (corrupted or truncated)");
  }

  WireReader r(bytes.data(), payload_size);
  uint8_t magic[4];
  for (uint8_t& c : magic) ULDP_RETURN_IF_ERROR(r.U8(&c));
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("not a transcript (bad magic)");
  }
  uint16_t version = 0;
  ULDP_RETURN_IF_ERROR(r.U16(&version));
  if (version != kTranscriptFormatVersion) {
    return Status::InvalidArgument(
        "unsupported transcript format version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(kTranscriptFormatVersion) + ")");
  }
  TranscriptFile file;
  ULDP_RETURN_IF_ERROR(r.U8(&file.has_hmac));
  if (file.has_hmac > 1) {
    return Status::InvalidArgument("transcript has invalid has_hmac flag");
  }
  ULDP_RETURN_IF_ERROR(ParseMeta(r, &file.meta));
  uint64_t count = 0;
  ULDP_RETURN_IF_ERROR(r.U64(&count));
  // An entry is at least 17 bytes of fixed fields + a 4-byte frame length
  // + 32 hash bytes; reject counts the remaining payload cannot hold
  // before reserving anything.
  if (count > payload_size / (17 + 4 + 32)) {
    return Status::InvalidArgument(
        "transcript entry count exceeds what the file could hold");
  }
  file.entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TranscriptEntry e;
    ULDP_RETURN_IF_ERROR(r.U64(&e.seq));
    ULDP_RETURN_IF_ERROR(r.U32(&e.peer));
    ULDP_RETURN_IF_ERROR(r.U8(&e.sent));
    if (e.sent > 1) {
      return Status::InvalidArgument(
          "transcript entry " + std::to_string(i) +
          " has invalid direction flag");
    }
    ULDP_RETURN_IF_ERROR(r.Bytes(&e.frame));
    ULDP_RETURN_IF_ERROR(ParseDigest(r, &e.hash));
    file.entries.push_back(std::move(e));
  }
  ULDP_RETURN_IF_ERROR(ParseDigest(r, &file.head));
  if (file.has_hmac != 0) {
    ULDP_RETURN_IF_ERROR(ParseDigest(r, &file.hmac));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "transcript has trailing bytes before its digest");
  }
  return file;
}

Status TranscriptFile::WriteFile(const std::string& path) const {
  const std::vector<uint8_t> bytes = Serialize();
  return WriteFileAtomic(path, bytes.data(), bytes.size(), "transcript");
}

Result<TranscriptFile> TranscriptFile::ReadFile(const std::string& path) {
  auto bytes = ReadFileBytes(path, "transcript");
  if (!bytes.ok()) return bytes.status();
  return Deserialize(bytes.value());
}

Status TranscriptFile::VerifyChain() const {
  Sha256Digest prev = TranscriptGenesis(meta);
  for (size_t i = 0; i < entries.size(); ++i) {
    const TranscriptEntry& e = entries[i];
    if (e.seq != i) {
      return Status::InvalidArgument(
          "transcript chain broken: entry " + std::to_string(i) +
          " carries sequence number " + std::to_string(e.seq) +
          " (entries reordered or removed)");
    }
    Sha256Digest h = TranscriptEntryHash(prev, e.seq, e.peer, e.sent != 0,
                                         e.frame.data(), e.frame.size());
    if (!DigestEquals(h, e.hash)) {
      return Status::InvalidArgument(
          "transcript chain broken at entry " + std::to_string(i) +
          ": stored hash does not match the recomputed chain (frame "
          "altered, or a foreign entry was spliced in)");
    }
    prev = h;
  }
  if (!DigestEquals(prev, head)) {
    return Status::InvalidArgument(
        "transcript chain head does not match its entries");
  }
  return Status::Ok();
}

Status TranscriptFile::VerifyHmac(const std::vector<uint8_t>& key) const {
  if (has_hmac == 0) {
    return Status::InvalidArgument(
        "a key was supplied but the transcript carries no HMAC — the "
        "chain head was never bound to any key");
  }
  Sha256Digest expect = HmacSha256(key.data(), key.size(), head.data(),
                                   head.size());
  if (!DigestEquals(expect, hmac)) {
    return Status::InvalidArgument(
        "transcript HMAC mismatch: wrong key, or the chain was re-hashed "
        "by someone without the recording key");
  }
  return Status::Ok();
}

TranscriptLog::TranscriptLog(TranscriptMeta meta,
                             std::vector<uint8_t> hmac_key)
    : meta_(meta),
      hmac_key_(std::move(hmac_key)),
      head_(TranscriptGenesis(meta)) {}

void TranscriptLog::RecordFrame(uint32_t peer_id, bool sent,
                                const uint8_t* data, size_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  TranscriptEntry e;
  e.seq = entries_.size();
  e.peer = peer_id;
  e.sent = sent ? 1 : 0;
  e.frame.assign(data, data + size);
  e.hash = TranscriptEntryHash(head_, e.seq, peer_id, sent, data, size);
  head_ = e.hash;
  entries_.push_back(std::move(e));
}

TranscriptFile TranscriptLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  TranscriptFile file;
  file.meta = meta_;
  file.entries = entries_;
  file.head = head_;
  if (!hmac_key_.empty()) {
    file.has_hmac = 1;
    file.hmac = HmacSha256(hmac_key_.data(), hmac_key_.size(), head_.data(),
                           head_.size());
  }
  return file;
}

Status TranscriptLog::WriteFile(const std::string& path) const {
  return Snapshot().WriteFile(path);
}

size_t TranscriptLog::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

ReplayTransport::ReplayTransport(std::shared_ptr<State> state)
    : state_(std::move(state)) {
  // The recorder's own cap already admitted every recorded frame.
  set_max_frame_payload(kMaxFramePayload);
  ready_.Signal();
}

Status ReplayTransport::Send(const Frame& frame) {
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  std::lock_guard<std::mutex> lock(state_->mu);
  if (!state_->divergence.ok()) return state_->divergence;
  if (state_->closed) {
    return Status::FailedPrecondition("replay transport closed");
  }
  const std::string peer = std::to_string(state_->peer);
  if (state_->outbound.empty()) {
    state_->divergence = Status::InvalidArgument(
        "replay divergence on peer " + peer + ": the party sent a frame "
        "(type " + std::to_string(static_cast<int>(frame.type)) + ", " +
        std::to_string(bytes.size()) +
        " B) beyond the end of the recorded outbound traffic");
    state_->divergence_seq = UINT64_MAX;
    return state_->divergence;
  }
  const Sent& expect = state_->outbound.front();
  if (bytes != expect.bytes) {
    size_t at = 0;
    size_t common = std::min(bytes.size(), expect.bytes.size());
    while (at < common && bytes[at] == expect.bytes[at]) ++at;
    state_->divergence = Status::InvalidArgument(
        "replay divergence at transcript entry " + std::to_string(expect.seq) +
        " (peer " + peer + ", outbound frame " +
        std::to_string(state_->matched) + "): reproduced " +
        std::to_string(bytes.size()) + " B (type " +
        std::to_string(static_cast<int>(frame.type)) + "), recorded " +
        std::to_string(expect.bytes.size()) +
        " B; first difference at byte " + std::to_string(at));
    state_->divergence_seq = expect.seq;
    return state_->divergence;
  }
  state_->outbound.pop_front();
  ++state_->matched;
  NoteSent(bytes.size());
  NoteFrame(bytes.size());
  return Status::Ok();
}

Result<Frame> ReplayTransport::Recv() {
  std::vector<uint8_t> bytes;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (!state_->divergence.ok()) return state_->divergence;
    if (state_->inbound.empty()) {
      // The normal end-of-stream for the mux; a driver that genuinely
      // needed another frame surfaces this as its failure.
      return Status::FailedPrecondition(
          state_->closed ? "replay transport closed"
                         : "replay: recorded inbound traffic exhausted");
    }
    bytes = std::move(state_->inbound.front());
    state_->inbound.pop_front();
    ++state_->fed;
  }
  return AcceptWireFrame(bytes);
}

Result<bool> ReplayTransport::TryReadFrame(Frame* out) {
  Result<Frame> frame = Recv();
  if (!frame.ok()) return frame.status();
  *out = std::move(frame.value());
  return true;
}

void ReplayTransport::Close() {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->closed = true;
}

Status ReplayTranscript(const TranscriptFile& file, ReplayReport* report) {
  if (report != nullptr) {
    report->entries = static_cast<uint64_t>(file.entries.size());
  }
  switch (file.meta.role) {
    case TranscriptRole::kProtocolServer:
      return ReplayProtocolServer(file, report);
    case TranscriptRole::kProtocolSilo:
      return ReplayProtocolSilo(file, report);
    case TranscriptRole::kAsyncServer:
    case TranscriptRole::kAsyncSilo:
      // Async round arrival order depends on thread scheduling, so these
      // roles carry hash-chain + HMAC evidence only.
      if (report != nullptr) report->replay_skipped = true;
      return Status::Ok();
  }
  return Status::InvalidArgument("transcript has unknown role");
}

Status VerifyTranscript(const TranscriptFile& file,
                        const std::vector<uint8_t>* hmac_key,
                        ReplayReport* report) {
  ULDP_RETURN_IF_ERROR(file.VerifyChain());
  if (hmac_key != nullptr) {
    ULDP_RETURN_IF_ERROR(file.VerifyHmac(*hmac_key));
    if (report != nullptr) report->hmac_verified = true;
  } else if (file.has_hmac != 0) {
    if (report != nullptr) report->hmac_skipped = true;
  }
  return ReplayTranscript(file, report);
}

Result<std::vector<uint8_t>> ParseHexKey(const std::string& hex) {
  if (hex.empty() || hex.size() % 2 != 0) {
    return Status::InvalidArgument(
        "hex key must be a non-empty even-length hex string");
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::vector<uint8_t> key;
  key.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = nibble(hex[i]);
    int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("hex key has a non-hex character");
    }
    key.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return key;
}

}  // namespace net
}  // namespace uldp
