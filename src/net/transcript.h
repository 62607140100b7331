// Tamper-evident run transcripts: an append-only, hash-chained log of
// every frame a party sent or received, written in the same
// digest-guarded atomic-rename discipline as the session checkpoints
// (fl/session.h), plus a deterministic replay verifier.
//
// Three layers of evidence, each catching what the previous cannot:
//
//   1. Trailing FNV-64 digest (like the ULSS checkpoint codec): rejects
//      accidental corruption and truncation before any parsing happens.
//   2. SHA-256 hash chain: entry i's hash covers the previous entry's
//      hash, the sequence number, the peer id, the direction, and the
//      exact wire bytes — so any edit, reorder, drop, or splice of
//      recorded frames breaks the chain even if the attacker fixes up
//      the trailing digest. An optional HMAC-SHA256 over the chain head
//      (crypto/hmac.h) defeats the remaining move: re-hashing the whole
//      doctored chain, which requires the recording key.
//   3. Deterministic replay: the recorded inbound frames are fed back
//      through the real ProtocolServer / silo driver and every frame the
//      party produces is compared byte-for-byte against the recorded
//      outbound traffic. This catches the one forgery hashing cannot: a
//      transcript that was honestly re-recorded around a substituted,
//      perfectly well-formed frame. The protocol's determinism contract
//      (core/protocol_party.h: every random value is a Fork substream of
//      the public seed) is what makes byte-exact replay possible at all.
//
// Per-connection frame order in each direction is deterministic (the
// protocol is a lockstep request/response per peer); the interleaving
// across connections and across directions is not, so the replayer
// consumes each (peer, direction) subsequence independently and never
// compares cross-connection order.

#ifndef ULDP_NET_TRANSCRIPT_H_
#define ULDP_NET_TRANSCRIPT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/protocol_party.h"
#include "crypto/sha256.h"
#include "net/transport.h"

namespace uldp {
namespace net {

/// Which side of which protocol recorded the transcript. The protocol
/// roles replay fully; the async roles verify chain + HMAC only (async
/// round arrival order is load-dependent, so no byte-exact replay).
enum class TranscriptRole : uint8_t {
  kProtocolServer = 0,
  kProtocolSilo = 1,
  kAsyncServer = 2,
  kAsyncSilo = 3,
};

const char* TranscriptRoleName(TranscriptRole role);

/// Everything a verifier needs to re-run the recorded party: the cohort
/// shape, the round count, and the protocol config. The config is stored
/// in the one wire layout the join digest covers (AppendProtocolConfig,
/// net/messages.h), so the stored config_digest cross-checks the
/// reconstruction against default drift; num_threads, a party-local knob
/// with bitwise-identical outputs, is not stored.
struct TranscriptMeta {
  TranscriptRole role = TranscriptRole::kProtocolServer;
  uint32_t silo_id = 0;  // recording party's silo id; 0 for servers
  uint32_t num_silos = 0;
  uint32_t num_users = 0;
  uint32_t dim = 0;
  uint64_t rounds = 0;  // rounds the server drove; 0 for silo roles
  /// ProtocolWireDigest(config, num_silos, num_users) at record time.
  uint64_t config_digest = 0;
  /// The recorded party's config; config.seed is also the demo-input
  /// seed. Async roles record only the seed.
  ProtocolConfig config;

  static TranscriptMeta FromProtocolConfig(const ProtocolConfig& config,
                                           TranscriptRole role,
                                           uint32_t silo_id, int num_silos,
                                           int num_users, int dim,
                                           uint64_t rounds);

  /// Canonical serialization — both the file layout and the hash-chain
  /// genesis input, so the chain is bound to the meta it was recorded
  /// under (editing the meta breaks every entry hash).
  std::vector<uint8_t> Serialized() const;
};

/// One recorded frame: the exact wire bytes (header included) plus the
/// chain value after absorbing it.
struct TranscriptEntry {
  uint64_t seq = 0;
  uint32_t peer = 0;
  uint8_t sent = 0;  // 1 = the recording party sent it
  std::vector<uint8_t> frame;
  Sha256Digest hash{};
};

/// Chain genesis: SHA-256 of the serialized meta.
Sha256Digest TranscriptGenesis(const TranscriptMeta& meta);

/// One chain step: SHA-256 over prev || seq (LE u64) || peer (LE u32) ||
/// sent (u8) || frame bytes.
Sha256Digest TranscriptEntryHash(const Sha256Digest& prev, uint64_t seq,
                                 uint32_t peer, bool sent,
                                 const uint8_t* frame, size_t size);

/// A transcript as stored on disk. Serialize writes the fields verbatim
/// (stored hashes included, not recomputed) so a verifier sees exactly
/// what the file claims; VerifyChain is what recomputes.
struct TranscriptFile {
  TranscriptMeta meta;
  std::vector<TranscriptEntry> entries;
  Sha256Digest head{};
  uint8_t has_hmac = 0;
  Sha256Digest hmac{};

  /// ULTR v1 layout: magic, version, has_hmac, meta, entry count,
  /// entries, chain head, optional HMAC, trailing FNV-64 digest over all
  /// of the above (checked before parsing, like the session codec).
  std::vector<uint8_t> Serialize() const;
  static Result<TranscriptFile> Deserialize(const std::vector<uint8_t>& bytes);

  /// Atomic tmp+rename write / chunked read, NotFound on a missing path
  /// (same discipline as SessionState).
  Status WriteFile(const std::string& path) const;
  static Result<TranscriptFile> ReadFile(const std::string& path);

  /// Recomputes the whole chain from genesis: every stored entry hash,
  /// sequence number, and the head must match.
  Status VerifyChain() const;
  /// Checks the keyed finalizer HMAC(key, head). Fails when the file
  /// carries no HMAC; comparison is constant-time.
  Status VerifyHmac(const std::vector<uint8_t>& key) const;
};

/// The live recorder: a thread-safe TranscriptSink that appends entries
/// and advances the chain as frames cross the transports it is bound to
/// (Transport::BindTranscript). One log per party per run; bind it to
/// every connection with that connection's peer id.
class TranscriptLog : public TranscriptSink {
 public:
  /// A non-empty `hmac_key` makes Snapshot emit the keyed finalizer.
  explicit TranscriptLog(TranscriptMeta meta,
                         std::vector<uint8_t> hmac_key = {});

  void RecordFrame(uint32_t peer_id, bool sent, const uint8_t* data,
                   size_t size) override;

  /// The transcript as of now (entries recorded so far, head, HMAC).
  TranscriptFile Snapshot() const;
  /// Snapshot + atomic write — safe to call on failure paths mid-run;
  /// the partial transcript still chain-verifies.
  Status WriteFile(const std::string& path) const;
  size_t entry_count() const;

 private:
  mutable std::mutex mu_;
  TranscriptMeta meta_;
  std::vector<uint8_t> hmac_key_;
  std::vector<TranscriptEntry> entries_;
  Sha256Digest head_;
};

/// A Transport whose traffic is a recorded transcript: Recv feeds the
/// recorded inbound frames in order, Send byte-compares the party's
/// output against the recorded outbound frames. The first mismatch is
/// latched as `divergence` and fails the send, so the driver aborts with
/// the real reason. State is shared out so the verifier can inspect
/// completeness even after the driver destroys the transport (a rejected
/// replayed join consumes its transport inside AddConnection).
///
/// The recorded inbound queue never grows, so running it dry is terminal
/// like a close: every read returns a frame or the terminal status. The
/// readiness eventfd is therefore signaled once, at construction, and
/// stays readable; the mux stops watching the transport at its terminal
/// status.
class ReplayTransport final : public Transport {
 public:
  struct State {
    std::mutex mu;
    std::deque<std::vector<uint8_t>> inbound;   // frames the party received
    std::deque<std::vector<uint8_t>> outbound;  // frames the party sent
    Status divergence = Status::Ok();
    uint64_t fed = 0;      // inbound frames consumed
    uint64_t matched = 0;  // outbound frames reproduced byte-for-byte
    bool closed = false;
  };

  explicit ReplayTransport(std::shared_ptr<State> state);

  Status Send(const Frame& frame) override;
  Result<Frame> Recv() override;
  void Close() override;
  int NativeHandle() const override { return ready_.fd(); }
  Result<bool> TryReadFrame(Frame* out) override;

 private:
  std::shared_ptr<State> state_;
  EventFd ready_;
};

struct ReplayReport {
  uint64_t entries = 0;
  uint64_t frames_matched = 0;  // outbound reproduced byte-for-byte
  uint64_t frames_fed = 0;      // recorded inbound consumed
  bool replay_skipped = false;  // async role: chain/HMAC evidence only
  bool hmac_verified = false;
  bool hmac_skipped = false;    // HMAC present but no key supplied
};

/// Replays a chain-valid transcript through the real party driver
/// (ProtocolServer for the server role, the demo silo client for the
/// silo role) and requires every recorded frame to be reproduced and
/// consumed. Async-role transcripts set report->replay_skipped instead.
/// Only a complete, successful recorded run replays clean — a transcript
/// of a run that itself failed midway is reported as such.
Status ReplayTranscript(const TranscriptFile& file, ReplayReport* report);

/// Full verification: trailing digest (done at read time) → hash chain →
/// HMAC policy → deterministic replay. `hmac_key == nullptr` means no
/// key was supplied: an HMAC-bearing file then skips the keyed check
/// (flagged in the report); supplying a key to a file without an HMAC is
/// an error, since the chain head was never bound to any key.
Status VerifyTranscript(const TranscriptFile& file,
                        const std::vector<uint8_t>* hmac_key,
                        ReplayReport* report);

/// Parses an even-length hex string (the CLI's --hmac-key) into bytes.
Result<std::vector<uint8_t>> ParseHexKey(const std::string& hex);

}  // namespace net
}  // namespace uldp

#endif  // ULDP_NET_TRANSCRIPT_H_
