// Typed message codecs for every Protocol 1 payload. Each message struct
// serializes to a frame payload via WireWriter and parses back via
// WireReader; FromFrame additionally enforces the frame type and rejects
// trailing bytes, so a Serialize → Deserialize round trip is exact and a
// corrupted frame fails loudly.
//
// Round/phase headers: every per-round message carries a `phase_tag`
// packed with MakeMaskTag (core/mask_tags.h) — the same typed domain the
// PRF streams use — so a receiver can check both the phase byte and the
// round number of an incoming message against what it expects.

#ifndef ULDP_NET_MESSAGES_H_
#define ULDP_NET_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/mask_tags.h"
#include "core/protocol_party.h"
#include "net/wire.h"

namespace uldp {
namespace net {

enum class MessageType : uint16_t {
  kJoin = 1,
  kSetupParams = 2,
  kDhPublicKey = 3,
  kDhDirectory = 4,
  kSeedShare = 5,
  kBlindedHistogram = 6,
  kSetupAck = 7,
  kRoundBegin = 8,
  kOtSender = 9,
  kOtReceiver = 10,
  kOtSlots = 11,
  kWeightRelay = 12,
  kSiloCipher = 13,
  kRoundResult = 14,
  kShutdown = 15,
  kMaskedVector = 16,
  kError = 17,
  kStalenessInfo = 18,
  kRoundAck = 19,
  kStreamBegin = 20,
  kStreamChunk = 21,
  kStreamAck = 22,
  kJoinRequest = 23,
  kLeave = 24,
  kEvict = 25,
};

/// What a chunked stream carries — determines which monolithic message the
/// stream replaces and how the receiver folds chunks.
enum class StreamKind : uint8_t {
  /// Server -> silo: the round's Enc(B_inv) vector in user chunks
  /// (replaces RoundBeginMsg when streaming is on).
  kEncWeights = 0,
  /// Silo -> server: the masked cipher in coordinate chunks (replaces
  /// SiloCipherMsg).
  kSiloCipher = 1,
};

/// FNV-1a over a canonical wire serialization — the digest primitive
/// behind every Join-handshake config check.
uint64_t WireDigest(const std::vector<uint8_t>& bytes);
uint64_t WireDigest(const uint8_t* data, size_t size);

/// The one canonical layout of a ProtocolConfig's wire-relevant fields,
/// shared by the join digest and transcript metas (docs/wire.md lists it).
/// Chunk sizes are written resolved (StreamChunkUsers/Coords), so configs
/// that run identically serialize identically. num_threads is party-local
/// (outputs are bitwise independent of it), so it stays out and parses
/// back at its default.
void AppendProtocolConfig(WireWriter& w, const ProtocolConfig& config);
Result<ProtocolConfig> ParseProtocolConfig(WireReader& r);

/// Digest of the public protocol configuration plus the cohort shape.
/// Join handshakes compare digests so a silo started with mismatched
/// parameters (different modulus bits, N_max, seed, OT settings, counts)
/// is rejected with a clear error instead of silently diverging.
uint64_t ProtocolWireDigest(const ProtocolConfig& config, int num_silos,
                            int num_users);

/// Validates a received phase tag against the expected phase and round.
Status CheckPhaseTag(uint64_t tag, MaskPhase phase, uint64_t round);

/// Wraps a fatal Status as an Error frame for the peer.
Frame MakeErrorFrame(const Status& status);

/// Turns a received Error frame into the Status it carries, preserving the
/// transported code (out-of-range or kOk values degrade to kInternal — an
/// Error frame is never a success). One definition for every driver, so a
/// StatusCode addition cannot leave a stale range cap behind.
Status StatusFromErrorFrame(const Frame& frame, const std::string& peer);

/// The one Error-frame check for received frames: returns the transport
/// failure, the Status an Error frame from `peer` carries, or the frame.
Result<Frame> UnwrapErrorFrame(Result<Frame> received,
                               const std::string& peer);

// ---------------------------------------------------------------------------
// Message structs. Convention: kType, AppendTo(WireWriter&), and
// static Parse(WireReader&) returning Result<T>.

/// Silo -> server, first frame on a connection.
struct JoinMsg {
  static constexpr MessageType kType = MessageType::kJoin;
  uint32_t silo_id = 0;
  uint32_t num_silos = 0;
  uint32_t num_users = 0;
  uint64_t config_digest = 0;
  void AppendTo(WireWriter& w) const;
  static Result<JoinMsg> Parse(WireReader& r);
};

/// Server -> silo: the non-derivable public parameters (Paillier n; the
/// OT group when enabled — zero otherwise).
struct SetupParamsMsg {
  static constexpr MessageType kType = MessageType::kSetupParams;
  BigInt paillier_n;
  BigInt ot_p;
  BigInt ot_g;
  void AppendTo(WireWriter& w) const;
  static Result<SetupParamsMsg> Parse(WireReader& r);
};

/// Silo -> server: this silo's DH public key.
struct DhPublicKeyMsg {
  static constexpr MessageType kType = MessageType::kDhPublicKey;
  uint32_t silo_id = 0;
  BigInt public_key;
  void AppendTo(WireWriter& w) const;
  static Result<DhPublicKeyMsg> Parse(WireReader& r);
};

/// Server -> silo: all silos' DH public keys, indexed by silo id.
struct DhDirectoryMsg {
  static constexpr MessageType kType = MessageType::kDhDirectory;
  std::vector<BigInt> public_keys;
  void AppendTo(WireWriter& w) const;
  static Result<DhDirectoryMsg> Parse(WireReader& r);
};

/// Silo 0 -> server -> silo `to_silo`: the shared seed R, encrypted under
/// the (from, to) pairwise key; the server only relays opaque bytes.
struct SeedShareMsg {
  static constexpr MessageType kType = MessageType::kSeedShare;
  uint32_t from_silo = 0;
  uint32_t to_silo = 0;
  std::vector<uint8_t> ciphertext;
  void AppendTo(WireWriter& w) const;
  static Result<SeedShareMsg> Parse(WireReader& r);
};

/// Silo -> server: the doubly blinded histogram (setup (e)).
struct BlindedHistogramMsg {
  static constexpr MessageType kType = MessageType::kBlindedHistogram;
  uint32_t silo_id = 0;
  std::vector<BigInt> values;
  void AppendTo(WireWriter& w) const;
  static Result<BlindedHistogramMsg> Parse(WireReader& r);
};

/// Server -> silo: setup finished, rounds may begin.
struct SetupAckMsg {
  static constexpr MessageType kType = MessageType::kSetupAck;
  void AppendTo(WireWriter& w) const;
  static Result<SetupAckMsg> Parse(WireReader& r);
};

/// Server -> silo (OT off): the round's encrypted weight vector.
/// phase_tag = MakeMaskTag(kRoundWeighting, round).
struct RoundBeginMsg {
  static constexpr MessageType kType = MessageType::kRoundBegin;
  uint64_t phase_tag = 0;
  std::vector<BigInt> enc_weights;
  void AppendTo(WireWriter& w) const;
  static Result<RoundBeginMsg> Parse(WireReader& r);
};

/// Server -> receiver silo (OT mode): per-user sender messages
/// {C_0..C_{P-1}, A}. phase_tag = MakeMaskTag(kOtSlotChoice, round).
struct OtSenderMsg {
  static constexpr MessageType kType = MessageType::kOtSender;
  uint64_t phase_tag = 0;
  std::vector<OtSenderPublic> senders;
  void AppendTo(WireWriter& w) const;
  static Result<OtSenderMsg> Parse(WireReader& r);
};

/// Receiver silo -> server (OT mode): per-user commitments B.
struct OtReceiverMsg {
  static constexpr MessageType kType = MessageType::kOtReceiver;
  uint64_t phase_tag = 0;
  std::vector<BigInt> bs;
  void AppendTo(WireWriter& w) const;
  static Result<OtReceiverMsg> Parse(WireReader& r);
};

/// Server -> receiver silo (OT mode): per-(user, slot) encrypted payloads.
struct OtSlotsMsg {
  static constexpr MessageType kType = MessageType::kOtSlots;
  uint64_t phase_tag = 0;
  std::vector<std::vector<std::vector<uint8_t>>> slots;  // [user][slot]
  void AppendTo(WireWriter& w) const;
  static Result<OtSlotsMsg> Parse(WireReader& r);
};

/// Receiver silo -> server -> silo `to_silo` (OT mode): the fetched
/// encrypted-weight vector, XOR-encrypted under the (from, to) pairwise
/// key so the server cannot match the fetched ciphertexts to its slots.
/// phase_tag = MakeMaskTag(kOtWeightRelay, round).
struct WeightRelayMsg {
  static constexpr MessageType kType = MessageType::kWeightRelay;
  uint64_t phase_tag = 0;
  uint32_t from_silo = 0;
  uint32_t to_silo = 0;
  std::vector<uint8_t> ciphertext;
  void AppendTo(WireWriter& w) const;
  static Result<WeightRelayMsg> Parse(WireReader& r);
};

/// Silo -> server: the masked encrypted weighted sum (weighting (b)+(c)).
/// `dim` is the model dimension; with ciphertext packing enabled the
/// cipher vector holds ceil(dim / pack_slots) entries, and the server uses
/// `dim` to size the packed decode (and cross-checks it across silos).
struct SiloCipherMsg {
  static constexpr MessageType kType = MessageType::kSiloCipher;
  uint64_t phase_tag = 0;
  uint32_t silo_id = 0;
  uint32_t dim = 0;
  std::vector<BigInt> cipher;
  void AppendTo(WireWriter& w) const;
  static Result<SiloCipherMsg> Parse(WireReader& r);
};

/// Server -> silo: the decrypted, decoded round aggregate.
struct RoundResultMsg {
  static constexpr MessageType kType = MessageType::kRoundResult;
  uint64_t phase_tag = 0;
  std::vector<double> aggregate;
  void AppendTo(WireWriter& w) const;
  static Result<RoundResultMsg> Parse(WireReader& r);
};

/// Server -> silo: no more rounds; the client run loop returns.
struct ShutdownMsg {
  static constexpr MessageType kType = MessageType::kShutdown;
  void AppendTo(WireWriter& w) const;
  static Result<ShutdownMsg> Parse(WireReader& r);
};

/// A pairwise-masked fixed-point vector (crypto/secure_agg.h) — the
/// secure-aggregation payload of the FL layer, so asynchronous round
/// transports can reuse this wire format. `values` travels as a FieldVec
/// over AggregationPrime() (2^127 - 1): a count, then two little-endian
/// u64 limbs (16 B) per element, flat from the sender's mask to the
/// receiver's unmask. Parse rejects a count the payload cannot hold and
/// any element not below the prime, so a hostile vector fails here
/// instead of reaching the decoder.
struct MaskedVectorMsg {
  static constexpr MessageType kType = MessageType::kMaskedVector;
  uint64_t phase_tag = 0;
  uint32_t party_id = 0;
  FieldVector values;
  void AppendTo(WireWriter& w) const;
  static Result<MaskedVectorMsg> Parse(WireReader& r);
};

/// Server -> silo (asynchronous FL rounds, net/async_rounds.h): releases
/// the silo to train against the version-`version` global parameters.
/// `max_staleness` / `buffer_size` announce the staleness-bounded update
/// rule so a silo can sanity-check the server against its own config.
struct StalenessInfoMsg {
  static constexpr MessageType kType = MessageType::kStalenessInfo;
  uint64_t version = 0;
  uint32_t max_staleness = 0;
  uint32_t buffer_size = 0;
  std::vector<double> params;
  void AppendTo(WireWriter& w) const;
  static Result<StalenessInfoMsg> Parse(WireReader& r);
};

/// Silo -> server (asynchronous FL rounds): completes the task pulled at
/// `version` with this silo's clipped, weighted, noised delta. The server
/// charges it staleness (current version - `version`) on arrival.
struct RoundAckMsg {
  static constexpr MessageType kType = MessageType::kRoundAck;
  uint64_t version = 0;
  uint32_t silo_id = 0;
  std::vector<double> delta;
  void AppendTo(WireWriter& w) const;
  static Result<RoundAckMsg> Parse(WireReader& r);
};

/// Either direction: opens a chunked stream (streaming rounds,
/// src/net/stream.h). `total_count` is the full element count the stream
/// will carry, `chunk_elems` the per-chunk element ceiling (the last chunk
/// may be short), `dim` the model dimension (the receiver's decode/fold
/// context — user count for kEncWeights, unpacked model dim for
/// kSiloCipher). phase_tag matches the message the stream replaces.
struct StreamBeginMsg {
  static constexpr MessageType kType = MessageType::kStreamBegin;
  uint64_t phase_tag = 0;
  uint8_t kind = 0;  // StreamKind
  uint32_t sender_id = 0;
  uint32_t total_count = 0;
  uint32_t chunk_elems = 0;
  uint32_t dim = 0;
  void AppendTo(WireWriter& w) const;
  static Result<StreamBeginMsg> Parse(WireReader& r);
};

/// One chunk of an open stream: elements [index * chunk_elems,
/// index * chunk_elems + values.size()) of the streamed vector. Chunks are
/// sent (and must arrive) in index order; the receiver rejects any gap,
/// duplicate, or reordering.
struct StreamChunkMsg {
  static constexpr MessageType kType = MessageType::kStreamChunk;
  uint64_t phase_tag = 0;
  uint8_t kind = 0;  // StreamKind
  uint32_t index = 0;
  std::vector<BigInt> values;
  void AppendTo(WireWriter& w) const;
  static Result<StreamChunkMsg> Parse(WireReader& r);
};

/// Receiver -> sender: chunk `index` has been folded. Each ack returns
/// one send permit and names the sender's oldest unacknowledged chunk
/// (windowed flow control, net/stream.h).
struct StreamAckMsg {
  static constexpr MessageType kType = MessageType::kStreamAck;
  uint64_t phase_tag = 0;
  uint8_t kind = 0;  // StreamKind
  uint32_t index = 0;
  void AppendTo(WireWriter& w) const;
  static Result<StreamAckMsg> Parse(WireReader& r);
};

/// Either side: a fatal Status, so the peer fails with the real message
/// instead of a hangup.
struct ErrorMsg {
  static constexpr MessageType kType = MessageType::kError;
  uint16_t code = 0;  // StatusCode
  std::string message;
  void AppendTo(WireWriter& w) const;
  static Result<ErrorMsg> Parse(WireReader& r);
};

// ---------------------------------------------------------------------------
// Frame helpers.

template <typename M>
Frame ToFrame(const M& message) {
  WireWriter w;
  message.AppendTo(w);
  return Frame{static_cast<uint16_t>(M::kType), w.Take()};
}

template <typename M>
Result<M> FromFrame(const Frame& frame) {
  if (frame.type != static_cast<uint16_t>(M::kType)) {
    return Status::InvalidArgument(
        "unexpected message type " + std::to_string(frame.type) +
        " (expected " +
        std::to_string(static_cast<uint16_t>(M::kType)) + ")");
  }
  WireReader r(frame.payload);
  auto message = M::Parse(r);
  if (!message.ok()) return message.status();
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after message payload");
  }
  return message;
}

}  // namespace net
}  // namespace uldp

#endif  // ULDP_NET_MESSAGES_H_
