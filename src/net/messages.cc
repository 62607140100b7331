#include "net/messages.h"

namespace uldp {
namespace net {

// FNV-1a over the canonical wire serialization of a public config.
uint64_t WireDigest(const uint8_t* data, size_t size) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t WireDigest(const std::vector<uint8_t>& bytes) {
  return WireDigest(bytes.data(), bytes.size());
}

void AppendProtocolConfig(WireWriter& w, const ProtocolConfig& config) {
  w.U32(static_cast<uint32_t>(config.paillier_bits));
  w.U32(static_cast<uint32_t>(config.n_max));
  w.F64(config.precision);
  w.U64(config.seed);
  w.U32(static_cast<uint32_t>(config.ot_slots));
  w.F64(config.sample_rate);
  w.U32(static_cast<uint32_t>(config.ot_group_bits));
  // Packing is part of the wire contract: every silo and the server must
  // agree on the slot layout or packed aggregates decode as garbage.
  w.U32(static_cast<uint32_t>(config.pack_slots));
  w.F64(config.pack_clip);
  // Streaming changes the round's message flow (chunked frames instead of
  // monolithic RoundBegin/SiloCipher), so both chunk sizes are part of the
  // contract.
  w.U32(static_cast<uint32_t>(StreamChunkUsers(config)));
  w.U32(static_cast<uint32_t>(StreamChunkCoords(config)));
}

Result<ProtocolConfig> ParseProtocolConfig(WireReader& r) {
  ProtocolConfig config;
  auto int_field = [&r](int* out) -> Status {
    uint32_t v = 0;
    ULDP_RETURN_IF_ERROR(r.U32(&v));
    *out = static_cast<int>(v);
    return Status::Ok();
  };
  ULDP_RETURN_IF_ERROR(int_field(&config.paillier_bits));
  ULDP_RETURN_IF_ERROR(int_field(&config.n_max));
  ULDP_RETURN_IF_ERROR(r.F64(&config.precision));
  ULDP_RETURN_IF_ERROR(r.U64(&config.seed));
  ULDP_RETURN_IF_ERROR(int_field(&config.ot_slots));
  ULDP_RETURN_IF_ERROR(r.F64(&config.sample_rate));
  ULDP_RETURN_IF_ERROR(int_field(&config.ot_group_bits));
  ULDP_RETURN_IF_ERROR(int_field(&config.pack_slots));
  ULDP_RETURN_IF_ERROR(r.F64(&config.pack_clip));
  ULDP_RETURN_IF_ERROR(int_field(&config.stream_chunk_users));
  ULDP_RETURN_IF_ERROR(int_field(&config.stream_chunk_coords));
  // Chunk sizes travel resolved. Accepting any other encoding would give
  // one config a second byte string, and a transcript's hash chain (which
  // re-serializes its meta) could then not bind the stored bytes.
  if (config.stream_chunk_users != StreamChunkUsers(config) ||
      config.stream_chunk_coords != StreamChunkCoords(config)) {
    return Status::InvalidArgument(
        "protocol config: stream chunk sizes are not in resolved form");
  }
  return config;
}

uint64_t ProtocolWireDigest(const ProtocolConfig& config, int num_silos,
                            int num_users) {
  WireWriter w;
  w.U16(kWireVersion);
  AppendProtocolConfig(w, config);
  w.U32(static_cast<uint32_t>(num_silos));
  w.U32(static_cast<uint32_t>(num_users));
  return WireDigest(w.buffer());
}

Status CheckPhaseTag(uint64_t tag, MaskPhase phase, uint64_t round) {
  if (MaskTagPhase(tag) != phase || MaskTagRound(tag) != round) {
    return Status::InvalidArgument(
        "phase tag mismatch: got phase " +
        std::to_string(static_cast<uint64_t>(MaskTagPhase(tag))) + " round " +
        std::to_string(MaskTagRound(tag)) + ", expected phase " +
        std::to_string(static_cast<uint64_t>(phase)) + " round " +
        std::to_string(round));
  }
  return Status::Ok();
}

Frame MakeErrorFrame(const Status& status) {
  ErrorMsg msg;
  msg.code = static_cast<uint16_t>(status.code());
  msg.message = status.message();
  return ToFrame(msg);
}

Status StatusFromErrorFrame(const Frame& frame, const std::string& peer) {
  auto msg = FromFrame<ErrorMsg>(frame);
  if (!msg.ok()) return msg.status();
  StatusCode code = static_cast<StatusCode>(msg.value().code);
  if (msg.value().code > static_cast<uint16_t>(StatusCode::kDeadlineExceeded) ||
      code == StatusCode::kOk) {
    code = StatusCode::kInternal;
  }
  return Status(code, peer + " reported: " + msg.value().message);
}

Result<Frame> UnwrapErrorFrame(Result<Frame> received,
                               const std::string& peer) {
  if (received.ok() &&
      received.value().type == static_cast<uint16_t>(MessageType::kError)) {
    return StatusFromErrorFrame(received.value(), peer);
  }
  return received;
}

void JoinMsg::AppendTo(WireWriter& w) const {
  w.U32(silo_id);
  w.U32(num_silos);
  w.U32(num_users);
  w.U64(config_digest);
}

Result<JoinMsg> JoinMsg::Parse(WireReader& r) {
  JoinMsg m;
  ULDP_RETURN_IF_ERROR(r.U32(&m.silo_id));
  ULDP_RETURN_IF_ERROR(r.U32(&m.num_silos));
  ULDP_RETURN_IF_ERROR(r.U32(&m.num_users));
  ULDP_RETURN_IF_ERROR(r.U64(&m.config_digest));
  return m;
}

void SetupParamsMsg::AppendTo(WireWriter& w) const {
  w.Big(paillier_n);
  w.Big(ot_p);
  w.Big(ot_g);
}

Result<SetupParamsMsg> SetupParamsMsg::Parse(WireReader& r) {
  SetupParamsMsg m;
  ULDP_RETURN_IF_ERROR(r.Big(&m.paillier_n));
  ULDP_RETURN_IF_ERROR(r.Big(&m.ot_p));
  ULDP_RETURN_IF_ERROR(r.Big(&m.ot_g));
  return m;
}

void DhPublicKeyMsg::AppendTo(WireWriter& w) const {
  w.U32(silo_id);
  w.Big(public_key);
}

Result<DhPublicKeyMsg> DhPublicKeyMsg::Parse(WireReader& r) {
  DhPublicKeyMsg m;
  ULDP_RETURN_IF_ERROR(r.U32(&m.silo_id));
  ULDP_RETURN_IF_ERROR(r.Big(&m.public_key));
  return m;
}

void DhDirectoryMsg::AppendTo(WireWriter& w) const { w.BigVec(public_keys); }

Result<DhDirectoryMsg> DhDirectoryMsg::Parse(WireReader& r) {
  DhDirectoryMsg m;
  ULDP_RETURN_IF_ERROR(r.BigVec(&m.public_keys));
  return m;
}

void SeedShareMsg::AppendTo(WireWriter& w) const {
  w.U32(from_silo);
  w.U32(to_silo);
  w.Bytes(ciphertext);
}

Result<SeedShareMsg> SeedShareMsg::Parse(WireReader& r) {
  SeedShareMsg m;
  ULDP_RETURN_IF_ERROR(r.U32(&m.from_silo));
  ULDP_RETURN_IF_ERROR(r.U32(&m.to_silo));
  ULDP_RETURN_IF_ERROR(r.Bytes(&m.ciphertext));
  return m;
}

void BlindedHistogramMsg::AppendTo(WireWriter& w) const {
  w.U32(silo_id);
  w.BigVec(values);
}

Result<BlindedHistogramMsg> BlindedHistogramMsg::Parse(WireReader& r) {
  BlindedHistogramMsg m;
  ULDP_RETURN_IF_ERROR(r.U32(&m.silo_id));
  ULDP_RETURN_IF_ERROR(r.BigVec(&m.values));
  return m;
}

void SetupAckMsg::AppendTo(WireWriter&) const {}

Result<SetupAckMsg> SetupAckMsg::Parse(WireReader&) { return SetupAckMsg{}; }

void RoundBeginMsg::AppendTo(WireWriter& w) const {
  w.U64(phase_tag);
  w.BigVec(enc_weights);
}

Result<RoundBeginMsg> RoundBeginMsg::Parse(WireReader& r) {
  RoundBeginMsg m;
  ULDP_RETURN_IF_ERROR(r.U64(&m.phase_tag));
  ULDP_RETURN_IF_ERROR(r.BigVec(&m.enc_weights));
  return m;
}

void OtSenderMsg::AppendTo(WireWriter& w) const {
  w.U64(phase_tag);
  w.U32(static_cast<uint32_t>(senders.size()));
  for (const OtSenderPublic& s : senders) {
    w.BigVec(s.c);
    w.Big(s.a);
  }
}

Result<OtSenderMsg> OtSenderMsg::Parse(WireReader& r) {
  OtSenderMsg m;
  ULDP_RETURN_IF_ERROR(r.U64(&m.phase_tag));
  uint32_t count;
  ULDP_RETURN_IF_ERROR(r.U32(&count));
  if (static_cast<size_t>(count) > r.remaining() / 9) {
    return Status::InvalidArgument("OT sender count exceeds payload");
  }
  m.senders.assign(count, {});
  for (uint32_t i = 0; i < count; ++i) {
    ULDP_RETURN_IF_ERROR(r.BigVec(&m.senders[i].c));
    ULDP_RETURN_IF_ERROR(r.Big(&m.senders[i].a));
  }
  return m;
}

void OtReceiverMsg::AppendTo(WireWriter& w) const {
  w.U64(phase_tag);
  w.BigVec(bs);
}

Result<OtReceiverMsg> OtReceiverMsg::Parse(WireReader& r) {
  OtReceiverMsg m;
  ULDP_RETURN_IF_ERROR(r.U64(&m.phase_tag));
  ULDP_RETURN_IF_ERROR(r.BigVec(&m.bs));
  return m;
}

void OtSlotsMsg::AppendTo(WireWriter& w) const {
  w.U64(phase_tag);
  w.U32(static_cast<uint32_t>(slots.size()));
  for (const auto& user_slots : slots) w.BytesVec(user_slots);
}

Result<OtSlotsMsg> OtSlotsMsg::Parse(WireReader& r) {
  OtSlotsMsg m;
  ULDP_RETURN_IF_ERROR(r.U64(&m.phase_tag));
  uint32_t count;
  ULDP_RETURN_IF_ERROR(r.U32(&count));
  if (static_cast<size_t>(count) > r.remaining() / 4) {
    return Status::InvalidArgument("OT slot user count exceeds payload");
  }
  m.slots.assign(count, {});
  for (uint32_t i = 0; i < count; ++i) {
    ULDP_RETURN_IF_ERROR(r.BytesVec(&m.slots[i]));
  }
  return m;
}

void WeightRelayMsg::AppendTo(WireWriter& w) const {
  w.U64(phase_tag);
  w.U32(from_silo);
  w.U32(to_silo);
  w.Bytes(ciphertext);
}

Result<WeightRelayMsg> WeightRelayMsg::Parse(WireReader& r) {
  WeightRelayMsg m;
  ULDP_RETURN_IF_ERROR(r.U64(&m.phase_tag));
  ULDP_RETURN_IF_ERROR(r.U32(&m.from_silo));
  ULDP_RETURN_IF_ERROR(r.U32(&m.to_silo));
  ULDP_RETURN_IF_ERROR(r.Bytes(&m.ciphertext));
  return m;
}

void SiloCipherMsg::AppendTo(WireWriter& w) const {
  w.U64(phase_tag);
  w.U32(silo_id);
  w.U32(dim);
  w.BigVec(cipher);
}

Result<SiloCipherMsg> SiloCipherMsg::Parse(WireReader& r) {
  SiloCipherMsg m;
  ULDP_RETURN_IF_ERROR(r.U64(&m.phase_tag));
  ULDP_RETURN_IF_ERROR(r.U32(&m.silo_id));
  ULDP_RETURN_IF_ERROR(r.U32(&m.dim));
  ULDP_RETURN_IF_ERROR(r.BigVec(&m.cipher));
  return m;
}

void RoundResultMsg::AppendTo(WireWriter& w) const {
  w.U64(phase_tag);
  w.F64Vec(aggregate);
}

Result<RoundResultMsg> RoundResultMsg::Parse(WireReader& r) {
  RoundResultMsg m;
  ULDP_RETURN_IF_ERROR(r.U64(&m.phase_tag));
  ULDP_RETURN_IF_ERROR(r.F64Vec(&m.aggregate));
  return m;
}

void ShutdownMsg::AppendTo(WireWriter&) const {}

Result<ShutdownMsg> ShutdownMsg::Parse(WireReader&) { return ShutdownMsg{}; }

void MaskedVectorMsg::AppendTo(WireWriter& w) const {
  w.U64(phase_tag);
  w.U32(party_id);
  w.FieldVec(values);
}

Result<MaskedVectorMsg> MaskedVectorMsg::Parse(WireReader& r) {
  MaskedVectorMsg m;
  ULDP_RETURN_IF_ERROR(r.U64(&m.phase_tag));
  ULDP_RETURN_IF_ERROR(r.U32(&m.party_id));
  ULDP_RETURN_IF_ERROR(r.FieldVec(AggregationPrime(), &m.values));
  return m;
}

void StalenessInfoMsg::AppendTo(WireWriter& w) const {
  w.U64(version);
  w.U32(max_staleness);
  w.U32(buffer_size);
  w.F64Vec(params);
}

Result<StalenessInfoMsg> StalenessInfoMsg::Parse(WireReader& r) {
  StalenessInfoMsg m;
  ULDP_RETURN_IF_ERROR(r.U64(&m.version));
  ULDP_RETURN_IF_ERROR(r.U32(&m.max_staleness));
  ULDP_RETURN_IF_ERROR(r.U32(&m.buffer_size));
  ULDP_RETURN_IF_ERROR(r.F64Vec(&m.params));
  return m;
}

void RoundAckMsg::AppendTo(WireWriter& w) const {
  w.U64(version);
  w.U32(silo_id);
  w.F64Vec(delta);
}

Result<RoundAckMsg> RoundAckMsg::Parse(WireReader& r) {
  RoundAckMsg m;
  ULDP_RETURN_IF_ERROR(r.U64(&m.version));
  ULDP_RETURN_IF_ERROR(r.U32(&m.silo_id));
  ULDP_RETURN_IF_ERROR(r.F64Vec(&m.delta));
  return m;
}

void StreamBeginMsg::AppendTo(WireWriter& w) const {
  w.U64(phase_tag);
  w.U8(kind);
  w.U32(sender_id);
  w.U32(total_count);
  w.U32(chunk_elems);
  w.U32(dim);
}

Result<StreamBeginMsg> StreamBeginMsg::Parse(WireReader& r) {
  StreamBeginMsg m;
  ULDP_RETURN_IF_ERROR(r.U64(&m.phase_tag));
  ULDP_RETURN_IF_ERROR(r.U8(&m.kind));
  ULDP_RETURN_IF_ERROR(r.U32(&m.sender_id));
  ULDP_RETURN_IF_ERROR(r.U32(&m.total_count));
  ULDP_RETURN_IF_ERROR(r.U32(&m.chunk_elems));
  ULDP_RETURN_IF_ERROR(r.U32(&m.dim));
  return m;
}

void StreamChunkMsg::AppendTo(WireWriter& w) const {
  w.U64(phase_tag);
  w.U8(kind);
  w.U32(index);
  w.BigVec(values);
}

Result<StreamChunkMsg> StreamChunkMsg::Parse(WireReader& r) {
  StreamChunkMsg m;
  ULDP_RETURN_IF_ERROR(r.U64(&m.phase_tag));
  ULDP_RETURN_IF_ERROR(r.U8(&m.kind));
  ULDP_RETURN_IF_ERROR(r.U32(&m.index));
  ULDP_RETURN_IF_ERROR(r.BigVec(&m.values));
  return m;
}

void StreamAckMsg::AppendTo(WireWriter& w) const {
  w.U64(phase_tag);
  w.U8(kind);
  w.U32(index);
}

Result<StreamAckMsg> StreamAckMsg::Parse(WireReader& r) {
  StreamAckMsg m;
  ULDP_RETURN_IF_ERROR(r.U64(&m.phase_tag));
  ULDP_RETURN_IF_ERROR(r.U8(&m.kind));
  ULDP_RETURN_IF_ERROR(r.U32(&m.index));
  return m;
}

void ErrorMsg::AppendTo(WireWriter& w) const {
  w.U16(code);
  std::vector<uint8_t> bytes(message.begin(), message.end());
  w.Bytes(bytes);
}

Result<ErrorMsg> ErrorMsg::Parse(WireReader& r) {
  ErrorMsg m;
  ULDP_RETURN_IF_ERROR(r.U16(&m.code));
  std::vector<uint8_t> bytes;
  ULDP_RETURN_IF_ERROR(r.Bytes(&bytes));
  m.message.assign(bytes.begin(), bytes.end());
  return m;
}

}  // namespace net
}  // namespace uldp
