#include "net/protocol_node.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <mutex>
#include <string>
#include <utility>

#include "common/check.h"
#include "net/stream.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace uldp {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

double NowSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// The silo's receive: the server's next frame, with an Error frame
/// turned into the Status it carries.
Result<Frame> RecvFromServer(Transport& transport) {
  return UnwrapErrorFrame(transport.Recv(), "server");
}

/// The server's next frame, which must be a Msg.
template <typename Msg>
Result<Msg> RecvMsg(Transport& transport) {
  auto frame = RecvFromServer(transport);
  if (!frame.ok()) return frame.status();
  return FromFrame<Msg>(frame.value());
}

/// Parses the frame that opens a silo's round; its phase tag must carry
/// `phase`, and its round is the tag's.
template <typename Msg>
Result<Msg> ParseOpening(const Frame& frame, MaskPhase phase,
                         const char* what) {
  auto msg = FromFrame<Msg>(frame);
  if (!msg.ok()) return msg.status();
  if (MaskTagPhase(msg.value().phase_tag) != phase) {
    return Status::InvalidArgument(std::string(what) +
                                   " with wrong phase tag");
  }
  return msg;
}

/// Silo 0's half of a relay through the server: `plain` goes to every
/// other silo, XOR-encrypted under that pair's key with (`tag`, the
/// recipient), one frame each from `make_frame`.
Status SendRelays(
    const SiloCore& core, Transport& transport, uint64_t tag,
    const std::vector<uint8_t>& plain,
    const std::function<Frame(uint32_t to, std::vector<uint8_t>)>&
        make_frame) {
  for (int to = 1; to < core.params().num_silos; ++to) {
    auto ct = core.PairStreamXor(to, tag, static_cast<uint32_t>(to), plain);
    if (!ct.ok()) return ct.status();
    ULDP_RETURN_IF_ERROR(transport.Send(
        make_frame(static_cast<uint32_t>(to), std::move(ct.value()))));
  }
  return Status::Ok();
}

/// The receiving half: a relayed frame must come from silo 0 and be
/// addressed to this silo; its plaintext is exactly one value, which
/// `read` parses into `out`.
template <typename T>
Status OpenRelay(const SiloCore& core, const char* what, uint32_t from,
                 uint32_t to, uint64_t tag, std::vector<uint8_t> ciphertext,
                 Status (WireReader::*read)(T*), T* out) {
  if (from != 0 || to != static_cast<uint32_t>(core.silo_id())) {
    return Status::InvalidArgument(std::string("misrouted ") + what);
  }
  auto plain = core.PairStreamXor(0, tag, to, std::move(ciphertext));
  if (!plain.ok()) return plain.status();
  WireReader r(plain.value());
  ULDP_RETURN_IF_ERROR((r.*read)(out));
  if (!r.AtEnd()) {
    return Status::InvalidArgument(std::string("trailing bytes in ") + what);
  }
  return Status::Ok();
}

/// Refuses (InvalidArgument) a broadcast aggregate no honest round
/// decodes: a length other than the model dimension, a non-finite value,
/// or one past `bound` (ProtocolParams::DecodedBound).
Status CheckRoundResult(const Vec& aggregate, size_t model_dim,
                        double bound) {
  if (aggregate.size() != model_dim) {
    return Status::InvalidArgument(
        "round result has " + std::to_string(aggregate.size()) +
        " coordinates, the model has " + std::to_string(model_dim));
  }
  for (double v : aggregate) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("round result holds a non-finite value");
    }
    if (std::fabs(v) > bound) {
      return Status::InvalidArgument(
          "round result holds a value beyond what an honest round can "
          "decode");
    }
  }
  return Status::Ok();
}

/// Static trace-span names for the server's wire phases (the trace buffer
/// stores pointers, not copies).
const char* PhaseSpanName(const std::string& name) {
  if (name == "setup") return "proto.phase.setup";
  if (name == "enc_weights") return "proto.phase.enc_weights";
  if (name == "silo_ciphers") return "proto.phase.silo_ciphers";
  if (name == "aggregate") return "proto.phase.aggregate";
  return "proto.phase";
}

}  // namespace

// ---------------------------------------------------------------------------
// ProtocolServer

ProtocolServer::ProtocolServer(const ProtocolConfig& config, int num_silos,
                               int num_users)
    : config_(config),
      num_silos_(num_silos),
      num_users_(num_users),
      core_(config, num_silos, num_users),
      pool_(config.num_threads),
      conns_(num_silos) {}

ProtocolServer::~ProtocolServer() {
  if (mux_ != nullptr) mux_->Shutdown();
}

int ProtocolServer::connected_silos() const {
  int n = 0;
  for (const auto& c : conns_) n += c != nullptr ? 1 : 0;
  return n;
}

Status ProtocolServer::SendTo(int silo, const Frame& frame) {
  return conns_[silo]->Send(frame);
}

Result<Frame> ProtocolServer::RecvFrom(int silo) {
  if (mux_ == nullptr) {
    return Status::FailedPrecondition("receive mux not started");
  }
  Result<Frame> frame = mux_->RecvFrom(silo);
  if (frame.ok()) {
    consumed_bytes_.fetch_add(kFrameHeaderSize + frame.value().payload.size(),
                              std::memory_order_relaxed);
  }
  return UnwrapErrorFrame(std::move(frame), "silo " + std::to_string(silo));
}

Status ProtocolServer::Broadcast(const Frame& frame) {
  std::vector<Status> status(num_silos_, Status::Ok());
  pool_->ParallelFor(static_cast<size_t>(num_silos_), [&](size_t s) {
    status[s] = conns_[s]->Send(frame);
  });
  return FirstError(status);
}

void ProtocolServer::FailAll(const Status& status) {
  obs::MetricsRegistry::Global().AddCounter("net.server.fail_all", 1);
  Frame frame = MakeErrorFrame(status);
  for (const auto& conn : conns_) {
    if (conn != nullptr) conn->Send(frame);  // best effort
  }
  // Interrupt every connection and join the receive threads: a silo that
  // hangs mid-stream must not leave a reader blocked past the failure.
  if (mux_ != nullptr) mux_->Shutdown();
}

uint64_t ProtocolServer::total_bytes_sent() const {
  uint64_t total = 0;
  for (const auto& c : conns_) {
    if (c != nullptr) total += c->bytes_sent();
  }
  return total;
}

uint64_t ProtocolServer::total_bytes_received() const {
  uint64_t total = 0;
  for (const auto& c : conns_) {
    if (c != nullptr) total += c->bytes_received();
  }
  return total;
}

void ProtocolServer::BeginPhase() {
  phase_sent_start_ = total_bytes_sent();
  phase_received_start_ = consumed_bytes_.load(std::memory_order_relaxed);
  phase_time_start_ = NowSeconds();
}

void ProtocolServer::EndPhase(const std::string& name) {
  NetPhaseStats* entry = nullptr;
  for (auto& s : stats_) {
    if (s.phase == name) {
      entry = &s;
      break;
    }
  }
  if (entry == nullptr) {
    stats_.push_back(NetPhaseStats{name, 0, 0, 0.0});
    entry = &stats_.back();
  }
  entry->bytes_sent += total_bytes_sent() - phase_sent_start_;
  entry->bytes_received +=
      consumed_bytes_.load(std::memory_order_relaxed) - phase_received_start_;
  const double seconds = NowSeconds() - phase_time_start_;
  entry->seconds += seconds;
  // Mirror each phase into the telemetry layer: a latency histogram in the
  // registry and one complete trace event spanning the phase (BeginPhase /
  // EndPhase are not lexically scoped, so no TraceSpan here).
  const uint64_t dur_ns = static_cast<uint64_t>(seconds * 1e9);
  obs::MetricsRegistry::Global().RecordHistogram(
      "net.server.phase_ns." + name, dur_ns);
  obs::TraceBuffer& trace = obs::TraceBuffer::Global();
  if (trace.enabled()) {
    trace.Record(PhaseSpanName(name), obs::NowNs() - dur_ns, dur_ns);
  }
}

Status ProtocolServer::AddConnection(std::unique_ptr<Transport> transport) {
  auto frame = UnwrapErrorFrame(transport->Recv(), "joining silo");
  if (!frame.ok()) return frame.status();
  auto join_or = FromFrame<JoinMsg>(frame.value());
  if (!join_or.ok()) return join_or.status();
  const JoinMsg& join = join_or.value();

  // All id comparisons stay unsigned: a hostile 2^31-range value must not
  // wrap negative past a ranged check and reach a vector index.
  Status verdict = Status::Ok();
  if (join.num_silos != static_cast<uint32_t>(num_silos_) ||
      join.num_users != static_cast<uint32_t>(num_users_)) {
    verdict = Status::InvalidArgument(
        "silo announced cohort " + std::to_string(join.num_silos) + "x" +
        std::to_string(join.num_users) + ", server expects " +
        std::to_string(num_silos_) + "x" + std::to_string(num_users_));
  } else if (join.config_digest !=
             ProtocolWireDigest(config_, num_silos_, num_users_)) {
    verdict = Status::InvalidArgument(
        "protocol config digest mismatch: silo and server were started "
        "with different parameters");
  } else if (join.silo_id >= static_cast<uint32_t>(num_silos_)) {
    verdict = Status::InvalidArgument("silo id " +
                                      std::to_string(join.silo_id) +
                                      " out of range");
  } else if (conns_[join.silo_id] != nullptr) {
    verdict = Status::InvalidArgument("silo id " +
                                      std::to_string(join.silo_id) +
                                      " already connected");
  }
  if (!verdict.ok()) {
    transport->Send(MakeErrorFrame(verdict));  // tell the client why
    return verdict;
  }
  conns_[join.silo_id] = std::move(transport);
  return Status::Ok();
}

template <typename Msg>
Status ProtocolServer::GatherEach(
    const char* what, const std::function<Status(int, Msg)>& take) {
  std::vector<Status> status(num_silos_, Status::Ok());
  pool_->ParallelFor(static_cast<size_t>(num_silos_), [&](size_t s) {
    auto frame = RecvFrom(static_cast<int>(s));
    Result<Msg> msg =
        frame.ok() ? FromFrame<Msg>(frame.value()) : frame.status();
    if (msg.ok() && msg.value().silo_id != s) {
      msg = Status::InvalidArgument(std::string(what) +
                                    " from wrong silo id");
    }
    status[s] = msg.ok() ? take(static_cast<int>(s), std::move(msg.value()))
                         : msg.status();
  });
  return FirstError(status);
}

Status ProtocolServer::RunSetup() {
  Status status = RunSetupInternal();
  // Any server-side failure ends the run for everyone: without this, a
  // client blocked in Recv on an in-process channel would hang forever.
  if (!status.ok()) FailAll(status);
  return status;
}

Status ProtocolServer::RunSetupInternal() {
  if (connected_silos() != num_silos_) {
    return Status::FailedPrecondition(
        std::to_string(connected_silos()) + " of " +
        std::to_string(num_silos_) + " silos connected");
  }
  if (mux_ == nullptr) {
    // All join handshakes (blocking Recv) are done; from here every
    // server-side receive runs through the shared front end.
    std::vector<Transport*> peers;
    peers.reserve(conns_.size());
    for (const auto& c : conns_) peers.push_back(c.get());
    mux_ = std::make_unique<FrameMux>(std::move(peers));
    ULDP_RETURN_IF_ERROR(mux_->Start());
  }
  BeginPhase();
  ULDP_RETURN_IF_ERROR(core_.GenerateKeys(*pool_));

  SetupParamsMsg params;
  params.paillier_n = core_.params().public_key.n;
  if (config_.ot_slots > 0) {
    params.ot_p = core_.params().ot_group.p;
    params.ot_g = core_.params().ot_group.g;
  }
  ULDP_RETURN_IF_ERROR(Broadcast(ToFrame(params)));

  // Gather DH public keys, then relay the full directory.
  DhDirectoryMsg directory;
  directory.public_keys.resize(num_silos_);
  ULDP_RETURN_IF_ERROR(GatherEach<DhPublicKeyMsg>(
      "DH key", [&](int s, DhPublicKeyMsg key) {
        directory.public_keys[s] = std::move(key.public_key);
        return Status::Ok();
      }));
  ULDP_RETURN_IF_ERROR(Broadcast(ToFrame(directory)));

  // Relay silo 0's encrypted seed shares; the server sees only ciphertext.
  ULDP_RETURN_IF_ERROR(
      RelayFromSilo0("seed share", [](const Frame& frame) -> Result<Route> {
        auto share = FromFrame<SeedShareMsg>(frame);
        if (!share.ok()) return share.status();
        return Route{share.value().from_silo, share.value().to_silo};
      }));

  // Add each doubly blinded histogram into the core's running sums as it
  // lands (mod-n sums are order-free), then finish setup.
  std::mutex absorb_mu;
  ULDP_RETURN_IF_ERROR(GatherEach<BlindedHistogramMsg>(
      "histogram", [&](int s, BlindedHistogramMsg blinded) {
        std::lock_guard<std::mutex> lock(absorb_mu);
        return core_.AbsorbBlindedHistogram(s, std::move(blinded.values));
      }));
  ULDP_RETURN_IF_ERROR(core_.FinalizeSetup());
  ULDP_RETURN_IF_ERROR(Broadcast(ToFrame(SetupAckMsg{})));
  EndPhase("setup");
  setup_done_ = true;
  return Status::Ok();
}

Result<Vec> ProtocolServer::RunRound(uint64_t round,
                                     const std::vector<bool>& user_sampled) {
  auto out = RunRoundInternal(round, user_sampled);
  if (!out.ok()) FailAll(out.status());
  return out;
}

Result<Vec> ProtocolServer::RunRoundInternal(
    uint64_t round, const std::vector<bool>& user_sampled) {
  if (!setup_done_) {
    return Status::FailedPrecondition("RunSetup() has not completed");
  }
  if (round >= kMaskTagRoundLimit) {
    return Status::OutOfRange("round exceeds the 56-bit tag limit");
  }
  obs::TraceSpan round_span("proto.round", "round",
                            static_cast<int64_t>(round));
  BeginPhase();
  ULDP_RETURN_IF_ERROR(DeliverWeights(round, user_sampled));
  EndPhase("enc_weights");

  // Gather the masked silo ciphertexts, folding each range into the
  // running product as it lands: exact modular products make arrival
  // order irrelevant bitwise, and the server holds one aggregate instead
  // of num_silos cipher vectors.
  BeginPhase();
  std::vector<BigInt> product;
  std::mutex fold_mu;
  std::vector<Status> status(num_silos_, Status::Ok());
  std::vector<uint32_t> dims(num_silos_, 0);
  pool_->ParallelFor(static_cast<size_t>(num_silos_), [&](size_t s) {
    status[s] = GatherSiloCipher(static_cast<int>(s), round, &fold_mu,
                                 &product, &dims[s]);
  });
  ULDP_RETURN_IF_ERROR(FirstError(status));
  for (int s = 1; s < num_silos_; ++s) {
    if (dims[s] != dims[0]) {
      return Status::InvalidArgument("silos disagree on the model dimension");
    }
  }
  EndPhase("silo_ciphers");

  BeginPhase();
  auto out = core_.DecryptAggregate(product, *pool_, dims[0]);
  if (!out.ok()) return out.status();
  RoundResultMsg result;
  result.phase_tag = MakeMaskTag(MaskPhase::kRoundWeighting, round);
  result.aggregate = out.value();
  ULDP_RETURN_IF_ERROR(Broadcast(ToFrame(result)));
  EndPhase("aggregate");
  return out;
}

Status ProtocolServer::DeliverWeights(uint64_t round,
                                      const std::vector<bool>& user_sampled) {
  if (config_.ot_slots <= 0) {
    // Streaming encrypts, broadcasts and discards one user chunk at a
    // time, so the server never materializes the full enc-weight vector.
    if (StreamChunkUsers(config_) > 0) {
      return StreamEncWeights(round, user_sampled);
    }
    auto enc = core_.EncryptWeights(round, user_sampled, *pool_);
    if (!enc.ok()) return enc.status();
    RoundBeginMsg begin;
    begin.phase_tag = MakeMaskTag(MaskPhase::kRoundWeighting, round);
    begin.enc_weights = std::move(enc.value());
    return Broadcast(ToFrame(begin));
  }
  obs::TraceSpan ot_span("proto.ot_round", "round",
                         static_cast<int64_t>(round));
  // OT-based private sub-sampling: silo 0 acts as the joint receiver (all
  // silos share the seed that picks the slots) and re-distributes the
  // fetched ciphertexts to its peers, encrypted under pairwise keys so
  // this server only relays opaque bytes.
  auto senders = core_.OtSenderInit(round, *pool_);
  if (!senders.ok()) return senders.status();
  const uint64_t ot_tag = MakeMaskTag(MaskPhase::kOtSlotChoice, round);
  OtSenderMsg sender_msg;
  sender_msg.phase_tag = ot_tag;
  sender_msg.senders = std::move(senders.value());
  ULDP_RETURN_IF_ERROR(SendTo(0, ToFrame(sender_msg)));

  auto reply = RecvFrom(0);
  if (!reply.ok()) return reply.status();
  auto receiver = FromFrame<OtReceiverMsg>(reply.value());
  if (!receiver.ok()) return receiver.status();
  ULDP_RETURN_IF_ERROR(CheckPhaseTag(receiver.value().phase_tag,
                                     MaskPhase::kOtSlotChoice, round));
  auto slots = core_.OtEncryptSlots(round, receiver.value().bs, *pool_);
  if (!slots.ok()) return slots.status();
  OtSlotsMsg slots_msg;
  slots_msg.phase_tag = ot_tag;
  slots_msg.slots = std::move(slots.value());
  ULDP_RETURN_IF_ERROR(SendTo(0, ToFrame(slots_msg)));

  return RelayFromSilo0(
      "weight relay", [round](const Frame& frame) -> Result<Route> {
        auto relay = FromFrame<WeightRelayMsg>(frame);
        if (!relay.ok()) return relay.status();
        ULDP_RETURN_IF_ERROR(CheckPhaseTag(relay.value().phase_tag,
                                           MaskPhase::kOtWeightRelay, round));
        return Route{relay.value().from_silo, relay.value().to_silo};
      });
}

Status ProtocolServer::RelayFromSilo0(
    const char* what, const std::function<Result<Route>(const Frame&)>& route) {
  std::vector<bool> seen(num_silos_, false);
  for (int i = 0; i < num_silos_ - 1; ++i) {
    auto frame = RecvFrom(0);
    if (!frame.ok()) return frame.status();
    auto r = route(frame.value());
    if (!r.ok()) return r.status();
    const uint32_t to = r.value().to;
    if (r.value().from != 0 || to == 0 ||
        to >= static_cast<uint32_t>(num_silos_) || seen[to]) {
      return Status::InvalidArgument(std::string("invalid ") + what +
                                     " routing");
    }
    seen[to] = true;
    ULDP_RETURN_IF_ERROR(SendTo(static_cast<int>(to), frame.value()));
  }
  return Status::Ok();
}

Status ProtocolServer::StreamEncWeights(
    uint64_t round, const std::vector<bool>& user_sampled) {
  obs::TraceSpan span("proto.stream_enc_weights", "round",
                      static_cast<int64_t>(round));
  StreamSendOptions opts;
  opts.phase_tag = MakeMaskTag(MaskPhase::kRoundWeighting, round);
  opts.kind = StreamKind::kEncWeights;
  opts.chunk_elems = StreamChunkUsers(config_);
  // Each chunk is encrypted on demand and dropped once broadcast: peak
  // resident enc weights are one chunk regardless of num_users. Silos size
  // the fold from their own round inputs, so the stream announces dim 0.
  return SendChunkedStream(
      static_cast<size_t>(num_users_), opts, num_silos_,
      [&](size_t u0, size_t u1) {
        return core_.EncryptWeightsRange(round, user_sampled,
                                         static_cast<int>(u0),
                                         static_cast<int>(u1), *pool_);
      },
      [&](const Frame& frame) { return Broadcast(frame); },
      [&](int silo) { return RecvFrom(silo); });
}

Status ProtocolServer::GatherSiloCipher(int silo, uint64_t round,
                                        std::mutex* fold_mu,
                                        std::vector<BigInt>* product,
                                        uint32_t* dim_out) {
  obs::TraceSpan span("proto.gather_cipher", "silo", silo);
  const bool streamed = StreamChunkUsers(config_) > 0;
  auto frame = RecvFrom(silo);
  if (!frame.ok()) return frame.status();
  // The cipher's header comes from its one frame or its stream's begin.
  StreamBeginMsg begin;
  std::vector<BigInt> whole;
  if (streamed) {
    auto msg = FromFrame<StreamBeginMsg>(frame.value());
    if (!msg.ok()) return msg.status();
    begin = msg.value();
  } else {
    auto msg = FromFrame<SiloCipherMsg>(frame.value());
    if (!msg.ok()) return msg.status();
    begin.phase_tag = msg.value().phase_tag;
    begin.sender_id = msg.value().silo_id;
    begin.dim = msg.value().dim;
    whole = std::move(msg.value().cipher);
  }
  ULDP_RETURN_IF_ERROR(
      CheckPhaseTag(begin.phase_tag, MaskPhase::kRoundWeighting, round));
  if (begin.sender_id != static_cast<uint32_t>(silo)) {
    return Status::InvalidArgument("cipher from wrong silo id");
  }
  // The announced model dimension must match the packed cipher count; a
  // mismatch means the peer runs a different slot layout.
  const size_t cdim = core_.params().packed.PackedDim(begin.dim);
  if ((streamed ? begin.total_count : whole.size()) != cdim) {
    return Status::InvalidArgument(
        "silo cipher count inconsistent with model dimension");
  }
  *dim_out = begin.dim;
  auto fold = [&](std::vector<BigInt>&& values, size_t offset) -> Status {
    std::lock_guard<std::mutex> lock(*fold_mu);
    // The aggregate grows only over coordinates that have arrived: a
    // stream's announced count is the peer's claim, and sizing from it
    // would let one StreamBegin allocate without bound. Entries no silo
    // has shipped yet are the identity 1, so the product's bits are those
    // of an aggregate sized up front.
    const size_t end = offset + values.size();
    if (product->size() < end) product->resize(end, BigInt(1));
    return core_.AccumulateSiloCipherRange(values, offset, product);
  };
  if (!streamed) return fold(std::move(whole), 0);
  auto receiver = ChunkStreamReceiver::Create(
      begin, StreamKind::kSiloCipher, begin.phase_tag, cdim,
      static_cast<uint32_t>(StreamChunkCoords(config_)));
  if (!receiver.ok()) return receiver.status();
  return ReceiveChunkedStream(
      std::move(receiver.value()), fold,
      [&](const Frame& ack) { return SendTo(silo, ack); },
      [&] { return RecvFrom(silo); });
}

Status ProtocolServer::Shutdown() {
  Status status = Broadcast(ToFrame(ShutdownMsg{}));
  // The broadcast is already queued/flushed per connection; interrupting
  // afterwards only stops the receive side, so clients still read the
  // Shutdown frame before seeing EOF.
  if (mux_ != nullptr) mux_->Shutdown();
  return status;
}

// ---------------------------------------------------------------------------
// SiloClient

SiloClient::SiloClient(const ProtocolConfig& config, int silo_id,
                       int num_silos, int num_users,
                       std::vector<int> histogram)
    : config_(config),
      silo_id_(silo_id),
      num_silos_(num_silos),
      num_users_(num_users),
      histogram_(std::move(histogram)),
      pool_(config.num_threads) {
  ULDP_CHECK_GE(silo_id_, 0);
  ULDP_CHECK_LT(silo_id_, num_silos_);
  ULDP_CHECK_EQ(histogram_.size(), static_cast<size_t>(num_users_));
}

Status SiloClient::Run(Transport& transport, const RoundInput& input,
                       const RoundResultFn& on_result) {
  Status status = RunLoop(transport, input, on_result);
  if (!status.ok()) {
    transport.Send(MakeErrorFrame(status));  // best effort
  }
  return status;
}

Result<std::vector<BigInt>> SiloClient::HandleOtRound(
    Transport& transport, uint64_t round, const OtSenderMsg& sender_msg) {
  obs::TraceSpan span("silo.ot_round", "round", static_cast<int64_t>(round));
  // Receiver commitments, then the encrypted slots.
  auto bs = core_->OtReceiverChoose(round, sender_msg.senders, *pool_);
  if (!bs.ok()) return bs.status();
  OtReceiverMsg receiver;
  receiver.phase_tag = MakeMaskTag(MaskPhase::kOtSlotChoice, round);
  receiver.bs = std::move(bs.value());
  ULDP_RETURN_IF_ERROR(transport.Send(ToFrame(receiver)));

  auto slots = RecvMsg<OtSlotsMsg>(transport);
  if (!slots.ok()) return slots.status();
  ULDP_RETURN_IF_ERROR(CheckPhaseTag(slots.value().phase_tag,
                                     MaskPhase::kOtSlotChoice, round));
  auto enc = core_->OtReceiverDecrypt(round, sender_msg.senders,
                                      slots.value().slots, *pool_);
  if (!enc.ok()) return enc.status();

  // Re-distribute the fetched ciphertexts to the peers, encrypted under
  // the pairwise keys so the relaying server cannot match them to slots.
  WireWriter w;
  w.BigVec(enc.value());
  const uint64_t relay_tag = MakeMaskTag(MaskPhase::kOtWeightRelay, round);
  ULDP_RETURN_IF_ERROR(SendRelays(
      *core_, transport, relay_tag, w.Take(),
      [relay_tag](uint32_t to, std::vector<uint8_t> ciphertext) {
        WeightRelayMsg relay;
        relay.phase_tag = relay_tag;
        relay.from_silo = 0;
        relay.to_silo = to;
        relay.ciphertext = std::move(ciphertext);
        return ToFrame(relay);
      }));
  return enc;
}

Result<SiloClient::RoundOpening> SiloClient::OpenRound(Transport& transport,
                                                       const Frame& first) {
  // The config fixes the one frame that may open this silo's round.
  const MessageType opener =
      config_.ot_slots > 0
          ? (silo_id_ == 0 ? MessageType::kOtSender : MessageType::kWeightRelay)
          : (StreamChunkUsers(config_) > 0 ? MessageType::kStreamBegin
                                           : MessageType::kRoundBegin);
  if (first.type != static_cast<uint16_t>(opener)) {
    return Status::InvalidArgument(
        "unexpected message type " + std::to_string(first.type) +
        " opening a round; this silo's config expects type " +
        std::to_string(static_cast<uint16_t>(opener)));
  }
  RoundOpening out;
  switch (opener) {
    case MessageType::kRoundBegin: {
      auto begin = ParseOpening<RoundBeginMsg>(
          first, MaskPhase::kRoundWeighting, "RoundBegin");
      if (!begin.ok()) return begin.status();
      out.round = MaskTagRound(begin.value().phase_tag);
      out.enc_weights = std::move(begin.value().enc_weights);
      return out;
    }
    case MessageType::kStreamBegin: {
      auto begin = ParseOpening<StreamBeginMsg>(
          first, MaskPhase::kRoundWeighting, "stream begin");
      if (!begin.ok()) return begin.status();
      out.round = MaskTagRound(begin.value().phase_tag);
      out.stream = std::move(begin.value());
      return out;
    }
    case MessageType::kOtSender: {
      auto sender = ParseOpening<OtSenderMsg>(
          first, MaskPhase::kOtSlotChoice, "OT sender");
      if (!sender.ok()) return sender.status();
      out.round = MaskTagRound(sender.value().phase_tag);
      auto enc = HandleOtRound(transport, out.round, sender.value());
      if (!enc.ok()) return enc.status();
      out.enc_weights = std::move(enc.value());
      return out;
    }
    default: {  // MessageType::kWeightRelay, the one opener left
      auto relay = ParseOpening<WeightRelayMsg>(
          first, MaskPhase::kOtWeightRelay, "weight relay");
      if (!relay.ok()) return relay.status();
      out.round = MaskTagRound(relay.value().phase_tag);
      ULDP_RETURN_IF_ERROR(OpenRelay(
          *core_, "weight relay", relay.value().from_silo,
          relay.value().to_silo, relay.value().phase_tag,
          std::move(relay.value().ciphertext), &WireReader::BigVec,
          &out.enc_weights));
      return out;
    }
  }
}

Status SiloClient::ServeRound(Transport& transport, const Frame& first,
                              const RoundInput& input,
                              const RoundResultFn& on_result) {
  auto opening = OpenRound(transport, first);
  if (!opening.ok()) return opening.status();
  const uint64_t round = opening.value().round;
  std::vector<BigInt>& enc_weights = opening.value().enc_weights;
  obs::TraceSpan round_span("silo.round", "round",
                            static_cast<int64_t>(round));

  // The silo's own deltas and noise come before any fold: a streamed
  // round folds each chunk as it lands.
  std::vector<Vec> deltas;
  Vec noise;
  ULDP_RETURN_IF_ERROR(input(round, &deltas, &noise));
  const size_t dim = noise.size();
  std::vector<BigInt> cipher =
      SiloCore::NewCipherAccumulator(core_->params().packed.PackedDim(dim));
  // Folds users [u0, u1) of enc_weights in index-ordered batches, each
  // building and freeing its own tables. The cipher is an exact modular
  // product, so batching and chunking never change a bit.
  auto fold = [&](int u0, int u1) -> Status {
    for (int b0 = u0; b0 < u1; b0 += kWeightingBatchUsers) {
      ULDP_RETURN_IF_ERROR(core_->FoldUsers(
          b0, std::min(u1, b0 + kWeightingBatchUsers), enc_weights, deltas,
          dim, &cipher, *pool_));
    }
    return Status::Ok();
  };
  if (!opening.value().stream) {
    ULDP_RETURN_IF_ERROR(fold(0, num_users_));
  } else {
    auto receiver = ChunkStreamReceiver::Create(
        *opening.value().stream, StreamKind::kEncWeights,
        opening.value().stream->phase_tag, static_cast<size_t>(num_users_),
        static_cast<uint32_t>(StreamChunkUsers(config_)));
    if (!receiver.ok()) return receiver.status();
    // Each chunk is resident only while it folds, so the round holds
    // O(chunk) ciphertexts however many users there are.
    enc_weights.assign(static_cast<size_t>(num_users_), BigInt());
    ULDP_RETURN_IF_ERROR(ReceiveChunkedStream(
        std::move(receiver.value()),
        [&](std::vector<BigInt>&& values, size_t offset) -> Status {
          const auto u0 = static_cast<long>(offset);
          const auto u1 = u0 + static_cast<long>(values.size());
          std::move(values.begin(), values.end(), enc_weights.begin() + u0);
          Status folded = fold(static_cast<int>(u0), static_cast<int>(u1));
          std::fill(enc_weights.begin() + u0, enc_weights.begin() + u1,
                    BigInt());
          return folded;
        },
        [&](const Frame& ack) { return transport.Send(ack); },
        [&] { return RecvFromServer(transport); }));
  }
  ULDP_RETURN_IF_ERROR(core_->FinishRound(round, noise, &cipher, *pool_));
  ULDP_RETURN_IF_ERROR(UploadCipher(transport, round, dim, std::move(cipher)));

  auto result = RecvMsg<RoundResultMsg>(transport);
  if (!result.ok()) return result.status();
  ULDP_RETURN_IF_ERROR(CheckPhaseTag(result.value().phase_tag,
                                     MaskPhase::kRoundWeighting, round));
  ULDP_RETURN_IF_ERROR(CheckRoundResult(result.value().aggregate, dim,
                                        core_->params().DecodedBound()));
  if (on_result) on_result(round, result.value().aggregate);
  return Status::Ok();
}

Status SiloClient::UploadCipher(Transport& transport, uint64_t round,
                                size_t model_dim, std::vector<BigInt> cipher) {
  obs::TraceSpan span("silo.upload_cipher", "round",
                      static_cast<int64_t>(round));
  const uint64_t tag = MakeMaskTag(MaskPhase::kRoundWeighting, round);
  if (StreamChunkUsers(config_) <= 0) {
    SiloCipherMsg msg;
    msg.phase_tag = tag;
    msg.silo_id = static_cast<uint32_t>(silo_id_);
    msg.dim = static_cast<uint32_t>(model_dim);
    msg.cipher = std::move(cipher);
    return transport.Send(ToFrame(msg));
  }
  // Chunked so that no frame approaches the transport cap, whichever way
  // the weights arrived.
  StreamSendOptions opts;
  opts.phase_tag = tag;
  opts.kind = StreamKind::kSiloCipher;
  opts.sender_id = static_cast<uint32_t>(silo_id_);
  opts.dim = static_cast<uint32_t>(model_dim);
  opts.chunk_elems = StreamChunkCoords(config_);
  return SendChunkedStream(
      cipher.size(), opts, /*receivers=*/1,
      [&](size_t c0, size_t c1) -> Result<std::vector<BigInt>> {
        return std::vector<BigInt>(
            std::make_move_iterator(cipher.begin() + static_cast<long>(c0)),
            std::make_move_iterator(cipher.begin() + static_cast<long>(c1)));
      },
      [&](const Frame& f) { return transport.Send(f); },
      [&](int) { return transport.Recv(); });
}

Status SiloClient::RunLoop(Transport& transport, const RoundInput& input,
                           const RoundResultFn& on_result) {
  const uint64_t setup_start_ns = obs::NowNs();
  // -- Join handshake ------------------------------------------------------
  JoinMsg join;
  join.silo_id = static_cast<uint32_t>(silo_id_);
  join.num_silos = static_cast<uint32_t>(num_silos_);
  join.num_users = static_cast<uint32_t>(num_users_);
  join.config_digest = ProtocolWireDigest(config_, num_silos_, num_users_);
  ULDP_RETURN_IF_ERROR(transport.Send(ToFrame(join)));

  auto setup = RecvMsg<SetupParamsMsg>(transport);
  if (!setup.ok()) return setup.status();

  ProtocolParams params;
  params.config = config_;
  params.num_silos = num_silos_;
  params.num_users = num_users_;
  params.public_key.n = setup.value().paillier_n;
  if (config_.ot_slots > 0) {
    params.ot_group.p = setup.value().ot_p;
    params.ot_group.g = setup.value().ot_g;
  }
  ULDP_RETURN_IF_ERROR(params.Derive());
  core_ = std::make_unique<SiloCore>(std::move(params), silo_id_, histogram_);

  // -- DH key exchange -----------------------------------------------------
  DhPublicKeyMsg dh;
  dh.silo_id = static_cast<uint32_t>(silo_id_);
  dh.public_key = core_->dh_key().public_key;
  ULDP_RETURN_IF_ERROR(transport.Send(ToFrame(dh)));
  auto directory = RecvMsg<DhDirectoryMsg>(transport);
  if (!directory.ok()) return directory.status();
  ULDP_RETURN_IF_ERROR(
      core_->ComputePairKeys(directory.value().public_keys));

  // -- Shared seed R (silo 0 distributes; server relays ciphertext) --------
  const uint64_t seed_tag = MakeMaskTag(MaskPhase::kSeedRelay, 0);
  BigInt r_seed;
  if (silo_id_ == 0) {
    r_seed = core_->MakeSharedSeed();
    WireWriter w;
    w.Big(r_seed);
    ULDP_RETURN_IF_ERROR(SendRelays(
        *core_, transport, seed_tag, w.Take(),
        [](uint32_t to, std::vector<uint8_t> ciphertext) {
          SeedShareMsg share;
          share.from_silo = 0;
          share.to_silo = to;
          share.ciphertext = std::move(ciphertext);
          return ToFrame(share);
        }));
  } else {
    auto share = RecvMsg<SeedShareMsg>(transport);
    if (!share.ok()) return share.status();
    ULDP_RETURN_IF_ERROR(OpenRelay(
        *core_, "seed share", share.value().from_silo, share.value().to_silo,
        seed_tag, std::move(share.value().ciphertext), &WireReader::Big,
        &r_seed));
  }
  core_->SetSharedSeed(r_seed);

  // -- Blinded histogram ---------------------------------------------------
  auto blinded = core_->BlindHistogram(*pool_);
  if (!blinded.ok()) return blinded.status();
  BlindedHistogramMsg histogram;
  histogram.silo_id = static_cast<uint32_t>(silo_id_);
  histogram.values = std::move(blinded.value());
  ULDP_RETURN_IF_ERROR(transport.Send(ToFrame(histogram)));
  auto ack = RecvMsg<SetupAckMsg>(transport);
  if (!ack.ok()) return ack.status();
  // The setup leg spans the whole straight-line section above, so it is
  // recorded directly rather than via a scoped span.
  obs::TraceBuffer& trace = obs::TraceBuffer::Global();
  if (trace.enabled()) {
    const obs::TraceArg silo{"silo", static_cast<int64_t>(silo_id_)};
    trace.Record("silo.setup", setup_start_ns,
                 obs::NowNs() - setup_start_ns, &silo, 1);
  }

  // -- Round loop ----------------------------------------------------------
  for (;;) {
    auto frame = RecvFromServer(transport);
    if (!frame.ok()) return frame.status();
    if (frame.value().type == static_cast<uint16_t>(MessageType::kShutdown)) {
      return Status::Ok();
    }
    ULDP_RETURN_IF_ERROR(
        ServeRound(transport, frame.value(), input, on_result));
  }
}

}  // namespace net
}  // namespace uldp
