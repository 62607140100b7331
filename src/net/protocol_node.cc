#include "net/protocol_node.h"

#include <chrono>
#include <iterator>
#include <mutex>
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

  // Gather DH public keys (one blocking recv per silo, in parallel), then
  // relay the full directory.
  DhDirectoryMsg directory;
  directory.public_keys.assign(num_silos_, BigInt(0));
  std::vector<Status> status(num_silos_, Status::Ok());
  pool_->ParallelFor(static_cast<size_t>(num_silos_), [&](size_t s) {
    auto frame = RecvFrom(static_cast<int>(s));
    if (!frame.ok()) {
      status[s] = frame.status();
      return;
    }
    auto msg = FromFrame<DhPublicKeyMsg>(frame.value());
    if (!msg.ok()) {
      status[s] = msg.status();
      return;
    }
    if (msg.value().silo_id != s) {
      status[s] = Status::InvalidArgument("DH key from wrong silo id");
      return;
    }
    directory.public_keys[s] = std::move(msg.value().public_key);
  });
  ULDP_RETURN_IF_ERROR(FirstError(status));
  ULDP_RETURN_IF_ERROR(Broadcast(ToFrame(directory)));

  // Relay silo 0's encrypted seed shares; the server sees only ciphertext.
  std::vector<bool> share_seen(num_silos_, false);
  for (int i = 0; i < num_silos_ - 1; ++i) {
    auto frame = RecvFrom(0);
    if (!frame.ok()) return frame.status();
    auto msg = FromFrame<SeedShareMsg>(frame.value());
    if (!msg.ok()) return msg.status();
    const SeedShareMsg& share = msg.value();
    if (share.from_silo != 0 || share.to_silo == 0 ||
        share.to_silo >= static_cast<uint32_t>(num_silos_) ||
        share_seen[share.to_silo]) {
      return Status::InvalidArgument("invalid seed share routing");
    }
    share_seen[share.to_silo] = true;
    ULDP_RETURN_IF_ERROR(SendTo(static_cast<int>(share.to_silo),
                                frame.value()));
  }

  // Gather doubly blinded histograms and finish setup.
  std::vector<std::vector<BigInt>> blinded(num_silos_);
  pool_->ParallelFor(static_cast<size_t>(num_silos_), [&](size_t s) {
    auto frame = RecvFrom(static_cast<int>(s));
    if (!frame.ok()) {
      status[s] = frame.status();
      return;
    }
    auto msg = FromFrame<BlindedHistogramMsg>(frame.value());
    if (!msg.ok()) {
      status[s] = msg.status();
      return;
    }
    if (msg.value().silo_id != s) {
      status[s] = Status::InvalidArgument("histogram from wrong silo id");
      return;
    }
    blinded[s] = std::move(msg.value().values);
  });
  ULDP_RETURN_IF_ERROR(FirstError(status));
  for (int s = 0; s < num_silos_; ++s) {
    ULDP_RETURN_IF_ERROR(core_.AbsorbBlindedHistogram(s, std::move(blinded[s])));
  }
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
  if (config_.ot_slots > 0) {
    obs::TraceSpan ot_span("proto.ot_round", "round",
                           static_cast<int64_t>(round));
    // OT-based private sub-sampling: silo 0 acts as the joint receiver
    // (all silos share the seed that picks the slots) and re-distributes
    // the fetched ciphertexts to its peers, encrypted under pairwise keys
    // so this server only relays opaque bytes.
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

    // Relay the encrypted weight shares to silos 1..N-1.
    std::vector<bool> relay_seen(num_silos_, false);
    for (int i = 0; i < num_silos_ - 1; ++i) {
      auto frame = RecvFrom(0);
      if (!frame.ok()) return frame.status();
      auto msg = FromFrame<WeightRelayMsg>(frame.value());
      if (!msg.ok()) return msg.status();
      const WeightRelayMsg& relay = msg.value();
      Status tag_ok = CheckPhaseTag(relay.phase_tag,
                                    MaskPhase::kOtWeightRelay, round);
      if (!tag_ok.ok()) return tag_ok;
      if (relay.from_silo != 0 || relay.to_silo == 0 ||
          relay.to_silo >= static_cast<uint32_t>(num_silos_) ||
          relay_seen[relay.to_silo]) {
        return Status::InvalidArgument("invalid weight relay routing");
      }
      relay_seen[relay.to_silo] = true;
      ULDP_RETURN_IF_ERROR(SendTo(static_cast<int>(relay.to_silo),
                                  frame.value()));
    }
  } else if (StreamChunkUsers(config_) > 0) {
    // Streaming: per-user-chunk encrypt -> broadcast -> discard, so the
    // server never materializes the full enc-weight vector.
    ULDP_RETURN_IF_ERROR(StreamEncWeights(round, user_sampled));
  } else {
    auto enc = core_.EncryptWeights(round, user_sampled, *pool_);
    if (!enc.ok()) return enc.status();
    RoundBeginMsg begin;
    begin.phase_tag = MakeMaskTag(MaskPhase::kRoundWeighting, round);
    begin.enc_weights = std::move(enc.value());
    ULDP_RETURN_IF_ERROR(Broadcast(ToFrame(begin)));
  }
  EndPhase("enc_weights");

  // Gather the masked silo ciphertexts, folding each into the running
  // product as it lands — exact modular products make arrival order
  // irrelevant bitwise, and the server holds one aggregate instead of
  // num_silos cipher vectors.
  BeginPhase();
  const bool streaming = StreamChunkUsers(config_) > 0;
  std::vector<BigInt> product;
  std::mutex fold_mu;
  std::vector<Status> status(num_silos_, Status::Ok());
  std::vector<uint32_t> dims(num_silos_, 0);
  pool_->ParallelFor(static_cast<size_t>(num_silos_), [&](size_t s) {
    if (streaming) {
      // The cipher arrives as a coordinate-chunk stream; every chunk is
      // folded on arrival.
      status[s] = GatherSiloCipherStream(static_cast<int>(s), round,
                                         &fold_mu, &product, &dims[s]);
      return;
    }
    auto frame = RecvFrom(static_cast<int>(s));
    if (!frame.ok()) {
      status[s] = frame.status();
      return;
    }
    auto msg = FromFrame<SiloCipherMsg>(frame.value());
    if (!msg.ok()) {
      status[s] = msg.status();
      return;
    }
    Status tag_ok = CheckPhaseTag(msg.value().phase_tag,
                                  MaskPhase::kRoundWeighting, round);
    if (!tag_ok.ok()) {
      status[s] = tag_ok;
      return;
    }
    if (msg.value().silo_id != s) {
      status[s] = Status::InvalidArgument("cipher from wrong silo id");
      return;
    }
    // The advertised model dimension must match the packed cipher count;
    // a mismatch means the peer runs a different slot layout.
    if (core_.params().packed.PackedDim(msg.value().dim) !=
        msg.value().cipher.size()) {
      status[s] = Status::InvalidArgument(
          "silo cipher count inconsistent with model dimension");
      return;
    }
    dims[s] = msg.value().dim;
    std::lock_guard<std::mutex> lock(fold_mu);
    if (product.empty()) product.assign(msg.value().cipher.size(), BigInt(1));
    status[s] = core_.AccumulateSiloCipher(msg.value().cipher, &product);
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

Status ProtocolServer::GatherSiloCipherStream(int silo, uint64_t round,
                                              std::mutex* fold_mu,
                                              std::vector<BigInt>* product,
                                              uint32_t* dim_out) {
  obs::TraceSpan span("proto.gather_cipher_stream", "silo", silo);
  const uint64_t tag = MakeMaskTag(MaskPhase::kRoundWeighting, round);
  auto frame = RecvFrom(silo);
  if (!frame.ok()) return frame.status();
  auto begin_or = FromFrame<StreamBeginMsg>(frame.value());
  if (!begin_or.ok()) return begin_or.status();
  const StreamBeginMsg& begin = begin_or.value();
  if (begin.sender_id != static_cast<uint32_t>(silo)) {
    return Status::InvalidArgument("cipher stream from wrong silo id");
  }
  ULDP_RETURN_IF_ERROR(
      CheckPhaseTag(begin.phase_tag, MaskPhase::kRoundWeighting, round));
  // Same layout check as the monolithic SiloCipherMsg path: the announced
  // model dimension must match the packed cipher count.
  const size_t cdim = core_.params().packed.PackedDim(begin.dim);
  if (begin.total_count != cdim) {
    return Status::InvalidArgument(
        "silo cipher count inconsistent with model dimension");
  }
  *dim_out = begin.dim;
  auto receiver = ChunkStreamReceiver::Create(
      begin, StreamKind::kSiloCipher, tag, cdim,
      static_cast<uint32_t>(StreamChunkCoords(config_)));
  if (!receiver.ok()) return receiver.status();
  return ReceiveChunkedStream(
      std::move(receiver.value()),
      [&](std::vector<BigInt>&& values, size_t offset) -> Status {
        std::lock_guard<std::mutex> lock(*fold_mu);
        // The aggregate grows only over coordinates that have arrived: the
        // announced count is the peer's claim, and sizing from it would
        // let one StreamBegin allocate without bound. Entries no silo has
        // shipped yet are the identity 1, so the product's bits are those
        // of an aggregate sized up front.
        const size_t end = offset + values.size();
        if (product->size() < end) product->resize(end, BigInt(1));
        return core_.AccumulateSiloCipherRange(values, offset, product);
      },
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

  auto frame = RecvFromServer(transport);
  if (!frame.ok()) return frame.status();
  auto slots = FromFrame<OtSlotsMsg>(frame.value());
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
  const std::vector<uint8_t> plain = w.Take();
  const uint64_t relay_tag = MakeMaskTag(MaskPhase::kOtWeightRelay, round);
  for (int to = 1; to < num_silos_; ++to) {
    auto ct = core_->PairStreamXor(to, relay_tag,
                                   static_cast<uint32_t>(to), plain);
    if (!ct.ok()) return ct.status();
    WeightRelayMsg relay;
    relay.phase_tag = relay_tag;
    relay.from_silo = 0;
    relay.to_silo = static_cast<uint32_t>(to);
    relay.ciphertext = std::move(ct.value());
    ULDP_RETURN_IF_ERROR(transport.Send(ToFrame(relay)));
  }
  return enc;
}

Status SiloClient::UploadCipherStream(Transport& transport, uint64_t round,
                                      size_t model_dim,
                                      std::vector<BigInt> cipher) {
  obs::TraceSpan span("silo.upload_cipher", "round",
                      static_cast<int64_t>(round));
  StreamSendOptions opts;
  opts.phase_tag = MakeMaskTag(MaskPhase::kRoundWeighting, round);
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

Status SiloClient::HandleStreamedRound(Transport& transport,
                                       const Frame& first,
                                       const RoundInput& input,
                                       const RoundResultFn& on_result) {
  if (StreamChunkUsers(config_) <= 0 || config_.ot_slots > 0) {
    return Status::InvalidArgument(
        "unexpected enc-weight stream for this configuration");
  }
  auto begin_or = FromFrame<StreamBeginMsg>(first);
  if (!begin_or.ok()) return begin_or.status();
  const StreamBeginMsg& begin = begin_or.value();
  if (MaskTagPhase(begin.phase_tag) != MaskPhase::kRoundWeighting) {
    return Status::InvalidArgument("stream begin with wrong phase tag");
  }
  const uint64_t round = MaskTagRound(begin.phase_tag);
  obs::TraceSpan span("silo.stream_round", "round",
                      static_cast<int64_t>(round));

  // Round inputs first: the fold needs this silo's deltas and the model
  // dimension before the first chunk lands.
  std::vector<Vec> deltas;
  Vec noise;
  ULDP_RETURN_IF_ERROR(input(round, &deltas, &noise));
  const size_t dim = noise.size();
  const size_t cdim = core_->params().packed.PackedDim(dim);

  auto receiver = ChunkStreamReceiver::Create(
      begin, StreamKind::kEncWeights, begin.phase_tag,
      static_cast<size_t>(num_users_),
      static_cast<uint32_t>(StreamChunkUsers(config_)));
  if (!receiver.ok()) return receiver.status();
  std::vector<BigInt> cipher = SiloCore::NewCipherAccumulator(cdim);
  ULDP_RETURN_IF_ERROR(ReceiveChunkedStream(
      std::move(receiver.value()),
      [&](std::vector<BigInt>&& values, size_t offset) -> Status {
        return core_->AccumulateUsersChunk(
            values, static_cast<int>(offset),
            static_cast<int>(offset + values.size()), deltas, dim, &cipher,
            *pool_);
      },
      [&](const Frame& ack) { return transport.Send(ack); },
      [&] { return RecvFromServer(transport); }));
  ULDP_RETURN_IF_ERROR(core_->FinishRound(round, noise, &cipher, *pool_));
  ULDP_RETURN_IF_ERROR(
      UploadCipherStream(transport, round, dim, std::move(cipher)));

  auto frame = RecvFromServer(transport);
  if (!frame.ok()) return frame.status();
  auto result = FromFrame<RoundResultMsg>(frame.value());
  if (!result.ok()) return result.status();
  ULDP_RETURN_IF_ERROR(CheckPhaseTag(result.value().phase_tag,
                                     MaskPhase::kRoundWeighting, round));
  if (on_result) on_result(round, result.value().aggregate);
  return Status::Ok();
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

  auto frame = RecvFromServer(transport);
  if (!frame.ok()) return frame.status();
  auto setup = FromFrame<SetupParamsMsg>(frame.value());
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
  frame = RecvFromServer(transport);
  if (!frame.ok()) return frame.status();
  auto directory = FromFrame<DhDirectoryMsg>(frame.value());
  if (!directory.ok()) return directory.status();
  ULDP_RETURN_IF_ERROR(
      core_->ComputePairKeys(directory.value().public_keys));

  // -- Shared seed R (silo 0 distributes; server relays ciphertext) --------
  const uint64_t seed_tag = MakeMaskTag(MaskPhase::kSeedRelay, 0);
  if (silo_id_ == 0) {
    BigInt r_seed = core_->MakeSharedSeed();
    core_->SetSharedSeed(r_seed);
    WireWriter w;
    w.Big(r_seed);
    const std::vector<uint8_t> plain = w.Take();
    for (int to = 1; to < num_silos_; ++to) {
      auto ct = core_->PairStreamXor(to, seed_tag,
                                     static_cast<uint32_t>(to), plain);
      if (!ct.ok()) return ct.status();
      SeedShareMsg share;
      share.from_silo = 0;
      share.to_silo = static_cast<uint32_t>(to);
      share.ciphertext = std::move(ct.value());
      ULDP_RETURN_IF_ERROR(transport.Send(ToFrame(share)));
    }
  } else {
    frame = RecvFromServer(transport);
    if (!frame.ok()) return frame.status();
    auto share = FromFrame<SeedShareMsg>(frame.value());
    if (!share.ok()) return share.status();
    if (share.value().from_silo != 0 ||
        static_cast<int>(share.value().to_silo) != silo_id_) {
      return Status::InvalidArgument("misrouted seed share");
    }
    auto plain = core_->PairStreamXor(0, seed_tag,
                                      static_cast<uint32_t>(silo_id_),
                                      share.value().ciphertext);
    if (!plain.ok()) return plain.status();
    WireReader r(plain.value());
    BigInt r_seed;
    ULDP_RETURN_IF_ERROR(r.Big(&r_seed));
    if (!r.AtEnd()) {
      return Status::InvalidArgument("trailing bytes in seed share");
    }
    core_->SetSharedSeed(r_seed);
  }

  // -- Blinded histogram ---------------------------------------------------
  auto blinded = core_->BlindHistogram(*pool_);
  if (!blinded.ok()) return blinded.status();
  BlindedHistogramMsg histogram;
  histogram.silo_id = static_cast<uint32_t>(silo_id_);
  histogram.values = std::move(blinded.value());
  ULDP_RETURN_IF_ERROR(transport.Send(ToFrame(histogram)));
  frame = RecvFromServer(transport);
  if (!frame.ok()) return frame.status();
  auto ack = FromFrame<SetupAckMsg>(frame.value());
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
    frame = RecvFromServer(transport);
    if (!frame.ok()) return frame.status();
    const uint16_t type = frame.value().type;
    if (type == static_cast<uint16_t>(MessageType::kShutdown)) {
      return Status::Ok();
    }

    if (type == static_cast<uint16_t>(MessageType::kStreamBegin)) {
      ULDP_RETURN_IF_ERROR(
          HandleStreamedRound(transport, frame.value(), input, on_result));
      continue;
    }

    uint64_t round = 0;
    std::vector<BigInt> enc_weights;
    if (type == static_cast<uint16_t>(MessageType::kRoundBegin)) {
      if (config_.ot_slots > 0) {
        return Status::InvalidArgument(
            "plain RoundBegin received in OT mode");
      }
      if (StreamChunkUsers(config_) > 0) {
        return Status::InvalidArgument(
            "plain RoundBegin received in streaming mode");
      }
      auto begin = FromFrame<RoundBeginMsg>(frame.value());
      if (!begin.ok()) return begin.status();
      if (MaskTagPhase(begin.value().phase_tag) !=
          MaskPhase::kRoundWeighting) {
        return Status::InvalidArgument("RoundBegin with wrong phase tag");
      }
      round = MaskTagRound(begin.value().phase_tag);
      enc_weights = std::move(begin.value().enc_weights);
    } else if (type == static_cast<uint16_t>(MessageType::kOtSender)) {
      if (config_.ot_slots <= 0 || silo_id_ != 0) {
        return Status::InvalidArgument(
            "unexpected OT sender message for this silo");
      }
      auto sender = FromFrame<OtSenderMsg>(frame.value());
      if (!sender.ok()) return sender.status();
      if (MaskTagPhase(sender.value().phase_tag) !=
          MaskPhase::kOtSlotChoice) {
        return Status::InvalidArgument("OT sender with wrong phase tag");
      }
      round = MaskTagRound(sender.value().phase_tag);
      auto enc = HandleOtRound(transport, round, sender.value());
      if (!enc.ok()) return enc.status();
      enc_weights = std::move(enc.value());
    } else if (type == static_cast<uint16_t>(MessageType::kWeightRelay)) {
      if (config_.ot_slots <= 0 || silo_id_ == 0) {
        return Status::InvalidArgument(
            "unexpected weight relay for this silo");
      }
      auto relay = FromFrame<WeightRelayMsg>(frame.value());
      if (!relay.ok()) return relay.status();
      if (MaskTagPhase(relay.value().phase_tag) !=
          MaskPhase::kOtWeightRelay) {
        return Status::InvalidArgument("weight relay with wrong phase tag");
      }
      round = MaskTagRound(relay.value().phase_tag);
      if (relay.value().from_silo != 0 ||
          static_cast<int>(relay.value().to_silo) != silo_id_) {
        return Status::InvalidArgument("misrouted weight relay");
      }
      auto plain = core_->PairStreamXor(0, relay.value().phase_tag,
                                        static_cast<uint32_t>(silo_id_),
                                        relay.value().ciphertext);
      if (!plain.ok()) return plain.status();
      WireReader r(plain.value());
      ULDP_RETURN_IF_ERROR(r.BigVec(&enc_weights));
      if (!r.AtEnd()) {
        return Status::InvalidArgument("trailing bytes in weight relay");
      }
    } else {
      return Status::InvalidArgument("unexpected message type " +
                                     std::to_string(type) +
                                     " in round loop");
    }

    // Round computation: the silo's own deltas and noise, then the
    // encrypted weighted sum with masks.
    obs::TraceSpan round_span("silo.round", "round",
                              static_cast<int64_t>(round));
    std::vector<Vec> deltas;
    Vec noise;
    ULDP_RETURN_IF_ERROR(input(round, &deltas, &noise));
    auto cipher = core_->WeightMaskRound(round, enc_weights, deltas, noise,
                                         *pool_);
    if (!cipher.ok()) return cipher.status();
    if (StreamChunkUsers(config_) > 0) {
      // Streaming with OT: the weight distribution is the OT dance
      // (materialized by construction), but the cipher upload is still
      // chunked so no frame approaches the transport cap.
      ULDP_RETURN_IF_ERROR(UploadCipherStream(
          transport, round, noise.size(), std::move(cipher.value())));
    } else {
      SiloCipherMsg cipher_msg;
      cipher_msg.phase_tag = MakeMaskTag(MaskPhase::kRoundWeighting, round);
      cipher_msg.silo_id = static_cast<uint32_t>(silo_id_);
      cipher_msg.dim = static_cast<uint32_t>(noise.size());
      cipher_msg.cipher = std::move(cipher.value());
      ULDP_RETURN_IF_ERROR(transport.Send(ToFrame(cipher_msg)));
    }

    frame = RecvFromServer(transport);
    if (!frame.ok()) return frame.status();
    auto result = FromFrame<RoundResultMsg>(frame.value());
    if (!result.ok()) return result.status();
    ULDP_RETURN_IF_ERROR(CheckPhaseTag(result.value().phase_tag,
                                       MaskPhase::kRoundWeighting, round));
    if (on_result) on_result(round, result.value().aggregate);
  }
}

}  // namespace net
}  // namespace uldp
