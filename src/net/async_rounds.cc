#include "net/async_rounds.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "core/mask_tags.h"
#include "dp/accountant.h"
#include "fl/local_trainer.h"
#include "net/membership.h"
#include "net/messages.h"
#include "net/mux.h"
#include "nn/model.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace uldp {
namespace net {

uint64_t AsyncRoundsWireDigest(const AsyncRoundsConfig& config, int num_silos,
                               int dim) {
  WireWriter w;
  w.U16(kWireVersion);
  w.U32(static_cast<uint32_t>(config.max_staleness));
  w.U32(static_cast<uint32_t>(config.buffer_size <= 0 ? num_silos
                                                      : config.buffer_size));
  w.F64(config.step_scale);
  w.U64(config.seed);
  w.U32(static_cast<uint32_t>(num_silos));
  w.U32(static_cast<uint32_t>(dim));
  w.U8(config.elastic ? 1 : 0);
  w.U32(static_cast<uint32_t>(config.min_silos));
  w.U8(config.masked ? 1 : 0);
  return WireDigest(w.buffer());
}

// ---------------------------------------------------------------------------
// AsyncRoundServer

namespace {

/// Active silos a run needs: the whole cohort when it is static, else
/// min_silos (at least one).
int NeededSilos(const AsyncRoundsConfig& config, int num_silos) {
  return config.elastic ? std::max(1, config.min_silos) : num_silos;
}

}  // namespace

/// Everything one run threads through the server's rules: the mux and
/// aggregator, the membership manager bound to the server's session, the
/// evolving global model, and the per-silo bookkeeping. Lives on
/// RunInternal's stack — one per run.
struct AsyncRoundServer::RunCtx {
  explicit RunCtx(AsyncRoundServer* server)
      : aggregator(server->num_silos_, server->config_.max_staleness,
                   server->config_.buffer_size),
        manager(&server->session_, server->tracker_),
        owed(server->num_silos_, 0),
        waiting(server->num_silos_, false),
        due(server->num_silos_, false),
        departed(server->num_silos_, false),
        silo_peer(server->num_silos_, -1),
        masked(server->config_.masked ? server->num_silos_ : 0),
        resolved_buffer(server->config_.buffer_size <= 0
                            ? server->num_silos_
                            : server->config_.buffer_size) {}

  std::unique_ptr<FrameMux> mux;
  AsyncAggregator aggregator;
  MembershipManager manager;
  Vec global;
  std::vector<int> owed;        // [silo] released frames not yet answered
  std::vector<bool> waiting;    // [silo] update consumed by this step
  std::vector<bool> due;        // [silo] to be released at this version
  std::vector<bool> departed;   // [silo] left/evicted during this run
  std::vector<int> peer_silo;   // [mux peer] -> silo id
  std::vector<int> silo_peer;   // [silo id] -> mux peer, -1 unregistered
  std::vector<FieldVector> masked;  // [silo] this step's masked vector
  bool unsealed = false;        // membership transitions not yet sealed
  int resolved_buffer;
};

AsyncRoundServer::AsyncRoundServer(const AsyncRoundsConfig& config,
                                   int num_silos, int dim)
    : config_(config), num_silos_(num_silos), dim_(dim), conns_(num_silos) {
  ULDP_CHECK_GE(num_silos_, 1);
  ULDP_CHECK_GE(dim_, 1);
}

AsyncRoundServer::~AsyncRoundServer() = default;

int AsyncRoundServer::connected_silos() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  int n = 0;
  for (const auto& c : conns_) n += c != nullptr ? 1 : 0;
  return n;
}

void AsyncRoundServer::SetCheckpoint(std::string dir, int every) {
  checkpoint_dir_ = std::move(dir);
  checkpoint_every_ = every;
}

Status AsyncRoundServer::RestoreSession(SessionState state) {
  if (state.seed != config_.seed) {
    return Status::InvalidArgument(
        "checkpoint seed " + std::to_string(state.seed) +
        " does not match the server's configured seed " +
        std::to_string(config_.seed));
  }
  if (state.dim != static_cast<uint32_t>(dim_)) {
    return Status::InvalidArgument(
        "checkpoint dimension " + std::to_string(state.dim) +
        " does not match the server's dimension " + std::to_string(dim_));
  }
  if (state.model.size() != static_cast<size_t>(state.dim)) {
    return Status::InvalidArgument(
        "checkpoint model size disagrees with its dimension");
  }
  for (const SiloMember& m : state.members) {
    // The run's membership bootstrap indexes the connections by silo id.
    if (m.silo_id >= static_cast<uint32_t>(num_silos_)) {
      return Status::InvalidArgument(
          "checkpoint lists silo " + std::to_string(m.silo_id) +
          " outside the cohort of " + std::to_string(num_silos_));
    }
  }
  session_ = std::move(state);
  return Status::Ok();
}

Status AsyncRoundServer::AddConnection(std::unique_ptr<Transport> transport) {
  auto frame = UnwrapErrorFrame(transport->Recv(), "joining silo");
  if (!frame.ok()) return frame.status();
  const uint64_t expected = AsyncRoundsWireDigest(config_, num_silos_, dim_);

  if (frame.value().type == static_cast<uint16_t>(MessageType::kJoinRequest)) {
    auto req_or = FromFrame<JoinRequestMsg>(frame.value());
    if (!req_or.ok()) return req_or.status();
    const JoinRequestMsg& req = req_or.value();
    Status verdict = Status::Ok();
    if (!config_.elastic) {
      verdict = Status::FailedPrecondition(
          "this server runs a fixed cohort: join requests are not accepted");
    } else if (req.num_silos != static_cast<uint32_t>(num_silos_) ||
               req.dim != static_cast<uint32_t>(dim_)) {
      verdict = Status::InvalidArgument(
          "silo announced cohort " + std::to_string(req.num_silos) +
          " x dim " + std::to_string(req.dim) + ", server expects " +
          std::to_string(num_silos_) + " x dim " + std::to_string(dim_));
    } else if (req.config_digest != expected) {
      verdict = Status::InvalidArgument(
          "async-round config digest mismatch: silo and server were started "
          "with different parameters");
    } else if (req.silo_id >= static_cast<uint32_t>(num_silos_)) {
      verdict = Status::InvalidArgument(
          "silo id " + std::to_string(req.silo_id) + " out of range");
    } else if (req.user_count < 1) {
      verdict = Status::InvalidArgument("silo joined with zero users");
    }
    if (!verdict.ok()) {
      transport->Send(MakeErrorFrame(verdict));  // tell the client why
      return verdict;
    }
    // Parked until the first flush boundary whose version satisfies
    // min_version; duplicate-id checks happen there against the live
    // membership (the same id may legitimately be rejoining after an
    // eviction).
    std::lock_guard<std::mutex> lock(conn_mu_);
    pending_.push_back(PendingJoin{req.silo_id, req.user_count,
                                   req.min_version, std::move(transport)});
    return Status::Ok();
  }

  auto join_or = FromFrame<JoinMsg>(frame.value());
  if (!join_or.ok()) return join_or.status();
  const JoinMsg& join = join_or.value();

  // Unsigned comparisons throughout (same hostile-id discipline as
  // ProtocolServer::AddConnection).
  Status verdict = Status::Ok();
  if (join.num_silos != static_cast<uint32_t>(num_silos_) ||
      join.num_users != static_cast<uint32_t>(dim_)) {
    verdict = Status::InvalidArgument(
        "silo announced cohort " + std::to_string(join.num_silos) + " x dim " +
        std::to_string(join.num_users) + ", server expects " +
        std::to_string(num_silos_) + " x dim " + std::to_string(dim_));
  } else if (join.config_digest != expected) {
    verdict = Status::InvalidArgument(
        "async-round config digest mismatch: silo and server were started "
        "with different parameters");
  } else if (join.silo_id >= static_cast<uint32_t>(num_silos_)) {
    verdict = Status::InvalidArgument(
        "silo id " + std::to_string(join.silo_id) + " out of range");
  }
  if (verdict.ok()) {
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (running_) {
      verdict = Status::FailedPrecondition(
          config_.elastic
              ? "run in progress: mid-run admission needs a join request"
              : "run in progress: the cohort is fixed at start");
    } else if (conns_[join.silo_id] != nullptr) {
      verdict = Status::InvalidArgument(
          "silo id " + std::to_string(join.silo_id) + " already connected");
    } else {
      conns_[join.silo_id] = std::move(transport);
      return Status::Ok();
    }
  }
  transport->Send(MakeErrorFrame(verdict));  // tell the client why
  return verdict;
}

void AsyncRoundServer::FailAll(const Status& status) {
  obs::MetricsRegistry::Global().AddCounter("net.async.fail_all", 1);
  Frame frame = MakeErrorFrame(status);
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (const auto& conn : conns_) {
    if (conn != nullptr) conn->Send(frame);  // best effort
  }
  for (const auto& join : pending_) join.transport->Send(frame);
}

// The release rule: sends `silo` the model at `version` and counts the
// frame it now owes. A failed send is a rejection.
Status AsyncRoundServer::Release(RunCtx& ctx, int silo, uint64_t version) {
  StalenessInfoMsg info;
  info.version = version;
  info.max_staleness = static_cast<uint32_t>(config_.max_staleness);
  info.buffer_size = static_cast<uint32_t>(ctx.resolved_buffer);
  info.params = ctx.global;
  Status sent = conns_[silo]->Send(ToFrame(info));
  if (!sent.ok()) return Reject(ctx, silo, version, sent);
  ++ctx.owed[silo];
  if (SiloMember* row = session_.Find(static_cast<uint32_t>(silo))) {
    row->last_version = version;
  }
  return Status::Ok();
}

// The rejection rule for a bad frame, a dead peer, a missed deadline or a
// failed send: a static cohort fails the run with `cause`, an elastic one
// evicts the silo.
Status AsyncRoundServer::Reject(RunCtx& ctx, int silo, uint64_t version,
                                const Status& cause) {
  if (!config_.elastic) return cause;
  return Depart(ctx, silo, version, /*evict=*/true, cause);
}

Status AsyncRoundServer::Depart(RunCtx& ctx, int silo, uint64_t version,
                                bool evict, const Status& cause) {
  ctx.departed[silo] = true;
  ctx.owed[silo] = 0;  // its frames will never arrive — never wait on them
  ctx.waiting[silo] = false;
  ctx.aggregator.DropSilo(silo);
  if (evict) {
    EvictMsg msg;
    msg.silo_id = static_cast<uint32_t>(silo);
    msg.version = version;
    msg.code = static_cast<uint16_t>(cause.code());
    msg.reason = cause.message();
    conns_[silo]->Send(ToFrame(msg));  // best effort; it may be dead already
    Status st = ctx.manager.Evict(static_cast<uint32_t>(silo), version);
    ULDP_CHECK_MSG(st.ok(), st.ToString());
    ++evictions_;
    obs::MetricsRegistry::Global().AddCounter("net.async.evictions", 1);
  } else {
    Status st = ctx.manager.Leave(static_cast<uint32_t>(silo), version);
    ULDP_CHECK_MSG(st.ok(), st.ToString());
  }
  // Retire the mux peer now: queued frames dropped, the reader interrupted
  // immediately — this silo is never surfaced nor waited on again.
  if (ctx.silo_peer[silo] >= 0) {
    ctx.mux->InterruptPeer(ctx.silo_peer[silo], cause);
  }
  ctx.unsealed = true;
  return ChangeMembership(ctx, version, cause);
}

// The membership-change rule, run after each batch of transitions that
// takes effect at `version`: seals the epoch, holds the active population
// to min_silos, and sizes the flush threshold to it. `cause` names the
// departure that prompted the change, if one did.
Status AsyncRoundServer::ChangeMembership(RunCtx& ctx, uint64_t version,
                                          const Status& cause) {
  if (ctx.unsealed) ctx.manager.SealEpoch(version);
  ctx.unsealed = false;
  const int active = session_.ActiveCount();
  const int needed = NeededSilos(config_, num_silos_);
  if (active < needed) {
    return Status::FailedPrecondition(
        "active population fell to " + std::to_string(active) +
        " silo(s), below min_silos = " + std::to_string(needed) +
        (cause.ok() ? "" : " (last departure: " + cause.ToString() + ")"));
  }
  ctx.aggregator.SetBufferSize(std::min(ctx.resolved_buffer, active));
  return Status::Ok();
}

Status AsyncRoundServer::AdmitDueJoins(RunCtx& ctx, uint64_t next_version) {
  std::vector<PendingJoin> due;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->min_version <= next_version) {
        due.push_back(std::move(*it));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (due.empty()) return Status::Ok();
  obs::TraceSpan span("async.admit", "due",
                      static_cast<int64_t>(due.size()));
  for (auto& join : due) {
    const int silo = static_cast<int>(join.silo_id);
    const SiloMember* row = session_.Find(join.silo_id);
    if (row != nullptr && (row->status == SiloStatus::kJoined ||
                           row->status == SiloStatus::kActive)) {
      join.transport->Send(MakeErrorFrame(Status::InvalidArgument(
          "silo id " + std::to_string(join.silo_id) +
          " is already a member")));
      continue;  // its transport dies with `due`
    }
    ULDP_RETURN_IF_ERROR(
        ctx.manager.Join(join.silo_id, join.user_count, next_version));
    ULDP_RETURN_IF_ERROR(ctx.manager.Activate(join.silo_id, next_version));
    {
      // The mux still borrows a replaced connection's Transport until its
      // Shutdown, so the old object is parked, not destroyed.
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (conns_[silo] != nullptr) retired_.push_back(std::move(conns_[silo]));
      conns_[silo] = std::move(join.transport);
    }
    auto peer = ctx.mux->AddPeer(conns_[silo].get());
    ULDP_RETURN_IF_ERROR(peer.status());
    ULDP_CHECK_EQ(peer.value(), static_cast<int>(ctx.peer_silo.size()));
    ctx.peer_silo.push_back(silo);
    ctx.silo_peer[silo] = peer.value();
    ctx.departed[silo] = false;
    ctx.due[silo] = true;  // the joiner starts from the current model
    ctx.unsealed = true;
    ++admissions_;
    obs::MetricsRegistry::Global().AddCounter("net.async.admissions", 1);
  }
  return ChangeMembership(ctx, next_version, Status::Ok());
}

Status AsyncRoundServer::MaybeCheckpoint(uint64_t completed_steps,
                                         int total_steps) {
  if (checkpoint_dir_.empty() || checkpoint_every_ <= 0) return Status::Ok();
  if (completed_steps % static_cast<uint64_t>(checkpoint_every_) != 0 &&
      completed_steps != static_cast<uint64_t>(total_steps)) {
    return Status::Ok();
  }
  obs::TraceSpan span("async.checkpoint", "step",
                      static_cast<int64_t>(completed_steps));
  return session_.WriteFile(checkpoint_dir_ + "/session.ckpt");
}

Result<Vec> AsyncRoundServer::Run(int num_steps, Vec global) {
  if (session_.round != 0 || !session_.members.empty()) {
    return Status::FailedPrecondition(
        "session already has progress; use Resume()");
  }
  session_ = SessionState{};
  session_.seed = config_.seed;
  session_.dim = static_cast<uint32_t>(dim_);
  return RunInternal(num_steps, std::move(global));
}

Result<Vec> AsyncRoundServer::Resume(int total_steps) {
  if (session_.dim != static_cast<uint32_t>(dim_)) {
    return Status::FailedPrecondition("no restored session to resume");
  }
  if (session_.round >= static_cast<uint64_t>(total_steps)) {
    return session_.model;  // the checkpoint already covers the whole run
  }
  return RunInternal(total_steps, session_.model);
}

Result<Vec> AsyncRoundServer::RunInternal(int total_steps, Vec global) {
  evictions_ = 0;
  admissions_ = 0;
  RunCtx ctx(this);
  ctx.global = std::move(global);
  Status status = StartRun(ctx, total_steps);
  if (status.ok()) status = RunSteps(ctx, total_steps);

  // The one end of every run. On success, members still in the run and
  // parked joiners get Shutdown, and the frames released silos still owe
  // are drained, so a straggler reads Shutdown instead of an interrupted
  // connection (a departed silo owes nothing). On failure every silo and
  // parked joiner is told the run's status in an Error frame. Only then
  // does the mux interrupt every transport.
  if (status.ok()) {
    const Frame shutdown = ToFrame(ShutdownMsg{});
    for (int s = 0; s < num_silos_; ++s) {
      if (conns_[s] != nullptr && !ctx.departed[s]) conns_[s]->Send(shutdown);
    }
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      for (const auto& join : pending_) join.transport->Send(shutdown);
    }
    int outstanding = 0;
    for (int n : ctx.owed) outstanding += n;
    while (outstanding > 0) {
      auto event = ctx.mux->RecvAny();
      if (!event.ok()) break;  // mux-level failure: nothing left to drain
      int& owed = ctx.owed[ctx.peer_silo[event.value().peer]];
      // A frame settles one release; a dead peer settles all it owed.
      const int settled =
          event.value().frame.ok() ? std::min(owed, 1) : owed;
      owed -= settled;
      outstanding -= settled;
    }
  } else {
    FailAll(status);
  }
  if (ctx.mux != nullptr) ctx.mux->Shutdown();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    running_ = false;
  }
  stats_ = ctx.aggregator.stats();
  if (!status.ok()) return status;
  return std::move(ctx.global);
}

Status AsyncRoundServer::StartRun(RunCtx& ctx, int total_steps) {
  if (total_steps < 1) {
    return Status::InvalidArgument("num_steps must be >= 1");
  }
  if (ctx.global.size() != static_cast<size_t>(dim_)) {
    return Status::InvalidArgument("initial parameter dimension mismatch");
  }
  const int needed = NeededSilos(config_, num_silos_);
  if (connected_silos() < needed) {
    return Status::FailedPrecondition(
        std::to_string(connected_silos()) + " of the required " +
        std::to_string(needed) + " silos connected");
  }
  if (config_.masked &&
      (config_.elastic || config_.max_staleness != 0 ||
       (config_.buffer_size > 0 && config_.buffer_size != num_silos_))) {
    return Status::InvalidArgument(
        "masked aggregation requires the barrier configuration "
        "(max_staleness 0, full buffer) and a static cohort: pairwise "
        "masks only cancel over the full population");
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    running_ = true;
  }

  // Membership bootstrap. Connected silos already active in a restored
  // session stay put — no spurious epoch on a clean resume; new ones
  // join + activate now. Restored-active silos that did not reconnect
  // are evicted (elastic) or fatal (static: the cohort must be whole).
  const uint64_t start_step = session_.round;
  for (int s = 0; s < num_silos_; ++s) {
    if (conns_[s] == nullptr) continue;
    const SiloMember* row = session_.Find(static_cast<uint32_t>(s));
    if (row != nullptr && row->status == SiloStatus::kActive) continue;
    if (row == nullptr || row->status != SiloStatus::kJoined) {
      ULDP_RETURN_IF_ERROR(ctx.manager.Join(static_cast<uint32_t>(s),
                                            row != nullptr ? row->user_count
                                                           : 1,
                                            start_step));
    }
    ULDP_RETURN_IF_ERROR(
        ctx.manager.Activate(static_cast<uint32_t>(s), start_step));
    ctx.unsealed = true;
  }
  std::vector<uint32_t> missing;
  for (const SiloMember& m : session_.members) {
    if (m.status == SiloStatus::kActive && conns_[m.silo_id] == nullptr) {
      missing.push_back(m.silo_id);
    }
  }
  for (uint32_t id : missing) {
    if (!config_.elastic) {
      return Status::FailedPrecondition(
          "restored session lists silo " + std::to_string(id) +
          " as active but it is not connected");
    }
    ULDP_RETURN_IF_ERROR(ctx.manager.Evict(id, start_step));
    ++evictions_;
    ctx.unsealed = true;
  }
  ULDP_RETURN_IF_ERROR(ChangeMembership(ctx, start_step, Status::Ok()));
  // The aggregator adopts the session's round/stats (resume) and mirrors
  // them back after every step.
  ctx.aggregator.BindSession(&session_);

  // All arrivals come through one receive front end (net/mux.h): a few
  // epoll event-loop threads serve every connection, whatever its
  // transport. That is what "deltas applied as they land" means.
  std::vector<Transport*> peers;
  for (int s = 0; s < num_silos_; ++s) {
    if (conns_[s] == nullptr) continue;
    ctx.silo_peer[s] = static_cast<int>(ctx.peer_silo.size());
    ctx.peer_silo.push_back(s);
    peers.push_back(conns_[s].get());
  }
  ctx.mux = std::make_unique<FrameMux>(std::move(peers));
  return ctx.mux->Start();
}

Status AsyncRoundServer::RunSteps(RunCtx& ctx, int total_steps) {
  // Every active silo starts on the session's current version.
  for (int s = 0; s < num_silos_; ++s) ctx.due[s] = conns_[s] != nullptr;
  for (uint64_t step = session_.round;
       step < static_cast<uint64_t>(total_steps); ++step) {
    obs::TraceSpan step_span("async.server_step", "step",
                             static_cast<int64_t>(step));
    // Release every due silo in silo order, then take arrivals until the
    // step holds its buffer.
    for (;;) {
      for (int s = 0; s < num_silos_; ++s) {
        if (!ctx.due[s]) continue;
        ctx.due[s] = false;
        ULDP_RETURN_IF_ERROR(Release(ctx, s, step));
      }
      if (ctx.aggregator.ReadyToFlush()) break;
      ULDP_RETURN_IF_ERROR(Receive(ctx, step));
    }

    Vec sum;
    if (config_.masked) {
      // All masks cancel over the full cohort; the silo-ordered unmask is
      // bitwise identical to the aggregator's secure Flush on the same
      // deltas (tests/membership_test.cc pins this).
      sum = UnmaskSum(ctx.masked);
      ctx.aggregator.CloseStep();
    } else {
      sum = ctx.aggregator.Flush(/*secure=*/false, step, nullptr);
    }
    double scale = config_.step_scale;
    const int active = session_.ActiveCount();
    if (config_.elastic && active > 0 && active != num_silos_) {
      // Population-invariant step magnitude: step_scale was chosen for the
      // full cohort (eta_g / |S|), so a shrunken population rescales.
      scale = config_.step_scale * static_cast<double>(num_silos_) / active;
    }
    Axpy(scale, sum, ctx.global);
    session_.model = ctx.global;
    ULDP_RETURN_IF_ERROR(MaybeCheckpoint(step + 1, total_steps));
    if (step + 1 == static_cast<uint64_t>(total_steps)) break;  // Shutdown
    // Every silo the step consumed is due the next version (`due` is all
    // false here: the loop above released it), and so is every joiner
    // admitted at it.
    ctx.due.swap(ctx.waiting);
    if (config_.elastic) ULDP_RETURN_IF_ERROR(AdmitDueJoins(ctx, step + 1));
  }
  return Status::Ok();
}

Status AsyncRoundServer::Receive(RunCtx& ctx, uint64_t step) {
  auto event = ctx.mux->RecvAny();
  if (!event.ok()) {
    // A waiter deadline: every silo still owing a frame missed it. With
    // nothing owed there is no progress to wait for, so the run fails.
    if (event.status().code() != StatusCode::kDeadlineExceeded) {
      return event.status();
    }
    bool owing = false;
    for (int s = 0; s < num_silos_; ++s) {
      if (ctx.owed[s] == 0) continue;
      owing = true;
      ULDP_RETURN_IF_ERROR(Reject(
          ctx, s, step,
          Status::DeadlineExceeded("silo " + std::to_string(s) +
                                   " missed the receive deadline")));
    }
    return owing ? Status::Ok() : event.status();
  }
  const int silo = ctx.peer_silo[event.value().peer];
  if (ctx.departed[silo]) return Status::Ok();  // raced its retirement
  const Result<Frame> frame = UnwrapErrorFrame(
      std::move(event.value().frame), "silo " + std::to_string(silo));
  Status verdict = frame.ok() ? Judge(ctx, silo, step, frame.value())
                              : frame.status();
  if (!verdict.ok()) return Reject(ctx, silo, step, verdict);
  if (ctx.owed[silo] > 0) --ctx.owed[silo];
  if (frame.value().type != static_cast<uint16_t>(MessageType::kLeave)) {
    return Status::Ok();
  }
  return Depart(ctx, silo, step, /*evict=*/false,
                Status::FailedPrecondition("silo " + std::to_string(silo) +
                                           " left at version " +
                                           std::to_string(step)));
}

Status AsyncRoundServer::Judge(RunCtx& ctx, int silo, uint64_t step,
                               const Frame& frame) {
  const auto id = static_cast<uint32_t>(silo);
  if (frame.type == static_cast<uint16_t>(MessageType::kLeave)) {
    auto msg = FromFrame<LeaveMsg>(frame);
    if (!msg.ok()) return msg.status();
    if (msg.value().silo_id != id) {
      return Status::InvalidArgument("leave from wrong silo id");
    }
    if (!config_.elastic) {
      return Status::FailedPrecondition("voluntary leave on a fixed cohort");
    }
    return Status::Ok();
  }
  if (config_.masked) {
    auto msg = FromFrame<MaskedVectorMsg>(frame);
    if (!msg.ok()) return msg.status();
    if (MaskTagPhase(msg.value().phase_tag) != MaskPhase::kFlAggregation ||
        MaskTagRound(msg.value().phase_tag) != step) {
      return Status::InvalidArgument("masked vector with a wrong phase tag");
    }
    if (msg.value().party_id != id) {
      return Status::InvalidArgument("masked vector from wrong silo");
    }
    if (msg.value().values.size() != static_cast<size_t>(dim_)) {
      return Status::InvalidArgument("masked vector dimension mismatch");
    }
    if (ctx.waiting[silo]) {
      return Status::InvalidArgument("duplicate masked vector for this step");
    }
    ctx.masked[silo] = std::move(msg.value().values);
    ctx.aggregator.Admit(static_cast<int>(step));
    ctx.waiting[silo] = true;
    return Status::Ok();
  }
  auto msg = FromFrame<RoundAckMsg>(frame);
  if (!msg.ok()) return msg.status();
  if (msg.value().silo_id != id) {
    return Status::InvalidArgument("round ack from wrong silo id");
  }
  if (msg.value().delta.size() != static_cast<size_t>(dim_)) {
    return Status::InvalidArgument("round ack dimension mismatch");
  }
  if (msg.value().version > step) {
    return Status::InvalidArgument("round ack from the future");
  }
  if (ctx.owed[silo] == 0) {
    return Status::InvalidArgument("round ack with no release outstanding");
  }
  // An ack over the staleness bound is dropped, and its silo retrains
  // against the current model.
  const int staleness = ctx.aggregator.Offer(
      silo, static_cast<int>(msg.value().version), std::move(msg.value().delta));
  if (staleness < 0) {
    ctx.due[silo] = true;
  } else {
    ctx.waiting[silo] = true;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// AsyncRoundClient

namespace {

/// The reason an Evict frame gives this silo.
Status EvictedStatus(const Frame& frame) {
  auto msg = FromFrame<EvictMsg>(frame);
  if (!msg.ok()) return msg.status();
  return Status::FailedPrecondition(
      "server evicted this silo at version " +
      std::to_string(msg.value().version) + ": " + msg.value().reason);
}

/// A send fails only on a closing connection, and a server that ends a
/// run queues its verdict (an Error or Evict frame) before it closes one.
/// Returns that verdict when it is there, else the send's `failure`.
Status VerdictAfterFailedSend(Transport& transport, const Status& failure) {
  Result<Frame> frame = transport.Recv();
  if (!frame.ok()) return failure;
  if (frame.value().type == static_cast<uint16_t>(MessageType::kError)) {
    return StatusFromErrorFrame(frame.value(), "server");
  }
  if (frame.value().type == static_cast<uint16_t>(MessageType::kEvict)) {
    return EvictedStatus(frame.value());
  }
  return failure;
}

}  // namespace

AsyncRoundClient::AsyncRoundClient(const AsyncRoundsConfig& config,
                                   int silo_id, int num_silos, int dim)
    : config_(config), silo_id_(silo_id), num_silos_(num_silos), dim_(dim) {
  ULDP_CHECK_GE(silo_id_, 0);
  ULDP_CHECK_LT(silo_id_, num_silos_);
  ULDP_CHECK_GE(dim_, 1);
}

Status AsyncRoundClient::Run(Transport& transport, const WorkFn& work,
                             const AsyncClientOptions& options) {
  Status status = RunLoop(transport, work, options);
  if (!status.ok()) {
    transport.Send(MakeErrorFrame(status));  // best effort
  }
  return status;
}

Status AsyncRoundClient::RunLoop(Transport& transport, const WorkFn& work,
                                 const AsyncClientOptions& options) {
  const uint64_t digest = AsyncRoundsWireDigest(config_, num_silos_, dim_);
  if (options.join_min_version >= 0) {
    JoinRequestMsg req;
    req.silo_id = static_cast<uint32_t>(silo_id_);
    req.num_silos = static_cast<uint32_t>(num_silos_);
    req.dim = static_cast<uint32_t>(dim_);
    req.user_count = options.user_count;
    req.min_version = static_cast<uint64_t>(options.join_min_version);
    req.config_digest = digest;
    ULDP_RETURN_IF_ERROR(transport.Send(ToFrame(req)));
  } else {
    JoinMsg join;
    join.silo_id = static_cast<uint32_t>(silo_id_);
    join.num_silos = static_cast<uint32_t>(num_silos_);
    join.num_users = static_cast<uint32_t>(dim_);
    join.config_digest = digest;
    ULDP_RETURN_IF_ERROR(transport.Send(ToFrame(join)));
  }

  for (;;) {
    auto frame = UnwrapErrorFrame(transport.Recv(), "server");
    if (!frame.ok()) return frame.status();
    const uint16_t type = frame.value().type;
    if (type == static_cast<uint16_t>(MessageType::kShutdown)) {
      return Status::Ok();
    }
    if (type == static_cast<uint16_t>(MessageType::kEvict)) {
      return EvictedStatus(frame.value());
    }
    auto info = FromFrame<StalenessInfoMsg>(frame.value());
    if (!info.ok()) return info.status();
    if (info.value().params.size() != static_cast<size_t>(dim_)) {
      return Status::InvalidArgument("released parameters have dim " +
                                     std::to_string(info.value().params.size()) +
                                     ", expected " + std::to_string(dim_));
    }
    const uint64_t version = info.value().version;
    if (options.leave_after_version >= 0 &&
        version >= static_cast<uint64_t>(options.leave_after_version)) {
      // Voluntary departure: decline the task instead of training it.
      LeaveMsg leave;
      leave.silo_id = static_cast<uint32_t>(silo_id_);
      leave.version = version;
      ULDP_RETURN_IF_ERROR(transport.Send(ToFrame(leave)));
      return Status::Ok();
    }
    Vec delta;
    {
      obs::TraceSpan span("async.client_work", "version",
                          static_cast<int64_t>(version));
      ULDP_RETURN_IF_ERROR(work(version, info.value().params, &delta));
    }
    if (delta.size() != static_cast<size_t>(dim_)) {
      return Status::Internal("local work produced a wrong-sized delta");
    }
    Frame upload;
    if (config_.masked) {
      // Raw version as the mask round-tag — the same tag the in-process
      // secure reduce uses, so the server-side unmask is bitwise identical
      // to it. The wire-level phase tag carries the domain separation.
      auto values = MaskDelta(delta, silo_id_, num_silos_, version, nullptr);
      if (!values.ok()) return values.status();
      MaskedVectorMsg msg;
      msg.phase_tag = MakeMaskTag(MaskPhase::kFlAggregation, version);
      msg.party_id = static_cast<uint32_t>(silo_id_);
      msg.values = std::move(values.value());
      upload = ToFrame(msg);
    } else {
      RoundAckMsg ack;
      ack.version = version;
      ack.silo_id = static_cast<uint32_t>(silo_id_);
      ack.delta = std::move(delta);
      upload = ToFrame(ack);
    }
    Status sent = transport.Send(upload);
    if (!sent.ok()) return VerdictAfterFailedSend(transport, sent);
  }
}

}  // namespace net
}  // namespace uldp
