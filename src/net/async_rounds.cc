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

/// Everything the collection loop threads through its helpers: the mux and
/// aggregator, the membership manager bound to the server's session, the
/// evolving global model, and the per-silo bookkeeping (frames owed, whose
/// update the next flush consumes, who departed). Lives on RunInternal's
/// stack — one per run.
struct AsyncRoundServer::RunCtx {
  explicit RunCtx(AsyncRoundServer* server)
      : aggregator(server->num_silos_, server->config_.max_staleness,
                   server->config_.buffer_size),
        manager(&server->session_, server->tracker_),
        owed(server->num_silos_, 0),
        waiting(server->num_silos_, false),
        departed(server->num_silos_, false),
        silo_peer(server->num_silos_, -1) {}

  std::unique_ptr<FrameMux> mux;
  AsyncAggregator aggregator;
  MembershipManager manager;
  Vec global;
  std::vector<int> owed;        // [silo] released frames not yet answered
  std::vector<bool> waiting;    // [silo] update consumed by the next flush
  std::vector<bool> departed;   // [silo] left/evicted during this run
  std::vector<int> peer_silo;   // [mux peer] -> silo id
  std::vector<int> silo_peer;   // [silo id] -> mux peer, -1 unregistered
  int resolved_buffer = 0;
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

Status AsyncRoundServer::Release(int silo, uint64_t version,
                                 const Vec& global) {
  StalenessInfoMsg info;
  info.version = version;
  info.max_staleness = static_cast<uint32_t>(config_.max_staleness);
  info.buffer_size = static_cast<uint32_t>(
      config_.buffer_size <= 0 ? num_silos_ : config_.buffer_size);
  info.params = global;
  Status sent = conns_[silo]->Send(ToFrame(info));
  if (sent.ok()) {
    if (SiloMember* row = session_.Find(static_cast<uint32_t>(silo))) {
      row->last_version = version;
    }
  }
  return sent;
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

Status AsyncRoundServer::Depart(RunCtx& ctx, int silo, uint64_t version,
                                bool evict, const Status& cause) {
  if (ctx.departed[silo]) return Status::Ok();
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
  ctx.manager.SealEpoch(version);
  const int active = session_.ActiveCount();
  const int needed = std::max(1, config_.min_silos);
  if (active < needed) {
    return Status::FailedPrecondition(
        "active population fell to " + std::to_string(active) +
        " silo(s), below min_silos = " + std::to_string(needed) +
        " (last departure: " + cause.ToString() + ")");
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
  bool changed = false;
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
    ctx.owed[silo] = 0;
    ctx.waiting[silo] = false;
    ++admissions_;
    obs::MetricsRegistry::Global().AddCounter("net.async.admissions", 1);
    changed = true;
    // The joiner starts from the current model snapshot.
    Status sent = Release(silo, next_version, ctx.global);
    if (sent.ok()) {
      ++ctx.owed[silo];
    } else {
      ULDP_RETURN_IF_ERROR(Depart(ctx, silo, next_version, /*evict=*/true,
                                  sent));
    }
  }
  if (changed) {
    ctx.manager.SealEpoch(next_version);
    ctx.aggregator.SetBufferSize(
        std::min(ctx.resolved_buffer, session_.ActiveCount()));
  }
  return Status::Ok();
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
  auto out = RunInternal(num_steps, std::move(global));
  if (!out.ok()) FailAll(out.status());
  return out;
}

Result<Vec> AsyncRoundServer::Resume(int total_steps) {
  if (session_.dim != static_cast<uint32_t>(dim_)) {
    return Status::FailedPrecondition("no restored session to resume");
  }
  if (session_.round >= static_cast<uint64_t>(total_steps)) {
    return session_.model;  // the checkpoint already covers the whole run
  }
  auto out = RunInternal(total_steps, session_.model);
  if (!out.ok()) FailAll(out.status());
  return out;
}

Result<Vec> AsyncRoundServer::RunInternal(int total_steps, Vec global) {
  if (total_steps < 1) {
    return Status::InvalidArgument("num_steps must be >= 1");
  }
  if (global.size() != static_cast<size_t>(dim_)) {
    return Status::InvalidArgument("initial parameter dimension mismatch");
  }
  const int needed =
      config_.elastic ? std::max(1, config_.min_silos) : num_silos_;
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
  stats_ = AsyncStats{};
  evictions_ = 0;
  admissions_ = 0;

  RunCtx ctx(this);
  ctx.resolved_buffer =
      config_.buffer_size <= 0 ? num_silos_ : config_.buffer_size;
  ctx.global = std::move(global);
  const uint64_t start_step = session_.round;

  // Membership bootstrap. Connected silos already active in a restored
  // session stay put — no spurious epoch on a clean resume; new ones
  // join + activate now. Restored-active silos that did not reconnect
  // are evicted (elastic) or fatal (static: the cohort must be whole).
  bool changed = false;
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
    changed = true;
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
    changed = true;
  }
  if (changed) ctx.manager.SealEpoch(start_step);
  if (session_.ActiveCount() < needed) {
    return Status::FailedPrecondition(
        "only " + std::to_string(session_.ActiveCount()) +
        " active silo(s) after the membership bootstrap, need " +
        std::to_string(needed));
  }

  // The aggregator adopts the session's round/stats (resume) and mirrors
  // them back after every flush; elastic runs size the flush threshold to
  // the active population.
  ctx.aggregator.BindSession(&session_);
  if (config_.elastic) {
    ctx.aggregator.SetBufferSize(
        std::min(ctx.resolved_buffer, session_.ActiveCount()));
  }

  // All arrivals come through one receive front end (net/mux.h): a few
  // epoll event-loop threads serve every connection, whatever its
  // transport. That is what "deltas applied as they land" means. Frame
  // accounting (`owed`) only matters at the clean finish, where the
  // server drains every released silo's final ack so a straggler still
  // sees Shutdown instead of an interrupted connection — departed silos
  // owe nothing by construction (Depart zeroes their debt and retires
  // their peer), so an evicted silo is never waited on. On the failure
  // path the mux is torn down immediately.
  {
    std::vector<Transport*> peers;
    for (int s = 0; s < num_silos_; ++s) {
      if (conns_[s] == nullptr) continue;
      ctx.silo_peer[s] = static_cast<int>(ctx.peer_silo.size());
      ctx.peer_silo.push_back(s);
      peers.push_back(conns_[s].get());
    }
    ctx.mux = std::make_unique<FrameMux>(std::move(peers));
    ULDP_RETURN_IF_ERROR(ctx.mux->Start());
  }

  auto finish = [&](bool send_shutdown) {
    if (send_shutdown) {
      Frame shutdown = ToFrame(ShutdownMsg{});
      for (int s = 0; s < num_silos_; ++s) {
        if (conns_[s] != nullptr && !ctx.departed[s]) {
          conns_[s]->Send(shutdown);
        }
      }
      {
        // Parked joiners whose admission version never arrived still get
        // a clean end-of-run instead of a hung Recv.
        std::lock_guard<std::mutex> lock(conn_mu_);
        for (const auto& join : pending_) join.transport->Send(shutdown);
      }
      int outstanding = 0;
      for (int s = 0; s < num_silos_; ++s) outstanding += ctx.owed[s];
      while (outstanding > 0) {
        auto event = ctx.mux->RecvAny();
        if (!event.ok()) break;  // mux-level failure: nothing left to drain
        const int silo = ctx.peer_silo[event.value().peer];
        if (event.value().frame.ok()) {
          if (ctx.owed[silo] > 0) {
            --ctx.owed[silo];
            --outstanding;
          }
        } else {
          // Dead peer: whatever it owed will never arrive.
          outstanding -= ctx.owed[silo];
          ctx.owed[silo] = 0;
        }
      }
    }
    ctx.mux->Shutdown();
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      running_ = false;
    }
    stats_.applied = session_.stats.applied;
    stats_.rejected = session_.stats.rejected;
    stats_.dropped = session_.stats.dropped;
    stats_.steps = session_.stats.steps;
    stats_.max_staleness_seen = session_.stats.max_staleness_seen;
  };

  // Every active silo starts on the session's current version.
  for (int s = 0; s < num_silos_; ++s) {
    if (conns_[s] == nullptr || ctx.departed[s]) continue;
    Status sent = Release(s, start_step, ctx.global);
    if (sent.ok()) {
      ++ctx.owed[s];
      continue;
    }
    if (!config_.elastic) {
      finish(/*send_shutdown=*/true);
      return sent;
    }
    Status dep = Depart(ctx, s, start_step, /*evict=*/true, sent);
    if (!dep.ok()) {
      finish(/*send_shutdown=*/false);
      return dep;
    }
  }

  for (int step_i = static_cast<int>(start_step); step_i < total_steps;
       ++step_i) {
    const uint64_t step = static_cast<uint64_t>(step_i);
    obs::TraceSpan step_span("async.server_step", "step",
                             static_cast<int64_t>(step));
    // Masked mode collects one pairwise-masked vector per silo instead of
    // buffering plaintext deltas in the aggregator.
    std::vector<FieldVector> masked(
        config_.masked ? static_cast<size_t>(num_silos_) : 0);
    std::vector<bool> masked_in(num_silos_, false);
    int masked_count = 0;
    auto ready = [&]() {
      return config_.masked ? masked_count >= num_silos_
                            : ctx.aggregator.ReadyToFlush();
    };
    while (!ready()) {
      auto event_or = ctx.mux->RecvAny();
      if (!event_or.ok()) {
        if (config_.elastic &&
            event_or.status().code() == StatusCode::kDeadlineExceeded) {
          // The waiter deadline expired: every silo still owing a frame is
          // declared dead. If nothing was owed there is no progress to be
          // made — fall through to the fatal path.
          bool evicted_any = false;
          for (int s = 0; s < num_silos_; ++s) {
            if (ctx.owed[s] <= 0 || ctx.departed[s]) continue;
            evicted_any = true;
            Status dep = Depart(
                ctx, s, step, /*evict=*/true,
                Status::DeadlineExceeded("silo " + std::to_string(s) +
                                         " missed the receive deadline"));
            if (!dep.ok()) {
              finish(/*send_shutdown=*/false);
              return dep;
            }
          }
          if (evicted_any) continue;
        }
        FailAll(event_or.status());
        finish(/*send_shutdown=*/false);
        return event_or.status();
      }
      MuxEvent event = std::move(event_or.value());
      const int silo = ctx.peer_silo[event.peer];
      if (ctx.departed[silo]) continue;  // raced its retirement
      if (event.frame.ok() && ctx.owed[silo] > 0) --ctx.owed[silo];
      if (!event.frame.ok()) ctx.owed[silo] = 0;
      const Result<Frame> frame = UnwrapErrorFrame(
          std::move(event.frame), "silo " + std::to_string(silo));
      Status verdict = Status::Ok();
      bool leaving = false;
      if (!frame.ok()) {
        verdict = frame.status();
      } else if (frame.value().type ==
                 static_cast<uint16_t>(MessageType::kLeave)) {
        auto msg = FromFrame<LeaveMsg>(frame.value());
        if (!msg.ok()) {
          verdict = msg.status();
        } else if (msg.value().silo_id != static_cast<uint32_t>(silo)) {
          verdict = Status::InvalidArgument("leave from wrong silo id");
        } else if (!config_.elastic) {
          verdict =
              Status::FailedPrecondition("voluntary leave on a fixed cohort");
        } else {
          leaving = true;
        }
      } else if (config_.masked) {
        auto msg = FromFrame<MaskedVectorMsg>(frame.value());
        if (!msg.ok()) {
          verdict = msg.status();
        } else if (MaskTagPhase(msg.value().phase_tag) !=
                       MaskPhase::kFlAggregation ||
                   MaskTagRound(msg.value().phase_tag) != step) {
          verdict =
              Status::InvalidArgument("masked vector with a wrong phase tag");
        } else if (msg.value().party_id != static_cast<uint32_t>(silo)) {
          verdict = Status::InvalidArgument("masked vector from wrong silo");
        } else if (msg.value().values.size() != static_cast<size_t>(dim_)) {
          verdict =
              Status::InvalidArgument("masked vector dimension mismatch");
        } else if (masked_in[silo]) {
          verdict = Status::InvalidArgument(
              "duplicate masked vector for this step");
        } else {
          masked[silo] = std::move(msg.value().values);
          masked_in[silo] = true;
          ++masked_count;
          ctx.waiting[silo] = true;
        }
      } else {
        auto msg = FromFrame<RoundAckMsg>(frame.value());
        if (!msg.ok()) {
          verdict = msg.status();
        } else if (msg.value().silo_id != static_cast<uint32_t>(silo)) {
          verdict = Status::InvalidArgument("round ack from wrong silo id");
        } else if (msg.value().delta.size() != static_cast<size_t>(dim_)) {
          verdict = Status::InvalidArgument("round ack dimension mismatch");
        } else if (msg.value().version > step) {
          verdict = Status::InvalidArgument("round ack from the future");
        } else {
          const int staleness =
              ctx.aggregator.Offer(silo, static_cast<int>(msg.value().version),
                                   std::move(msg.value().delta));
          if (staleness < 0) {
            // Over the bound: drop and retrain against the current model.
            Status sent = Release(silo, step, ctx.global);
            if (sent.ok()) {
              ++ctx.owed[silo];
            } else if (!config_.elastic) {
              finish(/*send_shutdown=*/true);
              return sent;
            } else {
              Status dep = Depart(ctx, silo, step, /*evict=*/true, sent);
              if (!dep.ok()) {
                finish(/*send_shutdown=*/false);
                return dep;
              }
            }
          } else {
            ctx.waiting[silo] = true;
          }
        }
      }
      if (leaving) {
        Status dep =
            Depart(ctx, silo, step, /*evict=*/false,
                   Status::FailedPrecondition("silo " + std::to_string(silo) +
                                              " left at version " +
                                              std::to_string(step)));
        if (!dep.ok()) {
          finish(/*send_shutdown=*/false);
          return dep;
        }
        continue;
      }
      if (!verdict.ok()) {
        if (!config_.elastic) {
          FailAll(verdict);
          finish(/*send_shutdown=*/false);
          return verdict;
        }
        Status dep = Depart(ctx, silo, step, /*evict=*/true, verdict);
        if (!dep.ok()) {
          finish(/*send_shutdown=*/false);
          return dep;
        }
      }
    }

    Vec sum;
    if (config_.masked) {
      // All masks cancel over the full cohort; the silo-ordered unmask is
      // bitwise identical to the aggregator's secure Flush on the same
      // deltas (tests/membership_test.cc pins this).
      sum = UnmaskSum(masked);
      session_.stats.applied += num_silos_;
      session_.stats.steps += 1;
      session_.round = step + 1;
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
    Status ck = MaybeCheckpoint(step + 1, total_steps);
    if (!ck.ok()) {
      FailAll(ck);
      finish(/*send_shutdown=*/false);
      return ck;
    }
    // Release every silo whose update was consumed, in silo order.
    for (int s = 0; s < num_silos_; ++s) {
      if (!ctx.waiting[s]) continue;
      ctx.waiting[s] = false;
      if (ctx.departed[s]) continue;
      if (step_i + 1 == total_steps) continue;  // shutdown follows
      Status sent = Release(s, step + 1, ctx.global);
      if (sent.ok()) {
        ++ctx.owed[s];
        continue;
      }
      if (!config_.elastic) {
        finish(/*send_shutdown=*/true);
        return sent;
      }
      Status dep = Depart(ctx, s, step + 1, /*evict=*/true, sent);
      if (!dep.ok()) {
        finish(/*send_shutdown=*/false);
        return dep;
      }
    }
    if (config_.elastic && step_i + 1 < total_steps) {
      Status adm = AdmitDueJoins(ctx, step + 1);
      if (!adm.ok()) {
        finish(/*send_shutdown=*/false);
        return adm;
      }
    }
  }
  finish(/*send_shutdown=*/true);
  return ctx.global;
}

// ---------------------------------------------------------------------------
// AsyncRoundClient

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
      auto msg = FromFrame<EvictMsg>(frame.value());
      if (!msg.ok()) return msg.status();
      return Status::FailedPrecondition(
          "server evicted this silo at version " +
          std::to_string(msg.value().version) + ": " + msg.value().reason);
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
      ULDP_RETURN_IF_ERROR(transport.Send(ToFrame(msg)));
    } else {
      RoundAckMsg ack;
      ack.version = version;
      ack.silo_id = static_cast<uint32_t>(silo_id_);
      ack.delta = std::move(delta);
      ULDP_RETURN_IF_ERROR(transport.Send(ToFrame(ack)));
    }
  }
}

}  // namespace net
}  // namespace uldp
