// Asynchronous staleness-bounded FL rounds over the transport layer: the
// distributed counterpart of RoundEngine's async mode (fl/round_engine.h).
// An AsyncRoundServer holds one Transport per silo and applies silo deltas
// as they land — bounded by max_staleness, discounted by 1/(1+staleness),
// flushed every buffer_size arrivals — instead of barrier-waiting on the
// slowest silo. An AsyncRoundClient serves one silo: it trains whenever
// the server releases it with a model snapshot and submits its delta.
//
// Message flow (client perspective):
//
//   -> Join | JoinRequest       (silo id, cohort shape, config digest)
//   repeated:
//     <- StalenessInfo          (version, staleness bound, global params)
//     -> RoundAck | MaskedVector | Leave
//   <- Shutdown | Evict
//
// The server's whole training state lives in a SessionState (fl/session.h):
// the model, the version counter, the membership table, the epoch log, and
// the aggregation counters. Checkpointing serializes that state every
// checkpoint-interval flush; Resume() on a restored state continues the
// run bitwise-identically to the uninterrupted run on the same seed.
//
// Elastic membership (config.elastic): the cohort is no longer fixed at
// Run time. A silo may connect mid-run with a JoinRequest — it is parked
// until the first flush boundary whose version satisfies its min_version,
// then admitted with the current model snapshot (net/membership.h owns
// the transition discipline). A silo whose transport dies, that sends an
// Error frame, that sends a bad frame, that misses the receive deadline,
// or whose release cannot be sent is EVICTED: its buffered updates are
// dropped, its mux peer is retired (its transport is interrupted
// immediately — never waited on at shutdown), it is told why with an Evict
// frame, and the remaining population is reweighted + recorded as a new
// membership epoch in the session (and the attached PrivacyTracker). A
// silo may also Leave voluntarily. The flush threshold tracks the active
// population; the elastic server update rescales by num_silos/active so
// the expected step magnitude is population-invariant. With elastic off,
// all of this is inert and the server is bitwise identical to the
// fixed-membership behaviour: the same causes fail the run instead.
//
// Teardown: every run ends in one place. On success, members and parked
// joiners get Shutdown, and the server drains the acks released silos
// still owe. On failure (a static cohort's rejected silo, an elastic
// population below min_silos, a failed checkpoint), every silo and parked
// joiner gets the run's status in an Error frame. Only then does the mux
// interrupt the transports, so no silo has to guess the verdict from a
// closed connection.
//
// Masked mode (config.masked): silos submit pairwise-masked fixed-point
// deltas (MaskedVectorMsg over crypto/secure_agg.h) instead of plaintext
// RoundAcks. The masks cancel in the sum and their cost (keystream, frame
// bytes, unmask) is real, but the pair keys are a simulation:
// PairwiseAggKeys (fl/local_trainer.cc) derives each one from the public
// string "agg-sim|lo,hi", so a server running the same derivation can strip
// every silo's mask and read its delta. The DH-derived pair keys Protocol 1
// uses (SiloCore::ComputePairKeys) are not wired into async rounds.
// Requires the barrier configuration (max_staleness 0, full buffer, static
// membership) — pairwise masks only cancel over the full cohort — and is
// bitwise identical to the in-process secure reduce on the same work.
// Each vector stays one flat FieldVector from MaskDelta through the frame
// to UnmaskSum. A delta the fixed-point codec cannot encode fails its
// client with InvalidArgument; a frame with an element outside the field
// fails MaskedVectorMsg::Parse, and the server fails the run.
//
// Determinism: the server's reduce is AsyncAggregator's — buffered entries
// sorted by (pull_version, silo) — so it is a pure function of the buffer
// contents, never of network interleaving. With max_staleness = 0 and
// buffer_size = num_silos every step is a barrier over all silos and the
// run is bitwise identical to the synchronous RoundEngine on the same
// work, over any transport (tested over ChannelTransport and loopback
// TCP). With a larger bound the *set* of applied updates depends on real
// arrival timing — that is the point — but every applied update's content
// is still a pure function of (version, silo). Elastic runs are
// deterministic given the membership schedule: the active set at each
// version determines the flushed aggregate bitwise.
//
// DP accounting: silos clip per user and add their noise share before
// submission, so a user's contribution to any flushed aggregate has
// unchanged sensitivity; see FlConfig::async_rounds for the full note.
// Membership epochs are mirrored into the attached PrivacyTracker so
// accounted epsilon can be attributed to each epoch's actual population.

#ifndef ULDP_NET_ASYNC_ROUNDS_H_
#define ULDP_NET_ASYNC_ROUNDS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "fl/round_engine.h"
#include "fl/session.h"
#include "net/transport.h"
#include "nn/tensor.h"

namespace uldp {

class PrivacyTracker;

namespace net {

class MembershipManager;

/// Cohort-wide async-round parameters; every party must be started with
/// identical values (enforced by a digest in the Join handshake).
struct AsyncRoundsConfig {
  /// Maximum accepted staleness tau; updates older than this are dropped
  /// and the silo retrains against the current model.
  int max_staleness = 0;
  /// Arrivals per server step; <= 0 resolves to the silo count.
  int buffer_size = 0;
  /// Server update: global += step_scale * flushed_sum (the trainer's
  /// eta_g / |S| scaling). Elastic runs rescale by num_silos/active.
  double step_scale = 1.0;
  /// Work seed, digested so all parties agree on the task content.
  uint64_t seed = 0;
  /// Dynamic membership: JoinRequest admission at flush boundaries,
  /// eviction of dead silos, voluntary Leave. Off = fixed cohort,
  /// bitwise identical to the pre-elastic server.
  bool elastic = false;
  /// Elastic runs fail when the active population drops below this.
  int min_silos = 1;
  /// Secure-aggregation transport: deltas arrive pairwise-masked and the
  /// masks cancel in their sum. The pair keys are derived from public
  /// strings (a simulation), so this hides nothing from a server that
  /// derives them too. Requires the barrier configuration and static
  /// membership.
  bool masked = false;
};

/// Digest of the async-round configuration plus the cohort shape, compared
/// at join time exactly like ProtocolWireDigest.
uint64_t AsyncRoundsWireDigest(const AsyncRoundsConfig& config, int num_silos,
                               int dim);

class AsyncRoundServer {
 public:
  /// `num_silos` is the cohort CAPACITY: silo ids live in [0, num_silos).
  /// Elastic runs may have any subset in [min_silos, num_silos] active.
  AsyncRoundServer(const AsyncRoundsConfig& config, int num_silos, int dim);
  ~AsyncRoundServer();

  /// Performs the handshake on a freshly connected transport. A JoinMsg
  /// registers the silo immediately (rejects duplicates, out-of-range ids,
  /// and config-digest mismatches with an Error frame; only before the run
  /// starts). A JoinRequest (elastic only) parks the connection for
  /// admission at the first flush boundary whose version reaches the
  /// request's min_version — callable mid-run from an accept thread.
  Status AddConnection(std::unique_ptr<Transport> transport);
  int connected_silos() const;

  /// Attaches a DP accountant: every sealed membership epoch is mirrored
  /// into it. Not owned; must outlive the run. Call before Run/Resume.
  void set_privacy_tracker(PrivacyTracker* tracker) { tracker_ = tracker; }

  /// Enables checkpointing: the session is written to <dir>/session.ckpt
  /// after every `every`-th flush (and after the final one). `every` <= 0
  /// disables. Call before Run/Resume.
  void SetCheckpoint(std::string dir, int every);

  /// Adopts a deserialized session (fl/session.h) so Resume() continues
  /// it. Rejects a state whose seed or dimension disagrees with this
  /// server's configuration, or that lists a silo outside its cohort.
  Status RestoreSession(SessionState state);

  /// Drives `num_steps` staleness-bounded server steps starting from
  /// `global` and returns the final parameters. Requires a fresh session;
  /// static runs require every silo connected, elastic runs at least
  /// min_silos. A static run fails when any silo is rejected, a release
  /// that cannot be sent included. The run ends by the teardown rule
  /// above: on failure every silo and parked joiner is told the status in
  /// an Error frame before any transport is interrupted, so no client is
  /// left blocked in Recv.
  Result<Vec> Run(int num_steps, Vec global);

  /// Continues a restored session until `total_steps` steps have run in
  /// TOTAL (a session restored at round r runs total_steps - r more).
  /// Returns the restored model untouched when the session already
  /// reached total_steps. Bitwise identical to the uninterrupted run, and
  /// ends by the same teardown rule as Run.
  Result<Vec> Resume(int total_steps);

  /// Applied/rejected/step counters of the last Run.
  const AsyncStats& stats() const { return stats_; }
  /// The bound session (model, membership table, epoch log, counters).
  const SessionState& session() const { return session_; }
  /// Membership churn counters of the last Run/Resume.
  int64_t evictions() const { return evictions_; }
  int64_t admissions() const { return admissions_; }

 private:
  struct PendingJoin {
    uint32_t silo_id = 0;
    uint32_t user_count = 1;
    uint64_t min_version = 0;
    std::unique_ptr<Transport> transport;
  };
  struct RunCtx;  // per-run state (defined in the .cc)

  /// One run: StartRun, then the RunSteps loop, then the one teardown.
  Result<Vec> RunInternal(int total_steps, Vec global);
  Status StartRun(RunCtx& ctx, int total_steps);
  Status RunSteps(RunCtx& ctx, int total_steps);
  /// Takes one arrival and routes its verdict (Judge) to the rules below.
  Status Receive(RunCtx& ctx, uint64_t step);
  Status Judge(RunCtx& ctx, int silo, uint64_t step, const Frame& frame);
  /// The decision rules, each applied in one place (see the .cc).
  Status Release(RunCtx& ctx, int silo, uint64_t version);
  Status Reject(RunCtx& ctx, int silo, uint64_t version, const Status& cause);
  Status Depart(RunCtx& ctx, int silo, uint64_t version, bool evict,
                const Status& cause);
  Status ChangeMembership(RunCtx& ctx, uint64_t version, const Status& cause);
  Status AdmitDueJoins(RunCtx& ctx, uint64_t next_version);
  Status MaybeCheckpoint(uint64_t completed_steps, int total_steps);
  void FailAll(const Status& status);

  AsyncRoundsConfig config_;
  int num_silos_;
  int dim_;
  PrivacyTracker* tracker_ = nullptr;
  std::string checkpoint_dir_;
  int checkpoint_every_ = 0;
  SessionState session_;
  AsyncStats stats_;
  int64_t evictions_ = 0;
  int64_t admissions_ = 0;

  /// Guards conns_/pending_/running_ against the accept thread calling
  /// AddConnection while the run loop admits or finishes.
  mutable std::mutex conn_mu_;
  bool running_ = false;
  std::vector<std::unique_ptr<Transport>> conns_;  // [silo id]
  std::deque<PendingJoin> pending_;
  /// Replaced connections of re-admitted silo ids: the mux still borrows
  /// the old Transport until its Shutdown, so they are parked here until
  /// the server dies.
  std::vector<std::unique_ptr<Transport>> retired_;
};

/// Per-client elastic knobs (the cohort-wide ones live in
/// AsyncRoundsConfig, pinned by the config digest).
struct AsyncClientOptions {
  /// >= 0: join elastically with a JoinRequest instead of the fixed-cohort
  /// JoinMsg, asking for admission at a model version >= this.
  int64_t join_min_version = -1;
  /// Users this silo contributes to the weighting population (elastic
  /// joins only; the fixed handshake weights uniformly).
  uint32_t user_count = 1;
  /// >= 0: on the first release with version >= this, send Leave instead
  /// of training and return Ok — the voluntary-departure path.
  int64_t leave_after_version = -1;
};

class AsyncRoundClient {
 public:
  /// Local work for one released version: fills `delta` (resized to the
  /// model dimension) with this silo's clipped, noised contribution
  /// against `params`. All randomness must come from Fork(version, silo)
  /// substreams of the shared seed.
  using WorkFn = std::function<Status(uint64_t version, const Vec& params,
                                      Vec* delta)>;

  AsyncRoundClient(const AsyncRoundsConfig& config, int silo_id,
                   int num_silos, int dim);

  /// Serves async rounds over `transport` until Shutdown or a voluntary
  /// Leave (returns Ok), an Evict frame (returns FailedPrecondition), or
  /// a fatal error (returned; also reported to the server best-effort).
  /// When an upload cannot be sent, the server's Error or Evict frame
  /// queued ahead of the close is returned in place of the send failure.
  Status Run(Transport& transport, const WorkFn& work,
             const AsyncClientOptions& options = {});

 private:
  Status RunLoop(Transport& transport, const WorkFn& work,
                 const AsyncClientOptions& options);

  AsyncRoundsConfig config_;
  int silo_id_;
  int num_silos_;
  int dim_;
};

}  // namespace net
}  // namespace uldp

#endif  // ULDP_NET_ASYNC_ROUNDS_H_
