// Unified parallel round engine. Every FL algorithm in this codebase is a
// cross-silo round: silos compute local contributions independently, and
// the server reduces them. The engine owns that structure once — a silo-
// actor scheduler on a work-stealing pool plus the deterministic reduce —
// so a trainer registers one per-silo work callback at construction and
// calls Step once per round; the engine alone decides how a round runs.
//
// Determinism contract: the engine never hands callbacks a shared RNG.
// Algorithms draw all randomness from Rng::Fork(round, silo, user)
// substreams (pure functions of the seed and counters) and the engine
// reduces silo outputs in silo order, so a run on N threads is bitwise
// identical to a serial run. Thread count is purely a performance knob
// (FlConfig::num_threads / ULDP_THREADS).
//
// With RoundEngineConfig::async_rounds set, Step is instead one server
// step of the staleness-bounded round mode: silo deltas are applied as
// they land, bounded by max_staleness and discounted by 1/(1 + staleness),
// instead of barrier-waiting on the slowest silo. The first Step creates
// the async state at its round's version, so a run restored from a
// checkpoint continues at the restored round. With max_staleness = 0 and
// a full buffer every step is the synchronous barrier, bitwise identical
// to a sync Step; with an injected arrival schedule any async
// configuration is fully deterministic (tests rely on both).

#ifndef ULDP_FL_ROUND_ENGINE_H_
#define ULDP_FL_ROUND_ENGINE_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "nn/model.h"
#include "obs/metrics.h"

namespace uldp {

struct FlConfig;
struct SessionState;

struct RoundEngineConfig {
  /// <= 0 resolves via ThreadPool::DefaultThreadCount().
  int num_threads = 0;
  /// Route the silo-delta reduce through the secure-aggregation simulation
  /// (pairwise-masked fixed-point sums) instead of a plain sum.
  bool secure_aggregation = false;
  /// Staleness-bounded async rounds (see FlConfig::async_rounds); the
  /// fields below apply only when this is set.
  bool async_rounds = false;
  /// Maximum accepted staleness.
  int max_staleness = 0;
  /// Arrivals per server step; <= 0 resolves to num_silos.
  int async_buffer = 0;
  /// Test hook: when non-empty, silo tasks "arrive" in exactly this order
  /// (each entry names the silo whose in-flight task completes next) and
  /// everything runs serially on the caller — a fixed arrival schedule
  /// makes an async run fully deterministic. Empty = real completion order
  /// on worker threads.
  std::vector<int> arrival_schedule;
};

/// Engine settings carried by the shared FL hyper-parameter block.
RoundEngineConfig EngineConfigFrom(const FlConfig& config);

struct AsyncStats {
  /// Updates applied (after discounting), dropped for staleness, and
  /// server steps flushed.
  int64_t applied = 0;
  int64_t rejected = 0;
  int64_t steps = 0;
  /// Accepted offers later discarded because their silo was evicted
  /// before the flush (elastic membership only).
  int64_t dropped = 0;
  /// Largest accepted staleness.
  int max_staleness_seen = 0;
};

/// Staleness discount: an update computed `staleness` versions ago is
/// scaled by 1 / (1 + staleness) before aggregation (FedBuff-style
/// polynomial discounting). Exactly 1 at staleness 0.
double StalenessDiscount(int staleness);

/// The staleness-bounded buffered update rule, transport-agnostic: both
/// the in-process async engine and the net-layer async round server feed
/// arrivals into one of these. Not thread-safe — callers serialize access.
class AsyncAggregator {
 public:
  /// Starts at server version `version` (a resumed run's restored round).
  AsyncAggregator(int num_silos, int max_staleness, int buffer_size,
                  int version = 0);

  /// Server version = the start version plus flushed steps so far.
  int version() const { return version_; }
  int buffer_size() const { return buffer_size_; }
  int max_staleness() const { return max_staleness_; }

  /// Offers one silo update computed against version `pull_version`.
  /// Returns the staleness it was accepted at, or -1 when rejected for
  /// exceeding max_staleness (the caller re-dispatches the silo against
  /// the current model). Accepted deltas are discounted in place.
  int Offer(int silo, int pull_version, Vec delta);

  /// Books one arrival computed against `pull_version` without buffering
  /// its upload: returns the staleness, or -1 when rejected, and moves
  /// the same counters and metrics as Offer, which books through it. A
  /// caller that reduces a step's uploads itself (the masked server step:
  /// its vectors only sum over the full cohort) admits them here.
  int Admit(int pull_version);

  /// True once the step holds buffer_size admitted arrivals.
  bool ReadyToFlush() const { return arrivals_ >= buffer_size_; }

  /// Applies one server step: reduces the buffered (already discounted)
  /// deltas in (pull_version, silo) order — so the reduce is a pure
  /// function of the buffer contents, never of arrival order — and
  /// closes the step. With max_staleness = 0 and buffer = num_silos the
  /// entry order is exactly silo order and the reduce is bitwise
  /// identical to the synchronous engine's AggregateDeltas call.
  Vec Flush(bool secure, uint64_t round_tag, ThreadPool* pool);

  /// Closes one server step: advances the version and books the step in
  /// the counters, metrics and bound session. Flush closes through it; so
  /// does a caller that reduced the step's admitted uploads itself.
  void CloseStep();

  const AsyncStats& stats() const { return stats_; }

  /// Binds this aggregator to a session (fl/session.h): the version and
  /// cumulative stats are ADOPTED from the session now (resume), and
  /// mirrored back after every Flush/DropSilo. Pass nullptr to unbind.
  /// Unbound aggregators behave exactly as before.
  void BindSession(SessionState* session);

  /// Discards any buffered entries from `silo` (eviction/leave): they
  /// count as `dropped`, not un-applied — `applied` keeps meaning
  /// "offers accepted".
  void DropSilo(int silo);

  /// Elastic membership shrinks/grows the flush threshold with the active
  /// population; clamped to [1, num_silos].
  void SetBufferSize(int buffer_size);

 private:
  /// Mirrors version + stats into the bound session (no-op unbound).
  void SyncSession();

  struct Entry {
    int pull_version;
    int silo;
    Vec delta;
  };
  int num_silos_;
  int max_staleness_;
  int buffer_size_;
  int version_ = 0;
  /// Arrivals admitted since the last step, buffered or not.
  int arrivals_ = 0;
  std::vector<Entry> entries_;
  /// Authoritative counters (serialized into sessions). The registry
  /// metrics below mirror them so one snapshot reports async health next
  /// to every other subsystem; stats() stays the exact per-aggregator
  /// read.
  AsyncStats stats_;
  SessionState* session_ = nullptr;
  obs::Counter applied_metric_{"fl.async.applied"};
  obs::Counter rejected_metric_{"fl.async.rejected"};
  obs::Counter dropped_metric_{"fl.async.dropped"};
  obs::Counter steps_metric_{"fl.async.steps"};
  obs::Gauge max_staleness_metric_{"fl.async.max_staleness_seen",
                                   obs::Gauge::Agg::kMax};
};

/// Schedules per-silo round work across threads and reduces the results.
/// One engine instance per trainer; it owns a small pool of model clones
/// (one per concurrently running silo task — models carry scratch state,
/// so two in-flight tasks must not share one, but a silo task sets all
/// parameters before use, so clones are reusable across silos and rounds).
class RoundEngine {
 public:
  /// Per-silo local work against one pulled model version. `snapshot`
  /// holds the version-`version` global parameters; `model`'s parameters
  /// are set to the snapshot before the call; the callback fills `delta`
  /// (preallocated to the global size, zeroed) with the silo's clipped,
  /// weighted, noised contribution. Runs concurrently across silos — touch
  /// only silo-local state, and draw all randomness from
  /// Rng::Fork(version, silo, user) substreams so a task's content depends
  /// only on (version, silo), never on scheduling.
  using SiloWork = std::function<Status(
      int version, int silo, const Vec& snapshot, Model& model, Vec& delta)>;

  /// `work` runs for every Step and must stay valid until the engine is
  /// destroyed. Async workers run it on their own threads until then, so
  /// an owner whose `work` reads its members declares the engine after
  /// them (members are destroyed in reverse order).
  RoundEngine(const Model& model, int num_silos, RoundEngineConfig config,
              SiloWork work);
  ~RoundEngine();

  /// One server round against `global`, the version-`round` parameters;
  /// returns the reduced silo-delta total (plain or secure-aggregated,
  /// keyed by `round`). Sync: every silo runs `work` on the pool and the
  /// deltas are reduced in silo order. Async: one staleness-bounded server
  /// step — `global` is published as the version-`round` snapshot, every
  /// idle silo is released to train against it, and arrivals are consumed
  /// (applying the staleness rule) until the buffer flushes; the sum is
  /// already discounted. Stragglers keep computing across steps. The first
  /// async Step validates the async settings and starts at `round`; each
  /// later one must pass the next version.
  Result<Vec> Step(int round, const Vec& global);

  /// Runs `work` for every silo against `global` (version `round`) without
  /// the reduce step — for algorithms with a custom server-side reduce
  /// (e.g. Protocol 1's encrypted weighting). Deltas land in `silo_deltas`
  /// (resized to num_silos); pass nullptr when the algorithm stores its
  /// results elsewhere — the callback then receives an empty scratch Vec
  /// it may ignore.
  Status RunSilos(int round, const Vec& global, const SiloWork& work,
                  std::vector<Vec>* silo_deltas);

  /// Snapshot of the async counters (valid after the first async Step).
  AsyncStats async_stats() const;

  /// Binds the async rounds to a checkpointed session, as the async server
  /// does (AsyncAggregator::BindSession): the first async Step adopts the
  /// session's version and counters, so a resumed run continues the
  /// interrupted run's counts, and every flush mirrors them back for the
  /// next checkpoint. nullptr unbinds. Sync rounds leave the session alone.
  void BindSession(SessionState* session);

 private:
  struct AsyncState;

  /// Checks a model clone out of the free list, blocking until one is
  /// available (stolen work can briefly oversubscribe the pool).
  Model* AcquireModel();
  void ReleaseModel(Model* model);

  /// Validates the async settings and creates the async state (and,
  /// unless an arrival schedule is injected, the worker threads) at
  /// server version `version`.
  Status CreateAsync(int version);
  void AsyncWorkerLoop();
  /// Serial-mode step: consumes injected arrival-schedule events.
  Result<Vec> ScheduledStep(int round);
  /// Threaded-mode step: waits on real worker arrivals.
  Result<Vec> ThreadedStep(int round);

  int num_silos_;
  RoundEngineConfig config_;
  SiloWork work_;
  PoolHandle pool_;
  std::vector<std::unique_ptr<Model>> model_clones_;
  std::vector<Model*> free_models_;
  std::mutex model_mu_;
  std::condition_variable model_cv_;
  std::unique_ptr<AsyncState> async_;
  SessionState* session_ = nullptr;
};

}  // namespace uldp

#endif  // ULDP_FL_ROUND_ENGINE_H_
