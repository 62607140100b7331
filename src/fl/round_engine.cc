#include "fl/round_engine.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "fl/local_trainer.h"
#include "fl/session.h"
#include "obs/trace.h"

namespace uldp {

RoundEngineConfig EngineConfigFrom(const FlConfig& config) {
  RoundEngineConfig ec;
  ec.num_threads = config.num_threads;
  ec.secure_aggregation = config.secure_aggregation;
  ec.async_rounds = config.async_rounds;
  ec.max_staleness = config.max_staleness;
  ec.async_buffer = config.async_buffer;
  return ec;
}

double StalenessDiscount(int staleness) {
  return staleness == 0 ? 1.0 : 1.0 / (1.0 + staleness);
}

// ---------------------------------------------------------------------------
// AsyncAggregator

AsyncAggregator::AsyncAggregator(int num_silos, int max_staleness,
                                 int buffer_size, int version)
    : num_silos_(num_silos),
      max_staleness_(max_staleness),
      buffer_size_(buffer_size <= 0 ? num_silos : buffer_size),
      version_(version) {
  ULDP_CHECK_GE(num_silos_, 1);
  ULDP_CHECK_GE(max_staleness_, 0);
  ULDP_CHECK_GE(buffer_size_, 1);
  ULDP_CHECK_LE(buffer_size_, num_silos_);
}

int AsyncAggregator::Offer(int silo, int pull_version, Vec delta) {
  const int staleness = Admit(pull_version);
  if (staleness < 0) return -1;
  // Discount in place (skip the exact no-op multiply at staleness 0 so the
  // synchronous-equivalence argument never leans on 1.0 * x == x).
  if (staleness > 0) {
    const double alpha = StalenessDiscount(staleness);
    for (double& v : delta) v *= alpha;
  }
  entries_.push_back(Entry{pull_version, silo, std::move(delta)});
  return staleness;
}

int AsyncAggregator::Admit(int pull_version) {
  ULDP_CHECK_GE(pull_version, 0);
  ULDP_CHECK_LE(pull_version, version_);
  const int staleness = version_ - pull_version;
  if (staleness > max_staleness_) {
    ++stats_.rejected;
    rejected_metric_.Add(1);
    return -1;
  }
  ++arrivals_;
  ++stats_.applied;
  stats_.max_staleness_seen = std::max(stats_.max_staleness_seen, staleness);
  applied_metric_.Add(1);
  max_staleness_metric_.SetMax(staleness);
  return staleness;
}

void AsyncAggregator::BindSession(SessionState* session) {
  session_ = session;
  if (session_ == nullptr) return;
  // Adopt, then mirror: a restored session carries the interrupted run's
  // counters; a fresh session carries zeros (same as ours). The registry
  // mirrors adopt the restored totals too, so a resumed run's metrics
  // snapshot continues the interrupted run's counts.
  if (session_->stats.applied > stats_.applied) {
    applied_metric_.Add(
        static_cast<uint64_t>(session_->stats.applied - stats_.applied));
  }
  if (session_->stats.rejected > stats_.rejected) {
    rejected_metric_.Add(
        static_cast<uint64_t>(session_->stats.rejected - stats_.rejected));
  }
  if (session_->stats.dropped > stats_.dropped) {
    dropped_metric_.Add(
        static_cast<uint64_t>(session_->stats.dropped - stats_.dropped));
  }
  if (session_->stats.steps > stats_.steps) {
    steps_metric_.Add(
        static_cast<uint64_t>(session_->stats.steps - stats_.steps));
  }
  max_staleness_metric_.SetMax(session_->stats.max_staleness_seen);
  version_ = static_cast<int>(session_->round);
  stats_.applied = session_->stats.applied;
  stats_.rejected = session_->stats.rejected;
  stats_.dropped = session_->stats.dropped;
  stats_.steps = session_->stats.steps;
  stats_.max_staleness_seen = session_->stats.max_staleness_seen;
  SyncSession();
}

void AsyncAggregator::SyncSession() {
  if (session_ == nullptr) return;
  session_->round = static_cast<uint64_t>(version_);
  session_->stats.applied = stats_.applied;
  session_->stats.rejected = stats_.rejected;
  session_->stats.dropped = stats_.dropped;
  session_->stats.steps = stats_.steps;
  session_->stats.max_staleness_seen = stats_.max_staleness_seen;
}

void AsyncAggregator::DropSilo(int silo) {
  auto removed = std::remove_if(
      entries_.begin(), entries_.end(),
      [silo](const Entry& e) { return e.silo == silo; });
  const int dropped = static_cast<int>(entries_.end() - removed);
  arrivals_ -= dropped;
  stats_.dropped += dropped;
  dropped_metric_.Add(static_cast<uint64_t>(dropped));
  entries_.erase(removed, entries_.end());
  SyncSession();
}

void AsyncAggregator::SetBufferSize(int buffer_size) {
  buffer_size_ = std::max(1, std::min(buffer_size, num_silos_));
}

Vec AsyncAggregator::Flush(bool secure, uint64_t round_tag, ThreadPool* pool) {
  ULDP_CHECK(!entries_.empty());
  obs::TraceSpan span("engine.async_flush", "entries",
                      static_cast<int64_t>(entries_.size()));
  // Deterministic reduce order: a silo contributes at most once per pulled
  // version, so (pull_version, silo) is a unique key and the sorted order
  // is independent of arrival interleaving.
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              return a.pull_version != b.pull_version
                         ? a.pull_version < b.pull_version
                         : a.silo < b.silo;
            });
  std::vector<Vec> deltas;
  deltas.reserve(entries_.size());
  for (Entry& e : entries_) deltas.push_back(std::move(e.delta));
  entries_.clear();
  CloseStep();
  return AggregateDeltas(deltas, secure, round_tag, pool);
}

void AsyncAggregator::CloseStep() {
  steps_metric_.Add(1);
  arrivals_ = 0;
  ++version_;
  ++stats_.steps;
  // Admissions since the last step updated stats_ too, so one mirror per
  // step keeps the bound session exactly current at checkpoint time.
  SyncSession();
}

// Async-mode shared state. `mu` guards everything below it; workers block
// on `ready_cv` for dispatchable silos, the stepping thread blocks on
// `arrivals_cv` for completed tasks.
struct RoundEngine::AsyncState {
  AsyncAggregator aggregator;

  std::mutex mu;
  std::condition_variable ready_cv;
  std::condition_variable arrivals_cv;
  bool done = false;
  /// Version-`snapshot_version` global parameters, valid from the Step
  /// call that published them until the next one.
  Vec snapshot;
  int snapshot_version = -1;
  /// Silos ready to pull the current snapshot, in release order.
  std::deque<int> ready;
  /// Silos whose last update was consumed and that wait for the next
  /// snapshot (all silos start here).
  std::vector<bool> waiting;
  struct Arrival {
    int silo;
    int pull_version;
    Vec delta;
    Status status;
  };
  std::deque<Arrival> arrivals;
  std::vector<std::thread> workers;
  // Injected-schedule mode only: next event index and per-silo task state.
  size_t schedule_pos = 0;
  std::vector<int> pull_version;   // per silo, valid while busy
  std::vector<Vec> pull_snapshot;  // per silo, valid while busy
  std::vector<bool> busy;

  AsyncState(int num_silos, const RoundEngineConfig& config, int version)
      : aggregator(num_silos, config.max_staleness, config.async_buffer,
                   version),
        waiting(num_silos, true),
        pull_version(num_silos, -1),
        pull_snapshot(num_silos),
        busy(num_silos, false) {}
};

RoundEngine::RoundEngine(const Model& model, int num_silos,
                         RoundEngineConfig config, SiloWork work)
    : num_silos_(num_silos),
      config_(std::move(config)),
      work_(std::move(work)),
      pool_(config_.num_threads) {
  ULDP_CHECK_GE(num_silos_, 1);
  // At most min(silos, threads) silo tasks run concurrently, so that many
  // clones suffice — memory stays bounded by parallelism, not silo count.
  const int clones = std::min(num_silos_, pool_->num_threads());
  model_clones_.reserve(clones);
  for (int i = 0; i < clones; ++i) {
    model_clones_.push_back(model.Clone());
    free_models_.push_back(model_clones_.back().get());
  }
}

RoundEngine::~RoundEngine() {
  if (async_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(async_->mu);
    async_->done = true;
  }
  async_->ready_cv.notify_all();
  for (std::thread& t : async_->workers) t.join();
}

Model* RoundEngine::AcquireModel() {
  std::unique_lock<std::mutex> lock(model_mu_);
  model_cv_.wait(lock, [this] { return !free_models_.empty(); });
  Model* model = free_models_.back();
  free_models_.pop_back();
  return model;
}

void RoundEngine::ReleaseModel(Model* model) {
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    free_models_.push_back(model);
  }
  model_cv_.notify_one();
}

Status RoundEngine::RunSilos(int round, const Vec& global,
                             const SiloWork& work,
                             std::vector<Vec>* silo_deltas) {
  ULDP_CHECK_EQ(global.size(), model_clones_[0]->NumParams());
  silo_deltas->assign(num_silos_, Vec());
  std::vector<Status> statuses(num_silos_, Status::Ok());
  pool_->ParallelFor(static_cast<size_t>(num_silos_), [&](size_t s) {
    obs::TraceSpan span("engine.silo_task", "silo",
                        static_cast<int64_t>(s));
    Model* model = AcquireModel();
    model->SetParams(global);
    Vec& delta = (*silo_deltas)[s];
    delta.assign(global.size(), 0.0);
    statuses[s] = work(round, static_cast<int>(s), global, *model, delta);
    ReleaseModel(model);
  });
  return FirstError(statuses);
}

Result<Vec> RoundEngine::Step(int round, const Vec& global) {
  if (!config_.async_rounds) {
    obs::TraceSpan span("engine.round", "round", round);
    std::vector<Vec> deltas;
    ULDP_RETURN_IF_ERROR(RunSilos(round, global, work_, &deltas));
    // The engine's pool (sized by the num_threads knob) also drives mask
    // generation, so the knob bounds every thread this round spawns.
    return AggregateDeltas(deltas, config_.secure_aggregation,
                           static_cast<uint64_t>(round), &*pool_);
  }
  obs::TraceSpan span("engine.async_step", "round", round);
  if (async_ == nullptr) ULDP_RETURN_IF_ERROR(CreateAsync(round));
  AsyncState& st = *async_;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    if (round != st.aggregator.version()) {
      return Status::FailedPrecondition(
          "async step round " + std::to_string(round) +
          " does not match the engine version " +
          std::to_string(st.aggregator.version()));
    }
    ULDP_CHECK_EQ(global.size(), model_clones_[0]->NumParams());
    st.snapshot = global;
    st.snapshot_version = round;
  }
  return config_.arrival_schedule.empty() ? ThreadedStep(round)
                                          : ScheduledStep(round);
}

// ---------------------------------------------------------------------------
// Async mode

Status RoundEngine::CreateAsync(int version) {
  if (config_.max_staleness < 0) {
    return Status::InvalidArgument("max_staleness must be >= 0");
  }
  const int k = config_.async_buffer <= 0 ? num_silos_ : config_.async_buffer;
  if (k < 1 || k > num_silos_) {
    return Status::InvalidArgument(
        "async_buffer must be in [1, num_silos]; got " + std::to_string(k));
  }
  for (int s : config_.arrival_schedule) {
    if (s < 0 || s >= num_silos_) {
      return Status::InvalidArgument("arrival schedule names silo " +
                                     std::to_string(s) + " of " +
                                     std::to_string(num_silos_));
    }
  }
  async_ = std::make_unique<AsyncState>(num_silos_, config_, version);
  if (session_ != nullptr) async_->aggregator.BindSession(session_);
  if (config_.arrival_schedule.empty()) {
    const int workers = std::min(num_silos_, pool_->num_threads());
    async_->workers.reserve(workers);
    for (int i = 0; i < workers; ++i) {
      async_->workers.emplace_back([this] { AsyncWorkerLoop(); });
    }
  }
  return Status::Ok();
}

AsyncStats RoundEngine::async_stats() const {
  ULDP_CHECK(async_ != nullptr);
  std::lock_guard<std::mutex> lock(async_->mu);
  return async_->aggregator.stats();
}

void RoundEngine::BindSession(SessionState* session) {
  session_ = session;
  if (async_ != nullptr) async_->aggregator.BindSession(session);
}

void RoundEngine::AsyncWorkerLoop() {
  AsyncState& st = *async_;
  std::unique_lock<std::mutex> lock(st.mu);
  for (;;) {
    st.ready_cv.wait(lock, [&] { return st.done || !st.ready.empty(); });
    if (st.done) return;
    const int silo = st.ready.front();
    st.ready.pop_front();
    // Pull at pop time: the task binds to the latest published snapshot,
    // minimizing the staleness it will be charged on arrival.
    const int pull_version = st.snapshot_version;
    Vec snapshot = st.snapshot;
    lock.unlock();

    Model* model = AcquireModel();
    model->SetParams(snapshot);
    Vec delta(snapshot.size(), 0.0);
    Status status;
    {
      obs::TraceSpan span("engine.async_task", "silo", silo);
      status = work_(pull_version, silo, snapshot, *model, delta);
    }
    ReleaseModel(model);

    lock.lock();
    st.arrivals.push_back(AsyncState::Arrival{silo, pull_version,
                                              std::move(delta),
                                              std::move(status)});
    st.arrivals_cv.notify_all();
  }
}

Result<Vec> RoundEngine::ThreadedStep(int round) {
  AsyncState& st = *async_;
  std::unique_lock<std::mutex> lock(st.mu);
  // Release every silo that was waiting for this snapshot, in silo order.
  for (int s = 0; s < num_silos_; ++s) {
    if (!st.waiting[s]) continue;
    st.waiting[s] = false;
    st.ready.push_back(s);
  }
  st.ready_cv.notify_all();

  while (!st.aggregator.ReadyToFlush()) {
    st.arrivals_cv.wait(lock, [&] { return !st.arrivals.empty(); });
    AsyncState::Arrival arrival = std::move(st.arrivals.front());
    st.arrivals.pop_front();
    if (!arrival.status.ok()) return arrival.status;
    const int staleness = st.aggregator.Offer(
        arrival.silo, arrival.pull_version, std::move(arrival.delta));
    if (staleness < 0) {
      // Over the bound: discard and retrain against the current snapshot.
      st.ready.push_back(arrival.silo);
      st.ready_cv.notify_all();
    } else {
      st.waiting[arrival.silo] = true;
    }
  }
  // Flush outside the lock: the reduce (which may run masks on the pool)
  // must not block workers pulling the next snapshot. The entries and the
  // version advance atomically inside the aggregator call below, which is
  // only reached by this (single) stepping thread.
  AsyncAggregator& agg = st.aggregator;
  lock.unlock();
  return agg.Flush(config_.secure_aggregation, static_cast<uint64_t>(round),
                   &*pool_);
}

Result<Vec> RoundEngine::ScheduledStep(int round) {
  AsyncState& st = *async_;
  // Serial deterministic mode: no locking — everything runs on the caller.
  for (int s = 0; s < num_silos_; ++s) {
    if (!st.waiting[s]) continue;
    st.waiting[s] = false;
    st.busy[s] = true;
    st.pull_version[s] = round;
    st.pull_snapshot[s] = st.snapshot;
  }
  while (!st.aggregator.ReadyToFlush()) {
    if (st.schedule_pos >= config_.arrival_schedule.size()) {
      return Status::InvalidArgument(
          "arrival schedule exhausted before step " + std::to_string(round) +
          " flushed");
    }
    const int silo = config_.arrival_schedule[st.schedule_pos++];
    if (!st.busy[silo]) {
      return Status::InvalidArgument(
          "arrival schedule names silo " + std::to_string(silo) +
          " which has no task in flight");
    }
    Model* model = AcquireModel();
    model->SetParams(st.pull_snapshot[silo]);
    Vec delta(st.pull_snapshot[silo].size(), 0.0);
    Status status = work_(st.pull_version[silo], silo,
                          st.pull_snapshot[silo], *model, delta);
    ReleaseModel(model);
    if (!status.ok()) return status;
    st.busy[silo] = false;
    const int staleness =
        st.aggregator.Offer(silo, st.pull_version[silo], std::move(delta));
    if (staleness < 0) {
      // Retrain immediately against the current snapshot.
      st.busy[silo] = true;
      st.pull_version[silo] = st.aggregator.version();
      st.pull_snapshot[silo] = st.snapshot;
    } else {
      st.waiting[silo] = true;
    }
  }
  return st.aggregator.Flush(config_.secure_aggregation,
                             static_cast<uint64_t>(round), &*pool_);
}

}  // namespace uldp
