// Process-wide metrics registry: lock-free counters, gauges, and
// log-bucketed latency histograms, snapshot-able to a stable JSON schema
// (uldp.metrics.v1) and to Prometheus text exposition format.
//
// Hot-path cost model: an increment is one relaxed atomic op on a member
// the owning object holds by value — the registry mutex is only taken at
// metric construction, destruction, and snapshot time. Metric instances
// register themselves by name; many instances may share a name (every
// transport owns a "net.transport.bytes_sent" counter) and a snapshot
// merges them, so per-object accessors stay exact while the registry
// reports fleet totals. When an instance is destroyed its final value
// folds into a per-name retained aggregate, so counters from closed
// connections or finished phases survive into the end-of-run snapshot.
//
// Telemetry is strictly passive: nothing here touches an Rng stream, and
// reads use relaxed loads so instrumented code is bitwise-identical with
// or without a snapshot ever being taken.

#ifndef ULDP_OBS_METRICS_H_
#define ULDP_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace uldp {
namespace obs {

/// Nanoseconds on the steady clock since a process-wide epoch (the first
/// call). Shared by histograms timing waits and the trace buffer, so span
/// timestamps and latency samples line up.
uint64_t NowNs();

class MetricsRegistry;

/// Monotonic counter. Construct with a name to register with the global
/// registry, or pass a registry explicitly (tests).
class Counter {
 public:
  explicit Counter(std::string name);
  Counter(MetricsRegistry* registry, std::string name);
  ~Counter();
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  MetricsRegistry* registry_;
  std::string name_;
  std::atomic<uint64_t> value_{0};
};

/// Signed gauge. Aggregation across same-name instances (and into the
/// retained fold) is either kSum (queue depths, in-flight counts) or kMax
/// (high-water marks like the largest frame on any connection).
class Gauge {
 public:
  enum class Agg { kSum, kMax };

  explicit Gauge(std::string name, Agg agg = Agg::kSum);
  Gauge(MetricsRegistry* registry, std::string name, Agg agg = Agg::kSum);
  ~Gauge();
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if it is below (CAS-max).
  void SetMax(int64_t v) {
    int64_t prev = value_.load(std::memory_order_relaxed);
    while (v > prev && !value_.compare_exchange_weak(
                           prev, v, std::memory_order_relaxed)) {
    }
  }
  /// Returns the current value and replaces it with `v` atomically.
  int64_t Exchange(int64_t v) {
    return value_.exchange(v, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  Agg agg() const { return agg_; }
  const std::string& name() const { return name_; }

 private:
  MetricsRegistry* registry_;
  std::string name_;
  Agg agg_;
  std::atomic<int64_t> value_{0};
};

/// Log-bucketed histogram: value v lands in bucket bit_width(v), i.e.
/// bucket 0 holds exactly 0 and bucket i >= 1 holds [2^(i-1), 2^i - 1]
/// (upper bound "le" = 2^i - 1). Covers the full uint64 range in
/// kNumBuckets fixed slots — no allocation ever, Record is three relaxed
/// atomic adds.
class Histogram {
 public:
  static constexpr int kNumBuckets = 65;

  explicit Histogram(std::string name);
  Histogram(MetricsRegistry* registry, std::string name);
  ~Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t v) {
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }

  static int BucketIndex(uint64_t v) {
    int bits = 0;
    while (v != 0) {
      ++bits;
      v >>= 1;
    }
    return bits;
  }
  /// Inclusive upper bound of bucket i (2^i - 1; bucket 0 holds only 0).
  static uint64_t BucketUpperBound(int i) {
    return i >= 64 ? ~0ull : (1ull << i) - 1;
  }

 private:
  MetricsRegistry* registry_;
  std::string name_;
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> count_{0};
};

/// Scoped latency sample: records NowNs() elapsed between construction
/// and destruction into a histogram.
class ScopedTimerNs {
 public:
  explicit ScopedTimerNs(Histogram* hist)
      : hist_(hist), start_ns_(hist == nullptr ? 0 : NowNs()) {}
  ~ScopedTimerNs() {
    if (hist_ != nullptr) hist_->Record(NowNs() - start_ns_);
  }
  ScopedTimerNs(const ScopedTimerNs&) = delete;
  ScopedTimerNs& operator=(const ScopedTimerNs&) = delete;

 private:
  Histogram* hist_;
  uint64_t start_ns_;
};

/// One merged per-name view, produced by MetricsRegistry::Snapshot().
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  uint64_t counter_value = 0;  // kCounter
  int64_t gauge_value = 0;     // kGauge (after Agg merge)
  uint64_t hist_count = 0;     // kHistogram
  uint64_t hist_sum = 0;
  /// Nonzero buckets only, ascending: (inclusive upper bound, count).
  std::vector<std::pair<uint64_t, uint64_t>> hist_buckets;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every default-constructed metric joins.
  static MetricsRegistry& Global();

  /// Cold-path conveniences for call sites without a natural owner for a
  /// metric object (per-stream setup, per-phase accounting): bump the
  /// retained aggregate directly under the registry mutex.
  void AddCounter(const std::string& name, uint64_t n);
  void RecordHistogram(const std::string& name, uint64_t v);

  /// Merged (live + retained) view of every metric, sorted by name within
  /// each kind.
  std::vector<MetricSnapshot> Snapshot() const;

  /// Stable JSON: {"schema": "uldp.metrics.v1", "counters": {...},
  /// "gauges": {...}, "histograms": {name: {count, sum, buckets: [
  /// {le, count}]}}}. Bucket counts are per-bucket (not cumulative).
  std::string ToJson() const;

  /// Prometheus text exposition format (names prefixed "uldp_", '.'/'-'
  /// replaced by '_'; histogram buckets cumulative with a +Inf bucket).
  std::string ToPrometheus() const;

  /// Writes ToJson() via tmp + rename so a crash mid-write never leaves a
  /// truncated file behind.
  Status WriteJsonFile(const std::string& path) const;

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  struct RetainedHist {
    uint64_t buckets[Histogram::kNumBuckets] = {};
    uint64_t sum = 0;
    uint64_t count = 0;
  };

  void Register(Counter* c);
  void Unregister(Counter* c);
  void Register(Gauge* g);
  void Unregister(Gauge* g);
  void Register(Histogram* h);
  void Unregister(Histogram* h);

  mutable std::mutex mu_;
  std::map<std::string, std::vector<Counter*>> counters_;
  std::map<std::string, uint64_t> retained_counters_;
  std::map<std::string, std::vector<Gauge*>> gauges_;
  std::map<std::string, std::pair<Gauge::Agg, int64_t>> retained_gauges_;
  std::map<std::string, std::vector<Histogram*>> histograms_;
  std::map<std::string, RetainedHist> retained_histograms_;
};

}  // namespace obs
}  // namespace uldp

#endif  // ULDP_OBS_METRICS_H_
