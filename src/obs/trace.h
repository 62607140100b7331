// Scoped phase tracing: TraceSpan measures the lifetime of a scope and
// records it into a process-wide preallocated event buffer, written out
// as Chrome trace-event JSON ("X" complete events — loadable in
// about://tracing and Perfetto).
//
// Cost model: when tracing is disabled (the default) a span's constructor
// is one relaxed atomic load and its destructor a null check — and with
// ULDP_DISABLE_TRACING defined the span compiles to an empty object, so
// instrumented hot loops carry zero code. When enabled, recording is one
// fetch_add to claim a slot plus a POD store; the buffer never allocates
// after Enable() and never blocks. A full buffer drops new events (and
// counts them) rather than overwriting — a torn half-written slot can
// never reach the output file.
//
// Span names (and arg names) must be string literals or otherwise outlive
// the buffer: only the pointer is stored. A span carries up to
// kMaxTraceArgs integer args.
//
// Tracing is strictly passive: no Rng stream is touched and no
// instrumented computation observes whether the buffer is enabled, so
// traced runs are bitwise-identical to untraced runs (tested).

#ifndef ULDP_OBS_TRACE_H_
#define ULDP_OBS_TRACE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace uldp {
namespace obs {

/// One named integer arg of a span.
struct TraceArg {
  const char* name = nullptr;
  int64_t value = 0;
};

/// Args one event holds; a span drops any beyond this.
inline constexpr size_t kMaxTraceArgs = 4;

struct TraceEvent {
  const char* name = nullptr;
  uint64_t ts_ns = 0;  // NowNs() at span start
  uint64_t dur_ns = 0;
  TraceArg args[kMaxTraceArgs];
  uint32_t num_args = 0;
  uint32_t tid = 0;
};

class TraceBuffer {
 public:
  static constexpr size_t kDefaultCapacity = 1u << 18;  // 256k events

  static TraceBuffer& Global();

  /// Allocates the ring and turns recording on. Re-enabling an enabled
  /// buffer keeps existing events (capacity is only applied when the
  /// buffer grows from zero).
  void Enable(size_t capacity = kDefaultCapacity);
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records one complete event with the first min(num_args,
  /// kMaxTraceArgs) of `args`; drops (and counts) when full or disabled.
  void Record(const char* name, uint64_t ts_ns, uint64_t dur_ns,
              const TraceArg* args = nullptr, size_t num_args = 0) {
    if (!enabled()) return;
    const uint64_t idx = next_.fetch_add(1, std::memory_order_relaxed);
    if (idx >= events_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    TraceEvent& e = events_[idx];
    e.name = name;
    e.ts_ns = ts_ns;
    e.dur_ns = dur_ns;
    e.num_args = static_cast<uint32_t>(std::min(num_args, kMaxTraceArgs));
    for (uint32_t i = 0; i < e.num_args; ++i) e.args[i] = args[i];
    e.tid = ThreadId();
  }

  /// Events recorded so far (capped at capacity).
  size_t size() const;
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Drops every recorded event and resets the dropped count; recording
  /// state and capacity are unchanged.
  void Clear();

  /// Writes Chrome trace-event JSON ({"traceEvents": [...]}) sorted by
  /// timestamp, via tmp + rename so an interrupted writer never leaves a
  /// truncated file. Safe to call with recording still enabled (events
  /// racing the snapshot are simply not included). Writes an empty but
  /// valid trace when nothing was recorded.
  Status WriteJson(const std::string& path) const;

  /// Serializes the same JSON to a string (tests).
  std::string ToJson() const;

 private:
  static uint32_t ThreadId();

  mutable std::mutex mu_;  // guards events_ growth (Enable) and snapshots
  std::vector<TraceEvent> events_;
  std::atomic<uint64_t> next_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<bool> enabled_{false};
};

#ifdef ULDP_DISABLE_TRACING

/// Compiled-out span: same shape, zero code.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) { (void)name; }
  TraceSpan(const char* name, const char* arg_name, int64_t arg) {
    (void)name;
    (void)arg_name;
    (void)arg;
  }
  void AddArg(const char* arg_name, int64_t arg) {
    (void)arg_name;
    (void)arg;
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
};

#else  // !ULDP_DISABLE_TRACING

/// Scoped span: construction stamps the start, destruction records one
/// complete event covering the scope. When tracing is disabled the
/// constructor leaves name_ null and the destructor does nothing.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) : TraceSpan(name, nullptr, 0) {}
  TraceSpan(const char* name, const char* arg_name, int64_t arg) {
    TraceBuffer& buffer = TraceBuffer::Global();
    if (!buffer.enabled()) return;
    name_ = name;
    if (arg_name != nullptr) AddArg(arg_name, arg);
    start_ns_ = NowNs();
  }
  ~TraceSpan() {
    if (name_ == nullptr) return;
    TraceBuffer::Global().Record(name_, start_ns_, NowNs() - start_ns_,
                                 args_, num_args_);
  }
  /// Attaches one more arg (a no-op while tracing is disabled, and past
  /// kMaxTraceArgs) — for values known only once the span's work began.
  void AddArg(const char* arg_name, int64_t arg) {
    if (name_ == nullptr || num_args_ == kMaxTraceArgs) return;
    args_[num_args_++] = TraceArg{arg_name, arg};
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  TraceArg args_[kMaxTraceArgs];
  size_t num_args_ = 0;
  uint64_t start_ns_ = 0;
};

#endif  // ULDP_DISABLE_TRACING

/// Always-empty span with the same interface as the compiled-out
/// TraceSpan — the overhead bench measures it against a bare loop in the
/// same binary to certify that ULDP_DISABLE_TRACING builds carry no cost.
class NullSpan {
 public:
  explicit NullSpan(const char* name) { (void)name; }
  NullSpan(const char* name, const char* arg_name, int64_t arg) {
    (void)name;
    (void)arg_name;
    (void)arg;
  }
  void AddArg(const char* arg_name, int64_t arg) {
    (void)arg_name;
    (void)arg;
  }
  NullSpan(const NullSpan&) = delete;
  NullSpan& operator=(const NullSpan&) = delete;
};

}  // namespace obs
}  // namespace uldp

#endif  // ULDP_OBS_TRACE_H_
