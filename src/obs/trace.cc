#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/file_io.h"

namespace uldp {
namespace obs {

TraceBuffer& TraceBuffer::Global() {
  // Leaked like the metrics registry: spans owned by static-lifetime
  // objects may fire after main() returns.
  static TraceBuffer* global = new TraceBuffer();
  return *global;
}

uint32_t TraceBuffer::ThreadId() {
  static std::atomic<uint32_t> next_tid{1};
  thread_local uint32_t tid = next_tid.fetch_add(1);
  return tid;
}

void TraceBuffer::Enable(size_t capacity) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (events_.empty()) {
      events_.resize(capacity == 0 ? kDefaultCapacity : capacity);
    }
  }
  enabled_.store(true, std::memory_order_relaxed);
}

size_t TraceBuffer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<size_t>(
      std::min<uint64_t>(next_.load(std::memory_order_relaxed),
                         events_.size()));
}

void TraceBuffer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  next_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

std::string TraceBuffer::ToJson() const {
  std::vector<TraceEvent> snapshot;
  uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t n = std::min<uint64_t>(
        next_.load(std::memory_order_relaxed), events_.size());
    snapshot.assign(events_.begin(),
                    events_.begin() + static_cast<long>(n));
    dropped = dropped_.load(std::memory_order_relaxed);
  }
  // A slot claimed but not yet fully written by a racing span still has a
  // null name; skip it rather than emit a half-event.
  snapshot.erase(std::remove_if(snapshot.begin(), snapshot.end(),
                                [](const TraceEvent& e) {
                                  return e.name == nullptr;
                                }),
                 snapshot.end());
  std::stable_sort(snapshot.begin(), snapshot.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  // Chrome trace ts/dur are microseconds; keep ns precision as a
  // zero-padded 3-digit decimal fraction.
  const auto micros = [](uint64_t ns) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    return std::string(buf);
  };
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped\": \""
     << dropped << "\"}, \"traceEvents\": [";
  for (size_t i = 0; i < snapshot.size(); ++i) {
    const TraceEvent& e = snapshot[i];
    if (i > 0) os << ",";
    os << "\n{\"name\": \"" << e.name << "\", \"cat\": \"uldp\", "
       << "\"ph\": \"X\", \"pid\": 0, \"tid\": " << e.tid << ", \"ts\": "
       << micros(e.ts_ns) << ", \"dur\": " << micros(e.dur_ns);
    if (e.num_args > 0) {
      os << ", \"args\": {";
      for (uint32_t a = 0; a < e.num_args; ++a) {
        os << (a > 0 ? ", " : "") << "\"" << e.args[a].name
           << "\": " << e.args[a].value;
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
  return os.str();
}

Status TraceBuffer::WriteJson(const std::string& path) const {
  const std::string json = ToJson();
  return WriteFileAtomic(path, json.data(), json.size(), "trace");
}

}  // namespace obs
}  // namespace uldp
