#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/file_io.h"

namespace uldp {
namespace obs {

uint64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

// ---------------------------------------------------------------------------
// Metric instances

Counter::Counter(std::string name)
    : Counter(&MetricsRegistry::Global(), std::move(name)) {}

Counter::Counter(MetricsRegistry* registry, std::string name)
    : registry_(registry), name_(std::move(name)) {
  registry_->Register(this);
}

Counter::~Counter() { registry_->Unregister(this); }

Gauge::Gauge(std::string name, Agg agg)
    : Gauge(&MetricsRegistry::Global(), std::move(name), agg) {}

Gauge::Gauge(MetricsRegistry* registry, std::string name, Agg agg)
    : registry_(registry), name_(std::move(name)), agg_(agg) {
  registry_->Register(this);
}

Gauge::~Gauge() { registry_->Unregister(this); }

Histogram::Histogram(std::string name)
    : Histogram(&MetricsRegistry::Global(), std::move(name)) {}

Histogram::Histogram(MetricsRegistry* registry, std::string name)
    : registry_(registry), name_(std::move(name)) {
  registry_->Register(this);
}

Histogram::~Histogram() { registry_->Unregister(this); }

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: metrics owned by static-lifetime objects may
  // unregister after main() returns, so the registry must outlive them.
  static MetricsRegistry* global = new MetricsRegistry();
  return *global;
}

void MetricsRegistry::Register(Counter* c) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[c->name()].push_back(c);
}

void MetricsRegistry::Unregister(Counter* c) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& live = counters_[c->name()];
  live.erase(std::remove(live.begin(), live.end(), c), live.end());
  retained_counters_[c->name()] += c->value();
}

void MetricsRegistry::Register(Gauge* g) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[g->name()].push_back(g);
}

void MetricsRegistry::Unregister(Gauge* g) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& live = gauges_[g->name()];
  live.erase(std::remove(live.begin(), live.end(), g), live.end());
  auto it = retained_gauges_.find(g->name());
  if (it == retained_gauges_.end()) {
    retained_gauges_[g->name()] = {g->agg(), g->value()};
  } else if (g->agg() == Gauge::Agg::kMax) {
    it->second.second = std::max(it->second.second, g->value());
  } else {
    it->second.second += g->value();
  }
}

void MetricsRegistry::Register(Histogram* h) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_[h->name()].push_back(h);
}

void MetricsRegistry::Unregister(Histogram* h) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& live = histograms_[h->name()];
  live.erase(std::remove(live.begin(), live.end(), h), live.end());
  RetainedHist& fold = retained_histograms_[h->name()];
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    fold.buckets[i] += h->bucket(i);
  }
  fold.sum += h->sum();
  fold.count += h->count();
}

void MetricsRegistry::AddCounter(const std::string& name, uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  retained_counters_[name] += n;
}

void MetricsRegistry::RecordHistogram(const std::string& name, uint64_t v) {
  std::lock_guard<std::mutex> lock(mu_);
  RetainedHist& fold = retained_histograms_[name];
  fold.buckets[Histogram::BucketIndex(v)] += 1;
  fold.sum += v;
  fold.count += 1;
}

void MetricsRegistry::MaxGauge(const std::string& name, int64_t v) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = retained_gauges_.find(name);
  if (it == retained_gauges_.end()) {
    retained_gauges_[name] = {Gauge::Agg::kMax, v};
  } else {
    it->second.second = std::max(it->second.second, v);
  }
}

void MetricsRegistry::ResetRetained() {
  std::lock_guard<std::mutex> lock(mu_);
  retained_counters_.clear();
  retained_gauges_.clear();
  retained_histograms_.clear();
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;

  // Counters: retained + every live instance, merged by sum.
  std::map<std::string, uint64_t> counter_totals = retained_counters_;
  for (const auto& entry : counters_) {
    uint64_t& total = counter_totals[entry.first];
    for (const Counter* c : entry.second) total += c->value();
  }
  for (const auto& entry : counter_totals) {
    MetricSnapshot s;
    s.kind = MetricSnapshot::Kind::kCounter;
    s.name = entry.first;
    s.counter_value = entry.second;
    out.push_back(std::move(s));
  }

  // Gauges: merged per the gauge's declared aggregation.
  std::map<std::string, std::pair<Gauge::Agg, int64_t>> gauge_totals =
      retained_gauges_;
  for (const auto& entry : gauges_) {
    for (const Gauge* g : entry.second) {
      auto it = gauge_totals.find(entry.first);
      if (it == gauge_totals.end()) {
        gauge_totals[entry.first] = {g->agg(), g->value()};
      } else if (g->agg() == Gauge::Agg::kMax) {
        it->second.second = std::max(it->second.second, g->value());
      } else {
        it->second.second += g->value();
      }
    }
  }
  for (const auto& entry : gauge_totals) {
    MetricSnapshot s;
    s.kind = MetricSnapshot::Kind::kGauge;
    s.name = entry.first;
    s.gauge_value = entry.second.second;
    out.push_back(std::move(s));
  }

  // Histograms: bucket-wise sums.
  std::map<std::string, RetainedHist> hist_totals = retained_histograms_;
  for (const auto& entry : histograms_) {
    RetainedHist& fold = hist_totals[entry.first];
    for (const Histogram* h : entry.second) {
      for (int i = 0; i < Histogram::kNumBuckets; ++i) {
        fold.buckets[i] += h->bucket(i);
      }
      fold.sum += h->sum();
      fold.count += h->count();
    }
  }
  for (const auto& entry : hist_totals) {
    MetricSnapshot s;
    s.kind = MetricSnapshot::Kind::kHistogram;
    s.name = entry.first;
    s.hist_count = entry.second.count;
    s.hist_sum = entry.second.sum;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      if (entry.second.buckets[i] == 0) continue;
      s.hist_buckets.emplace_back(Histogram::BucketUpperBound(i),
                                  entry.second.buckets[i]);
    }
    out.push_back(std::move(s));
  }
  return out;
}

namespace {

void AppendJsonString(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

std::string PrometheusName(const std::string& name) {
  std::string out = "uldp_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::ToJson() const {
  std::vector<MetricSnapshot> snaps = Snapshot();
  std::ostringstream os;
  os << "{\"schema\": \"uldp.metrics.v1\"";
  for (auto kind : {MetricSnapshot::Kind::kCounter,
                    MetricSnapshot::Kind::kGauge,
                    MetricSnapshot::Kind::kHistogram}) {
    const char* section = kind == MetricSnapshot::Kind::kCounter ? "counters"
                          : kind == MetricSnapshot::Kind::kGauge
                              ? "gauges"
                              : "histograms";
    os << ", \"" << section << "\": {";
    bool first = true;
    for (const MetricSnapshot& s : snaps) {
      if (s.kind != kind) continue;
      if (!first) os << ", ";
      first = false;
      AppendJsonString(os, s.name);
      os << ": ";
      if (kind == MetricSnapshot::Kind::kCounter) {
        os << s.counter_value;
      } else if (kind == MetricSnapshot::Kind::kGauge) {
        os << s.gauge_value;
      } else {
        os << "{\"count\": " << s.hist_count << ", \"sum\": " << s.hist_sum
           << ", \"buckets\": [";
        for (size_t i = 0; i < s.hist_buckets.size(); ++i) {
          if (i > 0) os << ", ";
          os << "{\"le\": " << s.hist_buckets[i].first
             << ", \"count\": " << s.hist_buckets[i].second << "}";
        }
        os << "]}";
      }
    }
    os << "}";
  }
  os << "}\n";
  return os.str();
}

std::string MetricsRegistry::ToPrometheus() const {
  std::vector<MetricSnapshot> snaps = Snapshot();
  std::ostringstream os;
  for (const MetricSnapshot& s : snaps) {
    const std::string name = PrometheusName(s.name);
    switch (s.kind) {
      case MetricSnapshot::Kind::kCounter:
        os << "# TYPE " << name << " counter\n"
           << name << " " << s.counter_value << "\n";
        break;
      case MetricSnapshot::Kind::kGauge:
        os << "# TYPE " << name << " gauge\n"
           << name << " " << s.gauge_value << "\n";
        break;
      case MetricSnapshot::Kind::kHistogram: {
        os << "# TYPE " << name << " histogram\n";
        uint64_t cumulative = 0;
        for (const auto& bucket : s.hist_buckets) {
          cumulative += bucket.second;
          os << name << "_bucket{le=\"" << bucket.first << "\"} "
             << cumulative << "\n";
        }
        os << name << "_bucket{le=\"+Inf\"} " << s.hist_count << "\n"
           << name << "_sum " << s.hist_sum << "\n"
           << name << "_count " << s.hist_count << "\n";
        break;
      }
    }
  }
  return os.str();
}

Status MetricsRegistry::WriteJsonFile(const std::string& path) const {
  const std::string json = ToJson();
  return WriteFileAtomic(path, json.data(), json.size(), "metrics snapshot");
}

}  // namespace obs
}  // namespace uldp
