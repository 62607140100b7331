// Telemetry invariants (src/obs/): exact counts under concurrency,
// log-bucket edges, well-formed trace JSON with balanced spans, and the
// must-hold property that tracing is strictly passive — a traced
// distributed round is bitwise-identical to an untraced one.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/protocol_party.h"
#include "net/demo.h"
#include "net/protocol_node.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace uldp {
namespace obs {
namespace {

const MetricSnapshot* Find(const std::vector<MetricSnapshot>& snap,
                           const std::string& name) {
  for (const auto& m : snap) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

TEST(MetricsTest, ConcurrentCountersAreExact) {
  // Same-name counters hammered from 1, 2, and 5 threads must merge to the
  // exact total — no lost updates, no double counting.
  for (int threads : {1, 2, 5}) {
    MetricsRegistry registry;
    constexpr uint64_t kPerThread = 20000;
    std::vector<std::unique_ptr<Counter>> counters;
    for (int t = 0; t < threads; ++t) {
      counters.push_back(
          std::make_unique<Counter>(&registry, "test.hits"));
    }
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (uint64_t i = 0; i < kPerThread; ++i) counters[t]->Add(1);
      });
    }
    for (auto& w : workers) w.join();

    const auto snap = registry.Snapshot();
    const MetricSnapshot* m = Find(snap, "test.hits");
    ASSERT_NE(m, nullptr) << threads << " threads";
    EXPECT_EQ(m->counter_value, kPerThread * threads) << threads
                                                      << " threads";
    // Destroying the instances folds them into the retained aggregate;
    // the merged total must not change.
    counters.clear();
    const auto after = registry.Snapshot();
    const MetricSnapshot* retained = Find(after, "test.hits");
    ASSERT_NE(retained, nullptr);
    EXPECT_EQ(retained->counter_value, kPerThread * threads);
  }
}

TEST(MetricsTest, GaugeAggregationSumAndMax) {
  MetricsRegistry registry;
  Gauge depth_a(&registry, "test.depth", Gauge::Agg::kSum);
  Gauge depth_b(&registry, "test.depth", Gauge::Agg::kSum);
  depth_a.Set(3);
  depth_b.Set(4);
  Gauge peak_a(&registry, "test.peak", Gauge::Agg::kMax);
  Gauge peak_b(&registry, "test.peak", Gauge::Agg::kMax);
  peak_a.SetMax(10);
  peak_a.SetMax(7);  // below the high-water mark: no effect
  peak_b.SetMax(9);

  const auto snap = registry.Snapshot();
  EXPECT_EQ(Find(snap, "test.depth")->gauge_value, 7);
  EXPECT_EQ(Find(snap, "test.peak")->gauge_value, 10);
}

TEST(MetricsTest, HistogramBucketEdges) {
  // Bucket i holds [2^(i-1), 2^i - 1] (bucket 0 holds exactly 0): check
  // the boundaries on both sides of every power of two we care about.
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  for (int i = 1; i < 64; ++i) {
    const uint64_t lo = 1ull << (i - 1);
    EXPECT_EQ(Histogram::BucketIndex(lo), i) << "lower edge of bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(2 * lo - 1), i)
        << "upper edge of bucket " << i;
  }
  EXPECT_EQ(Histogram::BucketIndex(~0ull), 64);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(64), ~0ull);

  MetricsRegistry registry;
  Histogram hist(&registry, "test.latency");
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 7ull, 8ull, 1000ull}) {
    hist.Record(v);
  }
  EXPECT_EQ(hist.count(), 7u);
  EXPECT_EQ(hist.sum(), 1021u);
  EXPECT_EQ(hist.bucket(0), 1u);  // {0}
  EXPECT_EQ(hist.bucket(1), 1u);  // {1}
  EXPECT_EQ(hist.bucket(2), 2u);  // {2, 3}
  EXPECT_EQ(hist.bucket(3), 1u);  // {7}
  EXPECT_EQ(hist.bucket(4), 1u);  // {8}
  EXPECT_EQ(hist.bucket(10), 1u);  // {1000} in [512, 1023]
  // Per-bucket counts must cover the full count, and the snapshot's
  // sparse bucket list must agree with the dense array.
  uint64_t bucket_total = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    bucket_total += hist.bucket(i);
  }
  EXPECT_EQ(bucket_total, hist.count());
  const auto snap = registry.Snapshot();
  const MetricSnapshot* m = Find(snap, "test.latency");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->hist_count, 7u);
  uint64_t sparse_total = 0;
  uint64_t prev_le = 0;
  for (size_t i = 0; i < m->hist_buckets.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(m->hist_buckets[i].first, prev_le);
    }
    prev_le = m->hist_buckets[i].first;
    sparse_total += m->hist_buckets[i].second;
  }
  EXPECT_EQ(sparse_total, 7u);
}

TEST(MetricsTest, JsonAndPrometheusCarrySchemaAndNames) {
  MetricsRegistry registry;
  Counter hits(&registry, "test.json-hits");
  hits.Add(5);
  Histogram lat(&registry, "test.json.latency");
  lat.Record(100);

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"schema\": \"uldp.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json-hits\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.latency\""), std::string::npos);

  const std::string prom = registry.ToPrometheus();
  // '.' and '-' mangle to '_', names gain the uldp_ prefix, histograms a
  // cumulative +Inf bucket.
  EXPECT_NE(prom.find("uldp_test_json_hits 5"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
}

TEST(TraceTest, SpansBalanceAndSerializeWellFormed) {
  TraceBuffer& buffer = TraceBuffer::Global();
  buffer.Clear();
  buffer.Enable();
  {
    TraceSpan outer("test.outer", "round", 3);
    TraceSpan inner("test.inner");
  }
  buffer.Disable();

#ifndef ULDP_DISABLE_TRACING
  // Every span produced exactly one complete ("X") event — scoped spans
  // are balanced by construction, so the count is the invariant.
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.dropped(), 0u);
  const std::string json = buffer.ToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"test.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"round\": 3"), std::string::npos);
  // Brace balance: the serialized form must be structurally closed
  // (check_metrics.py parses it for real in CI).
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
#endif
  buffer.Clear();
}

TEST(TraceTest, SpanArgsAddedLaterSerializeInOrderUpToTheCap) {
  TraceBuffer& buffer = TraceBuffer::Global();
  buffer.Clear();
  {
    TraceSpan early("test.args-before-enable", "u0", 1);
    buffer.Enable();
    early.AddArg("users", 2);  // the span began disabled: stays unrecorded
    TraceSpan span("test.args", "u0", 7);
    span.AddArg("users", 5);
    span.AddArg("coords", 4);
    span.AddArg("path", 3);
    span.AddArg("dropped", 9);  // past kMaxTraceArgs
  }
  buffer.Disable();

#ifndef ULDP_DISABLE_TRACING
  EXPECT_EQ(buffer.size(), 1u);
  const std::string json = buffer.ToJson();
  EXPECT_NE(json.find("\"args\": {\"u0\": 7, \"users\": 5, \"coords\": 4, "
                      "\"path\": 3}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("dropped\": 9"), std::string::npos);
  EXPECT_EQ(json.find("test.args-before-enable"), std::string::npos);
#endif
  buffer.Clear();
}

TEST(TraceTest, FullBufferDropsInsteadOfOverwriting) {
  TraceBuffer& buffer = TraceBuffer::Global();
  buffer.Clear();
  buffer.Enable();
  // Enable() only sizes the ring when growing from zero, so the global
  // buffer is at its default capacity here; overflow it deliberately.
  const size_t room = TraceBuffer::kDefaultCapacity;
  for (size_t i = 0; i < room + 100; ++i) {
    buffer.Record("test.flood", i, 1);
  }
  EXPECT_EQ(buffer.size(), room);
  EXPECT_GE(buffer.dropped(), 100u);
  buffer.Disable();
  buffer.Clear();
}

TEST(TraceTest, DisabledBufferRecordsNothing) {
  TraceBuffer& buffer = TraceBuffer::Global();
  buffer.Clear();
  ASSERT_FALSE(buffer.enabled());
  {
    TraceSpan span("test.should-not-appear");
    buffer.Record("test.direct", 1, 1);
  }
  EXPECT_EQ(buffer.size(), 0u);
  // An empty trace still serializes to a valid document.
  EXPECT_NE(buffer.ToJson().find("\"traceEvents\""), std::string::npos);
}

// --- Tracing is strictly passive ------------------------------------------

constexpr int kSilos = 2;
constexpr int kUsers = 4;
constexpr int kDim = 4;
constexpr uint64_t kInputSeed = 90210;
constexpr int kRounds = 2;

ProtocolConfig PassiveConfig() {
  ProtocolConfig config;
  config.paillier_bits = 512;
  config.n_max = 30;
  config.seed = 31337;
  config.stream_chunk_users = 2;  // exercise the chunk-stream spans too
  return config;
}

/// One distributed run over in-process channel transports; returns every
/// round's aggregate.
std::vector<Vec> RunDistributedRounds(const ProtocolConfig& config) {
  std::vector<std::unique_ptr<net::Transport>> server_ends, silo_ends;
  for (int s = 0; s < kSilos; ++s) {
    auto [a, b] = net::ChannelTransport::CreatePair();
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  std::vector<std::thread> silo_threads;
  std::vector<Status> silo_status(kSilos, Status::Ok());
  for (int s = 0; s < kSilos; ++s) {
    silo_threads.emplace_back([&, s] {
      silo_status[s] = net::RunDemoSilo(config, s, kSilos, kUsers, kDim,
                                        kInputSeed, *silo_ends[s]);
    });
  }
  net::ProtocolServer server(config, kSilos, kUsers);
  for (auto& end : server_ends) {
    EXPECT_TRUE(server.AddConnection(std::move(end)).ok());
  }
  EXPECT_TRUE(server.RunSetup().ok());
  std::vector<Vec> outs;
  std::vector<bool> mask(kUsers, true);
  for (int r = 0; r < kRounds; ++r) {
    auto out = server.RunRound(r, mask);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    outs.push_back(out.value());
  }
  EXPECT_TRUE(server.Shutdown().ok());
  for (auto& t : silo_threads) t.join();
  for (int s = 0; s < kSilos; ++s) {
    EXPECT_TRUE(silo_status[s].ok()) << silo_status[s].ToString();
  }
  return outs;
}

TEST(TraceTest, TracedRunIsBitwiseIdenticalToUntraced) {
  TraceBuffer& buffer = TraceBuffer::Global();
  buffer.Clear();
  ASSERT_FALSE(buffer.enabled());
  const std::vector<Vec> untraced = RunDistributedRounds(PassiveConfig());

  buffer.Enable();
  const std::vector<Vec> traced = RunDistributedRounds(PassiveConfig());
  buffer.Disable();

  // Exact double equality: telemetry never touches an Rng stream, so the
  // aggregates must match to the last bit.
  EXPECT_EQ(traced, untraced);
  // And the traced run actually recorded the protocol (phase events are
  // emitted via TraceBuffer::Record even when TraceSpan is compiled out).
  EXPECT_GT(buffer.size(), 0u);
  buffer.Clear();
}

}  // namespace
}  // namespace obs
}  // namespace uldp
