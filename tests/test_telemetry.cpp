// Tests for the live-telemetry layer (obs/telemetry.hpp): instrument
// arithmetic under concurrent hammering (run under TSan via the
// concurrency label), log2 bucket boundaries and quantile estimation,
// registry enable/disable/reset semantics, the Snapshotter's lifecycle
// (periodic heartbeats + flush-on-stop), trace_id propagation through a
// real run_batch, and the shared MetricsValidator rules for both the v1
// and v2 schemas.

#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "obs/metrics_validate.hpp"
#include "rev/random.hpp"

namespace rmrls {
namespace {

// ---------------------------------------------------------------- counters

TEST(TelemetryCounter, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(TelemetryGauge, SetAddRoundTrip) {
  Gauge g;
  g.set(42);
  EXPECT_EQ(g.value(), 42);
  g.add(-50);
  EXPECT_EQ(g.value(), -8);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

// --------------------------------------------------------------- histogram

TEST(TelemetryHistogram, BucketBoundaries) {
  // Bucket b holds values of bit width b: 0 -> 0, 1 -> 1, 2..3 -> 2, ...
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(7), 3);
  EXPECT_EQ(Histogram::bucket_of(8), 4);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64);
  // Upper edges are 2^b - 1; the last bucket saturates at uint64 max.
  EXPECT_EQ(Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper(10), 1023u);
  EXPECT_EQ(Histogram::bucket_upper(64), ~std::uint64_t{0});
  // Round trip: every value lands in a bucket whose edge bounds it.
  for (const std::uint64_t v : {0ull, 1ull, 2ull, 5ull, 100ull, 65536ull}) {
    const int b = Histogram::bucket_of(v);
    EXPECT_LE(v, Histogram::bucket_upper(b));
    if (b > 0) {
      EXPECT_GT(v, Histogram::bucket_upper(b - 1));
    }
  }
}

TEST(TelemetryHistogram, ConcurrentRecordsPreserveCountAndSum) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  // Sum of 0..7, kPerThread times each.
  EXPECT_EQ(h.sum(), kPerThread * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
  // 0 -> bucket 0; 1 -> bucket 1; 2,3 -> bucket 2; 4..7 -> bucket 3.
  EXPECT_EQ(h.bucket(0), kPerThread);
  EXPECT_EQ(h.bucket(1), kPerThread);
  EXPECT_EQ(h.bucket(2), 2 * kPerThread);
  EXPECT_EQ(h.bucket(3), 4 * kPerThread);
}

TEST(TelemetryHistogram, SnapshotQuantilesWalkBucketEdges) {
  Telemetry& t = Telemetry::registry();
  t.reset();
  Histogram& h = t.histogram("test.quantile");
  h.reset();
  // 90 small values (bucket 3, upper edge 7) and 10 large (bucket 11,
  // upper edge 2047): p50 must report the small edge, p99 the large one.
  for (int i = 0; i < 90; ++i) h.record(5);
  for (int i = 0; i < 10; ++i) h.record(2000);
  const TelemetrySnapshot snap = t.snapshot();
  const HistogramSnapshot* found = nullptr;
  for (const auto& [name, hs] : snap.histograms) {
    if (name == "test.quantile") found = &hs;
  }
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->count, 100u);
  EXPECT_EQ(found->quantile(0.50), 7u);
  EXPECT_EQ(found->quantile(0.99), 2047u);
  EXPECT_EQ(found->quantile(1.0), 2047u);
  t.reset();
}

// ---------------------------------------------------------------- registry

TEST(TelemetryRegistry, HandlesAreStableAndNamed) {
  Telemetry& t = Telemetry::registry();
  t.reset();
  Counter& a = t.counter("test.stable");
  Counter& b = t.counter("test.stable");
  EXPECT_EQ(&a, &b);  // same name, same instrument
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  // find_* never creates.
  EXPECT_EQ(t.find_counter("test.never_created"), nullptr);
  EXPECT_EQ(t.find_gauge("test.never_created"), nullptr);
  EXPECT_EQ(t.find_counter("test.stable"), &a);
  t.reset();
  EXPECT_EQ(a.value(), 0u);  // reset zeroes but keeps the handle valid
}

TEST(TelemetryRegistry, EnableDisableTogglesActive) {
  Telemetry::disable();
  EXPECT_EQ(Telemetry::active(), nullptr);
  Telemetry& t = Telemetry::enable();
  EXPECT_EQ(Telemetry::active(), &t);
  EXPECT_EQ(&Telemetry::enable(), &t);  // idempotent
  Telemetry::disable();
  EXPECT_EQ(Telemetry::active(), nullptr);
}

TEST(TelemetryRegistry, ConcurrentRegistrationIsSafe) {
  Telemetry& t = Telemetry::registry();
  t.reset();
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&t, w] {
      for (int i = 0; i < 200; ++i) {
        // Mix of shared and thread-private names: the map insert path and
        // the shared-lock fast path race against each other.
        t.counter("test.shared").inc();
        t.counter("test.w" + std::to_string(w)).inc();
        t.gauge("test.gauge").set(i);
        t.histogram("test.hist").record(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(t.counter("test.shared").value(), 8u * 200u);
  EXPECT_EQ(t.histogram("test.hist").count(), 8u * 200u);
  t.reset();
}

TEST(TraceIdHex, SixteenLowercaseHexDigits) {
  EXPECT_EQ(trace_id_hex(0), "0000000000000000");
  EXPECT_EQ(trace_id_hex(0xdeadbeef), "00000000deadbeef");
  EXPECT_EQ(trace_id_hex(~std::uint64_t{0}), "ffffffffffffffff");
}

// -------------------------------------------------------------- snapshotter

TEST(Snapshotter, StopFlushesAtLeastOneHeartbeat) {
  Telemetry& t = Telemetry::registry();
  t.reset();
  t.counter("test.flush").add(3);
  std::ostringstream out;
  {
    // Interval far longer than the test: only the flush-on-stop record.
    Snapshotter snap(t, std::chrono::milliseconds(60000), out);
    snap.stop();
    EXPECT_GE(snap.emitted(), 1u);
    snap.stop();  // idempotent
  }
  MetricsValidator validator;
  std::istringstream lines(out.str());
  std::string line;
  std::uint64_t n = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++n;
    EXPECT_TRUE(validator.check_line(line, "flush:" + std::to_string(n)));
  }
  EXPECT_GE(n, 1u);
  EXPECT_TRUE(validator.errors().empty())
      << (validator.errors().empty() ? "" : validator.errors().front());
  EXPECT_NE(out.str().find("\"test.flush\":3"), std::string::npos);
  t.reset();
}

TEST(Snapshotter, PeriodicHeartbeatsValidateAndStayMonotone) {
  Telemetry& t = Telemetry::registry();
  t.reset();
  t.histogram("test.periodic").record(100);
  std::ostringstream out;
  Snapshotter snap(t, std::chrono::milliseconds(5), out);
  while (snap.emitted() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  snap.stop();
  EXPECT_GE(snap.emitted(), 3u);
  // The validator enforces strictly-increasing seq and monotone
  // uptime_ns across the stream.
  MetricsValidator validator;
  validator.begin_stream();
  std::istringstream lines(out.str());
  std::string line;
  std::uint64_t n = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++n;
    EXPECT_TRUE(validator.check_line(line, "hb:" + std::to_string(n)))
        << line;
  }
  EXPECT_EQ(n, snap.emitted());
  EXPECT_EQ(validator.heartbeats(), n);
  EXPECT_TRUE(validator.errors().empty())
      << (validator.errors().empty() ? "" : validator.errors().front());
  t.reset();
}

// ------------------------------------------------- batch span correlation

TEST(BatchTraceIds, AssignedUniquePerJobWhenArmed) {
  Telemetry& t = Telemetry::enable();
  t.reset();
  std::mt19937_64 rng(7);
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(BatchJob{"j" + std::to_string(i),
                            random_reversible_function(3, rng), ""});
  }
  BatchOptions options;
  options.total_threads = 2;
  const BatchResult result = run_batch(jobs, options);
  Telemetry::disable();
  EXPECT_TRUE(result.status.ok());
  std::vector<std::uint64_t> ids;
  for (const BatchJobOutcome& out : result.outcomes) {
    EXPECT_NE(out.trace_id, 0u) << out.name;
    ids.push_back(out.trace_id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end())
      << "trace ids must be distinct across jobs";
  // The batch gauges saw the run: every job completed, none in flight.
  EXPECT_EQ(t.gauge("batch.jobs_completed").value(),
            static_cast<std::int64_t>(jobs.size()));
  EXPECT_EQ(t.gauge("batch.jobs_inflight").value(), 0);
  EXPECT_EQ(t.histogram("batch.job_us").count(), jobs.size());
  // Nothing left in the active set once every job finished.
  EXPECT_TRUE(t.snapshot().active.empty());
  t.reset();
}

TEST(BatchTraceIds, ZeroWhenTelemetryDisabled) {
  Telemetry::disable();
  std::mt19937_64 rng(8);
  std::vector<BatchJob> jobs;
  jobs.push_back(BatchJob{"only", random_reversible_function(3, rng), ""});
  const BatchResult result = run_batch(jobs, {});
  EXPECT_TRUE(result.status.ok());
  ASSERT_EQ(result.outcomes.size(), 1u);
  // Disabled runs carry no ids — the byte-identical-output guarantee.
  EXPECT_EQ(result.outcomes[0].trace_id, 0u);
}

// ----------------------------------------------------- validator coverage

std::string valid_v1_record() {
  return R"({"schema":"rmrls-metrics-v1","name":"t","success":true,)"
         R"("termination":"solved","elapsed_us":10,"nodes_expanded":5,)"
         R"("children_created":9,"children_pushed":8,"solutions_found":1,)"
         R"("workers":1,"dense_kernel":false,"representation_switches":0,)"
         R"("cancelled":false,"watchdog_fired":false,"gates":3,)"
         R"("quantum_cost":7})";
}

TEST(MetricsValidatorRules, AcceptsV1AndRejectsBrokenV1) {
  {
    MetricsValidator v;
    EXPECT_TRUE(v.check_line(valid_v1_record(), "ok"));
    EXPECT_TRUE(v.errors().empty());
  }
  {
    // trace_id must be 16 hex digits when present.
    MetricsValidator v;
    std::string bad = valid_v1_record();
    bad.insert(bad.size() - 1, R"(,"trace_id":"xyz")");
    EXPECT_FALSE(v.check_line(bad, "bad-id"));
  }
  {
    MetricsValidator v;
    std::string good = valid_v1_record();
    good.insert(good.size() - 1, R"(,"trace_id":"00c0ffee00c0ffee")");
    EXPECT_TRUE(v.check_line(good, "good-id")) << v.errors().front();
  }
  {
    // success:true with gates:-1 is inconsistent.
    MetricsValidator v;
    std::string bad = valid_v1_record();
    const auto pos = bad.find("\"gates\":3");
    bad.replace(pos, 9, "\"gates\":-1");
    EXPECT_FALSE(v.check_line(bad, "bad-gates"));
  }
}

TEST(MetricsValidatorRules, HeartbeatInvariants) {
  const std::string good =
      R"({"schema":"rmrls-metrics-v2","record":"heartbeat","seq":0,)"
      R"("uptime_ns":100,"mono_ns":5,"counters":{"c":1},"gauges":{"g":-2},)"
      R"("histograms":{"h":{"count":3,"sum":9,"buckets":[1,2]}},)"
      R"("active":["00000000deadbeef"]})";
  {
    MetricsValidator v;
    v.begin_stream();
    EXPECT_TRUE(v.check_line(good, "hb")) << v.errors().front();
    EXPECT_EQ(v.heartbeats(), 1u);
  }
  {
    // Bucket counts must sum to the histogram count.
    MetricsValidator v;
    std::string bad = good;
    const auto pos = bad.find("\"count\":3");
    bad.replace(pos, 9, "\"count\":4");
    v.begin_stream();
    EXPECT_FALSE(v.check_line(bad, "hb-sum"));
  }
  {
    // seq must strictly increase within a stream, then reset across
    // streams (begin_stream).
    MetricsValidator v;
    v.begin_stream();
    EXPECT_TRUE(v.check_line(good, "hb1"));
    EXPECT_FALSE(v.check_line(good, "hb2-same-seq"));
    v.begin_stream();
    EXPECT_TRUE(v.check_line(good, "hb3-new-stream"));
  }
  {
    // Unknown v2 record kinds are rejected.
    MetricsValidator v;
    std::string bad = good;
    const auto pos = bad.find("heartbeat");
    bad.replace(pos, 9, "mystery12");
    v.begin_stream();
    EXPECT_FALSE(v.check_line(bad, "hb-kind"));
  }
}

}  // namespace
}  // namespace rmrls
