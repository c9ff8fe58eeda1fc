/// \file telemetry.hpp
/// \brief Process-wide live telemetry: named counters, gauges, log2
/// histograms, and a heartbeat snapshotter thread (docs/observability.md).
///
/// PR 1's metrics registry answers "what happened" once a run has ended;
/// this layer answers "what is happening right now". One process-wide
/// Telemetry registry holds named instruments that the engine layers
/// (search, cache, batch, resilience) update from their hot paths, and a
/// Snapshotter background thread periodically renders the whole registry
/// as one `record:"heartbeat"` JSONL line under the `rmrls-metrics-v2`
/// schema — cumulative counters, instantaneous gauges, histogram buckets,
/// and a monotonic `uptime_ns`. `rmrls --heartbeat-ms N` and
/// `bench --heartbeat-ms N` arm it; `rmrls-serve` will later push the same
/// record stream over its socket.
///
/// Cost model (mirrors TraceSink's one-pointer-test idiom):
///   * Disabled (the default): `Telemetry::active()` is a single relaxed
///     atomic pointer load; instrumented layers grab handles once per
///     run/object, so with telemetry off every site reduces to one
///     null-pointer test. Guarded by bench/micro_core's <2% budget.
///   * Enabled: Counter::add is one relaxed fetch_add on a per-thread,
///     cache-line-padded shard — concurrent workers never contend on one
///     line. Gauges are single atomics (low-frequency writers). Histogram
///     buckets are relaxed atomics; recording is O(1).
///
/// Lifecycle: the registry is a function-local static that is never
/// destroyed, and instruments are never removed once registered, so a
/// handle obtained from it stays valid for the life of the process even
/// across Telemetry::disable() — a disabled registry merely stops being
/// returned from active(); already-armed sites keep counting into it
/// harmlessly. reset() re-zeroes every instrument (tests, back-to-back
/// CLI runs).

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace rmrls {

/// Schema tag of heartbeat records; per-job records keep rmrls-metrics-v1
/// (obs/metrics.hpp) so existing consumers are unaffected.
inline constexpr const char* kMetricsSchemaV2 = "rmrls-metrics-v2";

namespace detail {
/// Stable small integer per thread, used to spread hot-path increments
/// across padded shards. Assignment is round-robin at first use.
[[nodiscard]] unsigned telemetry_thread_slot() noexcept;
}  // namespace detail

/// Monotonic counter. add() is a relaxed fetch_add on the calling
/// thread's padded shard; value() sums the shards (approximate only in
/// the sense that it is a point-in-time snapshot under concurrency).
class Counter {
 public:
  static constexpr unsigned kShards = 8;

  void add(std::uint64_t delta) noexcept {
    slots_[detail::telemetry_thread_slot() % kShards].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() noexcept {
    for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Slot, kShards> slots_{};
};

/// Instantaneous signed value (queue depth, jobs in flight, bytes
/// resident). Writers are low-frequency, so one atomic suffices.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log2-bucketed latency/size histogram: bucket b counts values whose
/// bit width is b (bucket 0 holds the value 0, bucket 1 holds 1, bucket
/// 2 holds 2..3, ...), so bucket b's upper edge is 2^b - 1. 65 buckets
/// cover the full uint64 range. Recording is one relaxed increment plus
/// one relaxed add for the running sum.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  static constexpr int bucket_of(std::uint64_t value) noexcept {
    int b = 0;
    while (value != 0) {
      ++b;
      value >>= 1;
    }
    return b;
  }
  /// Inclusive upper edge of bucket `b` (2^b - 1), used by percentile
  /// estimation in tools/metrics_report.
  static constexpr std::uint64_t bucket_upper(int b) noexcept {
    return b >= 64 ? ~std::uint64_t{0}
                   : (std::uint64_t{1} << static_cast<unsigned>(b)) - 1;
  }

  void record(std::uint64_t value) noexcept {
    buckets_[static_cast<std::size_t>(bucket_of(value))].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t total = 0;
    for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
    return total;
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(int b) const noexcept {
    return buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
  }

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// Point-in-time copy of one histogram (consistent enough for reporting;
/// buckets are read individually, not atomically as a group).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::vector<std::uint64_t> buckets;  ///< trimmed to the last nonzero

  /// Upper-edge estimate of quantile `q` in [0,1] from the log2 buckets.
  [[nodiscard]] std::uint64_t quantile(double q) const;
};

/// Point-in-time copy of the whole registry, name-sorted.
struct TelemetrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  std::vector<std::string> active;  ///< in-flight trace ids (batch jobs)
  std::uint64_t mono_ns = 0;        ///< steady_clock at snapshot time
};

/// The process-wide instrument registry. Instruments are created on first
/// use by name and never destroyed, so the references returned here are
/// stable handles a hot loop can cache.
class Telemetry {
 public:
  /// The registry object itself; always exists, never destroyed.
  [[nodiscard]] static Telemetry& registry();

  /// Null until enable(); one relaxed load, the instrumented layers'
  /// "is telemetry on" test.
  [[nodiscard]] static Telemetry* active() noexcept {
    return active_.load(std::memory_order_acquire);
  }
  /// Arms the process registry (idempotent) and returns it.
  static Telemetry& enable();
  /// Disarms active(); existing handles stay valid (see file comment).
  static void disable() noexcept;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// Read-only lookups that never create (ProgressTraceSink, tests);
  /// nullptr when the instrument does not exist yet.
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;

  /// In-flight trace-id set (batch jobs); snapshots carry it so one job's
  /// story is greppable in the heartbeat stream too.
  void add_active(const std::string& trace_id);
  void remove_active(const std::string& trace_id);

  [[nodiscard]] TelemetrySnapshot snapshot() const;

  /// Re-zeroes every instrument and clears the active set. Instruments
  /// stay registered (handles remain valid).
  void reset();

 private:
  Telemetry() = default;

  static std::atomic<Telemetry*> active_;

  mutable std::shared_mutex m_;  // guards the maps, not the instruments
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;

  mutable std::mutex active_m_;
  std::set<std::string> active_ids_;
};

/// Renders `trace_id` the way every stream spells it (16 hex digits), so
/// one grep works across trace events, job records, and heartbeats.
[[nodiscard]] std::string trace_id_hex(std::uint64_t trace_id);

/// Deterministic correlation id for a named unit of work: FNV-1a over the
/// name, mixed with `index` splitmix-style so identical names (batch lines,
/// repeated serve submissions) still get distinct ids. Never 0 (0 means
/// "no id" everywhere). Shared by the batch driver and the serve daemon so
/// both streams spell ids the same way.
[[nodiscard]] std::uint64_t derive_trace_id(std::string_view name,
                                            std::uint64_t index);

/// Background heartbeat emitter. The thread sleeps on a condition
/// variable for `interval`, emits one heartbeat line per wakeup, and
/// stop() (or the destructor) joins it after emitting one final flush
/// heartbeat — so even a run shorter than the interval leaves at least
/// one record.
class Snapshotter {
 public:
  Snapshotter(Telemetry& telemetry, std::chrono::milliseconds interval,
              std::ostream& out);
  ~Snapshotter();
  Snapshotter(const Snapshotter&) = delete;
  Snapshotter& operator=(const Snapshotter&) = delete;

  /// Joins the thread and emits the final heartbeat. Idempotent.
  void stop();

  /// Heartbeat lines written so far (including the final flush).
  [[nodiscard]] std::uint64_t emitted() const {
    return emitted_.load(std::memory_order_acquire);
  }

  /// Renders one heartbeat record (reused by tests): schema tag, record
  /// kind, sequence number, uptime, counters/gauges/histograms, active
  /// trace ids.
  [[nodiscard]] static std::string heartbeat_json(
      const TelemetrySnapshot& snap, std::uint64_t seq,
      std::uint64_t uptime_ns);

 private:
  void emit_one();

  Telemetry& telemetry_;
  std::chrono::milliseconds interval_;
  std::ostream& out_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t seq_ = 0;
  std::atomic<std::uint64_t> emitted_{0};
  std::mutex m_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace rmrls
