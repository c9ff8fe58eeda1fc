/// \file synth_cache.hpp
/// \brief Sharded LRU circuit cache keyed by canonical orbit hashes
/// (docs/caching.md).
///
/// The cross-request reuse layer: once any request synthesizes a circuit
/// for an orbit representative (rev/canonical.hpp), every later request
/// whose spec lands in the same orbit is served by relabeling that cached
/// cascade instead of searching again. The cache is striped into eight
/// shards (synth_cache.cpp kShards), each an independently locked LRU
/// list under its share of the byte budget, and
/// *single-flight*: concurrent requests for one in-flight key synthesize
/// once, with the followers blocking on the leader's result
/// (core/batch.hpp counts them as `batch_dedup`). An optional on-disk
/// store (one .tfc file per canonical key) survives restarts.
///
/// The cache stores the circuit of the *representative*; reconstruction
/// and the mandatory equivalence re-verification of every hit live with
/// the callers (core/batch.cpp, tools/rmrls_main.cpp), which know the
/// original spec and its OrbitTransform.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/telemetry.hpp"
#include "rev/circuit.hpp"

namespace rmrls {

struct SynthCacheOptions {
  /// Total in-memory budget, split evenly across the cache's shards;
  /// entries are costed at their gate storage plus bookkeeping overhead.
  /// The LRU tail is evicted past the budget, but each shard always
  /// retains its most recent entry so a single oversized circuit cannot
  /// wedge insertion.
  std::size_t byte_budget = std::size_t{64} << 20;

  /// Optional on-disk store: one `<hex key>.tfc` per canonical key,
  /// written on insert and consulted on memory misses (warm restarts).
  /// Empty disables it. Unreadable or corrupt files degrade to misses.
  /// Processes sharing a store single-flight cold keys through
  /// `<hex key>.lease` files (docs/fleet.md).
  std::string dir;

  /// Byte budget of the on-disk store, 0 = unbounded. Enforced by
  /// gc_disk(): oldest-mtime .tfc files are removed past the budget
  /// (publish rewrites a revived entry's file, so mtime approximates
  /// recency of use across the whole fleet).
  std::size_t disk_byte_budget = 0;
};

/// Counters of one cache instance, aggregated across shards.
struct SynthCacheStats {
  std::uint64_t hits = 0;         ///< served from memory
  std::uint64_t disk_hits = 0;    ///< revived from the on-disk store
  std::uint64_t misses = 0;       ///< caller became the synthesizing leader
  std::uint64_t dedup_waits = 0;  ///< followers that blocked on a leader
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t lease_acquired = 0;  ///< cross-process leases claimed
  std::uint64_t lease_waits = 0;     ///< lost lease races (polled instead)
  std::uint64_t lease_timeouts = 0;  ///< poll expired; synthesized anyway
  std::uint64_t disk_evictions = 0;  ///< .tfc files removed by gc_disk()
};

class SynthCache {
 public:
  explicit SynthCache(SynthCacheOptions options);
  SynthCache(const SynthCache&) = delete;
  SynthCache& operator=(const SynthCache&) = delete;

  enum class Outcome : std::uint8_t {
    kHit,     ///< `circuit` holds the cached representative circuit
    kLead,    ///< caller must synthesize, then call publish() exactly once
    kFollow,  ///< waited on a leader; `circuit` set iff the leader won
  };

  struct Acquisition {
    Outcome outcome = Outcome::kLead;
    std::optional<Circuit> circuit;
  };

  /// Memory, then disk lookup; on a cold key the first caller becomes the
  /// leader and later callers block until it publishes. A leader that
  /// abandons the key without publish() would wedge its followers — the
  /// batch driver publishes on every path, including failures.
  [[nodiscard]] Acquisition acquire(std::uint64_t key);

  /// Leader completion: stores the circuit (nullptr = synthesis failed,
  /// nothing stored) and wakes the key's followers.
  void publish(std::uint64_t key, const Circuit* circuit);

  /// Plain lookup/insert without single-flight (the single-shot CLI path).
  [[nodiscard]] std::optional<Circuit> lookup(std::uint64_t key);
  void insert(std::uint64_t key, const Circuit& circuit);

  [[nodiscard]] SynthCacheStats stats() const;
  [[nodiscard]] std::size_t bytes_used() const;
  [[nodiscard]] std::size_t entry_count() const;

  /// Sweeps the disk store: removes stale .lease / .tmp* litter from dead
  /// processes, then evicts oldest-mtime .tfc files until the store fits
  /// `disk_byte_budget` (no-op budget when 0). Safe to run concurrently
  /// with readers and writers in any process — every removal races only
  /// against tmp+rename republication, and a reader that loses sees a
  /// plain miss. Returns the number of .tfc files removed. Runs
  /// automatically at construction and every kDiskGcEvery disk stores
  /// (synth_cache.cpp).
  std::size_t gc_disk() const;

 private:
  struct Entry {
    std::uint64_t key = 0;
    Circuit circuit;
    std::size_t bytes = 0;
  };

  /// One in-flight synthesis; followers wait on `cv` until the leader
  /// publishes into `circuit`.
  struct Flight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    std::optional<Circuit> circuit;
  };

  struct Shard {
    mutable std::mutex m;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> map;
    std::unordered_map<std::uint64_t, std::shared_ptr<Flight>> inflight;
    std::size_t bytes = 0;
    SynthCacheStats stats;
  };

  [[nodiscard]] Shard& shard_of(std::uint64_t key) {
    return shards_[(key >> 56) % shards_.size()];
  }

  /// Inserts under the shard lock (already held), evicting past the
  /// per-shard budget.
  void insert_locked(Shard& shard, std::uint64_t key, const Circuit& circuit);

  [[nodiscard]] std::optional<Circuit> load_from_disk(std::uint64_t key) const;
  void store_to_disk(std::uint64_t key, const Circuit& circuit) const;

  /// O_CREAT|O_EXCL claim of `<hex key>.lease`; true iff this process now
  /// owns the key's cross-process flight (tracked in owned_leases_).
  bool try_lease(std::uint64_t key);
  void release_lease(std::uint64_t key);
  /// The leader path's lease protocol after a disk miss (docs/fleet.md).
  /// Returns a circuit when another process published while we polled
  /// (adopt as disk hit); nullopt means: synthesize (with or without the
  /// lease).
  [[nodiscard]] std::optional<Circuit> lease_or_wait(std::uint64_t key);

  SynthCacheOptions options_;
  std::size_t shard_budget_ = 0;
  std::vector<Shard> shards_;

  std::mutex lease_m_;
  std::unordered_set<std::uint64_t> owned_leases_;
  mutable std::atomic<std::uint64_t> lease_acquired_{0};
  mutable std::atomic<std::uint64_t> lease_waits_{0};
  mutable std::atomic<std::uint64_t> lease_timeouts_{0};
  mutable std::atomic<std::uint64_t> disk_evictions_{0};
  mutable std::atomic<std::uint64_t> stores_since_gc_{0};
  mutable std::atomic<bool> gc_running_{false};

  /// Live telemetry (obs/telemetry.hpp): handles grabbed once at
  /// construction when the process registry is armed, null otherwise —
  /// every site below is one pointer test with telemetry off.
  Counter* tele_hits_ = nullptr;
  Counter* tele_disk_hits_ = nullptr;
  Counter* tele_misses_ = nullptr;
  Counter* tele_inserts_ = nullptr;
  Counter* tele_evictions_ = nullptr;
  Gauge* tele_bytes_ = nullptr;
  Histogram* tele_follow_us_ = nullptr;    ///< follower cv-wait latency
  std::vector<Gauge*> tele_shard_bytes_;   ///< cache.shard<i>.bytes
};

}  // namespace rmrls
