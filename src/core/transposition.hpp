/// \file transposition.hpp
/// \brief Bounded-memory transposition table that grows on demand up to its
///        budget and then evicts by generation age (docs/search_tables.md).
///
/// Replaces the grow-only seen-map with the bucketized layout mature
/// game-tree searchers use: the table is a power-of-two array of 64-byte
/// buckets, four 16-byte entries `{hash, depth, generation}` each, bounded by
/// a megabyte budget (`SynthesisOptions::tt_mb`, CLI `--tt-mb`). It starts
/// at kStartBytes and doubles whenever an insert meets a full bucket; only
/// once it has reached the budget does a full bucket evict instead of
/// growing. The victim is the entry from the oldest generation, the
/// deepest among equals: RMRLS depth semantics invert chess's (an entry
/// at depth d prunes every revisit at depth' >= d), so within one pass the
/// shallowest entries are the most valuable, and stale passes decay out of
/// the table instead of pinning it.
///
/// Growth never changes an answer. A doubling splits every bucket stably
/// by the next index bit (entries keep their slot order), so each bucket
/// then holds exactly what it would hold in a table built at the larger
/// size; and since nothing is evicted below the budget, every
/// check_and_insert returns what it would return on a table built at the
/// budget size from the start. Tables up to kHeapLimitBytes live in heap
/// memory, which malloc recycles across calls without page faults; the
/// first growth past that limit calloc()s the whole budget once (untouched
/// pages stay unmapped) and the table doubles in place inside it from then
/// on, so a cold search pays only for the entries it actually makes. If
/// the budget allocation is refused, growth stops: the table keeps its
/// size and evicts from then on.
///
/// Generations make one table safely shareable across the search passes of
/// a whole synthesize() call (iterative deepening ladder + refinement
/// reruns + the broad-scope retry): the driver bumps `new_generation()`
/// per pass, and an entry from a previous generation never prunes — it is
/// refreshed to the current generation on first touch. Within a
/// generation the depth rule is the sequential table's, with the
/// shallower-revisit fix pinned by tests/test_tt_replacement: a state
/// re-reached at the same or a deeper depth prunes, a shallower
/// rediscovery overwrites the stored depth and must be re-expanded.
///
/// Not thread-safe: one synthesize() call owns the table and uses it from
/// one thread. Hits, inserts, evictions and occupancy feed the
/// `tt_inserts` / `tt_evictions` metrics and telemetry gauges, all read
/// through snapshot().

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>

namespace rmrls {

class TranspositionTable {
 public:
  /// Exact sizing for unit tests: `buckets` is rounded up to a power of
  /// two, each bucket holds kBucketEntries entries. Such a table is built
  /// at its full size and never grows.
  struct Config {
    std::size_t buckets = 1;
  };

  static constexpr int kBucketEntries = 4;
  /// Size a budget-built table starts at.
  static constexpr std::size_t kStartBytes = std::size_t{4} << 10;
  /// Largest size kept in heap memory; growing past it allocates the
  /// whole budget.
  static constexpr std::size_t kHeapLimitBytes = std::size_t{256} << 10;

  /// Budget-based sizing: the ceiling is the largest power-of-two bucket
  /// count whose footprint fits in `mb` megabytes (minimum one bucket);
  /// the table starts at kStartBytes (or the ceiling, if smaller) and
  /// grows on demand. Throws std::bad_alloc if the starting allocation is
  /// refused.
  explicit TranspositionTable(int mb);
  explicit TranspositionTable(const Config& config);

  TranspositionTable(const TranspositionTable&) = delete;
  TranspositionTable& operator=(const TranspositionTable&) = delete;

  /// Returns true when the state should be pruned: already recorded *in
  /// the current generation* at the same or a shallower depth. Otherwise
  /// records `depth` (insert, depth overwrite, or stale-generation
  /// refresh) and returns false. `depth` must be >= 1 — depth 0 is the
  /// root, which is never tabled, and doubles as the empty-slot marker.
  bool check_and_insert(std::uint64_t hash, std::int32_t depth);

  /// Starts a new search pass: entries of older generations stop pruning
  /// (they refresh on first touch) and become the preferred eviction
  /// victims. The 8-bit counter wraps; after exactly 256 bumps a
  /// surviving entry aliases the current generation again, which costs at
  /// most one wrongly-pruned revisit per entry — bounded staleness, the
  /// standard aging trade.
  void new_generation() { ++generation_; }
  [[nodiscard]] std::uint8_t generation() const { return generation_; }

  /// Cumulative counters (monotone since construction). Pass-scoped stats
  /// are deltas of two snapshot() calls.
  struct Snapshot {
    std::uint64_t hits = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    /// Occupied entries (monotone until full; evictions replace in place).
    std::uint64_t entries = 0;
  };
  [[nodiscard]] Snapshot snapshot() const { return counters_; }

  /// Hard capacity in entries, the budget's (lower only if the budget
  /// allocation was refused); Snapshot::entries can never exceed it.
  [[nodiscard]] std::uint64_t capacity() const {
    return static_cast<std::uint64_t>(ceiling_) * kBucketEntries;
  }
  /// Bytes of the bucket array at its current, grown size.
  [[nodiscard]] std::size_t bytes() const { return buckets_ * sizeof(Bucket); }

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::int32_t depth = 0;  ///< 0 = empty slot (tabled depths are >= 1)
    std::uint8_t gen = 0;
  };
  /// Naturally 64 bytes (4 x 16-byte entries) — exactly one cache line —
  /// without an alignas that calloc could not honour.
  struct Bucket {
    Entry entries[kBucketEntries];
  };
  static_assert(sizeof(Bucket) == 64, "one cache line per bucket");

  void init(std::size_t buckets);
  /// Doubles the table. If the memory is refused, lowers the ceiling to
  /// the current size instead.
  void grow();

  struct FreeDeleter {
    void operator()(Bucket* p) const { std::free(p); }
  };
  std::unique_ptr<Bucket[], FreeDeleter> table_;
  std::size_t buckets_ = 0;    ///< current size, a power of two
  std::size_t allocated_ = 0;  ///< buckets table_ has room for
  std::size_t ceiling_ = 0;    ///< the budget's buckets; growth stops here
  Snapshot counters_;
  std::uint8_t generation_ = 0;
};

}  // namespace rmrls
