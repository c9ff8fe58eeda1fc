/// \file transposition.hpp
/// \brief Bounded-memory transposition table that grows with its occupancy
///        up to its budget and then evicts by generation age
///        (docs/search_tables.md).
///
/// Replaces the grow-only seen-map with the bucketized layout mature
/// game-tree searchers use: the table is a power-of-two array of 64-byte
/// buckets, four 16-byte entries `{mix, depth, generation, slot}` each,
/// bounded by a megabyte budget (`SynthesisOptions::tt_mb`, CLI
/// `--tt-mb`). The budget fixes the *ceiling* array: the largest
/// power-of-two bucket count that fits. A full ceiling bucket evicts the
/// entry from the oldest generation, the deepest among equals, the lowest
/// slot among those: RMRLS depth semantics invert chess's (an entry at
/// depth d prunes every revisit at depth' >= d), so within one pass the
/// shallowest entries are the most valuable, and stale passes decay out of
/// the table instead of pinning it.
///
/// The table itself starts at kStartBytes and doubles, by reinsertion,
/// once its entries exceed half its slots, so it holds what the search
/// makes, not what the budget allows. It still answers every
/// check_and_insert exactly as the ceiling array would. Each entry keeps
/// the remixed key `splitmix64(hash)`, whose low bits name its ceiling
/// bucket, and its slot in that ceiling bucket. Below the ceiling several
/// ceiling buckets share one bucket: a full bucket spills into the next,
/// and since entries are never deleted, a lookup walks from its home
/// bucket until it meets a free slot or the fourth entry of its ceiling
/// bucket. The ceiling bucket's entries, slots and eviction victims are
/// then the ceiling array's, whatever size the table has, and at the
/// ceiling the layout is that array. Tables up to kHeapLimitBytes live in
/// heap memory, which malloc recycles across calls without page faults;
/// larger ones are private anonymous mappings, one per size, returned to
/// the system when the next doubling replaces them. If a doubling is
/// refused, growth stops: the table keeps its size and evicts per bucket
/// from then on.
///
/// Generations make one table safely shareable across the search passes of
/// a whole synthesize() call (the opening pass, the broad-scope retry and
/// the refinement reruns): the driver bumps `new_generation()`
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
  /// Largest size kept in heap memory; larger sizes are mapped.
  static constexpr std::size_t kHeapLimitBytes = std::size_t{256} << 10;

  /// Budget-based sizing: the ceiling is the largest power-of-two bucket
  /// count whose footprint fits in `mb` megabytes (minimum one bucket);
  /// the table starts at kStartBytes (or the ceiling, if smaller) and
  /// grows with its occupancy. Throws std::bad_alloc if the starting
  /// allocation is refused.
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

  /// Hard capacity in entries, the budget's (lower only if a doubling was
  /// refused); Snapshot::entries can never exceed it.
  [[nodiscard]] std::uint64_t capacity() const {
    return static_cast<std::uint64_t>(ceiling_) * kBucketEntries;
  }
  /// Bytes of the bucket array at its current, grown size.
  [[nodiscard]] std::size_t bytes() const { return buckets_ * sizeof(Bucket); }

 private:
  struct Entry {
    std::uint64_t mix = 0;   ///< splitmix64 of the state hash
    std::int32_t depth = 0;  ///< 0 = empty slot (tabled depths are >= 1)
    std::uint8_t gen = 0;
    std::uint8_t slot = 0;   ///< slot in its ceiling bucket
  };
  static_assert(sizeof(Entry) == 16, "the slot rides in the padding");
  /// Naturally 64 bytes (4 x 16-byte entries) — exactly one cache line —
  /// without an alignas that malloc could not honour.
  struct Bucket {
    Entry entries[kBucketEntries];
  };
  static_assert(sizeof(Bucket) == 64, "one cache line per bucket");

  /// Frees an array by the allocator that made it (see allocate()).
  struct Release {
    std::size_t buckets;
    void operator()(Bucket* p) const;
  };
  using Array = std::unique_ptr<Bucket[], Release>;
  /// A zeroed array of `buckets` buckets, null if the memory is refused.
  static Array allocate(std::size_t buckets);

  /// Doubles the table by reinserting every entry. If the memory is
  /// refused, lowers the ceiling to the current size instead.
  void grow();

  Array table_;
  std::size_t buckets_ = 0;  ///< current size, a power of two
  std::size_t ceiling_ = 0;  ///< the budget's buckets; growth stops here
  /// Bits of an entry's mix that name its ceiling bucket: ceiling_ - 1,
  /// or 0 once a refused doubling has made every bucket its own ceiling
  /// bucket.
  std::uint64_t ceiling_mask_ = 0;
  Snapshot counters_;
  std::uint8_t generation_ = 0;
};

}  // namespace rmrls
