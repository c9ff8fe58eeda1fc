// Tests for the bounded transposition table (core/transposition.hpp):
// aging-eviction semantics on a single bucket, the depth rule the
// table inherits from the seen-map it replaced (including the
// shallower-revisit-overwrites regression), generation aging and
// rollover, bounded memory under sustained insert pressure, on-demand
// growth (a grown table answers exactly like one built at its ceiling),
// and the determinism of the search driver built on top of it.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <random>
#include <vector>

#include "core/synthesizer.hpp"
#include "core/transposition.hpp"
#include "rev/pprm.hpp"

namespace rmrls {
namespace {

const TranspositionTable::Config kOneBucket{1};

// Hashes that land distinct values in the (single) bucket. Any values
// work: with one bucket, every hash collides on the bucket and only the
// entry hashes differ.
constexpr std::uint64_t h(std::uint64_t i) { return 0x1000 + i; }

TEST(TranspositionTable, FirstVisitInsertsRevisitPrunes) {
  TranspositionTable tt(kOneBucket);
  EXPECT_FALSE(tt.check_and_insert(h(1), 5));
  EXPECT_TRUE(tt.check_and_insert(h(1), 5));   // same depth: prune
  EXPECT_TRUE(tt.check_and_insert(h(1), 9));   // deeper: prune
  const TranspositionTable::Snapshot s = tt.snapshot();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 1u);
}

// Regression pin for the shallower-revisit rule: a state first reached at
// depth 5 and rediscovered at depth 3 must NOT be pruned — the shallower
// path is the better one and pruning it could cost the optimal circuit.
// The rediscovery overwrites the stored depth, so depth-4 revisits (which
// the old depth-5 entry would have let through) now prune.
TEST(TranspositionTable, ShallowerRevisitOverwritesInsteadOfPruning) {
  TranspositionTable tt(kOneBucket);
  EXPECT_FALSE(tt.check_and_insert(h(1), 5));
  EXPECT_TRUE(tt.check_and_insert(h(1), 7));   // deeper: redundant
  EXPECT_FALSE(tt.check_and_insert(h(1), 3));  // shallower: re-expand
  EXPECT_TRUE(tt.check_and_insert(h(1), 4));   // now 4 >= stored 3: prune
  EXPECT_TRUE(tt.check_and_insert(h(1), 3));
  // The overwrite is not an insert: the slot was already occupied.
  EXPECT_EQ(tt.snapshot().inserts, 1u);
  EXPECT_EQ(tt.snapshot().entries, 1u);
}

// Full-bucket accounting: every write is an insert, every write into a
// full bucket also an eviction, and occupancy stops at the bucket size.
TEST(TranspositionTable, FullBucketEvictsOnePerInsert) {
  TranspositionTable tt(kOneBucket);
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_FALSE(tt.check_and_insert(h(i), 2));
  }
  const TranspositionTable::Snapshot s = tt.snapshot();
  EXPECT_EQ(s.inserts, 16u);
  EXPECT_EQ(s.evictions, 16u - TranspositionTable::kBucketEntries);
  EXPECT_EQ(s.entries,
            static_cast<std::uint64_t>(TranspositionTable::kBucketEntries));
  EXPECT_EQ(tt.capacity(),
            static_cast<std::uint64_t>(TranspositionTable::kBucketEntries));
}

// Within one generation eviction keeps the shallow entries: in RMRLS an
// entry at depth d prunes every deeper revisit, so shallow entries have
// the widest pruning reach and the deepest entry is the right victim.
TEST(TranspositionTable, SameGenerationEvictsDeepestEntry) {
  TranspositionTable tt(kOneBucket);
  ASSERT_FALSE(tt.check_and_insert(h(1), 1));
  ASSERT_FALSE(tt.check_and_insert(h(2), 9));  // the deepest: the victim
  ASSERT_FALSE(tt.check_and_insert(h(3), 2));
  ASSERT_FALSE(tt.check_and_insert(h(4), 3));
  ASSERT_FALSE(tt.check_and_insert(h(5), 4));  // bucket full: evicts h(2)
  EXPECT_EQ(tt.snapshot().evictions, 1u);
  // The survivors still prune; the evicted deep entry is forgotten.
  EXPECT_TRUE(tt.check_and_insert(h(1), 1));
  EXPECT_TRUE(tt.check_and_insert(h(3), 2));
  EXPECT_TRUE(tt.check_and_insert(h(5), 4));
  EXPECT_FALSE(tt.check_and_insert(h(2), 9));  // reinserted (evicting again)
}

// Same generation, same depth: the lowest slot is the victim. A grown
// table reads the slot an entry holds in its ceiling bucket, so this
// tie-break is what keeps its evictions the ceiling array's.
TEST(TranspositionTable, EqualEntriesEvictTheLowestSlot) {
  TranspositionTable tt(kOneBucket);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    ASSERT_FALSE(tt.check_and_insert(h(i), 3));
  }
  ASSERT_FALSE(tt.check_and_insert(h(5), 3));  // full: evicts slot 0, h(1)
  EXPECT_TRUE(tt.check_and_insert(h(4), 3));
  EXPECT_TRUE(tt.check_and_insert(h(5), 3));
  EXPECT_FALSE(tt.check_and_insert(h(1), 3));  // gone; now evicts h(5)
  EXPECT_FALSE(tt.check_and_insert(h(5), 3));
}

TEST(TranspositionTable, EvictsOldestGenerationFirst) {
  TranspositionTable tt(kOneBucket);
  ASSERT_FALSE(tt.check_and_insert(h(1), 1));  // gen 0
  tt.new_generation();
  ASSERT_FALSE(tt.check_and_insert(h(2), 9));  // gen 1
  ASSERT_FALSE(tt.check_and_insert(h(3), 9));  // gen 1
  ASSERT_FALSE(tt.check_and_insert(h(4), 9));  // gen 1
  ASSERT_FALSE(tt.check_and_insert(h(5), 2));  // full: evicts gen-0 h(1),
                                               // despite deeper gen-1 peers
  EXPECT_EQ(tt.snapshot().evictions, 1u);
  EXPECT_TRUE(tt.check_and_insert(h(2), 9));   // gen-1 entries survived
  EXPECT_TRUE(tt.check_and_insert(h(5), 2));
}

// An entry from a previous generation must not prune the new pass: it is
// refreshed (gen + depth) on first touch and prunes only within the new
// generation. This is what makes one table shareable across all the
// passes of a synthesize() call: the opening pass, the broad-scope retry
// and the refinement reruns.
TEST(TranspositionTable, StaleGenerationRefreshesInsteadOfPruning) {
  TranspositionTable tt(kOneBucket);
  ASSERT_FALSE(tt.check_and_insert(h(1), 2));
  ASSERT_TRUE(tt.check_and_insert(h(1), 2));
  tt.new_generation();
  EXPECT_EQ(tt.generation(), 1u);
  EXPECT_FALSE(tt.check_and_insert(h(1), 6));  // stale: refresh, no prune
  EXPECT_TRUE(tt.check_and_insert(h(1), 6));   // current gen again: prune
  // The refresh reused the slot: no new insert, no eviction.
  EXPECT_EQ(tt.snapshot().inserts, 1u);
  EXPECT_EQ(tt.snapshot().evictions, 0u);
}

// The generation counter is 8-bit by design (it lives in every 16-byte
// entry). After exactly 256 bumps a surviving entry aliases the current
// generation and may wrongly prune one revisit — the documented bounded
// staleness trade. The counter itself must wrap cleanly.
TEST(TranspositionTable, GenerationRollover) {
  TranspositionTable tt(kOneBucket);
  ASSERT_FALSE(tt.check_and_insert(h(1), 4));
  for (int i = 0; i < 256; ++i) tt.new_generation();
  EXPECT_EQ(tt.generation(), 0u);  // wrapped back
  // The entry now aliases the current generation: it prunes (the accepted
  // bounded-staleness behaviour), and a shallower revisit still overwrites.
  EXPECT_TRUE(tt.check_and_insert(h(1), 4));
  EXPECT_FALSE(tt.check_and_insert(h(1), 3));
  // One bump off the alias point behaves like any stale entry again.
  tt.new_generation();
  EXPECT_FALSE(tt.check_and_insert(h(1), 5));
}

// The bound that motivates the whole design: ten million inserts into a
// 1 MiB table stay inside the budget. The grow-only seen-map this table
// replaced would hold all 10^7 entries (~hundreds of MB).
TEST(TranspositionTable, BoundedMemoryUnderSustainedInsertPressure) {
  TranspositionTable tt(1);
  const std::uint64_t capacity = tt.capacity();
  ASSERT_GT(capacity, 0u);
  ASSERT_LE(tt.bytes(), std::size_t{1} << 20);
  constexpr std::uint64_t kInserts = 10'000'000;
  for (std::uint64_t i = 0; i < kInserts; ++i) {
    // splitmix64 over a counter: effectively unique hashes, all misses.
    tt.check_and_insert(splitmix64(i), 1 + static_cast<std::int32_t>(i % 7));
  }
  const TranspositionTable::Snapshot s = tt.snapshot();
  EXPECT_LE(s.entries, capacity);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.evictions, s.inserts);
  EXPECT_LE(s.inserts, kInserts);
  // Occupancy accounting: entries that were inserted but never evicted.
  EXPECT_EQ(s.entries, s.inserts - s.evictions);
}

TEST(TranspositionTable, SnapshotDeltasAreMonotone) {
  TranspositionTable tt(1);
  const TranspositionTable::Snapshot before = tt.snapshot();
  for (std::uint64_t i = 0; i < 1000; ++i) {
    tt.check_and_insert(splitmix64(i), 3);
    tt.check_and_insert(splitmix64(i), 3);  // guaranteed revisit
  }
  const TranspositionTable::Snapshot after = tt.snapshot();
  EXPECT_GE(after.hits, before.hits + 1000);
  EXPECT_GE(after.inserts, before.inserts);
}

// Budget sizing: the table must fit the requested megabytes and use a
// power-of-two bucket count.
TEST(TranspositionTable, BudgetSizingFitsAndIsPowerOfTwo) {
  for (const int mb : {1, 2, 8}) {
    TranspositionTable tt(mb);
    EXPECT_LE(tt.bytes(), static_cast<std::size_t>(mb) << 20);
    const std::uint64_t buckets =
        tt.capacity() / TranspositionTable::kBucketEntries;
    EXPECT_EQ(buckets & (buckets - 1), 0u) << "bucket count " << buckets;
  }
}

// On-demand growth must be invisible: a table that starts small, grows
// to its ceiling and then evicts answers every call exactly like a table
// built at that ceiling. The stream mixes a hot set
// (repeats, shallower and deeper revisits) with a cold tail that forces
// growth and then eviction, and generation bumps.
TEST(TranspositionTable, GrownTableMatchesTableBuiltAtCeiling) {
  TranspositionTable grown(1);
  TranspositionTable built(TranspositionTable::Config{static_cast<std::size_t>(
      grown.capacity() / TranspositionTable::kBucketEntries)});
  ASSERT_LT(grown.bytes(), built.bytes());

  std::mt19937_64 rng(2024);
  constexpr int kCalls = 400'000;
  for (int call = 0; call < kCalls; ++call) {
    if (rng() % 25'000 == 0) {
      grown.new_generation();
      built.new_generation();
    }
    const std::uint64_t key =
        (rng() & 1) != 0 ? rng() % 2'000 : 2'000 + rng() % 300'000;
    const std::uint64_t hash = key * 0x9E3779B97F4A7C15ULL + 1;
    const auto depth = static_cast<std::int32_t>(1 + rng() % 12);
    ASSERT_EQ(grown.check_and_insert(hash, depth),
              built.check_and_insert(hash, depth))
        << "call " << call;
  }
  const TranspositionTable::Snapshot g = grown.snapshot();
  const TranspositionTable::Snapshot b = built.snapshot();
  EXPECT_EQ(grown.bytes(), built.bytes());  // reached its ceiling
  EXPECT_GT(b.evictions, 0u);               // ...and evicted there
  EXPECT_EQ(g.hits, b.hits);
  EXPECT_EQ(g.inserts, b.inserts);
  EXPECT_EQ(g.evictions, b.evictions);
  EXPECT_EQ(g.entries, b.entries);
}

// A small search must not pay for its budget: 1000 entries under the
// default 64 MiB budget stay in a heap-sized table, while capacity()
// still reports the budget's.
TEST(TranspositionTable, SmallRunStaysSmallUnderLargeBudget) {
  // 64 MiB of 64-byte buckets.
  constexpr std::uint64_t kBudgetEntries =
      (std::uint64_t{64} << 20) / 64 * TranspositionTable::kBucketEntries;
  TranspositionTable tt(64);
  EXPECT_EQ(tt.bytes(), TranspositionTable::kStartBytes);
  EXPECT_EQ(tt.capacity(), kBudgetEntries);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_FALSE(tt.check_and_insert(splitmix64(i), 3));
  }
  EXPECT_GT(tt.bytes(), TranspositionTable::kStartBytes);
  EXPECT_LE(tt.bytes(), TranspositionTable::kHeapLimitBytes);
  EXPECT_EQ(tt.capacity(), kBudgetEntries);
  EXPECT_EQ(tt.snapshot().entries, 1000u);
  EXPECT_EQ(tt.snapshot().evictions, 0u);
}

// splitmix64 is a bijection; its inverse aims keys at chosen ceiling
// buckets (the low bits of splitmix64(hash) pick the bucket).
constexpr std::uint64_t inverse_odd(std::uint64_t a) {
  std::uint64_t x = a;  // Newton: each step doubles the correct low bits
  for (int i = 0; i < 6; ++i) x *= 2 - a * x;
  return x;
}

std::uint64_t unsplitmix64(std::uint64_t x) {
  x ^= (x >> 31) ^ (x >> 62);
  x *= inverse_odd(0x94d049bb133111ebull);
  x ^= (x >> 27) ^ (x >> 54);
  x *= inverse_odd(0xbf58476d1ce4e5b9ull);
  x ^= (x >> 30) ^ (x >> 60);
  return x - 0x9e3779b97f4a7c15ull;
}

// A table below its ceiling must evict exactly where the ceiling array
// would: keys aimed at 16 ceiling buckets of a 64 MiB budget overflow
// them at once, while random background keys grow the table. Eight hot
// buckets share one home bucket at every size up to 8 MiB, four follow
// it, and four end the array, whose spills wrap around to bucket 0. Every
// answer and all four counters must match a table built at the ceiling,
// which the grown one never reaches.
TEST(TranspositionTable, EvictsBelowCeilingLikeTableBuiltThere) {
  ASSERT_EQ(splitmix64(unsplitmix64(0x0123456789abcdefull)),
            0x0123456789abcdefull);
  TranspositionTable grown(64);
  const auto ceiling = static_cast<std::size_t>(
      grown.capacity() / TranspositionTable::kBucketEntries);
  TranspositionTable built(TranspositionTable::Config{ceiling});

  std::vector<std::uint64_t> hot_buckets;
  for (std::uint64_t k = 0; k < 8; ++k) hot_buckets.push_back(5 + (k << 17));
  for (std::uint64_t k = 0; k < 4; ++k) {
    hot_buckets.push_back(6 + k);
    hot_buckets.push_back(ceiling - 1 - k);
  }
  std::mt19937_64 rng(2026);
  constexpr int kCalls = 300'000;
  for (int call = 0; call < kCalls; ++call) {
    if (rng() % 20'000 == 0) {
      grown.new_generation();
      built.new_generation();
    }
    std::uint64_t hash = 0;
    if (rng() % 3 == 0) {
      // One of 40 keys per hot bucket: each overflows its four slots.
      const std::uint64_t bucket = hot_buckets[rng() % hot_buckets.size()];
      hash = unsplitmix64(((1 + rng() % 40) << 32) | bucket);
    } else {
      hash = (rng() % 120'000) * 0x9E3779B97F4A7C15ULL + 7;
    }
    const auto depth = static_cast<std::int32_t>(1 + rng() % 12);
    ASSERT_EQ(grown.check_and_insert(hash, depth),
              built.check_and_insert(hash, depth))
        << "call " << call;
  }
  const TranspositionTable::Snapshot g = grown.snapshot();
  const TranspositionTable::Snapshot b = built.snapshot();
  EXPECT_GT(b.evictions, 1000u);
  EXPECT_EQ(g.hits, b.hits);
  EXPECT_EQ(g.inserts, b.inserts);
  EXPECT_EQ(g.evictions, b.evictions);
  EXPECT_EQ(g.entries, b.entries);
  EXPECT_LT(grown.bytes(), built.bytes());
  EXPECT_EQ(grown.capacity(), built.capacity());
}

// Memory follows occupancy, not the budget: 100 K entries under the
// default 64 MiB ceiling stay within 8 MiB.
TEST(TranspositionTable, MemoryFollowsOccupancy) {
  TranspositionTable tt(64);
  constexpr std::uint64_t kInserts = 100'000;
  for (std::uint64_t i = 0; i < kInserts; ++i) {
    EXPECT_FALSE(tt.check_and_insert(splitmix64(i), 3));
  }
  const TranspositionTable::Snapshot s = tt.snapshot();
  EXPECT_EQ(s.inserts, kInserts);
  EXPECT_EQ(s.entries, s.inserts - s.evictions);
  EXPECT_LE(tt.bytes(), std::size_t{8} << 20);
  EXPECT_EQ(tt.capacity(),
            (std::uint64_t{64} << 20) / 64 * TranspositionTable::kBucketEntries);
}

// A refused doubling neither aborts nor loops: the table keeps its size,
// lowers capacity() to it and evicts per bucket from then on. The refusal
// is real: a child process caps its address space at what it has mapped,
// so the first doubling past kHeapLimitBytes, a new mapping, fails.
TEST(TranspositionTable, RefusedDoublingKeepsSizeAndEvicts) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    TranspositionTable tt(64);
    std::uint64_t key = 0;
    while (tt.bytes() < TranspositionTable::kHeapLimitBytes) {
      tt.check_and_insert(splitmix64(key++), 3);
    }
    std::size_t mapped_pages = 0;
    std::ifstream("/proc/self/statm") >> mapped_pages;
    rlimit limit{};
    if (mapped_pages == 0 || ::getrlimit(RLIMIT_AS, &limit) != 0) _exit(2);
    const rlim_t cap =
        static_cast<rlim_t>(mapped_pages * ::sysconf(_SC_PAGESIZE)) +
        (rlim_t{64} << 10);
    if (limit.rlim_max != RLIM_INFINITY && limit.rlim_max < cap) _exit(2);
    limit.rlim_cur = cap;
    if (::setrlimit(RLIMIT_AS, &limit) != 0) _exit(2);

    const std::size_t bytes = tt.bytes();
    for (int i = 0; i < 200'000; ++i) {
      tt.check_and_insert(splitmix64(key++), 1 + i % 5);
    }
    const TranspositionTable::Snapshot s = tt.snapshot();
    const std::uint64_t capacity =
        bytes / 64 * TranspositionTable::kBucketEntries;
    const bool ok = tt.bytes() == bytes && tt.capacity() == capacity &&
                    s.entries <= capacity && s.evictions > 0 &&
                    s.entries == s.inserts - s.evictions &&
                    tt.check_and_insert(splitmix64(key - 1), 5);
    _exit(ok ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  if (WEXITSTATUS(status) == 2) GTEST_SKIP() << "cannot cap RLIMIT_AS";
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// The search driver on top of the table must stay bit-reproducible: same
// spec, same options, same circuit, same node count. Its stats keep the
// v1 record's `id_iterations` at 1, the value docs/observability.md
// promises.
TEST(SearchDriver, SingleThreadedRunsAreDeterministic) {
  const TruthTable spec(
      {0, 7, 6, 9, 4, 11, 10, 13, 8, 15, 14, 1, 12, 3, 2, 5});
  SynthesisOptions o;
  o.max_nodes = 50000;
  const SynthesisResult a = synthesize(spec, o);
  const SynthesisResult b = synthesize(spec, o);
  ASSERT_TRUE(a.success);
  ASSERT_TRUE(b.success);
  EXPECT_EQ(a.circuit.to_string(), b.circuit.to_string());
  EXPECT_EQ(a.stats.nodes_expanded, b.stats.nodes_expanded);
  EXPECT_EQ(a.stats.children_created, b.stats.children_created);
  EXPECT_EQ(a.stats.id_iterations, 1u);
  EXPECT_TRUE(implements(a.circuit, spec));
}

// TT metrics surfaced through SynthesisStats: inserts move, evictions
// never exceed them, and disabling the history heuristic zeroes its
// counter while the search still succeeds.
TEST(SearchDriver, StatsInvariantsAndHistoryKillSwitch) {
  const TruthTable spec({1, 0, 7, 2, 3, 4, 5, 6});
  SynthesisOptions o;
  o.max_nodes = 50000;
  const SynthesisResult r = synthesize(spec, o);
  ASSERT_TRUE(r.success);
  EXPECT_GT(r.stats.tt_inserts, 0u);
  EXPECT_LE(r.stats.tt_evictions, r.stats.tt_inserts);

  SynthesisOptions no_history = o;
  no_history.use_history = false;
  const SynthesisResult rh = synthesize(spec, no_history);
  ASSERT_TRUE(rh.success);
  EXPECT_EQ(rh.stats.history_hits, 0u);
  EXPECT_TRUE(implements(rh.circuit, spec));
}

// synthesize() is the only code that builds the search tables, and the
// engines run without a table whose feature is off: no table traffic or
// duplicate prune without the transposition table, and no history bonus
// without the history table.
TEST(SearchDriver, DisabledTablesAreNeverBuilt) {
  const TruthTable spec({0, 7, 6, 9, 4, 11, 10, 13, 8, 15, 14, 1, 12, 3, 2, 5});
  SynthesisOptions o;
  o.max_nodes = 50000;
  EXPECT_GT(synthesize(spec, o).stats.history_hits, 0u);

  SynthesisOptions no_tt = o;
  no_tt.use_transposition_table = false;
  const SynthesisResult r = synthesize(spec, no_tt);
  EXPECT_EQ(r.stats.tt_inserts, 0u);
  EXPECT_EQ(r.stats.pruned_duplicate, 0u);

  SynthesisOptions no_history = o;
  no_history.use_history = false;
  EXPECT_EQ(synthesize(spec, no_history).stats.history_hits, 0u);
}

}  // namespace
}  // namespace rmrls
