// Tests for the parallel search engine (core/parallel.hpp): result
// validity and quality vs the sequential engine, worker/stripe metrics,
// the shared node budget, a contention stress test for the shared
// transposition table, and that a disabled table is never built. Runs
// under TSan via the `tsan` CMake preset (ctest -L concurrency).

#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "core/synthesizer.hpp"
#include "core/transposition.hpp"
#include "rev/pprm_transform.hpp"
#include "rev/random.hpp"

namespace rmrls {
namespace {

SynthesisOptions quick(int threads = 1) {
  SynthesisOptions o;
  o.max_nodes = 50000;
  o.num_threads = threads;
  // The suite exercises the multi-worker code paths even on small CI
  // hosts, so the hardware-concurrency clamp is lifted here.
  o.allow_oversubscription = true;
  return o;
}

// Tier-1 3-variable suite: Fig. 1 plus the Section V-C examples. The
// parallel engine must synthesize every one, and — sharing the sequential
// engine's pruning rules while searching strictly more of the space per
// bound — never with more gates.
const std::vector<std::vector<std::uint64_t>>& tier1_specs() {
  static const std::vector<std::vector<std::uint64_t>> specs = {
      {1, 0, 7, 2, 3, 4, 5, 6},
      {1, 0, 3, 2, 5, 7, 4, 6},
      {7, 0, 1, 2, 3, 4, 5, 6},
      {0, 1, 2, 3, 4, 6, 5, 7},
      {0, 1, 2, 4, 3, 5, 6, 7},
      {1, 2, 3, 4, 5, 6, 7, 0},
  };
  return specs;
}

TEST(Parallel, MatchesSequentialQualityOnTier1) {
  for (const auto& perm : tier1_specs()) {
    const TruthTable spec(perm);
    const SynthesisResult seq = synthesize(spec, quick(1));
    const SynthesisResult par = synthesize(spec, quick(4));
    ASSERT_TRUE(seq.success);
    ASSERT_TRUE(par.success);
    EXPECT_TRUE(implements(par.circuit, spec));
    EXPECT_LE(par.circuit.gate_count(), seq.circuit.gate_count());
  }
}

TEST(Parallel, SingleThreadIsDeterministic) {
  const TruthTable spec({0, 7, 6, 9, 4, 11, 10, 13, 8, 15, 14, 1, 12, 3, 2, 5});
  const SynthesisResult a = synthesize(spec, quick(1));
  const SynthesisResult b = synthesize(spec, quick(1));
  ASSERT_TRUE(a.success);
  ASSERT_TRUE(b.success);
  EXPECT_EQ(a.circuit.to_string(), b.circuit.to_string());
  EXPECT_EQ(a.stats.nodes_expanded, b.stats.nodes_expanded);
  EXPECT_EQ(a.stats.children_created, b.stats.children_created);
  EXPECT_EQ(a.stats.workers, 1u);
  EXPECT_TRUE(a.stats.tt_shard_hits.empty());
}

TEST(Parallel, IdentityAndSingleGateEarlyOuts) {
  const SynthesisResult id = synthesize(TruthTable::identity(3), quick(4));
  ASSERT_TRUE(id.success);
  EXPECT_EQ(id.circuit.gate_count(), 0);
  EXPECT_EQ(id.termination, TerminationReason::kSolved);

  const TruthTable not_gate({1, 0});
  const SynthesisResult r = synthesize(not_gate, quick(4));
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.circuit.gate_count(), 1);
  EXPECT_TRUE(implements(r.circuit, not_gate));
}

TEST(Parallel, ReportsWorkersAndShardHits) {
  const TruthTable spec({1, 0, 7, 2, 3, 4, 5, 6});
  const SynthesisResult r = synthesize(spec, quick(4));
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.stats.workers, 2u);  // never more workers than root seeds
  EXPECT_LE(r.stats.workers, 4u);
  ASSERT_EQ(r.stats.tt_shard_hits.size(), TranspositionTable::kStripes);
  const std::uint64_t shard_sum =
      std::accumulate(r.stats.tt_shard_hits.begin(),
                      r.stats.tt_shard_hits.end(), std::uint64_t{0});
  // Every shared-table hit was counted pruned_duplicate by some worker
  // (sequential passes of the same synthesis may add more duplicates).
  EXPECT_LE(shard_sum, r.stats.pruned_duplicate);
}

TEST(Parallel, RespectsSharedNodeBudget) {
  SynthesisOptions o;
  o.num_threads = 4;
  o.allow_oversubscription = true;
  o.max_nodes = 500;
  o.iterative_refinement = false;
  std::mt19937_64 rng(11);
  const Pprm spec = pprm_of_truth_table(random_reversible_function(4, rng));
  const SynthesisResult r = synthesize(spec, o);
  EXPECT_LE(r.stats.nodes_expanded, o.max_nodes);
}

TEST(Parallel, StopAtFirstSolutionStopsAllWorkers) {
  SynthesisOptions o = quick(4);
  o.stop_at_first_solution = true;
  std::mt19937_64 rng(12);
  for (int i = 0; i < 3; ++i) {
    const TruthTable spec = random_reversible_function(3, rng);
    const SynthesisResult r = synthesize(spec, o);
    ASSERT_TRUE(r.success);
    EXPECT_TRUE(implements(r.circuit, spec));
    EXPECT_EQ(r.termination, TerminationReason::kSolved);
  }
}

// Lazy SMP: every worker searches the full root with a diversified
// ordering, and worker 0 always keeps the canonical (sequential) order.
// At 8 threads the engine must therefore match or beat the sequential
// gate count on every tier-1 spec — diversification adds exploration, it
// never trades the canonical order away.
TEST(Parallel, LazySmpMatchesSequentialQualityAtEightThreads) {
  for (const auto& perm : tier1_specs()) {
    const TruthTable spec(perm);
    const SynthesisResult seq = synthesize(spec, quick(1));
    const SynthesisResult par = synthesize(spec, quick(8));
    ASSERT_TRUE(seq.success);
    ASSERT_TRUE(par.success);
    EXPECT_TRUE(implements(par.circuit, spec));
    EXPECT_LE(par.circuit.gate_count(), seq.circuit.gate_count());
  }
}

// Shared-TT stress under eviction pressure: a deliberately tiny table
// (1 MiB) forces all eight lazy-SMP workers through
// constant insert/evict/refresh traffic on the same buckets. TSan (the
// `tsan` preset) turns any entry or counter race into a failure; the
// stats invariants check the striped accounting under contention.
TEST(Parallel, SharedTinyTableStress) {
  std::mt19937_64 rng(14);
  for (int i = 0; i < 2; ++i) {
    SynthesisOptions o;
    o.num_threads = 8;
    o.allow_oversubscription = true;
    o.tt_mb = 1;
    o.max_nodes = 20000;
    o.iterative_refinement = false;
    const TruthTable spec = random_reversible_function(4, rng);
    const SynthesisResult r = synthesize(spec, o);
    if (r.success) EXPECT_TRUE(implements(r.circuit, spec));
    EXPECT_LE(r.stats.tt_evictions, r.stats.tt_inserts);
    ASSERT_EQ(r.stats.tt_shard_hits.size(), TranspositionTable::kStripes);
  }
}

// synthesize() is the only code that builds the search tables, and the
// engines run without a table whose feature is off: no table traffic,
// duplicate prune or stripe counter without the transposition table, and
// no history bonus without the history table, sequentially and under
// lazy SMP.
TEST(Parallel, DisabledTablesAreNeverBuilt) {
  const TruthTable spec({0, 7, 6, 9, 4, 11, 10, 13, 8, 15, 14, 1, 12, 3, 2, 5});
  EXPECT_GT(synthesize(spec, quick(4)).stats.history_hits, 0u);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    SynthesisOptions o = quick(threads);
    o.use_transposition_table = false;
    const SynthesisResult r = synthesize(spec, o);
    EXPECT_EQ(r.stats.tt_inserts, 0u);
    EXPECT_EQ(r.stats.pruned_duplicate, 0u);
    EXPECT_TRUE(r.stats.tt_shard_hits.empty());
    o = quick(threads);
    o.use_history = false;
    EXPECT_EQ(synthesize(spec, o).stats.history_hits, 0u);
  }
}

// Parallel runs are not bit-reproducible, but every run must be valid and
// within the sequential engine's refinement quality on easy specs.
TEST(Parallel, RepeatedRunsStayValid) {
  const TruthTable spec({1, 0, 7, 2, 3, 4, 5, 6});
  for (int i = 0; i < 5; ++i) {
    const SynthesisResult r = synthesize(spec, quick(3));
    ASSERT_TRUE(r.success);
    EXPECT_TRUE(implements(r.circuit, spec));
    EXPECT_LE(r.circuit.gate_count(), 3);
  }
}

}  // namespace
}  // namespace rmrls
