// Tests for the RMRLS search engine and public synthesize() entry points.

#include <gtest/gtest.h>

#include "core/synthesizer.hpp"
#include "rev/pprm_transform.hpp"

namespace rmrls {
namespace {

SynthesisOptions quick() {
  SynthesisOptions o;
  o.max_nodes = 50000;
  return o;
}

TEST(Search, Fig1SynthesizesInThreeGates) {
  // The paper's running example reduces in exactly three substitutions
  // (Fig. 5): TOF1(a), TOF3(a, c; b), TOF3(a, b; c).
  const TruthTable spec({1, 0, 7, 2, 3, 4, 5, 6});
  const SynthesisResult r = synthesize(spec, quick());
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.circuit.gate_count(), 3);
  EXPECT_TRUE(implements(r.circuit, spec));
}

TEST(Search, IdentityNeedsNoGates) {
  const SynthesisResult r = synthesize(TruthTable::identity(4), quick());
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.circuit.gate_count(), 0);
}

TEST(Search, SingleGateFunctions) {
  // A lone NOT and a lone CNOT synthesize as single gates.
  const SynthesisResult r1 = synthesize(TruthTable({1, 0}), quick());
  ASSERT_TRUE(r1.success);
  EXPECT_EQ(r1.circuit.gate_count(), 1);
  const SynthesisResult r2 =
      synthesize(TruthTable({0, 3, 2, 1}), quick());  // CNOT a->b
  ASSERT_TRUE(r2.success);
  EXPECT_EQ(r2.circuit.gate_count(), 1);
}

TEST(Search, WireSwapIsReachable) {
  // Pure wire swap: provably unreachable under strict monotone pruning;
  // the fallback exemption scope must recover it (DESIGN.md).
  const TruthTable swap_ab({0, 2, 1, 3});
  const SynthesisResult r = synthesize(swap_ab, quick());
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(implements(r.circuit, swap_ab));
  EXPECT_LE(r.circuit.gate_count(), 3);  // the classic 3-CNOT pattern
}

TEST(Search, PaperExamplesSynthesizeAndVerify) {
  // Section V-C Examples 1-8 (all with explicit printed specs).
  const std::vector<std::vector<std::uint64_t>> specs = {
      {1, 0, 3, 2, 5, 7, 4, 6},
      {7, 0, 1, 2, 3, 4, 5, 6},
      {0, 1, 2, 3, 4, 6, 5, 7},
      {0, 1, 2, 4, 3, 5, 6, 7},
      {0, 1, 2, 3, 4, 5, 6, 8, 7, 9, 10, 11, 12, 13, 14, 15},
      {1, 2, 3, 4, 5, 6, 7, 0},
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0},
      {0, 7, 6, 9, 4, 11, 10, 13, 8, 15, 14, 1, 12, 3, 2, 5}};
  const std::vector<int> paper_gates = {4, 3, 3, 6, 7, 3, 4, 4};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const TruthTable spec(specs[i]);
    const SynthesisResult r = synthesize(spec, quick());
    ASSERT_TRUE(r.success) << "example " << i + 1;
    EXPECT_TRUE(implements(r.circuit, spec)) << "example " << i + 1;
    // Within 1.5x of the paper's printed sizes (ours sometimes beats them).
    EXPECT_LE(r.circuit.gate_count(), paper_gates[i] + paper_gates[i] / 2 + 1)
        << "example " << i + 1;
  }
}

TEST(Search, MaxGatesPrunes) {
  // Example 4's function needs >= 5 NCT-ish gates; cap at 2 -> failure.
  SynthesisOptions o = quick();
  o.max_gates = 2;
  o.iterative_refinement = false;
  const SynthesisResult r = synthesize(TruthTable({0, 1, 2, 4, 3, 5, 6, 7}), o);
  EXPECT_FALSE(r.success);
}

// A run whose opening pass is its only pass (refinement off, or
// stop-at-first with refinement left on, which it overrides) has nothing
// to save budget for: when it fails, it has spent all of max_nodes, not a
// share of it.
TEST(Search, NodeBudgetIsHonored) {
  const TruthTable spec({15, 1, 12, 3, 5, 6, 8, 7, 0, 10, 13, 9, 2, 4, 14, 11});
  for (const bool stop_at_first : {false, true}) {
    for (const std::uint64_t budget : {10u, 50u, 100u, 1000u}) {
      SCOPED_TRACE(testing::Message() << "stop_at_first=" << stop_at_first
                                      << " max_nodes=" << budget);
      SynthesisOptions o;
      o.max_nodes = budget;
      o.stop_at_first_solution = stop_at_first;
      o.iterative_refinement = stop_at_first;
      const SynthesisResult r = synthesize(spec, o);
      ASSERT_FALSE(r.success);
      EXPECT_EQ(r.termination, TerminationReason::kNodeBudget);
      EXPECT_EQ(r.stats.nodes_expanded, budget);
    }
  }
}

TEST(Search, StopAtFirstSolutionStopsEarly) {
  SynthesisOptions first = quick();
  first.stop_at_first_solution = true;
  const TruthTable spec({1, 0, 7, 2, 3, 4, 5, 6});
  const SynthesisResult r = synthesize(spec, first);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(implements(r.circuit, spec));
  EXPECT_EQ(r.stats.solutions_found, 1u);
}

TEST(Search, DeterministicAcrossRuns) {
  const TruthTable spec({7, 1, 4, 3, 0, 2, 6, 5});
  const SynthesisResult r1 = synthesize(spec, quick());
  const SynthesisResult r2 = synthesize(spec, quick());
  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(r2.success);
  EXPECT_EQ(r1.circuit, r2.circuit);
  EXPECT_EQ(r1.stats.nodes_expanded, r2.stats.nodes_expanded);
}

TEST(Search, GreedyKeepsKPerVariable) {
  SynthesisOptions o = quick();
  o.greedy_k = 1;
  const TruthTable spec({1, 0, 7, 2, 3, 4, 5, 6});
  const SynthesisResult r = synthesize(spec, o);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(implements(r.circuit, spec));
}

TEST(Search, BasicOnlyModeStillSolvesFig1) {
  SynthesisOptions o = quick();
  o.additional_substitutions = false;
  o.iterative_refinement = false;
  const TruthTable spec({1, 0, 7, 2, 3, 4, 5, 6});
  const SynthesisResult r = synthesize(spec, o);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.circuit.gate_count(), 3);
}

TEST(Search, GateCountNeverBelowInformationBound) {
  // A function that moves k outputs needs at least ... >= 1 gate; check a
  // couple of sanity bounds rather than trivia.
  const TruthTable spec({1, 0, 7, 2, 3, 4, 5, 6});
  const SynthesisResult r = synthesize(spec, quick());
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.circuit.gate_count(), 1);
}

TEST(Search, StatsAreConsistent) {
  const TruthTable spec({7, 1, 4, 3, 0, 2, 6, 5});
  const SynthesisResult r = synthesize(spec, quick());
  ASSERT_TRUE(r.success);
  EXPECT_GT(r.stats.nodes_expanded, 0u);
  EXPECT_GT(r.stats.children_created, 0u);
  EXPECT_GE(r.stats.children_created, r.stats.children_pushed);
  EXPECT_GE(r.stats.solutions_found, 1u);
  EXPECT_GT(r.initial_terms, 0);
}

TEST(Search, PprmInputEqualsTruthTableInput) {
  const TruthTable spec({5, 3, 1, 7, 4, 0, 2, 6});
  const SynthesisResult r1 = synthesize(spec, quick());
  const SynthesisResult r2 = synthesize(pprm_of_truth_table(spec), quick());
  ASSERT_TRUE(r1.success);
  EXPECT_EQ(r1.circuit, r2.circuit);
}

TEST(Implements, DetectsWrongCircuit) {
  Circuit wrong(3);
  wrong.append(Gate(kConstOne, 1));
  EXPECT_FALSE(implements(wrong, TruthTable({1, 0, 7, 2, 3, 4, 5, 6})));
  EXPECT_FALSE(implements(Circuit(4), TruthTable::identity(3)));  // width
}

TEST(Implements, ExactCheckOnWidePprm) {
  // An empty circuit implements the identity PPRM at any width.
  const Pprm wide = Pprm::identity(40);
  EXPECT_TRUE(implements(Circuit(40), wide));
  Circuit not_id(40);
  not_id.append(Gate(kConstOne, 39));
  EXPECT_FALSE(implements(not_id, wide));
}

}  // namespace
}  // namespace rmrls
