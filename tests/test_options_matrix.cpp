// Option-matrix property tests: every combination of search knobs must
// either produce a verified circuit or fail honestly — never a wrong
// circuit, never a hang past its budget.

#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "core/synthesizer.hpp"
#include "rev/random.hpp"

namespace rmrls {
namespace {

using Combo = std::tuple<bool /*any scope*/, int /*greedy_k*/, bool /*tt*/,
                         bool /*refine*/, bool /*cumulative*/>;

class OptionsMatrix : public ::testing::TestWithParam<Combo> {};

SynthesisOptions make_options(const Combo& combo) {
  SynthesisOptions o;
  o.max_nodes = 15000;
  o.exempt_scope = std::get<0>(combo)
                       ? SynthesisOptions::ExemptScope::kAny
                       : SynthesisOptions::ExemptScope::kComplement;
  o.greedy_k = std::get<1>(combo);
  o.use_transposition_table = std::get<2>(combo);
  o.iterative_refinement = std::get<3>(combo);
  o.cumulative_elim_priority = std::get<4>(combo);
  return o;
}

TEST_P(OptionsMatrix, NeverReturnsAWrongCircuit) {
  const SynthesisOptions options = make_options(GetParam());
  std::mt19937_64 rng(0xC0FFEE);
  for (int trial = 0; trial < 6; ++trial) {
    const TruthTable spec = random_reversible_function(3, rng);
    const SynthesisResult r = synthesize(spec, options);
    if (r.success) {
      EXPECT_TRUE(implements(r.circuit, spec))
          << spec.to_string() << " under combo";
      EXPECT_GT(r.circuit.gate_count(), 0);
    }
    // max_nodes bounds the whole call: the opening pass, the broad-scope
    // retry and every refinement pass together.
    EXPECT_LE(r.stats.nodes_expanded, options.max_nodes);
  }
}

TEST_P(OptionsMatrix, DeterministicPerConfiguration) {
  const SynthesisOptions options = make_options(GetParam());
  const TruthTable spec({5, 3, 1, 7, 4, 0, 2, 6});
  const SynthesisResult a = synthesize(spec, options);
  const SynthesisResult b = synthesize(spec, options);
  EXPECT_EQ(a.success, b.success);
  if (a.success) {
    EXPECT_EQ(a.circuit, b.circuit);
  }
  EXPECT_EQ(a.stats.nodes_expanded, b.stats.nodes_expanded);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, OptionsMatrix,
    ::testing::Combine(::testing::Bool(),               // exemption scope
                       ::testing::Values(0, 3),         // greedy k
                       ::testing::Bool(),               // transposition
                       ::testing::Bool(),               // refinement
                       ::testing::Bool()));             // cumulative elim

TEST(OptionsEdges, WallClockLimitStopsTheSearch) {
  SynthesisOptions o;
  o.max_nodes = 0;  // unlimited nodes: only the clock can stop it
  o.time_limit = std::chrono::milliseconds(50);
  std::mt19937_64 rng(5150);
  // A 5-variable function will not finish in 50 ms from a cold start.
  const TruthTable spec = random_reversible_function(5, rng);
  const auto t0 = std::chrono::steady_clock::now();
  (void)synthesize(spec, o);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  // time_limit bounds the whole call, every pass included; 5 s leaves
  // room for a loaded host.
  EXPECT_LT(elapsed.count(), 5000);
}

TEST(OptionsEdges, TinyQueueStillTerminates) {
  SynthesisOptions o;
  o.max_nodes = 5000;
  o.max_queue = 8;  // drops most children
  const TruthTable spec({1, 0, 7, 2, 3, 4, 5, 6});
  const SynthesisResult r = synthesize(spec, o);
  if (r.success) {
    EXPECT_TRUE(implements(r.circuit, spec));
  }
  EXPECT_GT(r.stats.dropped_queue_full + r.stats.children_pushed, 0u);
}

TEST(OptionsEdges, ZeroNodeBudgetFailsImmediately) {
  SynthesisOptions o;
  o.max_nodes = 1;
  o.iterative_refinement = false;
  const SynthesisResult r =
      synthesize(TruthTable({7, 1, 4, 3, 0, 2, 6, 5}), o);
  EXPECT_FALSE(r.success);
  EXPECT_LE(r.stats.nodes_expanded, 1u);
}

TEST(OptionsEdges, MaxGatesZeroMeansUnlimited) {
  SynthesisOptions o;
  o.max_nodes = 20000;
  o.max_gates = 0;
  const SynthesisResult r = synthesize(TruthTable({1, 0, 7, 2, 3, 4, 5, 6}), o);
  EXPECT_TRUE(r.success);
}

}  // namespace
}  // namespace rmrls
