// Tests for Fredkin gates, mixed cascades, and Fredkin extraction.

#include <gtest/gtest.h>

#include <random>

#include "core/synthesizer.hpp"
#include "rev/fredkin.hpp"
#include "rev/quantum_cost.hpp"
#include "rev/random.hpp"
#include "templates/fredkinize.hpp"

namespace rmrls {
namespace {

TEST(MixedGate, FredkinSwapsWhenControlsFire) {
  const MixedGate f = MixedGate::fredkin(cube_of_var(2), 0, 1);
  EXPECT_EQ(f.apply(0b101), 0b110u);  // c=1: swap a, b
  EXPECT_EQ(f.apply(0b110), 0b101u);
  EXPECT_EQ(f.apply(0b111), 0b111u);  // equal bits: no visible change
  EXPECT_EQ(f.apply(0b001), 0b001u);  // control low: identity
}

TEST(MixedGate, UncontrolledFredkinIsSwap) {
  const MixedGate f = MixedGate::fredkin(kConstOne, 0, 2);
  EXPECT_EQ(f.apply(0b001), 0b100u);
  EXPECT_EQ(f.apply(0b100), 0b001u);
  EXPECT_EQ(f.apply(0b010), 0b010u);
}

TEST(MixedGate, Validation) {
  EXPECT_THROW((void)MixedGate::fredkin(kConstOne, 1, 1),
               std::invalid_argument);
  EXPECT_THROW((void)MixedGate::fredkin(cube_of_var(0), 0, 1),
               std::invalid_argument);
}

TEST(MixedGate, RealizesThePaperFredkinSpec) {
  // Example 3: the Fredkin gate is the permutation {0,1,2,3,4,6,5,7}.
  const MixedGate f = MixedGate::fredkin(cube_of_var(2), 0, 1);
  const std::vector<std::uint64_t> expected{0, 1, 2, 3, 4, 6, 5, 7};
  for (std::uint64_t x = 0; x < 8; ++x) EXPECT_EQ(f.apply(x), expected[x]);
}

TEST(MixedCircuit, ToToffoliExpandsTriples) {
  MixedCircuit mc(3);
  mc.append(MixedGate::fredkin(cube_of_var(2), 0, 1));
  const Circuit c = mc.to_toffoli();
  EXPECT_EQ(c.gate_count(), 3);
  for (std::uint64_t x = 0; x < 8; ++x) {
    EXPECT_EQ(c.simulate(x), mc.simulate(x));
  }
}

TEST(MixedCircuit, RejectsOutOfRangeGate) {
  MixedCircuit mc(2);
  EXPECT_THROW(mc.append(MixedGate::fredkin(kConstOne, 0, 2)),
               std::invalid_argument);
}

TEST(MixedCircuit, CostUsesDirectFredkin3) {
  MixedCircuit mc(3);
  mc.append(MixedGate::fredkin(cube_of_var(2), 0, 1));
  EXPECT_EQ(quantum_cost(mc), 5);  // direct realization, like TOF3
  // A wider Fredkin prices as the equal-width Toffoli plus two CNOTs.
  MixedCircuit wide(5);
  wide.append(
      MixedGate::fredkin(cube_of_var(2) | cube_of_var(3) | cube_of_var(4), 0, 1));
  EXPECT_EQ(quantum_cost(wide), toffoli_cost(5, 0) + 2);
}

TEST(Fredkinize, ExtractsAdjacentTriple) {
  // TOF3(c, b; a) TOF3(c, a; b) TOF3(c, b; a) = FRE3(c; a, b).
  Circuit c(3);
  const Gate outer(cube_of_var(2) | cube_of_var(1), 0);
  const Gate inner(cube_of_var(2) | cube_of_var(0), 1);
  c.append(outer);
  c.append(inner);
  c.append(outer);
  const FredkinizeResult r = fredkinize(c);
  EXPECT_EQ(r.fredkin_gates, 1);
  EXPECT_EQ(r.circuit.gate_count(), 1);
  EXPECT_EQ(r.circuit.gates()[0].kind, MixedGate::Kind::kFredkin);
  for (std::uint64_t x = 0; x < 8; ++x) {
    EXPECT_EQ(r.circuit.simulate(x), c.simulate(x));
  }
}

TEST(Fredkinize, ExtractsThroughCommutingGates) {
  Circuit c(4);
  const Gate outer(cube_of_var(2) | cube_of_var(1), 0);
  const Gate inner(cube_of_var(2) | cube_of_var(0), 1);
  const Gate bystander(cube_of_var(2), 3);  // commutes with the outer gate
  c.append(outer);
  c.append(bystander);
  c.append(inner);
  c.append(outer);
  const FredkinizeResult r = fredkinize(c);
  EXPECT_EQ(r.fredkin_gates, 1);
  EXPECT_EQ(r.circuit.gate_count(), 2);
  for (std::uint64_t x = 0; x < 16; ++x) {
    EXPECT_EQ(r.circuit.simulate(x), c.simulate(x));
  }
}

TEST(Fredkinize, LeavesBlockedPatternsAlone) {
  Circuit c(3);
  const Gate outer(cube_of_var(2) | cube_of_var(1), 0);
  const Gate inner(cube_of_var(2) | cube_of_var(0), 1);
  const Gate blocker(cube_of_var(0), 2);  // writes a control of `outer`
  c.append(outer);
  c.append(blocker);
  c.append(inner);
  c.append(outer);
  const FredkinizeResult r = fredkinize(c);
  EXPECT_EQ(r.fredkin_gates, 0);
  EXPECT_EQ(r.circuit.gate_count(), 4);
}

TEST(Fredkinize, SynthesizedFredkinSpecCollapsesToOneGate) {
  // Synthesize Example 3 and extract: one Fredkin gate remains.
  SynthesisOptions o;
  o.max_nodes = 50000;
  const TruthTable spec({0, 1, 2, 3, 4, 6, 5, 7});
  const SynthesisResult s = synthesize(spec, o);
  ASSERT_TRUE(s.success);
  const FredkinizeResult r = fredkinize(s.circuit);
  EXPECT_EQ(r.circuit.gate_count(), 1);
  EXPECT_EQ(r.circuit.gates()[0].kind, MixedGate::Kind::kFredkin);
}

class FredkinizeProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(FredkinizeProperty, PreservesFunctionAndRoundTrips) {
  std::mt19937_64 rng(GetParam());
  Circuit c = random_circuit(4, 12, GateLibrary::kNCT, rng);
  // Inject a swap triple so there is usually something to find.
  const Gate outer(cube_of_var(3) | cube_of_var(1), 0);
  const Gate inner(cube_of_var(3) | cube_of_var(0), 1);
  c.append(outer);
  c.append(inner);
  c.append(outer);
  const FredkinizeResult r = fredkinize(c);
  EXPECT_LE(r.circuit.gate_count(), c.gate_count());
  for (std::uint64_t x = 0; x < 16; ++x) {
    EXPECT_EQ(r.circuit.simulate(x), c.simulate(x));
  }
  // Expanding back to Toffoli gates preserves the function too.
  const Circuit back = r.circuit.to_toffoli();
  for (std::uint64_t x = 0; x < 16; ++x) {
    EXPECT_EQ(back.simulate(x), c.simulate(x));
  }
  // Cost never increases under extraction.
  EXPECT_LE(quantum_cost(r.circuit), quantum_cost(c));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FredkinizeProperty,
                         ::testing::Range(300u, 315u));

}  // namespace
}  // namespace rmrls
