// Tests for the baseline synthesizers: greedy PPRM, the Miller-Maslov-Dueck
// transformation-based algorithm, and the BFS optimal-count oracle.

#include <gtest/gtest.h>

#include <random>

#include "baselines/greedy_pprm.hpp"
#include "baselines/optimal_bfs.hpp"
#include "baselines/transformation_based.hpp"
#include "core/synthesizer.hpp"
#include "rev/random.hpp"

namespace rmrls {
namespace {

TEST(TransformationBased, AlwaysCorrectOnRandomFunctions) {
  std::mt19937_64 rng(41);
  for (int n = 1; n <= 6; ++n) {
    for (int trial = 0; trial < 10; ++trial) {
      const TruthTable spec = random_reversible_function(n, rng);
      const Circuit c = synthesize_transformation_based(spec);
      EXPECT_TRUE(implements(c, spec)) << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(TransformationBased, IdentityYieldsEmptyCircuit) {
  EXPECT_EQ(synthesize_transformation_based(TruthTable::identity(4))
                .gate_count(),
            0);
}

TEST(TransformationBased, GateBoundHolds) {
  // The constructive bound: each of the 2^n rows needs at most 2n gates.
  std::mt19937_64 rng(42);
  const int n = 5;
  const TruthTable spec = random_reversible_function(n, rng);
  const Circuit c = synthesize_transformation_based(spec);
  EXPECT_LE(c.gate_count(), 2 * n << n);
}

TEST(TransformationBased, HandlesFZeroSpecially) {
  // f(0) != 0 requires leading NOTs (the DAC'03 base case).
  const TruthTable spec({7, 0, 1, 2, 3, 4, 5, 6});
  const Circuit c = synthesize_transformation_based(spec);
  EXPECT_TRUE(implements(c, spec));
}

TEST(TransformationBidir, AlwaysCorrectOnRandomFunctions) {
  std::mt19937_64 rng(43);
  for (int n = 1; n <= 6; ++n) {
    for (int trial = 0; trial < 10; ++trial) {
      const TruthTable spec = random_reversible_function(n, rng);
      const Circuit c = synthesize_transformation_bidir(spec);
      EXPECT_TRUE(implements(c, spec)) << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(TransformationBidir, NeverWorseOnAverageSample) {
  // Bidirectional chooses the cheaper side per row; over a sample it must
  // not lose to the basic variant in total.
  std::mt19937_64 rng(44);
  long basic_total = 0;
  long bidir_total = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const TruthTable spec = random_reversible_function(4, rng);
    basic_total += synthesize_transformation_based(spec).gate_count();
    bidir_total += synthesize_transformation_bidir(spec).gate_count();
  }
  EXPECT_LE(bidir_total, basic_total);
}

TEST(TransformationPerm, AlwaysCorrectAndNeverWorseThanBidir) {
  std::mt19937_64 rng(48);
  for (int n = 2; n <= 4; ++n) {
    for (int trial = 0; trial < 8; ++trial) {
      const TruthTable spec = random_reversible_function(n, rng);
      const Circuit c = synthesize_transformation_perm(spec);
      EXPECT_TRUE(implements(c, spec)) << spec.to_string();
      EXPECT_LE(c.gate_count(),
                synthesize_transformation_bidir(spec).gate_count());
    }
  }
}

TEST(TransformationPerm, WireSwapCostsOnlyTheSwapNetwork) {
  // A pure wire swap relabels to the identity under the right pi, so the
  // synthesized core is empty and only the 3-CNOT undo network remains.
  const TruthTable swap_ab({0, 2, 1, 3});
  const Circuit c = synthesize_transformation_perm(swap_ab);
  EXPECT_TRUE(implements(c, swap_ab));
  EXPECT_LE(c.gate_count(), 3);
}

TEST(TransformationPerm, RejectsWideFunctions) {
  std::mt19937_64 rng(49);
  EXPECT_THROW(
      synthesize_transformation_perm(random_reversible_function(7, rng)),
      std::invalid_argument);
}

TEST(GreedyPprm, SolvesEasyFunctionsAndVerifies) {
  const TruthTable fig1({1, 0, 7, 2, 3, 4, 5, 6});
  const SynthesisResult r = synthesize_greedy(fig1);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(implements(r.circuit, fig1));
  EXPECT_EQ(r.circuit.gate_count(), 3);
}

TEST(GreedyPprm, ReportsFailureHonestly) {
  // Pure wire swap: greedy has no productive first move.
  const SynthesisResult r = synthesize_greedy(TruthTable({0, 2, 1, 3}));
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.circuit.gate_count(), 0);
}

TEST(OptimalBfs, NctHistogramMatchesShendeTable) {
  // The Optimal [16] NCT column of the paper's Table I, exactly.
  const OptimalCounts3 opt(OptimalLibrary::kNCT);
  const std::vector<std::uint64_t> expected = {1,    12,   102,  625,  2780,
                                               8921, 17049, 10253, 577};
  ASSERT_EQ(opt.histogram().size(), expected.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    EXPECT_EQ(opt.histogram()[d], expected[d]) << "depth " << d;
  }
  EXPECT_NEAR(opt.average(), 5.87, 0.005);
}

TEST(OptimalBfs, NctsHistogramMatchesShendeTable) {
  // The Optimal [16] NCTS column: max depth 8, 32 functions at depth 8.
  const OptimalCounts3 opt(OptimalLibrary::kNCTS);
  const std::vector<std::uint64_t> expected = {1,    15,   134,  844, 3752,
                                               11194, 17531, 6817, 32};
  ASSERT_EQ(opt.histogram().size(), expected.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    EXPECT_EQ(opt.histogram()[d], expected[d]) << "depth " << d;
  }
  EXPECT_NEAR(opt.average(), 5.63, 0.005);
}

TEST(OptimalBfs, DistanceOracleAgreesWithKnownCircuits) {
  const OptimalCounts3 opt(OptimalLibrary::kNCT);
  EXPECT_EQ(opt.distance(TruthTable::identity(3)), 0);
  EXPECT_EQ(opt.distance(TruthTable({1, 0, 3, 2, 5, 4, 7, 6})), 1);  // NOT a
  // 3_17 is known to need 6 NCT gates.
  EXPECT_EQ(opt.distance(TruthTable({7, 1, 4, 3, 0, 2, 6, 5})), 6);
}

TEST(OptimalBfs, LowerBoundsEverySynthesizer) {
  const OptimalCounts3 opt(OptimalLibrary::kNCT);
  std::mt19937_64 rng(45);
  SynthesisOptions o;
  o.max_nodes = 20000;
  for (int trial = 0; trial < 20; ++trial) {
    const TruthTable spec = random_reversible_function(3, rng);
    const SynthesisResult r = synthesize(spec, o);
    ASSERT_TRUE(r.success);
    EXPECT_GE(r.circuit.gate_count(), opt.distance(spec));
    EXPECT_GE(synthesize_transformation_bidir(spec).gate_count(),
              opt.distance(spec));
  }
}

TEST(OptimalBfs, PackRejectsWrongWidth) {
  EXPECT_THROW((void)OptimalCounts3::pack(TruthTable::identity(2)),
               std::invalid_argument);
}

TEST(OptimalBfs, ExtractedCircuitsAreOptimalAndCorrect) {
  const OptimalCounts3 opt(OptimalLibrary::kNCT);
  std::mt19937_64 rng(46);
  for (int trial = 0; trial < 25; ++trial) {
    const TruthTable spec = random_reversible_function(3, rng);
    const MixedCircuit c = opt.circuit(spec);
    EXPECT_EQ(c.gate_count(), opt.distance(spec));
    for (std::uint64_t x = 0; x < 8; ++x) {
      EXPECT_EQ(c.simulate(x), spec.apply(x));
    }
  }
  EXPECT_EQ(opt.circuit(TruthTable::identity(3)).gate_count(), 0);
}

TEST(OptimalBfs, NctsCircuitsUseSwapGates) {
  // The wire swap {0,2,1,3,...} on 3 lines is one SWAP in NCTS but three
  // CNOTs in NCT.
  const TruthTable swap_ab({0, 2, 1, 3, 4, 6, 5, 7});
  const OptimalCounts3 nct(OptimalLibrary::kNCT);
  const OptimalCounts3 ncts(OptimalLibrary::kNCTS);
  EXPECT_EQ(nct.distance(swap_ab), 3);
  EXPECT_EQ(ncts.distance(swap_ab), 1);
  const MixedCircuit c = ncts.circuit(swap_ab);
  ASSERT_EQ(c.gate_count(), 1);
  EXPECT_EQ(c.gates()[0].kind, MixedGate::Kind::kFredkin);
  for (std::uint64_t x = 0; x < 8; ++x) {
    EXPECT_EQ(c.simulate(x), swap_ab.apply(x));
  }
}

TEST(SynthesizeBidirectional, NeverWorseThanForwardAlone) {
  std::mt19937_64 rng(47);
  SynthesisOptions o;
  o.max_nodes = 20000;
  for (int trial = 0; trial < 10; ++trial) {
    const TruthTable spec = random_reversible_function(3, rng);
    const SynthesisResult fwd = synthesize(spec, o);
    SynthesisOptions both = o;
    both.max_nodes = 2 * o.max_nodes;  // same total effort
    const SynthesisResult bi = synthesize_bidirectional(spec, both);
    ASSERT_TRUE(bi.success);
    EXPECT_TRUE(implements(bi.circuit, spec));
    if (fwd.success) {
      EXPECT_LE(bi.circuit.gate_count(), fwd.circuit.gate_count());
    }
  }
}

}  // namespace
}  // namespace rmrls
