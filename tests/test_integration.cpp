// End-to-end integration tests: the full pipelines a user of the library
// would run, crossing every module boundary.

#include <gtest/gtest.h>

#include <bit>

#include "baselines/transformation_based.hpp"
#include "bench_suite/registry.hpp"
#include "core/synthesizer.hpp"
#include "io/spec.hpp"
#include "io/tfc.hpp"
#include "rev/embedding.hpp"
#include "rev/quantum_cost.hpp"
#include "templates/simplify.hpp"

namespace rmrls {
namespace {

TEST(Integration, EmbedSynthesizeVerifyAdder) {
  // The paper's Section II flow: irreversible augmented adder -> reversible
  // embedding -> RMRLS -> verified Toffoli cascade (Fig. 8 analogue).
  IrreversibleSpec spec;
  spec.num_inputs = 3;
  spec.num_outputs = 3;
  spec.outputs.resize(8);
  for (std::uint64_t x = 0; x < 8; ++x) {
    const int ones = std::popcount(x);
    const int a = static_cast<int>(x & 1);
    const int b = static_cast<int>((x >> 1) & 1);
    spec.outputs[x] = static_cast<std::uint64_t>((ones >= 2) | ((ones & 1) << 1) |
                                                 ((a ^ b) << 2));
  }
  const Embedding e = embed(spec);
  SynthesisOptions o;
  o.max_nodes = 100000;
  const SynthesisResult r = synthesize(e.table, o);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(implements(r.circuit, e.table));
  // The paper's hand-crafted embedding (Fig. 2(b), tested via Example 8)
  // needs 4 gates; our automatic occurrence-counter embedding is a harder
  // function, so allow headroom while still catching regressions.
  EXPECT_LE(r.circuit.gate_count(), 16);
}

TEST(Integration, SynthesizeWriteTfcReadVerify) {
  const TruthTable spec({7, 1, 4, 3, 0, 2, 6, 5});  // 3_17
  SynthesisOptions o;
  o.max_nodes = 20000;
  const SynthesisResult r = synthesize(spec, o);
  ASSERT_TRUE(r.success);
  const Circuit back = read_tfc(write_tfc(r.circuit));
  EXPECT_TRUE(implements(back, spec));
}

TEST(Integration, BenchmarkPipelineSmall) {
  // Synthesize a couple of Table IV entries end to end and verify against
  // both representations.
  SynthesisOptions o;
  o.max_nodes = 60000;
  for (const char* name : {"3_17", "rd32", "xor5", "graycode6"}) {
    const suite::Benchmark b = suite::get_benchmark(name);
    const SynthesisResult r = synthesize(b.pprm, o);
    ASSERT_TRUE(r.success) << name;
    EXPECT_TRUE(implements(r.circuit, b.pprm)) << name;
    if (b.table) {
      EXPECT_TRUE(implements(r.circuit, *b.table)) << name;
    }
    EXPECT_GT(quantum_cost(r.circuit), 0) << name;
  }
}

TEST(Integration, LinearBenchmarksSynthesizeAtPaperSize) {
  // graycode6 must come out as 5 CNOTs, cost 5 (Table IV exact match).
  SynthesisOptions o;
  o.max_nodes = 60000;
  const suite::Benchmark g6 = suite::get_benchmark("graycode6");
  const SynthesisResult r = synthesize(g6.pprm, o);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.circuit.gate_count(), 5);
  EXPECT_EQ(quantum_cost(r.circuit), 5);
  // xor5: 4 CNOTs, cost 4.
  const suite::Benchmark x5 = suite::get_benchmark("xor5");
  const SynthesisResult rx = synthesize(x5.pprm, o);
  ASSERT_TRUE(rx.success);
  EXPECT_EQ(rx.circuit.gate_count(), 4);
  EXPECT_EQ(quantum_cost(rx.circuit), 4);
}

TEST(Integration, WideStructuralBenchmarkSynthesizes) {
  // shift10 (12 lines) exercises the no-truth-table path end to end.
  SynthesisOptions o;
  o.max_nodes = 50000;
  o.stop_at_first_solution = true;
  const suite::Benchmark s = suite::get_benchmark("shift10");
  const SynthesisResult r = synthesize(s.pprm, o);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(implements(r.circuit, s.pprm));
}

TEST(Integration, MmdPlusTemplatesVersusRmrls) {
  // Both synthesis routes end at a correct circuit; RMRLS should not be
  // dramatically worse than MMD on a small benchmark.
  const TruthTable spec = *suite::get_benchmark("3_17").table;
  SynthesisOptions o;
  o.max_nodes = 20000;
  const SynthesisResult rmrls_result = synthesize(spec, o);
  const Circuit mmd = simplify_templates(synthesize_transformation_bidir(spec))
                          .circuit;
  ASSERT_TRUE(rmrls_result.success);
  EXPECT_TRUE(implements(mmd, spec));
  EXPECT_LE(rmrls_result.circuit.gate_count(), mmd.gate_count() + 2);
}

TEST(Integration, SpecStringToCircuitString) {
  // The CLI's core path: parse -> synthesize -> render.
  const TruthTable spec = parse_permutation_spec("{1, 0, 7, 2, 3, 4, 5, 6}");
  SynthesisOptions o;
  o.max_nodes = 20000;
  const SynthesisResult r = synthesize(spec, o);
  ASSERT_TRUE(r.success);
  EXPECT_FALSE(r.circuit.to_string().empty());
  EXPECT_EQ(r.circuit.to_string().find("TOF"), 0u);
}

}  // namespace
}  // namespace rmrls
