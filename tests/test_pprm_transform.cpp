// Tests for the GF(2) Moebius (Reed-Muller) transform and PPRM extraction.

#include "rev/pprm_transform.hpp"

#include <gtest/gtest.h>

#include <random>

#include "rev/random.hpp"

namespace rmrls {
namespace {

TEST(ReedMuller, KnownSmallTransform) {
  // f(x) = x0 AND x1 has PPRM "ab" only.
  std::vector<std::uint8_t> f{0, 0, 0, 1};
  reed_muller_transform(f);
  EXPECT_EQ(f, (std::vector<std::uint8_t>{0, 0, 0, 1}));
  // f(x) = x0 OR x1 = a + b + ab.
  f = {0, 1, 1, 1};
  reed_muller_transform(f);
  EXPECT_EQ(f, (std::vector<std::uint8_t>{0, 1, 1, 1}));
  // f(x) = NOT x0 = 1 + a.
  f = {1, 0, 1, 0};
  reed_muller_transform(f);
  EXPECT_EQ(f, (std::vector<std::uint8_t>{1, 1, 0, 0}));
}

TEST(ReedMuller, RejectsNonPowerOfTwo) {
  std::vector<std::uint8_t> f{0, 1, 0};
  EXPECT_THROW(reed_muller_transform(f), std::invalid_argument);
}

TEST(ReedMuller, Fig1ExpansionMatchesPaper) {
  // The paper derives (eq. 3): a_o = a + 1, b_o = b + c + ac,
  // c_o = b + ab + ac for the function of Fig. 1.
  const TruthTable fig1({1, 0, 7, 2, 3, 4, 5, 6});
  const Pprm p = pprm_of_truth_table(fig1);
  EXPECT_EQ(p.output(0).to_string(3), "1 + a");
  EXPECT_EQ(p.output(1).to_string(3), "b + c + ac");
  EXPECT_EQ(p.output(2).to_string(3), "b + ab + ac");
}

class TransformRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(TransformRoundTrip, TransformIsInvolution) {
  const int n = GetParam();
  std::mt19937_64 rng(17 + static_cast<unsigned>(n));
  std::uniform_int_distribution<int> bit(0, 1);
  std::vector<std::uint8_t> f(std::size_t{1} << n);
  for (auto& v : f) v = static_cast<std::uint8_t>(bit(rng));
  std::vector<std::uint8_t> copy = f;
  reed_muller_transform(copy);
  reed_muller_transform(copy);
  EXPECT_EQ(copy, f);
}

TEST_P(TransformRoundTrip, TableToPprmToTableIsIdentity) {
  const int n = GetParam();
  std::mt19937_64 rng(99 + static_cast<unsigned>(n));
  for (int trial = 0; trial < 10; ++trial) {
    const TruthTable tt = random_reversible_function(n, rng);
    const Pprm p = pprm_of_truth_table(tt);
    EXPECT_EQ(truth_table_of_pprm(p), tt);
  }
}

TEST_P(TransformRoundTrip, PprmEvalMatchesTable) {
  const int n = GetParam();
  std::mt19937_64 rng(7 + static_cast<unsigned>(n));
  const TruthTable tt = random_reversible_function(n, rng);
  const Pprm p = pprm_of_truth_table(tt);
  for (std::uint64_t x = 0; x < tt.size(); ++x) {
    EXPECT_EQ(p.eval(x), tt.apply(x));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, TransformRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8));

// The bit-sliced pprm_of_truth_table against the byte-wise transform of
// each output's truth vector: the same terms, hence the same hash.
TEST(PprmOfTruthTable, MatchesPerOutputTruthVectors) {
  std::mt19937_64 rng(31);
  for (int n = 1; n <= 14; ++n) {
    const TruthTable tables[] = {
        random_reversible_function(n, rng),
        random_circuit(n, 4 * n, GateLibrary::kNCT, rng).to_truth_table()};
    for (const TruthTable& tt : tables) {
      Pprm expected(n);
      std::vector<std::uint8_t> f(tt.size());
      for (int out = 0; out < n; ++out) {
        for (std::uint64_t x = 0; x < tt.size(); ++x) {
          f[x] = static_cast<std::uint8_t>((tt.apply(x) >> out) & 1);
        }
        expected.output(out) = pprm_of_truth_vector(f);
      }
      const Pprm got = pprm_of_truth_table(tt);
      EXPECT_EQ(got, expected) << "n=" << n;
      EXPECT_EQ(got.hash(), expected.hash()) << "n=" << n;
    }
  }
}

TEST(PprmOfTruthVector, ConstantFunctions) {
  EXPECT_TRUE(pprm_of_truth_vector({0, 0, 0, 0}).empty());
  const CubeList one = pprm_of_truth_vector({1, 1, 1, 1});
  EXPECT_EQ(one.size(), 1);
  EXPECT_TRUE(one.contains(kConstOne));
}

TEST(TruthTableOfPprm, RejectsNonBijectiveSystem) {
  Pprm p(2);  // all outputs zero: constant, not a permutation
  EXPECT_THROW(truth_table_of_pprm(p), std::invalid_argument);
}

}  // namespace
}  // namespace rmrls
