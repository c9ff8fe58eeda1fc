// Tests for candidate-substitution enumeration (Sections IV-A and IV-D).

#include "core/factor_enum.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "rev/pprm_transform.hpp"
#include "rev/truth_table.hpp"

namespace rmrls {
namespace {

bool has(const std::vector<Candidate>& v, int target, Cube factor) {
  return std::any_of(v.begin(), v.end(), [&](const Candidate& c) {
    return c.target == target && c.factor == factor;
  });
}

Pprm fig1() {
  return pprm_of_truth_table(TruthTable({1, 0, 7, 2, 3, 4, 5, 6}));
}

TEST(FactorEnum, BasicSubstitutionsMatchPaperExample) {
  // Section IV-B: from Fig. 1's expansions the basic algorithm identifies
  // a = a XOR 1, b = b XOR c, b = b XOR ac.
  SynthesisOptions o;
  o.additional_substitutions = false;
  const auto cands = enumerate_candidates(fig1(), o, nullptr);
  EXPECT_EQ(cands.size(), 3u);
  EXPECT_TRUE(has(cands, 0, kConstOne));
  EXPECT_TRUE(has(cands, 1, cube_of_var(2)));
  EXPECT_TRUE(has(cands, 1, cube_of_var(0) | cube_of_var(2)));
}

TEST(FactorEnum, AdditionalSubstitutionsMatchPaperExample) {
  // Section IV-D: relaxing the solitary-term requirement adds c = c XOR b
  // and c = c XOR ab; the complement class adds b = b XOR 1 and
  // c = c XOR 1 (Fig. 6).
  SynthesisOptions o;  // on by default
  const auto cands = enumerate_candidates(fig1(), o, nullptr);
  EXPECT_TRUE(has(cands, 2, cube_of_var(1)));
  EXPECT_TRUE(has(cands, 2, cube_of_var(0) | cube_of_var(1)));
  EXPECT_TRUE(has(cands, 1, kConstOne));
  EXPECT_TRUE(has(cands, 2, kConstOne));
  EXPECT_EQ(cands.size(), 7u);
}

TEST(FactorEnum, FactorsNeverContainTheTarget) {
  SynthesisOptions o;
  const Pprm p = pprm_of_truth_table(TruthTable({3, 0, 2, 7, 1, 4, 6, 5}));
  for (const Candidate& c : enumerate_candidates(p, o, nullptr)) {
    EXPECT_FALSE(cube_has_var(c.factor, c.target));
  }
}

TEST(FactorEnum, SkipSuppressesOneCandidate) {
  SynthesisOptions o;
  const Pprm p = fig1();
  const auto all = enumerate_candidates(p, o, nullptr);
  const Candidate skip{1, cube_of_var(2)};
  const auto fewer = enumerate_candidates(p, o, &skip);
  EXPECT_EQ(fewer.size() + 1, all.size());
  EXPECT_FALSE(has(fewer, 1, cube_of_var(2)));
}

TEST(FactorEnum, ComplementOfferedOncePerTarget) {
  // a_out contains the constant term already; the complement class must
  // not duplicate (a, 1).
  SynthesisOptions o;
  const auto cands = enumerate_candidates(fig1(), o, nullptr);
  const auto count = std::count_if(
      cands.begin(), cands.end(),
      [](const Candidate& c) { return c.target == 0 && c.factor == 0; });
  EXPECT_EQ(count, 1);
}

TEST(FactorEnum, IdentityYieldsOnlyComplements) {
  SynthesisOptions o;
  const auto cands = enumerate_candidates(Pprm::identity(3), o, nullptr);
  EXPECT_EQ(cands.size(), 3u);
  for (const Candidate& c : cands) EXPECT_TRUE(c.is_complement());
}

TEST(FactorEnum, BasicOnlyOffersNoComplementForMissingConstants) {
  SynthesisOptions o;
  o.additional_substitutions = false;
  const auto cands = enumerate_candidates(Pprm::identity(3), o, nullptr);
  EXPECT_TRUE(cands.empty());
}

}  // namespace
}  // namespace rmrls
