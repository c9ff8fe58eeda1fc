// Tests for the orbit canonicalizer (rev/canonical.hpp): round-trips,
// orbit-invariance of the key across both candidate sets, the fallback
// behaviours, concurrent use, and the tie rule for the stored transform
// against a brute-force scan.

#include "rev/canonical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "rev/equivalence.hpp"
#include "rev/random.hpp"

namespace rmrls {
namespace {

std::vector<int> random_sigma(int n, std::mt19937_64& rng) {
  std::vector<int> sigma(n);
  std::iota(sigma.begin(), sigma.end(), 0);
  std::shuffle(sigma.begin(), sigma.end(), rng);
  return sigma;
}

TEST(Canonical, ConjugateRelabelsWires) {
  // f(x) = x ^ 1 flips wire 0; conjugating by sigma with sigma[0] = 2 must
  // yield x ^ 4.
  TruthTable f({1, 0, 3, 2, 5, 4, 7, 6});
  const TruthTable g = conjugate(f, {2, 0, 1});
  for (std::uint64_t x = 0; x < 8; ++x) EXPECT_EQ(g(x), x ^ 4u);
  EXPECT_THROW((void)conjugate(f, {0, 1}), std::invalid_argument);
  EXPECT_THROW((void)conjugate(f, {0, 0, 1}), std::invalid_argument);
}

TEST(Canonical, SpecRoundTripsThroughTransform) {
  std::mt19937_64 rng(1001);
  for (int n = 3; n <= 8; ++n) {
    for (int rep = 0; rep < 8; ++rep) {
      const TruthTable spec = random_reversible_function(n, rng);
      const CanonicalForm form = canonicalize(spec);
      EXPECT_EQ(reconstruct_spec(form.representative, form.transform), spec)
          << "n=" << n << " rep=" << rep;
    }
  }
}

TEST(Canonical, CircuitRoundTripsToEquivalence) {
  // A circuit for the representative, reconstructed through the transform,
  // must realize the original function exactly — the property the cache
  // relies on for every hit.
  std::mt19937_64 rng(1002);
  for (int n = 3; n <= 8; ++n) {
    for (int rep = 0; rep < 6; ++rep) {
      const Circuit c = random_circuit(n, 3 * n, GateLibrary::kGT, rng);
      const TruthTable spec = c.to_truth_table();
      const CanonicalForm form = canonicalize(spec);
      const Circuit canonical = canonical_circuit_of(c, form.transform);
      EXPECT_EQ(canonical.to_truth_table(), form.representative);
      const Circuit rebuilt = reconstruct_circuit(canonical, form.transform);
      EXPECT_TRUE(equivalent(rebuilt, c)) << "n=" << n << " rep=" << rep;
    }
  }
}

TEST(Canonical, OrbitMembersShareRepresentativeAndKey) {
  // Random conjugations and inversions of one spec must all canonicalize
  // to the identical representative and key — in the exact regime
  // (n <= 6) and the signature-pruned one (n = 7, 8) alike.
  std::mt19937_64 rng(1003);
  for (int n = 3; n <= 8; ++n) {
    for (int rep = 0; rep < 4; ++rep) {
      const TruthTable spec = random_reversible_function(n, rng);
      const CanonicalForm base = canonicalize(spec);
      for (int k = 0; k < 6; ++k) {
        TruthTable member = conjugate(spec, random_sigma(n, rng));
        if (rng() & 1u) member = member.inverse();
        const CanonicalForm form = canonicalize(member);
        EXPECT_EQ(form.representative, base.representative)
            << "n=" << n << " rep=" << rep << " k=" << k;
        EXPECT_EQ(form.key, base.key);
        EXPECT_EQ(reconstruct_spec(form.representative, form.transform),
                  member);
      }
    }
  }
}

TEST(Canonical, RepresentativeIsAFixpoint) {
  std::mt19937_64 rng(1004);
  for (int n = 3; n <= 7; ++n) {
    const TruthTable spec = random_reversible_function(n, rng);
    const CanonicalForm form = canonicalize(spec);
    const CanonicalForm again = canonicalize(form.representative);
    EXPECT_EQ(again.representative, form.representative);
    EXPECT_EQ(again.key, form.key);
  }
}

TEST(Canonical, WidthCapFallsBackToIdentityOrbit) {
  std::mt19937_64 rng(1005);
  const TruthTable spec = random_reversible_function(5, rng);
  CanonicalOptions options;
  options.max_vars = 4;
  const CanonicalForm form = canonicalize(spec, options);
  EXPECT_TRUE(form.transform.is_identity());
  EXPECT_EQ(form.representative, spec);
  // Exact resubmission still keys identically.
  EXPECT_EQ(canonicalize(spec, options).key, form.key);
}

TEST(Canonical, CandidateBudgetFallsBackToIdentityOrbit) {
  // With a one-candidate budget in the signature regime, any spec whose
  // signature blocks admit more than one relabeling must degrade to the
  // identity orbit instead of scanning.
  std::mt19937_64 rng(1006);
  const TruthTable spec = random_reversible_function(7, rng);
  CanonicalOptions options;
  options.max_candidates = 0;
  const CanonicalForm form = canonicalize(spec, options);
  EXPECT_TRUE(form.transform.is_identity());
  EXPECT_EQ(form.representative, spec);
}

TEST(Canonical, IdentityAndTrivialSpecs) {
  const CanonicalForm id = canonicalize(TruthTable::identity(4));
  EXPECT_EQ(id.representative, TruthTable::identity(4));
  // One-variable orbit: NOT is its own representative under both group
  // actions (the only sigma is the identity, and NOT is self-inverse).
  const CanonicalForm not1 = canonicalize(TruthTable({1, 0}));
  EXPECT_EQ(not1.representative, TruthTable({1, 0}));
}

TEST(Canonical, SingleWireFlipsShareOneOrbit) {
  // x ^ 1, x ^ 2 and x ^ 4 on three wires are all relabelings of each
  // other.
  const auto flip = [](int bit) {
    std::vector<std::uint64_t> image(8);
    for (std::uint64_t x = 0; x < 8; ++x) {
      image[x] = x ^ (std::uint64_t{1} << bit);
    }
    return TruthTable(std::move(image));
  };
  const std::uint64_t key = canonicalize(flip(0)).key;
  EXPECT_EQ(canonicalize(flip(1)).key, key);
  EXPECT_EQ(canonicalize(flip(2)).key, key);
}

TEST(Canonical, ConcurrentCanonicalizationIsRaceFree) {
  // The canonicalizer is called from every batch worker concurrently; it
  // must be a pure function of its arguments. Run under the tsan preset.
  std::mt19937_64 rng(1007);
  const TruthTable spec = random_reversible_function(6, rng);
  const CanonicalForm expected = canonicalize(spec);
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> keys(8, 0);
  threads.reserve(keys.size());
  for (std::size_t t = 0; t < keys.size(); ++t) {
    threads.emplace_back([&spec, &keys, t] {
      keys[t] = canonicalize(spec).key;
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::uint64_t k : keys) EXPECT_EQ(k, expected.key);
}

// Brute-force reference for the stored transform: every relabeling that
// keeps each wire within its block of equal signatures, in the order the
// transforms follow (each block's wires permuted lexicographically, the
// last block most significant), on the spec and then on its inverse,
// keeping the first strictly smaller image.
struct ReferenceForm {
  TruthTable representative;
  std::vector<int> sigma;
  bool inverted = false;
};

void reference_scan(const TruthTable& f, bool inverted, ReferenceForm& best) {
  const int n = f.num_vars();
  // Per input weight: how often each output bit is 1, and how often it
  // differs from the input bit.
  std::vector<std::vector<int>> sig(n, std::vector<int>(2 * (n + 1), 0));
  for (std::uint64_t x = 0; x < f.size(); ++x) {
    const int w = std::popcount(x);
    for (int i = 0; i < n; ++i) {
      sig[i][w] += static_cast<int>((f(x) >> i) & 1u);
      sig[i][n + 1 + w] += static_cast<int>(((f(x) ^ x) >> i) & 1u);
    }
  }
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return sig[a] < sig[b]; });
  std::vector<std::vector<int>> blocks;  // wires, ascending
  std::vector<int> first_position;
  for (int pos = 0; pos < n; ++pos) {
    if (pos == 0 || sig[order[pos]] != sig[order[pos - 1]]) {
      blocks.emplace_back();
      first_position.push_back(pos);
    }
    blocks.back().push_back(order[pos]);
  }
  std::vector<int> sigma(n);
  while (true) {
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      for (std::size_t j = 0; j < blocks[b].size(); ++j) {
        sigma[blocks[b][j]] = first_position[b] + static_cast<int>(j);
      }
    }
    const TruthTable candidate = conjugate(f, sigma);
    if (best.sigma.empty() ||
        candidate.image() < best.representative.image()) {
      best = {candidate, sigma, inverted};
    }
    std::size_t b = 0;
    while (b < blocks.size() &&
           !std::next_permutation(blocks[b].begin(), blocks[b].end())) {
      ++b;
    }
    if (b == blocks.size()) return;
  }
}

TEST(Canonical, TiedRelabelingsAcrossBlocksMatchBruteForce) {
  // Independent CNOTs on wire pairs, or Toffolis on wire triples: the
  // automorphisms permute the groups, so each moves wires of two or three
  // signature blocks at once, and the canonicalizer must pick the stored
  // relabeling among the tied ones itself. exact_max_vars = 0 puts every
  // width in the signature candidate sets.
  std::mt19937_64 rng(1008);
  CanonicalOptions options;
  options.exact_max_vars = 0;
  for (int n = 3; n <= 8; ++n) {
    for (const int group : {2, 3}) {
      std::vector<std::uint64_t> image(std::uint64_t{1} << n);
      for (std::uint64_t x = 0; x < image.size(); ++x) {
        image[x] = x;
        for (int i = 0; i + group <= n; i += group) {
          const std::uint64_t controls = ((std::uint64_t{1} << (group - 1)) - 1)
                                         << i;
          if ((x & controls) == controls) {
            image[x] ^= std::uint64_t{1} << (i + group - 1);
          }
        }
      }
      const TruthTable base(std::move(image));
      for (int k = 0; k < 4; ++k) {
        TruthTable spec = k == 0 ? base : conjugate(base, random_sigma(n, rng));
        if (k > 0 && (rng() & 1u) != 0) spec = spec.inverse();
        ReferenceForm expected;
        reference_scan(spec, false, expected);
        reference_scan(spec.inverse(), true, expected);
        const CanonicalForm form = canonicalize(spec, options);
        EXPECT_EQ(form.representative, expected.representative)
            << "n=" << n << " group=" << group << " k=" << k;
        EXPECT_EQ(form.transform.sigma, expected.sigma)
            << "n=" << n << " group=" << group << " k=" << k;
        EXPECT_EQ(form.transform.inverted, expected.inverted)
            << "n=" << n << " group=" << group << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace rmrls
