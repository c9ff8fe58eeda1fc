// Tests for the word-parallel dense PPRM kernel (rev/pprm_dense.hpp):
// construction, substitution in both word-move (t >= 6) and intra-word
// mask (t < 6) regimes, the one-word WordPprm states of n <= 6, and — the
// load-bearing property — full agreement with the sparse representation:
// equal spectra, equal substitute_delta, equal hashes, identical candidate
// enumerations, and bit-identical synthesized circuits. See
// docs/dense_pprm.md.

#include "rev/pprm_dense.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/factor_enum.hpp"
#include "core/synthesizer.hpp"
#include "rev/pprm_transform.hpp"
#include "rev/random.hpp"

namespace rmrls {
namespace {

Cube a() { return cube_of_var(0); }
Cube b() { return cube_of_var(1); }
Cube c() { return cube_of_var(2); }

TEST(DensePprm, IdentityMatchesSparse) {
  for (int n : {1, 3, 6, 7, 9}) {
    const DensePprm d = DensePprm::identity(n);
    EXPECT_TRUE(d.is_identity());
    EXPECT_EQ(d.term_count(), n);
    EXPECT_EQ(d.to_pprm(), Pprm::identity(n));
    EXPECT_EQ(d.hash(), Pprm::identity(n).hash());
  }
}

TEST(DensePprm, ConversionRoundTrip) {
  std::mt19937_64 rng(11);
  for (int n = 1; n <= 10; ++n) {
    const Pprm sparse =
        pprm_of_truth_table(random_reversible_function(n, rng));
    const DensePprm dense(sparse);
    EXPECT_EQ(dense.num_vars(), n);
    EXPECT_EQ(dense.term_count(), sparse.term_count());
    EXPECT_EQ(dense.to_pprm(), sparse);
    EXPECT_EQ(dense.hash(), sparse.hash());
  }
}

TEST(DensePprm, ConstructorRejectsOutOfRange) {
  EXPECT_THROW(DensePprm(-1), std::invalid_argument);
  EXPECT_THROW(DensePprm(kMaxDenseVariables + 1), std::invalid_argument);
  // The widest system is accepted and built: 2^20 words per output, about
  // 208 MiB in all.
  DensePprm widest;
  EXPECT_NO_THROW(widest = DensePprm(kMaxDenseVariables));
  EXPECT_EQ(widest.words_per_output(), std::size_t{1} << 20);
  EXPECT_EQ(widest.term_count(), 0);
  EXPECT_THROW((void)WordPprm(Pprm(WordPprm::kMaxVariables + 1)),
               std::invalid_argument);
}

TEST(DensePprm, SubstituteRejectsSelfTarget) {
  DensePprm d = DensePprm::identity(3);
  EXPECT_THROW(d.substitute(0, a()), std::invalid_argument);
  EXPECT_THROW(d.substitute(1, a() | b()), std::invalid_argument);
}

TEST(DensePprm, SubstituteMatchesSparseSmall) {
  // f_out = b + ab on output 0; substitute b <- b XOR c (intra-word,
  // t = 1 < 6) and compare term-for-term against the sparse result.
  Pprm sparse(3);
  sparse.output(0) = CubeList({b(), a() | b()});
  sparse.output(1) = CubeList({b()});
  sparse.output(2) = CubeList({c()});
  DensePprm dense(sparse);
  const int sd = sparse.substitute(1, c());
  const int dd = dense.substitute(1, c());
  EXPECT_EQ(sd, dd);
  EXPECT_EQ(dense.to_pprm(), sparse);
  EXPECT_EQ(dense.hash(), sparse.hash());
}

TEST(DensePprm, WordMoveRegimeMatchesSparse) {
  // n = 8 puts the spectrum at four words per output; targets t >= 6
  // exercise the whole-word gather/fold moves, targets t < 6 the masked
  // intra-word shifts, within the same system.
  std::mt19937_64 rng(12);
  const Pprm start =
      pprm_of_truth_table(random_reversible_function(8, rng));
  for (int t : {0, 3, 5, 6, 7}) {
    for (Cube f : {cube_of_var((t + 1) % 8),
                   cube_of_var((t + 1) % 8) | cube_of_var((t + 3) % 8),
                   kConstOne}) {
      if (f & cube_of_var(t)) continue;
      Pprm sparse = start;
      DensePprm dense(start);
      const int sd = sparse.substitute(t, f);
      const int dd = dense.substitute(t, f);
      EXPECT_EQ(sd, dd) << "t=" << t << " f=" << f;
      EXPECT_EQ(dense.to_pprm(), sparse) << "t=" << t << " f=" << f;
      EXPECT_EQ(dense.hash(), sparse.hash()) << "t=" << t << " f=" << f;
    }
  }
}

// At n <= 6 a spectrum is one word. WordPprm runs each output's
// substitution in a register; DensePprm runs the same system through its
// general word loop. For every target and every factor over the other
// variables (kConstOne, and at n = 6 the cubes containing v5 included),
// both must match the sparse substitution in delta, spectrum, hash, term
// count and is_identity, through substitute_delta and substitute_into
// (one destination reused across widths), and DensePprm through
// substitute too.
TEST(DensePprm, OneWordPathMatchesSparseForEveryTargetAndFactor) {
  std::mt19937_64 rng(16);
  std::mt19937_64 cascade_rng(17);
  DensePprm dst;
  WordPprm word_dst;
  for (int n = 1; n <= 6; ++n) {
    ASSERT_EQ(DensePprm(n).words_per_output(), 1u);
    for (int trial = 0; trial < 4; ++trial) {
      // Three random functions, then a start one gate from the identity,
      // so some substitutions reach it and is_identity is checked both
      // ways. The cascade draws from its own generator and leaves the
      // random functions' sequence alone.
      const Pprm start =
          trial < 3
              ? pprm_of_truth_table(random_reversible_function(n, rng))
              : random_circuit(n, 1, GateLibrary::kGT, cascade_rng).to_pprm();
      const DensePprm dense(start);
      const WordPprm word(start);
      ASSERT_EQ(word.to_pprm(), start);
      ASSERT_EQ(word.hash(), start.hash());
      ASSERT_EQ(word.term_count(), start.term_count());
      const Cube all = (Cube{1} << n) - 1;
      for (int t = 0; t < n; ++t) {
        const Cube others = all & ~cube_of_var(t);
        // Every subset of the other variables, kConstOne (0) last.
        for (Cube f = others;; f = (f - 1) & others) {
          SCOPED_TRACE(testing::Message()
                       << "n=" << n << " t=" << t << " f=" << f);
          Pprm sparse = start;
          const int sd = sparse.substitute_delta(t, f);
          ASSERT_EQ(sparse.substitute(t, f), sd);
          EXPECT_EQ(dense.substitute_delta(t, f), sd);
          EXPECT_EQ(dense.substitute_into(t, f, dst), sd);
          EXPECT_EQ(dst.to_pprm(), sparse);
          EXPECT_EQ(dst.hash(), sparse.hash());
          EXPECT_EQ(dst.term_count(), sparse.term_count());
          EXPECT_EQ(dst.is_identity(), sparse.is_identity());
          DensePprm in_place = dense;
          EXPECT_EQ(in_place.substitute(t, f), sd);
          EXPECT_EQ(in_place, dst);
          EXPECT_EQ(in_place.hash(), sparse.hash());

          EXPECT_EQ(word.substitute_delta(t, f), sd);
          EXPECT_EQ(word.substitute_into(t, f, word_dst), sd);
          EXPECT_EQ(word_dst.to_pprm(), sparse);
          EXPECT_EQ(word_dst.hash(), sparse.hash());
          EXPECT_EQ(word_dst.term_count(), sparse.term_count());
          EXPECT_EQ(word_dst.is_identity(), sparse.is_identity());
          if (f == kConstOne) break;
        }
      }
    }
  }
}

TEST(WordPprm, IdentityMatchesSparse) {
  for (int n = 0; n <= WordPprm::kMaxVariables; ++n) {
    const WordPprm w(Pprm::identity(n));
    EXPECT_TRUE(w.is_identity());
    EXPECT_EQ(w.term_count(), n);
    EXPECT_EQ(w.to_pprm(), Pprm::identity(n));
    EXPECT_EQ(w.hash(), Pprm::identity(n).hash());
  }
  WordPprm dst;
  EXPECT_THROW(WordPprm(Pprm::identity(3)).substitute_into(0, a(), dst),
               std::invalid_argument);
  EXPECT_THROW((void)WordPprm(Pprm::identity(3)).substitute_delta(1, b()),
               std::invalid_argument);
}

TEST(DensePprm, SubstituteIntoReusesPooledDestination) {
  std::mt19937_64 rng(13);
  const Pprm sparse =
      pprm_of_truth_table(random_reversible_function(7, rng));
  const DensePprm dense(sparse);
  DensePprmPool pool;
  // First use materializes into a default-constructed pooled system, the
  // second reuses the released buffers; both must agree with sparse.
  for (int round = 0; round < 2; ++round) {
    DensePprm dst = pool.acquire();
    const int dd = dense.substitute_into(0, b() | c(), dst);
    Pprm expect = sparse;
    const int sd = expect.substitute(0, b() | c());
    EXPECT_EQ(dd, sd);
    EXPECT_EQ(dst.to_pprm(), expect);
    pool.release(std::move(dst));
  }
}

TEST(DensePprm, EvalMatchesSparse) {
  std::mt19937_64 rng(14);
  for (int n : {3, 5, 8}) {
    const Pprm sparse =
        pprm_of_truth_table(random_reversible_function(n, rng));
    const DensePprm dense(sparse);
    for (std::uint64_t x = 0; x < (std::uint64_t{1} << n); ++x) {
      EXPECT_EQ(dense.eval(x), sparse.eval(x));
    }
  }
}

// Same order, not just same set: tie-breaking, greedy pruning and seq
// numbering in the engine all depend on it.
void expect_same_candidates(const std::vector<Candidate>& want,
                            const std::vector<Candidate>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].target, got[i].target);
    EXPECT_EQ(want[i].factor, got[i].factor);
    EXPECT_EQ(want[i].additional, got[i].additional);
  }
}

TEST(DensePprm, CandidateEnumerationMatchesSparse) {
  std::mt19937_64 rng(15);
  for (int n = 2; n <= 9; ++n) {
    const Pprm sparse =
        pprm_of_truth_table(random_reversible_function(n, rng));
    const DensePprm dense(sparse);
    for (const bool relaxed : {false, true}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " relaxed=" << relaxed);
      SynthesisOptions options;
      options.allow_relaxed_targets = relaxed;
      std::vector<Candidate> from_sparse;
      std::vector<Candidate> from_dense;
      enumerate_candidates_into(sparse, options, nullptr, from_sparse);
      enumerate_candidates_into(dense, options, nullptr, from_dense);
      expect_same_candidates(from_sparse, from_dense);
      if (n > WordPprm::kMaxVariables) continue;
      // The word overload, with and without a skipped candidate.
      std::vector<Candidate> from_word;
      enumerate_candidates_into(WordPprm(sparse), options, nullptr,
                                from_word);
      expect_same_candidates(from_sparse, from_word);
      if (from_sparse.empty()) continue;
      const Candidate skip = from_sparse[from_sparse.size() / 2];
      enumerate_candidates_into(sparse, options, &skip, from_sparse);
      enumerate_candidates_into(WordPprm(sparse), options, &skip,
                                from_word);
      expect_same_candidates(from_sparse, from_word);
    }
  }
}

// The randomized cross-representation property drive: identical random
// substitution sequences through both representations must keep the
// spectra, the read-only deltas, and the transposition-table hash keys in
// lockstep at every step.
TEST(DensePprm, RandomSubstitutionSequencesAgreeWithSparse) {
  std::mt19937_64 rng(0xd5eed);
  const SynthesisOptions options;  // default candidate rules
  for (int n = 3; n <= 10; ++n) {
    for (int trial = 0; trial < (n <= 6 ? 8 : 3); ++trial) {
      Pprm sparse =
          pprm_of_truth_table(random_reversible_function(n, rng));
      DensePprm dense(sparse);
      for (int step = 0; step < 12; ++step) {
        const std::vector<Candidate> cands =
            enumerate_candidates(sparse, options, nullptr);
        if (cands.empty()) break;
        const Candidate& pick = cands[rng() % cands.size()];
        // Read-only pricing agrees...
        const int sparse_delta =
            sparse.substitute_delta(pick.target, pick.factor);
        ASSERT_EQ(dense.substitute_delta(pick.target, pick.factor),
                  sparse_delta)
            << "n=" << n << " step=" << step;
        // ...and so do the applied substitution, the spectrum, and the
        // hash key the transposition table would dedup on.
        ASSERT_EQ(dense.substitute(pick.target, pick.factor),
                  sparse.substitute(pick.target, pick.factor));
        ASSERT_EQ(dense.term_count(), sparse.term_count());
        ASSERT_EQ(dense.to_pprm(), sparse) << "n=" << n << " step=" << step;
        ASSERT_EQ(dense.hash(), sparse.hash());
        ASSERT_EQ(dense.is_identity(), sparse.is_identity());
      }
    }
  }
}

// Equal hash keys mean equal dedup decisions only if unequal states keep
// unequal keys too (within collision odds): walk a sequence and check the
// dense hash changes exactly when the sparse hash changes.
TEST(DensePprm, HashDistinguishesStatesLikeSparse) {
  std::mt19937_64 rng(0xface);
  Pprm sparse = pprm_of_truth_table(random_reversible_function(5, rng));
  DensePprm dense(sparse);
  const SynthesisOptions options;
  std::size_t prev_sparse = sparse.hash();
  std::size_t prev_dense = dense.hash();
  ASSERT_EQ(prev_sparse, prev_dense);
  for (int step = 0; step < 20; ++step) {
    const std::vector<Candidate> cands =
        enumerate_candidates(sparse, options, nullptr);
    if (cands.empty()) break;
    const Candidate& pick = cands[rng() % cands.size()];
    sparse.substitute(pick.target, pick.factor);
    dense.substitute(pick.target, pick.factor);
    EXPECT_EQ(sparse.hash(), dense.hash());
    EXPECT_EQ(sparse.hash() == prev_sparse, dense.hash() == prev_dense);
    prev_sparse = sparse.hash();
    prev_dense = dense.hash();
  }
}

// The acceptance criterion of the adaptive switch: below the threshold the
// dense and sparse engines must synthesize bit-identical circuits (same
// gates in the same order) after expanding the same trees, not merely
// circuits of equal size. The dense side runs one-word states at n = 3..6
// and multi-word bitsets at n = 7.
TEST(DensePprm, EnginesProduceIdenticalCircuits) {
  std::mt19937_64 rng(0xc1c1);
  for (int n = 3; n <= 7; ++n) {
    for (int trial = 0; trial < (n == 3 ? 12 : n == 4 ? 4 : 3); ++trial) {
      // Random functions at n <= 4. Above, one random function, which
      // runs into the budget, then random cascades, which it solves.
      const bool cascade = n > 4 && trial > 0;
      const TruthTable spec =
          cascade ? random_circuit(n, 6, GateLibrary::kGT, rng)
                        .to_truth_table()
                  : random_reversible_function(n, rng);
      SCOPED_TRACE(testing::Message() << "n=" << n << " trial=" << trial);
      SynthesisOptions dense_opts;
      dense_opts.max_nodes = n <= 4 ? 20000 : 500;
      SynthesisOptions sparse_opts = dense_opts;
      sparse_opts.dense_threshold = 0;
      const SynthesisResult dr = synthesize(spec, dense_opts);
      const SynthesisResult sr = synthesize(spec, sparse_opts);
      ASSERT_EQ(dr.success, sr.success);
      EXPECT_TRUE(dr.stats.dense_kernel);
      EXPECT_FALSE(sr.stats.dense_kernel);
      EXPECT_EQ(dr.stats.nodes_expanded, sr.stats.nodes_expanded);
      EXPECT_EQ(dr.stats.children_pushed, sr.stats.children_pushed);
      EXPECT_EQ(dr.stats.tt_inserts, sr.stats.tt_inserts);
      if (!dr.success) continue;
      EXPECT_EQ(dr.circuit, sr.circuit);
      EXPECT_TRUE(implements(dr.circuit, spec));
    }
  }
}

TEST(DensePprm, StatsReportKernelChoice) {
  const TruthTable spec({1, 0, 7, 2, 3, 4, 5, 6});
  SynthesisOptions o;
  o.max_nodes = 20000;
  const SynthesisResult dense_run = synthesize(spec, o);
  EXPECT_TRUE(dense_run.stats.dense_kernel);
  EXPECT_EQ(dense_run.stats.representation_switches, 0u);
  o.dense_threshold = 0;
  const SynthesisResult sparse_run = synthesize(spec, o);
  EXPECT_FALSE(sparse_run.stats.dense_kernel);
}

}  // namespace
}  // namespace rmrls
