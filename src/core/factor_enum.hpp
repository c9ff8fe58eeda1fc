/// \file factor_enum.hpp
/// \brief Enumeration of candidate substitutions at a search node.
///
/// Section IV-A (basic) and IV-D (additional substitutions): for each input
/// variable v_t, candidate factors are the product terms of the paired
/// output's expansion that do not contain v_t. The basic algorithm also
/// requires the solitary term v_t to be present in that expansion; class-1
/// additional substitutions drop this requirement, and class-2 additionally
/// always offers `v_t <- v_t XOR 1`.

#pragma once

#include <vector>

#include "core/options.hpp"
#include "rev/gate.hpp"
#include "rev/pprm.hpp"
#include "rev/pprm_dense.hpp"

namespace rmrls {

/// One candidate substitution `v_target <- v_target XOR factor`, i.e. the
/// Toffoli gate TOF(factor -> target).
struct Candidate {
  int target = 0;
  Cube factor = kConstOne;

  /// True for "additional" substitutions (Section IV-D): the complement
  /// `v_t <- v_t XOR 1`, or any factor taken while the solitary term v_t
  /// is absent from out_t's expansion. These may be applied even when they
  /// do not reduce the term count (subject to the per-path exemption
  /// budget) — without that, pure wire permutations are unreachable.
  bool additional = false;

  [[nodiscard]] bool is_complement() const { return factor == kConstOne; }

  friend bool operator==(const Candidate& a, const Candidate& b) {
    return a.target == b.target && a.factor == b.factor;
  }
};

/// All candidate substitutions for `p` under `options`, grouped in target
/// order. Candidates equal to `skip` (e.g. the gate that produced this
/// node, whose re-application is a guaranteed no-op pair) are omitted.
[[nodiscard]] std::vector<Candidate> enumerate_candidates(
    const Pprm& p, const SynthesisOptions& options,
    const Candidate* skip = nullptr);

/// Same, writing into `out` (cleared first). The search engine reuses one
/// buffer across every expansion, so the hottest enumeration loop stops
/// allocating after warmup.
void enumerate_candidates_into(const Pprm& p, const SynthesisOptions& options,
                               const Candidate* skip,
                               std::vector<Candidate>& out);

/// Dense-kernel counterpart: iterates the set bits of each output's
/// coefficient bitset in ascending index order — exactly the sorted cube
/// order of the sparse overload, so the two engines see identical
/// candidate sequences (tie-breaking, greedy pruning and seq numbering
/// all depend on it).
void enumerate_candidates_into(const DensePprm& p,
                               const SynthesisOptions& options,
                               const Candidate* skip,
                               std::vector<Candidate>& out);

/// One-word counterpart (n <= 6), in the same ascending-bit order.
void enumerate_candidates_into(const WordPprm& p,
                               const SynthesisOptions& options,
                               const Candidate* skip,
                               std::vector<Candidate>& out);

}  // namespace rmrls
