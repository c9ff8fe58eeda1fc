/// \file transformation_based.hpp
/// \brief Miller-Maslov-Dueck transformation-based synthesis (DAC'03, [7]).
///
/// The comparator of the paper's Table I. The algorithm scans the truth
/// table in lexicographic order and, for each row, appends Toffoli gates
/// that map the current output back to the row's input without disturbing
/// earlier rows. It is constructive: it *always* terminates with a valid
/// circuit of at most n * 2^n gates. The bidirectional variant may fix a
/// row from the input side instead when that needs fewer gates.

#pragma once

#include "core/cancel.hpp"
#include "rev/circuit.hpp"
#include "rev/truth_table.hpp"

namespace rmrls {

/// Basic (output-side only) transformation-based synthesis. When `cancel`
/// is given, every row that needs gates first polls CancelToken::expired(),
/// so the run stops once the token fires or its armed deadline passes; a
/// stopped run returns the incomplete cascade built so far, so callers
/// must verify the result (rev/equivalence.hpp) before trusting it — see
/// docs/robustness.md.
[[nodiscard]] Circuit synthesize_transformation_based(
    const TruthTable& spec, CancelToken* cancel = nullptr);

/// Bidirectional variant: per row, choose the cheaper of fixing the output
/// mapping or the input mapping (Section III's description of [7]). Same
/// per-row cancellation contract as synthesize_transformation_based.
[[nodiscard]] Circuit synthesize_transformation_bidir(
    const TruthTable& spec, CancelToken* cancel = nullptr);

/// Output-permutation variant (the other idea Section III quotes from
/// [7]): instead of driving every output back to its own input, try every
/// wire relabeling pi, synthesize the relabeled function bidirectionally,
/// and undo pi with a trailing swap network (3 CNOTs per transposition);
/// the cheapest total wins. The identity relabeling is always tried, so
/// the result is never worse than synthesize_transformation_bidir.
/// Practical up to ~6 lines (n! relabelings).
[[nodiscard]] Circuit synthesize_transformation_perm(const TruthTable& spec);

}  // namespace rmrls
