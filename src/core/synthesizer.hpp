/// \file synthesizer.hpp
/// \brief Public entry points of the RMRLS synthesizer.
///
/// The tool of the paper: given a reversible specification (a PPRM system,
/// a permutation truth table, or a circuit to re-synthesize), produce a
/// cascade of generalized Toffoli gates realizing it. See options.hpp for
/// the heuristics' knobs and search.hpp for the engine.
///
/// Typical use:
/// \code
///   TruthTable spec({1, 0, 7, 2, 3, 4, 5, 6});
///   SynthesisResult r = synthesize(spec);
///   if (r.success) std::cout << r.circuit.to_string() << "\n";
/// \endcode

#pragma once

#include "core/options.hpp"
#include "core/search.hpp"
#include "rev/pprm.hpp"
#include "rev/truth_table.hpp"

namespace rmrls {

/// Synthesizes the reversible function given by its PPRM system. This is
/// the native input form (paper, Section IV) and the only one that scales
/// past ~20 lines.
[[nodiscard]] SynthesisResult synthesize(const Pprm& spec,
                                         const SynthesisOptions& options = {});

/// Convenience overload: extracts the canonical PPRM of `spec` first.
[[nodiscard]] SynthesisResult synthesize(const TruthTable& spec,
                                         const SynthesisOptions& options = {});

/// Synthesizes both `spec` and its inverse (splitting the node budget),
/// exploiting that the mirror of a cascade for f^-1 realizes f, and
/// returns the better circuit (fewer gates; ties by quantum cost). The
/// two search problems often have very different difficulty — the same
/// idea behind the bidirectional variant of [7].
[[nodiscard]] SynthesisResult synthesize_bidirectional(
    const TruthTable& spec, const SynthesisOptions& options = {});

/// Verifies `circuit` against `spec` by exhaustive simulation.
[[nodiscard]] bool implements(const Circuit& circuit, const TruthTable& spec);

/// Verifies `circuit` against a PPRM `spec` of any width, exactly, by
/// equivalent() (rev/equivalence.hpp). A width mismatch is false.
[[nodiscard]] bool implements(const Circuit& circuit, const Pprm& spec);

}  // namespace rmrls
