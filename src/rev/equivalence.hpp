/// \file equivalence.hpp
/// \brief Exact equivalence checking for reversible circuits of any width.
///
/// Two cascades realize the same function iff they agree on every input,
/// and a cascade realizes a PPRM system iff its own PPRM is that system —
/// the PPRM is canonical (paper, Section II-C). Up to kMaxSimulatedLines
/// lines both checks simulate the cascade on all 2^n inputs, 64 to a word
/// (rev/bitslice.hpp); against a PPRM the simulated columns are Moebius-
/// transformed and compared term by term. Wider cascades are checked by
/// reverse gate substitution (Circuit::to_pprm), which needs no truth
/// table, so the check stays exact at widths where truth tables are
/// unthinkable (shift28's 30 lines, or the full 64 the cube encoding
/// supports). `implements()` (core/synthesizer.hpp) checks a circuit
/// against a PPRM spec with it.

#pragma once

#include "rev/circuit.hpp"
#include "rev/fredkin.hpp"
#include "rev/pprm.hpp"

namespace rmrls {

/// Widest cascade checked by simulation; wider ones by reverse
/// substitution. The widest width where simulation won on every 32-gate
/// random generalized-Toffoli cascade of the measured sweep
/// (EXPERIMENTS.md, "Verification by bit-sliced simulation").
inline constexpr int kMaxSimulatedLines = 15;

/// Exact: true iff `a` and `b` realize the same permutation.
/// Throws std::invalid_argument when the widths differ.
[[nodiscard]] bool equivalent(const Circuit& a, const Circuit& b);

/// Exact: true iff `c` realizes exactly the PPRM system `spec`.
/// Throws std::invalid_argument when the widths differ.
[[nodiscard]] bool equivalent(const Circuit& c, const Pprm& spec);

/// Mixed cascades are checked through their Toffoli expansions.
[[nodiscard]] bool equivalent(const MixedCircuit& a, const Circuit& b);

}  // namespace rmrls
