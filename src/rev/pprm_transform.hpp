/// \file pprm_transform.hpp
/// \brief Exact PPRM extraction from truth tables and back.
///
/// For a completely specified function the PPRM expansion is canonical
/// (paper, Section II-C) and equals the GF(2) Moebius transform of the truth
/// vector: coefficient a_S = XOR of f(x) over all x that are subsets of S.
/// The butterfly implementation below is O(n 2^n) per output and is its own
/// inverse, which the test suite exploits as a round-trip property.

#pragma once

#include <cstdint>
#include <vector>

#include "rev/pprm.hpp"
#include "rev/truth_table.hpp"

namespace rmrls {

/// In-place GF(2) Moebius (Reed-Muller) transform of a truth vector of
/// length 2^n. Self-inverse: applying twice restores the input.
void reed_muller_transform(std::vector<std::uint8_t>& f);

/// PPRM expansion of a single output given its truth vector (bit x of the
/// function = `f[x]`, values 0/1).
[[nodiscard]] CubeList pprm_of_truth_vector(std::vector<std::uint8_t> f);

/// PPRM system of a reversible function. Output i of the system is bit i of
/// the permutation image. Runs the transform bit-sliced, 64 inputs to a
/// word (rev/bitslice.hpp).
[[nodiscard]] Pprm pprm_of_truth_table(const TruthTable& tt);

/// Exhaustive evaluation of a PPRM system back into a permutation. Throws
/// std::invalid_argument if the system is not bijective or too wide to
/// enumerate (> 24 variables).
[[nodiscard]] TruthTable truth_table_of_pprm(const Pprm& p);

}  // namespace rmrls
