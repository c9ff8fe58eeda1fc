/// \file bitslice.hpp
/// \brief Bit-sliced truth tables: the word-parallel GF(2) kernel behind
/// exhaustive verification and the PPRM of a truth table.
///
/// A function on n lines is held as n columns of 2^n bits: bit x of column
/// i is output i at input x, 64 inputs to a machine word. Two operations
/// work a word at a time:
///  - simulation of a Toffoli cascade over all 2^n inputs: a gate is an AND
///    over its control columns and an XOR into its target column. The
///    identity's columns are the kDenseVarMask patterns (rev/pprm_dense.hpp)
///    for lines 0..5 and whole-word stripes above;
///  - the GF(2) Moebius transform (rev/pprm_transform.hpp) of every column
///    in place, which turns truth columns into PPRM coefficient columns
///    (bit m of column i = coefficient of cube m in output i): masked
///    shifts for strides below 64, word XORs above.
/// So the PPRM of an n-line cascade costs O((gates + n) * n * 2^n / 64)
/// word operations, however many terms reverse substitution
/// (Circuit::to_pprm) would create on the way.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rev/circuit.hpp"
#include "rev/pprm.hpp"
#include "rev/truth_table.hpp"

namespace rmrls {

/// The truth table of an n-line function as n bit columns.
class SlicedTable {
 public:
  /// The function `c` realizes, simulated on all 2^n inputs at once.
  /// Throws std::invalid_argument above kMaxDenseVariables
  /// (rev/pprm_dense.hpp) lines.
  explicit SlicedTable(const Circuit& c);

  /// Slices an explicit permutation. Throws std::invalid_argument above
  /// kMaxDenseVariables variables.
  explicit SlicedTable(const TruthTable& tt);

  /// In-place GF(2) Moebius transform of every column: truth columns
  /// become PPRM coefficient columns. Self-inverse.
  void moebius_transform();

  /// Reads the columns as PPRM coefficients.
  [[nodiscard]] Pprm to_pprm() const;

  /// True iff the columns, read as PPRM coefficients, are exactly `p`'s
  /// outputs. A cube over a variable >= the table's width never matches.
  [[nodiscard]] bool equals_pprm(const Pprm& p) const;

  friend bool operator==(const SlicedTable&, const SlicedTable&) = default;

 private:
  /// All-zero columns on `num_vars` lines (validated).
  void reset(int num_vars);

  [[nodiscard]] const std::uint64_t* column(int i) const {
    return bits_.data() + words_ * static_cast<std::size_t>(i);
  }
  [[nodiscard]] std::uint64_t* mutable_column(int i) {
    return bits_.data() + words_ * static_cast<std::size_t>(i);
  }

  int num_vars_ = 0;
  std::size_t words_ = 1;            // per column: max(1, 2^(n-6))
  std::vector<std::uint64_t> bits_;  // num_vars_ * words_, column-major
};

}  // namespace rmrls
