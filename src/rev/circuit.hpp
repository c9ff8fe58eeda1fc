/// \file circuit.hpp
/// \brief Cascades of Toffoli gates.
///
/// Reversible circuits are linear cascades: no fanout, no feedback (paper,
/// Section I). Gates apply left to right: `simulate(x)` feeds `x` through
/// `gates()[0]` first.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rev/gate.hpp"
#include "rev/truth_table.hpp"

namespace rmrls {

class Pprm;

/// A Toffoli-gate cascade on `num_lines` lines.
class Circuit {
 public:
  Circuit() = default;
  explicit Circuit(int num_lines);
  Circuit(int num_lines, std::vector<Gate> gates);

  [[nodiscard]] int num_lines() const { return num_lines_; }
  [[nodiscard]] int gate_count() const {
    return static_cast<int>(gates_.size());
  }
  [[nodiscard]] const std::vector<Gate>& gates() const { return gates_; }

  /// Appends `g` at the output end. Throws if the gate touches a line
  /// outside the circuit.
  void append(const Gate& g);

  /// Feeds basis state `x` through the cascade, first gate first.
  [[nodiscard]] std::uint64_t simulate(std::uint64_t x) const;

  /// Exhaustive simulation into a permutation. Only for `num_lines` small
  /// enough to enumerate (throws above 24 lines).
  [[nodiscard]] TruthTable to_truth_table() const;

  /// The PPRM system realized by the cascade, built by reverse-order gate
  /// substitution into the identity — works at any width, no truth table.
  [[nodiscard]] Pprm to_pprm() const;

  /// The mirror cascade (gates reversed); Toffoli gates are self-inverse,
  /// so this is the functional inverse.
  [[nodiscard]] Circuit inverse() const;

  /// The same cascade with line `i` renamed to `perm[i]` (controls and
  /// targets alike). Realizes the conjugated function
  /// P_perm o f o P_perm^-1, the wire-relabeling half of the orbit cache
  /// (rev/canonical.hpp). Throws std::invalid_argument unless `perm` is a
  /// permutation of 0..num_lines-1.
  [[nodiscard]] Circuit relabel_wires(const std::vector<int>& perm) const;

  /// Concatenation: `this` followed by `tail`.
  [[nodiscard]] Circuit then(const Circuit& tail) const;

  /// Widest gate in the cascade (0 for an empty circuit).
  [[nodiscard]] int max_gate_size() const;

  /// One-line rendering in the paper's notation:
  /// "TOF3(c, a; b) TOF1(a)".
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Circuit&, const Circuit&) = default;

 private:
  std::vector<Gate> gates_;
  int num_lines_ = 0;
};

}  // namespace rmrls
