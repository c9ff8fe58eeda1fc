/// \file history.hpp
/// \brief History heuristic for factor ordering (docs/search_tables.md).
///
/// The chess history heuristic, transplanted: substitutions that appear on
/// recorded solution paths earn credit, indexed by (target variable,
/// factor class), and the search adds a small normalized bonus to eq. (4)
/// so statistically successful factors are tried first. The factor class
/// is a 64-way hash bucket of the factor cube — specific factors
/// accumulate specific credit (the analogue of chess's from/to-square
/// table), and a collision merely blurs two factors' signals together.
///
/// The table is written on two events:
///   * record_solution() walks each newly recorded (strictly improving)
///     solution path and rewards every gate on it, and
///   * the refinement driver re-rewards the best circuit found so far
///     before each tightening rerun — "the previous iteration's circuit
///     seeds the next iteration's move ordering".
/// decay() halves every score between passes so stale preferences fade.
///
/// One synthesize() call owns the table and uses it from one thread, so
/// synthesis stays deterministic (pinned in tests/test_tt_replacement).
/// `--no-history` (SynthesisOptions::use_history = false) restores the
/// paper-exact eq. (4) ordering.

#pragma once

#include <array>
#include <cstdint>

#include "rev/cube.hpp"
#include "rev/pprm.hpp"  // splitmix64

namespace rmrls {

class HistoryTable {
 public:
  static constexpr int kMaxTargets = 64;  // rev/ caps lines at 64
  static constexpr int kFactorClasses = 64;

  /// Reward a gate on a recorded solution path. Shallower solutions pass
  /// larger amounts (they are stronger evidence). Saturates instead of
  /// wrapping.
  void reward(int target, Cube factor, std::uint32_t amount) {
    std::uint32_t& cell = scores_[index_of(target, factor)];
    cell = cell > kSaturation - amount ? kSaturation : cell + amount;
    if (cell > max_) max_ = cell;
  }

  /// Normalized success score in [0, 1]; 0 when this (target, class) has
  /// never been on a solution path.
  [[nodiscard]] double bonus(int target, Cube factor) const {
    if (max_ == 0) return 0.0;
    return static_cast<double>(scores_[index_of(target, factor)]) /
           static_cast<double>(max_);
  }

  /// Halves every score (and the running max) — called by the driver
  /// between passes so old iterations' preferences decay instead of
  /// dominating forever.
  void decay() {
    for (std::uint32_t& cell : scores_) cell /= 2;
    max_ /= 2;
  }

 private:
  static constexpr std::uint32_t kSaturation = 1u << 24;

  [[nodiscard]] static std::size_t index_of(int target, Cube factor) {
    const std::size_t cls = static_cast<std::size_t>(
        splitmix64(static_cast<std::uint64_t>(factor)) &
        (kFactorClasses - 1));
    return static_cast<std::size_t>(target & (kMaxTargets - 1)) *
               kFactorClasses +
           cls;
  }

  std::array<std::uint32_t, kMaxTargets * kFactorClasses> scores_{};
  std::uint32_t max_ = 0;
};

}  // namespace rmrls
