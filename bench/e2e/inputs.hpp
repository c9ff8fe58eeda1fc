/// \file inputs.hpp
/// \brief Seeded workload inputs, the on-disk store prefill, and the
/// independent oracle of rmrls_bench.
///
/// Every input is a pure function of the seed, so one (workload, seed,
/// --seconds) triple names the same specs on every host. The program under
/// test only ever sees the generated spec text (or serve frames).

#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "baselines/optimal_bfs.hpp"
#include "rev/circuit.hpp"
#include "rev/truth_table.hpp"

namespace rmrls::e2e {

/// `count` 3-variable specs. The first `reference` of them (at most
/// `count`) are Fig. 1 of the paper and random functions drawn from a fixed
/// seed, the same for every `seed`; the rest are drawn from `seed`.
[[nodiscard]] std::vector<TruthTable> cold_small_specs(std::uint64_t seed,
                                                       std::size_t count,
                                                       std::size_t reference);

/// `count` specs at n = 4-5, each in its own orbit (no cache repeats):
/// 3/8 random n = 4, 3/8 random n = 5, the rest simulated random NCT
/// cascades of 2-8 gates. The first `reference` of them (at most `count`)
/// are drawn from a fixed seed, the same for every `seed`; the rest are
/// drawn from `seed`, each block in its own shuffled order.
[[nodiscard]] std::vector<TruthTable> cold_search_specs(std::uint64_t seed,
                                                        std::size_t count,
                                                        std::size_t reference);

/// One base function of an orbit workload.
struct Base {
  std::string label;
  TruthTable spec;
};

/// Orbit bases, one per orbit, for every width in [min_vars, max_vars]:
/// hwb, prime multipliers x -> p*x mod 2^n (Maslov-Miller-Dueck families)
/// and random NCT cascades; uniform random permutations only up to n = 5,
/// where synthesizing them for the prefill stays cheap. The bases are the
/// same for every seed: they are the store a deployment has, and the seed
/// draws the traffic against it. Bases drawn per seed made gates_mean and
/// setup_s vary by 10-20 % between seeds.
[[nodiscard]] std::vector<Base> orbit_bases(int min_vars, int max_vars);

/// Draws orbit members of a set of bases with exact shares: the widths
/// come in shuffled round-robin blocks, and within a width its bases
/// likewise, so every width, and every base within a width, appears equally
/// often whatever the seed. The seed picks the order, a random wire
/// conjugation, and inversion half the time. Random draws made gates_mean
/// swing by 5 % between seeds, because a few bases (hwb5, hwb6) carry most
/// of the gates.
class MemberDeck {
 public:
  MemberDeck(const std::vector<Base>& bases, std::uint64_t seed);
  [[nodiscard]] TruthTable next();

  /// Draws after which every width, and every base within a width, has
  /// appeared exactly equally often. A job list whose length is a multiple
  /// of it has the same mix of bases for every seed.
  [[nodiscard]] std::size_t period() const;

 private:
  /// Next index of a shuffled round-robin over `size` items.
  std::size_t deal(std::vector<std::size_t>& order, std::size_t& pos);

  std::vector<std::vector<const Base*>> by_width_;
  std::vector<std::size_t> width_order_;
  std::size_t width_pos_ = 0;
  std::vector<std::vector<std::size_t>> base_order_;
  std::vector<std::size_t> base_pos_;
  std::mt19937_64 rng_;
};

/// Spec-list text, one permutation per line, as `rmrls --batch` reads it.
[[nodiscard]] std::string spec_list_text(const std::vector<TruthTable>& specs);

/// Fills the on-disk store `dir` with a circuit for every base's orbit by
/// running each base through synthesize_cached. Part of set-up: the node
/// budget is 20000 and the greedy fallback is off, because greedy alone
/// spends 5-20 s failing on hwb6/hwb7 before the constructive engine runs.
/// Returns false when a base could not be synthesized.
bool prefill_store(const std::string& dir, const std::vector<Base>& bases);

/// The benchmark's own correctness check, independent of the library's
/// PPRM equivalence: exhaustive simulation, plus the BFS-optimal gate
/// count as a lower bound at n = 3.
class Oracle {
 public:
  /// Empty when `circuit` realizes `spec`; otherwise what is wrong.
  [[nodiscard]] std::string check(const TruthTable& spec,
                                  const Circuit& circuit);

 private:
  std::unique_ptr<OptimalCounts3> optimal3_;  // built on first n = 3 check
};

}  // namespace rmrls::e2e
