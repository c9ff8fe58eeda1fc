/// \file pprm.hpp
/// \brief Multi-output positive-polarity Reed-Muller (PPRM) expansions.
///
/// The synthesizer's working state (paper, Section IV) is the PPRM expansion
/// of every output of a reversible function. An expansion is an XOR of cubes;
/// we keep it as a sorted, duplicate-free vector with symmetric-difference
/// (XOR) insertion semantics, which makes term cancellation automatic.
///
/// The gate primitive of the whole algorithm is the substitution
/// `v_t <- v_t XOR f` for a factor cube `f` not containing `v_t`; applying it
/// to an expansion adds, for every cube `c` containing `v_t`, the cube
/// `(c \ {v_t}) | f` (with cancellation). The substitution corresponds
/// one-to-one to the Toffoli gate with target `t` and controls `f`.

#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "rev/cube.hpp"

namespace rmrls {

/// SplitMix64 finalizer: the per-cube mixer behind the incremental hashes.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Hash of one cube as used by the incremental expansion hash.
[[nodiscard]] constexpr std::uint64_t cube_hash(Cube c) noexcept {
  return splitmix64(static_cast<std::uint64_t>(c));
}

/// Seed of the whole-system hash. Pprm::hash() and DensePprm::hash()
/// (rev/pprm_dense.hpp) fold per-output raw hashes with the same
/// seed/salt, so both representations of one system hash identically —
/// the transposition-table contract the cross-representation tests pin.
inline constexpr std::uint64_t kSystemHashSeed = 0x243f6a8885a308d3ull;

/// Folds output `index`'s raw hash (XOR of cube_hash over its terms)
/// into a running system hash; salting by the index makes term movement
/// between outputs change the result.
[[nodiscard]] constexpr std::uint64_t fold_output_hash(
    std::uint64_t acc, std::uint64_t raw_hash, std::size_t index) noexcept {
  return acc + splitmix64(raw_hash + 0x9e3779b97f4a7c15ull * (index + 1));
}

/// A single-output PPRM expansion: an XOR of cubes, stored sorted and unique.
class CubeList {
 public:
  CubeList() = default;

  /// Builds from an arbitrary cube sequence, cancelling duplicate pairs
  /// (XOR semantics: an even number of occurrences vanishes).
  explicit CubeList(std::vector<Cube> cubes);

  /// XOR a single cube into the expansion (inserts it, or removes an
  /// existing identical cube).
  void toggle(Cube c);

  /// XOR a whole expansion into this one.
  void toggle_all(const CubeList& other);

  /// True if the expansion contains cube `c`.
  [[nodiscard]] bool contains(Cube c) const;

  /// Number of terms.
  [[nodiscard]] int size() const { return static_cast<int>(cubes_.size()); }
  [[nodiscard]] bool empty() const { return cubes_.empty(); }

  /// True if the expansion is exactly the single term `v_t`.
  [[nodiscard]] bool is_single_var(int t) const {
    return cubes_.size() == 1 && cubes_[0] == cube_of_var(t);
  }

  /// Evaluate at input assignment `x` (GF(2) sum of products).
  [[nodiscard]] bool eval(std::uint64_t x) const;

  /// Applies `v_t <- v_t XOR f`. Precondition: `f` does not contain `v_t`.
  /// Returns the change in term count (negative when terms cancelled).
  int substitute(int t, Cube f);

  /// Builds the result of `substitute(t, f)` applied to *this* directly
  /// into `dst` (whose buffers are reused — the search engine passes
  /// pooled destinations so the hot path stops allocating). `*this` is
  /// untouched. Returns the change in term count.
  int substitute_into(int t, Cube f, CubeList& dst) const;

  /// Term-count change `substitute(t, f)` would cause, without mutating.
  /// The search engine uses this to price every candidate and only
  /// materializes the children it actually enqueues.
  [[nodiscard]] int substitute_delta(int t, Cube f) const;

  /// True if any cube contains variable `t`.
  [[nodiscard]] bool depends_on(int t) const;

  /// Sorted, duplicate-free view of the terms.
  [[nodiscard]] const std::vector<Cube>& cubes() const { return cubes_; }

  /// Order-independent hash of the expansion, maintained incrementally:
  /// the XOR of cube_hash() over the terms. XOR is its own inverse, so a
  /// toggle is one mix and a symmetric difference is one XOR — no pass
  /// over the cubes is ever needed.
  [[nodiscard]] std::uint64_t raw_hash() const { return hash_; }

  /// Renders as e.g. "b + c + ac" (the paper writes XOR as +/oplus).
  [[nodiscard]] std::string to_string(int num_vars = kMaxVariables) const;

  friend bool operator==(const CubeList& a, const CubeList& b) {
    return a.cubes_ == b.cubes_;  // hash_ is derived, not identity
  }

 private:
  std::vector<Cube> cubes_;     // sorted ascending, no duplicates
  std::uint64_t hash_ = 0;      // XOR of cube_hash over cubes_
};

/// The PPRM expansions of every output of an n-line reversible function.
/// Output `i` is paired with input variable `v_i` throughout, as in the
/// paper: synthesis finishes when `out_i = v_i` for every `i`.
class Pprm {
 public:
  Pprm() = default;

  /// An all-outputs-empty system on `n` lines (not the identity).
  explicit Pprm(int num_vars);

  /// The identity system: `out_i = v_i`.
  [[nodiscard]] static Pprm identity(int num_vars);

  [[nodiscard]] int num_vars() const { return static_cast<int>(outs_.size()); }

  [[nodiscard]] const CubeList& output(int i) const { return outs_[i]; }
  [[nodiscard]] CubeList& output(int i) { return outs_[i]; }

  /// Total number of terms across all outputs (the paper's `terms`).
  [[nodiscard]] int term_count() const;

  /// True if every output is exactly its paired variable.
  [[nodiscard]] bool is_identity() const;

  /// Applies `v_t <- v_t XOR f` to every output.
  /// Precondition: `f` does not contain `v_t`.
  /// Returns the change in total term count.
  int substitute(int t, Cube f);

  /// Builds the result of `substitute(t, f)` applied to *this* into `dst`,
  /// reusing dst's per-output buffers (the search engine passes pooled
  /// systems). `*this` is untouched. Returns the change in term count.
  int substitute_into(int t, Cube f, Pprm& dst) const;

  /// Total term-count change `substitute(t, f)` would cause, read-only.
  [[nodiscard]] int substitute_delta(int t, Cube f) const;

  /// Evaluates all outputs at assignment `x`; bit `i` of the result is
  /// output `i`.
  [[nodiscard]] std::uint64_t eval(std::uint64_t x) const;

  /// Multi-line human-readable rendering, one output per line.
  [[nodiscard]] std::string to_string() const;

  /// Order-independent hash of the whole system (for transposition tables).
  /// O(num_vars): combines the incrementally maintained per-output hashes,
  /// never walking the cubes.
  [[nodiscard]] std::size_t hash() const;

  friend bool operator==(const Pprm&, const Pprm&) = default;

 private:
  std::vector<CubeList> outs_;
};

std::ostream& operator<<(std::ostream& os, const Pprm& p);

/// Free list of search states for the hot path: every materialized child
/// that gets pruned (and every expanded queue entry) returns here, and
/// the next materialization reuses its buffers instead of reallocating.
/// Works for any representation the engine is instantiated over (Pprm or
/// DensePprm). Single-threaded; each search owns one.
template <class State>
class StatePool {
 public:
  /// A recycled system (buffers intact) or a fresh empty one.
  [[nodiscard]] State acquire() {
    if (free_.empty()) return State();
    State p = std::move(free_.back());
    free_.pop_back();
    return p;
  }

  void release(State&& p) {
    if (free_.size() < kMaxRetained) free_.push_back(std::move(p));
  }

  [[nodiscard]] std::size_t size() const { return free_.size(); }

 private:
  /// Enough to cover a full expansion's churn; beyond this the pool would
  /// just hoard the peak queue's memory.
  static constexpr std::size_t kMaxRetained = 1024;
  std::vector<State> free_;
};

using PprmPool = StatePool<Pprm>;

}  // namespace rmrls
