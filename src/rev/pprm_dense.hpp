/// \file pprm_dense.hpp
/// \brief Dense (bitset) PPRM spectra with word-parallel substitution.
///
/// The sparse representation (pprm.hpp) stores an expansion as a sorted
/// cube vector, so the gate primitive `v_t <- v_t XOR f` costs a pass of
/// comparisons over every term. For n small enough that the *whole*
/// coefficient spectrum of an output fits in 2^n bits, the same
/// substitution collapses to a handful of word-parallel shift/mask/XOR
/// passes over 2^n / 64 machine words, and pricing a candidate
/// (`substitute_delta`) to popcounts — the bit-slicing family behind the
/// fast Moebius transform in pprm_transform.cpp. See docs/dense_pprm.md
/// for the layout and the kernel's two regimes (whole-word moves when a
/// variable index is >= 6, masked intra-word shuffles below).
///
/// Two dense types share that kernel. WordPprm holds a system of at most
/// six lines, where each output's spectrum is one word: fixed arrays, no
/// heap, trivially copyable, so a search keeps it inside its queue entry.
/// DensePprm holds the wider systems in heap vectors. Both mirror the
/// subset of Pprm's interface the search engine needs (core/search.hpp is
/// templated over the representation), and their hash() folds per-output
/// raw hashes exactly like Pprm::hash(), so every representation of one
/// system makes identical transposition-table decisions. The synthesizer
/// picks the representation per search pass via
/// SynthesisOptions::dense_threshold: WordPprm at n <= 6, DensePprm above.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "rev/cube.hpp"
#include "rev/pprm.hpp"

namespace rmrls {

/// Hard cap on dense width: 2^26 coefficient bits (8 MiB) per output is
/// already far beyond where the dense kernel can win; the sparse engine
/// is the large-n fallback (ROADMAP, Soeken et al.'s BDD line of work).
inline constexpr int kMaxDenseVariables = 26;

/// Intra-word masks of the kernel's small-variable regime: bit x of
/// kDenseVarMask[j] is set iff coefficient index x (within one
/// 64-coefficient word) contains variable j. The same constants drive the
/// butterfly stages of any 64-wide bit-sliced GF(2) transform.
inline constexpr std::uint64_t kDenseVarMask[6] = {
    0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
    0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull,
};

/// The PPRM spectra of every output of a reversible function on at most
/// kMaxVariables lines, one 64-bit word per output: bit m of word o is the
/// coefficient of the cube with variable mask m. Each output's substitution
/// runs in a register, with no per-word loop and no scratch buffer. Same
/// contract as DensePprm: substitute_delta, substitute_into, is_identity,
/// term_count, and hash() equal to Pprm::hash().
class WordPprm {
 public:
  static constexpr int kMaxVariables = 6;

  WordPprm() = default;

  /// Densifies a sparse system. Throws std::invalid_argument if `sparse`
  /// is wider than kMaxVariables or contains a cube over variables >=
  /// num_vars().
  explicit WordPprm(const Pprm& sparse);

  [[nodiscard]] int num_vars() const { return num_vars_; }

  /// One word per output; lets code written for DensePprm's bitsets take
  /// either type.
  [[nodiscard]] static constexpr std::size_t words_per_output() { return 1; }

  /// The coefficient word of output `i`.
  [[nodiscard]] const std::uint64_t* output_bits(int i) const {
    return &bits_[static_cast<std::size_t>(i)];
  }

  /// True if output `i`'s expansion contains cube `c`.
  [[nodiscard]] bool output_contains(int i, Cube c) const {
    return (bits_[static_cast<std::size_t>(i)] >> c) & 1u;
  }

  /// Total number of terms across all outputs (the paper's `terms`).
  [[nodiscard]] int term_count() const;

  /// True if every output is exactly its paired variable.
  [[nodiscard]] bool is_identity() const;

  /// Writes to `dst` the result of `v_t <- v_t XOR f` applied to every
  /// output, leaving `*this` untouched. Precondition: `f` does not
  /// contain `v_t`. Returns the change in total term count.
  int substitute_into(int t, Cube f, WordPprm& dst) const;

  /// Term-count change substitute_into would report, without writing.
  [[nodiscard]] int substitute_delta(int t, Cube f) const;

  /// Order-independent hash of the whole system, equal to Pprm::hash() of
  /// the same system.
  [[nodiscard]] std::size_t hash() const;

  /// Sparsifies back (tests).
  [[nodiscard]] Pprm to_pprm() const;

 private:
  std::array<std::uint64_t, kMaxVariables> bits_{};  // one word per output
  std::array<std::uint64_t, kMaxVariables> hash_{};  // XOR of cube_hash
  int num_vars_ = 0;
};

static_assert(std::is_trivially_copyable_v<WordPprm>,
              "word states are copied by value through the search queue");

/// The PPRM spectra of every output of an n-line reversible function,
/// stored dense: bit m of output o's bitset is the coefficient of the
/// cube with variable mask m. Same output-i-pairs-with-variable-i
/// convention as Pprm. Correct at any width up to kMaxDenseVariables; the
/// synthesizer uses it above WordPprm::kMaxVariables.
class DensePprm {
 public:
  DensePprm() = default;

  /// An all-outputs-empty system on `n` lines (not the identity).
  explicit DensePprm(int num_vars);

  /// Densifies a sparse system (the synthesizer's conversion point).
  /// Throws std::invalid_argument if `sparse` is wider than
  /// kMaxDenseVariables or contains a cube over variables >= num_vars().
  explicit DensePprm(const Pprm& sparse);

  /// The identity system: `out_i = v_i`.
  [[nodiscard]] static DensePprm identity(int num_vars);

  [[nodiscard]] int num_vars() const { return num_vars_; }

  /// 64-bit words per output spectrum (1 for n <= 6, else 2^(n-6)).
  [[nodiscard]] std::size_t words_per_output() const { return words_; }

  /// The coefficient bitset of output `i` (words_per_output() words).
  [[nodiscard]] const std::uint64_t* output_bits(int i) const {
    return bits_.data() + words_ * static_cast<std::size_t>(i);
  }

  /// Number of terms of output `i` (cached popcount).
  [[nodiscard]] int output_term_count(int i) const {
    return out_count_[static_cast<std::size_t>(i)];
  }

  /// True if output `i`'s expansion contains cube `c`.
  [[nodiscard]] bool output_contains(int i, Cube c) const {
    return (output_bits(i)[c >> 6] >> (c & 63)) & 1u;
  }

  /// Incrementally maintained XOR-of-cube_hash over output `i`'s terms;
  /// equals CubeList::raw_hash() of the same expansion.
  [[nodiscard]] std::uint64_t output_raw_hash(int i) const {
    return out_hash_[static_cast<std::size_t>(i)];
  }

  /// Total number of terms across all outputs (the paper's `terms`).
  [[nodiscard]] int term_count() const;

  /// True if every output is exactly its paired variable.
  [[nodiscard]] bool is_identity() const;

  /// Applies `v_t <- v_t XOR f` to every output, in place.
  /// Precondition: `f` does not contain `v_t`.
  /// Returns the change in total term count.
  int substitute(int t, Cube f);

  /// Builds the result of `substitute(t, f)` into `dst`, reusing dst's
  /// buffers (the search engine passes pooled systems). `*this` is
  /// untouched; `dst` must not alias it. Returns the term-count change.
  int substitute_into(int t, Cube f, DensePprm& dst) const;

  /// Term-count change `substitute(t, f)` would cause, without mutating:
  /// the same word passes as substitute_into but reduced to popcounts.
  [[nodiscard]] int substitute_delta(int t, Cube f) const;

  /// Evaluates all outputs at assignment `x`; bit `i` of the result is
  /// output `i`.
  [[nodiscard]] std::uint64_t eval(std::uint64_t x) const;

  /// Order-independent hash of the whole system. Folds the per-output raw
  /// hashes with the same seed/salt as Pprm::hash(), so dense and sparse
  /// forms of one system collide by construction (the transposition-table
  /// contract the cross-representation tests pin down).
  [[nodiscard]] std::size_t hash() const;

  /// Sparsifies back (tests, printing, interop with sparse-only passes).
  [[nodiscard]] Pprm to_pprm() const;

  /// Multi-line human-readable rendering, one output per line.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const DensePprm& a, const DensePprm& b) {
    return a.num_vars_ == b.num_vars_ && a.bits_ == b.bits_;
  }

 private:
  /// Writes into `w` (words_per_output() words) the toggle image of one
  /// substitution on spectrum `s`: the parity-fold of s's v_t-half under
  /// the index map `c -> (c \ {v_t}) | f`. Returns false (w undefined
  /// beyond zeroed gather) when no coefficient contains v_t, i.e. the
  /// output is untouched by the substitution.
  bool build_toggle_image(const std::uint64_t* s, int t, Cube f,
                          std::uint64_t* w) const;

  /// XORs `image` into output `o`, maintaining the cached count and raw
  /// hash. Returns the output's term-count change.
  int apply_toggle_image(int o, const std::uint64_t* image);

  /// Applies `v_t <- v_t XOR f` in place (the body of substitute and
  /// substitute_into; f already checked), building each output's image in
  /// scratch.
  int apply_substitution(int t, Cube f);

  int num_vars_ = 0;
  std::size_t words_ = 0;               // words per output
  std::vector<std::uint64_t> bits_;     // num_vars_ * words_, output-major
  std::vector<std::uint64_t> out_hash_; // XOR of cube_hash per output
  std::vector<std::int32_t> out_count_; // popcount per output
};

std::ostream& operator<<(std::ostream& os, const DensePprm& p);

/// Pool alias for the dense representation (see StatePool in pprm.hpp).
using DensePprmPool = StatePool<DensePprm>;

}  // namespace rmrls
