/// \file canonical.hpp
/// \brief Canonical orbit representatives of reversible functions under
/// wire relabeling and inversion (docs/caching.md).
///
/// Two specs that differ only by a renaming of input/output wires, or by
/// functional inversion, are the *same* synthesis problem: a circuit for
/// sigma o pi o sigma^-1 becomes a circuit for pi by relabeling its lines
/// (permutation-group conjugation, cf. "Application of Permutation Group
/// Theory in Reversible Logic Synthesis"), and Toffoli cascades invert by
/// reversal (Maslov/Dueck/Miller). canonicalize() maps a spec to the
/// lexicographically minimal member of its orbit
///
///     { P_sigma o pi^{+-1} o P_sigma^-1 : sigma in S_n }
///
/// together with the transform needed to rebuild a circuit for the
/// original spec from one for the representative. One cached circuit per
/// orbit then serves up to 2 * n! equivalent requests
/// (core/synth_cache.hpp).

#pragma once

#include <cstdint>
#include <vector>

#include "rev/circuit.hpp"
#include "rev/truth_table.hpp"

namespace rmrls {

/// Knobs of canonicalize(). They fix which relabelings are candidates and
/// when a spec is its own orbit; one branch-and-bound search then finds the
/// least conjugate among the candidates (docs/caching.md). Beyond
/// `max_vars` the orbit degenerates to the spec itself (identity
/// transform, self hash).
struct CanonicalOptions {
  /// Widest spec whose candidates are all n! relabelings, so that its
  /// representative is the exact lexicographic minimum of the full orbit.
  /// Above it a wire may only take the positions of its signature block.
  int exact_max_vars = 6;

  /// Widest spec eligible for orbit canonicalization at all (the CLI's
  /// --canonical-cap). Above it the representative is the spec itself, so
  /// the cache still deduplicates exact resubmissions, just not orbits.
  int max_vars = 12;

  /// Ceiling on the signature-consistent relabelings above
  /// `exact_max_vars`, judged on the spec and on its inverse. Highly
  /// symmetric specs (every wire signature equal) have n! of them; past
  /// this budget the spec falls back to the identity orbit. The rule, not
  /// the search's cost, is what the budget keeps: it decides which specs
  /// share keys, and so which circuits a cache store holds.
  std::uint64_t max_candidates = 40320;  // 8!
};

/// How to turn a circuit for the canonical representative back into one
/// for the original spec (and vice versa). `sigma` is the wire relabeling
/// with representative = P_sigma o spec' o P_sigma^-1 where spec' is the
/// spec or, when `inverted`, its functional inverse.
struct OrbitTransform {
  std::vector<int> sigma;  ///< line i of spec' is line sigma[i] of the rep
  bool inverted = false;   ///< the rep canonicalizes spec^-1, not spec

  /// True when reconstruction is a no-op (rep == spec).
  [[nodiscard]] bool is_identity() const {
    if (inverted) return false;
    for (std::size_t i = 0; i < sigma.size(); ++i) {
      if (sigma[i] != static_cast<int>(i)) return false;
    }
    return true;
  }
};

/// A spec reduced to its orbit representative. `key` is the Pprm::hash()
/// of the representative's PPRM expansion — the same hash family (seeded
/// by kSystemHashSeed / fold_output_hash) the search engines' sparse and
/// dense transposition tables agree on, so every layer of the system keys
/// one function the same way.
struct CanonicalForm {
  TruthTable representative;
  OrbitTransform transform;
  std::uint64_t key = 0;
};

/// Canonicalizes `spec`: the least conjugate of the spec or its inverse
/// over all relabelings for n <= exact_max_vars, over the
/// signature-consistent ones up to max_vars (within max_candidates), the
/// identity orbit beyond. Every member of one orbit maps to the same
/// representative and key (the property tests/test_canonical.cpp pins
/// across both candidate sets), and bench/golden/canonical_golden.txt pins
/// the keys and transforms themselves.
[[nodiscard]] CanonicalForm canonicalize(const TruthTable& spec,
                                         const CanonicalOptions& options = {});

/// The conjugated function P_sigma o f o P_sigma^-1: wire i of `f` becomes
/// wire sigma[i]. Throws std::invalid_argument unless `sigma` is a
/// permutation of 0..n-1.
[[nodiscard]] TruthTable conjugate(const TruthTable& f,
                                   const std::vector<int>& sigma);

/// Rebuilds a circuit for the *original* spec from a circuit realizing the
/// canonical representative: relabel by sigma^-1, then mirror if the orbit
/// entered through the inverse.
[[nodiscard]] Circuit reconstruct_circuit(const Circuit& canonical_circuit,
                                          const OrbitTransform& transform);

/// Forward direction: turns a circuit for the original spec into one for
/// the representative (what the single-shot CLI inserts into the cache, so
/// the emitted circuit itself stays untouched by caching).
[[nodiscard]] Circuit canonical_circuit_of(const Circuit& circuit,
                                           const OrbitTransform& transform);

/// Applies the inverse transform to the representative, recovering the
/// original spec (the truth-table-level round-trip the tests check).
[[nodiscard]] TruthTable reconstruct_spec(const TruthTable& representative,
                                          const OrbitTransform& transform);

/// Stable fleet-sharding key of a spec (docs/fleet.md): FNV-1a over the
/// normalized permutation image — byte-for-byte what hashing the
/// canonically written spec line would produce, so it depends only on the
/// function itself, never on file order, whitespace, the process, or the
/// C++ library's hash seed. This value is a WIRE FORMAT: it names
/// checkpoint entries and decides `--shard i/N` membership across
/// processes and releases, so the constants below must never change.
///
/// Unlike CanonicalForm::key this is NOT orbit-invariant: two orbit
/// members get different shard keys (and may land in different shards);
/// the shared disk store and the lease protocol dedupe the orbit across
/// shards instead.
[[nodiscard]] std::uint64_t stable_spec_key(const TruthTable& spec);

}  // namespace rmrls
