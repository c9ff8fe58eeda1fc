#include "core/factor_enum.hpp"

#include <bit>

namespace rmrls {

void enumerate_candidates_into(const Pprm& p, const SynthesisOptions& options,
                               const Candidate* skip,
                               std::vector<Candidate>& out) {
  out.clear();
  const int n = p.num_vars();
  for (int t = 0; t < n; ++t) {
    const CubeList& expansion = p.output(t);
    const Cube bit = cube_of_var(t);
    const bool has_solitary = expansion.contains(bit);
    bool offered_const = false;
    if (has_solitary || options.allow_relaxed_targets) {
      for (Cube c : expansion.cubes()) {
        if (c & bit) continue;  // target cannot also be a control
        Candidate cand{t, c};
        cand.additional = !has_solitary || c == kConstOne;
        if (skip != nullptr && cand == *skip) continue;
        out.push_back(cand);
        offered_const |= (c == kConstOne);
      }
    }
    if (options.allow_complement && !offered_const) {
      Candidate cand{t, kConstOne};
      cand.additional = true;
      if (skip == nullptr || !(cand == *skip)) out.push_back(cand);
    }
  }
}

namespace {

// The bitset walk behind both dense overloads. WordPprm's one-word
// spectra make `words` the constant 1, so its instantiation has no word
// loop.
template <class Bitsets>
void enumerate_bitset_candidates(const Bitsets& p,
                                 const SynthesisOptions& options,
                                 const Candidate* skip,
                                 std::vector<Candidate>& out) {
  out.clear();
  const int n = p.num_vars();
  const std::size_t words = p.words_per_output();
  for (int t = 0; t < n; ++t) {
    const std::uint64_t* bits = p.output_bits(t);
    const Cube bit = cube_of_var(t);
    const bool has_solitary = p.output_contains(t, bit);
    bool offered_const = false;
    if (has_solitary || options.allow_relaxed_targets) {
      for (std::size_t w = 0; w < words; ++w) {
        // The target cannot also be a control: mask out (t < 6) or skip
        // (t >= 6) the half of the spectrum whose cubes contain v_t.
        if (t >= 6 && ((w >> (t - 6)) & 1u) != 0) continue;
        std::uint64_t word = bits[w];
        if (t < 6) word &= ~kDenseVarMask[t];
        const std::uint64_t base = static_cast<std::uint64_t>(w) << 6;
        while (word != 0) {
          const Cube c =
              base + static_cast<unsigned>(std::countr_zero(word));
          word &= word - 1;
          Candidate cand{t, c};
          cand.additional = !has_solitary || c == kConstOne;
          if (skip != nullptr && cand == *skip) continue;
          out.push_back(cand);
          offered_const |= (c == kConstOne);
        }
      }
    }
    if (options.allow_complement && !offered_const) {
      Candidate cand{t, kConstOne};
      cand.additional = true;
      if (skip == nullptr || !(cand == *skip)) out.push_back(cand);
    }
  }
}

}  // namespace

void enumerate_candidates_into(const DensePprm& p,
                               const SynthesisOptions& options,
                               const Candidate* skip,
                               std::vector<Candidate>& out) {
  enumerate_bitset_candidates(p, options, skip, out);
}

void enumerate_candidates_into(const WordPprm& p,
                               const SynthesisOptions& options,
                               const Candidate* skip,
                               std::vector<Candidate>& out) {
  enumerate_bitset_candidates(p, options, skip, out);
}

std::vector<Candidate> enumerate_candidates(const Pprm& p,
                                            const SynthesisOptions& options,
                                            const Candidate* skip) {
  std::vector<Candidate> out;
  enumerate_candidates_into(p, options, skip, out);
  return out;
}

}  // namespace rmrls
