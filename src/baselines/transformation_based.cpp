#include "baselines/transformation_based.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

namespace rmrls {

namespace {

/// Gates (in application order) mapping word `from` to word `to` while
/// fixing every word < floor. Phase 1 sets the bits `to` has and `from`
/// lacks, controlled on all current ones of the word being moved; phase 2
/// clears the extra bits, controlled on the ones of `to`. Both phases only
/// touch words >= min(from, to), which is >= floor for the callers.
std::vector<Gate> steer(std::uint64_t from, std::uint64_t to) {
  std::vector<Gate> gates;
  std::uint64_t w = from;
  std::uint64_t missing = to & ~w;
  while (missing) {
    const int p = std::countr_zero(missing);
    missing &= missing - 1;
    gates.emplace_back(static_cast<Cube>(w), p);
    w |= std::uint64_t{1} << p;
  }
  std::uint64_t extra = w & ~to;
  while (extra) {
    const int p = std::countr_zero(extra);
    extra &= extra - 1;
    gates.emplace_back(static_cast<Cube>(to), p);
    w ^= std::uint64_t{1} << p;
  }
  return gates;
}

void apply_output_side(std::vector<std::uint64_t>& image, const Gate& g) {
  for (std::uint64_t& y : image) y = g.apply(y);
}

void apply_input_side(std::vector<std::uint64_t>& image, const Gate& g) {
  // f' = f o g: swap the images of the state pairs g exchanges.
  for (std::uint64_t x = 0; x < image.size(); ++x) {
    const std::uint64_t gx = g.apply(x);
    if (gx > x) std::swap(image[x], image[gx]);
  }
}

}  // namespace

Circuit synthesize_transformation_based(const TruthTable& spec,
                                        CancelToken* cancel) {
  const int n = spec.num_vars();
  std::vector<std::uint64_t> image = spec.image();
  std::vector<Gate> out_gates;
  for (std::uint64_t i = 0; i < image.size(); ++i) {
    if (image[i] == i) continue;
    if (cancel != nullptr && cancel->expired()) break;
    for (const Gate& g : steer(image[i], i)) {
      apply_output_side(image, g);
      out_gates.push_back(g);
    }
  }
  // spec = G1^-1 o ... o Gm^-1 with G1 collected first; Toffoli gates are
  // self-inverse, so the cascade is the collected list reversed.
  Circuit c(n);
  for (auto it = out_gates.rbegin(); it != out_gates.rend(); ++it) {
    c.append(*it);
  }
  return c;
}

Circuit synthesize_transformation_bidir(const TruthTable& spec,
                                        CancelToken* cancel) {
  const int n = spec.num_vars();
  std::vector<std::uint64_t> image = spec.image();
  std::vector<std::uint64_t> inverse(image.size());
  for (std::uint64_t x = 0; x < image.size(); ++x) inverse[image[x]] = x;

  std::vector<Gate> in_gates;
  std::vector<Gate> out_gates;
  const auto gate_cost = [](std::uint64_t a, std::uint64_t b) {
    return std::popcount(a ^ b);
  };

  for (std::uint64_t i = 0; i < image.size(); ++i) {
    if (image[i] == i) continue;
    if (cancel != nullptr && cancel->expired()) break;
    const std::uint64_t y = image[i];
    const std::uint64_t x = inverse[i];
    if (gate_cost(y, i) <= gate_cost(x, i)) {
      // Fix at the output side: map y -> i.
      for (const Gate& g : steer(y, i)) {
        apply_output_side(image, g);
        out_gates.push_back(g);
      }
    } else {
      // Fix at the input side, so that f'(i) = f(x) = i. Appending gate h
      // to the input cascade composes the remaining function as f o h, so
      // the steering sequence (which moves i to x first-gate-first) must
      // be appended in reverse.
      const std::vector<Gate> gates = steer(i, x);
      for (auto it = gates.rbegin(); it != gates.rend(); ++it) {
        apply_input_side(image, *it);
        in_gates.push_back(*it);
      }
    }
    for (std::uint64_t z = 0; z < image.size(); ++z) inverse[image[z]] = z;
  }

  Circuit c(n);
  for (const Gate& g : in_gates) c.append(g);
  for (auto it = out_gates.rbegin(); it != out_gates.rend(); ++it) {
    c.append(*it);
  }
  return c;
}


namespace {

/// Moves bit `from` of every state to bit `to[from]`.
std::uint64_t permute_bits(std::uint64_t x, const std::vector<int>& to) {
  std::uint64_t y = 0;
  for (std::size_t from = 0; from < to.size(); ++from) {
    y |= ((x >> from) & 1) << to[from];
  }
  return y;
}

/// Appends a swap network realizing the wire permutation `to` (bit `from`
/// must end up at position `to[from]`), 3 CNOTs per transposition.
void append_wire_permutation(Circuit& c, std::vector<int> to) {
  for (int from = 0; from < static_cast<int>(to.size()); ++from) {
    while (to[static_cast<std::size_t>(from)] != from) {
      const int other = to[static_cast<std::size_t>(from)];
      // Swap lines `from` and `other`.
      c.append(Gate(cube_of_var(from), other));
      c.append(Gate(cube_of_var(other), from));
      c.append(Gate(cube_of_var(from), other));
      std::swap(to[static_cast<std::size_t>(from)],
                to[static_cast<std::size_t>(other)]);
    }
  }
}

}  // namespace

Circuit synthesize_transformation_perm(const TruthTable& spec) {
  const int n = spec.num_vars();
  if (n > 6) {
    throw std::invalid_argument(
        "output-permutation search enumerates n! relabelings; use <= 6 "
        "lines or synthesize_transformation_bidir");
  }
  std::vector<int> pi(static_cast<std::size_t>(n));
  std::iota(pi.begin(), pi.end(), 0);
  Circuit best;
  bool have_best = false;
  do {
    // Relabeled spec: outputs permuted by pi, i.e. the synthesized core
    // realizes pi(spec(x)); undoing pi afterwards restores spec.
    std::vector<std::uint64_t> image(spec.size());
    for (std::uint64_t x = 0; x < spec.size(); ++x) {
      image[x] = permute_bits(spec.apply(x), pi);
    }
    Circuit candidate = synthesize_transformation_bidir(
        TruthTable(std::move(image)));
    // Undo pi: bit pi[i] currently holds output i, so move it back.
    std::vector<int> undo(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) undo[static_cast<std::size_t>(pi[i])] = i;
    append_wire_permutation(candidate, std::move(undo));
    if (!have_best || candidate.gate_count() < best.gate_count()) {
      best = std::move(candidate);
      have_best = true;
    }
  } while (std::next_permutation(pi.begin(), pi.end()));
  return best;
}

}  // namespace rmrls
