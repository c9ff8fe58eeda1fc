#include "rev/canonical.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "rev/pprm.hpp"
#include "rev/pprm_transform.hpp"

namespace rmrls {

namespace {

/// Relocates each set bit i of `x` to position sigma[i].
std::uint64_t permute_bits(std::uint64_t x, const std::vector<int>& sigma) {
  std::uint64_t y = 0;
  for (std::size_t i = 0; i < sigma.size(); ++i) {
    y |= ((x >> i) & 1u) << sigma[i];
  }
  return y;
}

void check_permutation(const std::vector<int>& sigma, int n) {
  if (static_cast<int>(sigma.size()) != n) {
    throw std::invalid_argument("wire permutation has the wrong size");
  }
  std::uint64_t seen = 0;
  for (const int v : sigma) {
    if (v < 0 || v >= n || ((seen >> v) & 1u) != 0) {
      throw std::invalid_argument("wire relabeling is not a permutation");
    }
    seen |= std::uint64_t{1} << v;
  }
}

std::vector<int> inverse_of(const std::vector<int>& sigma) {
  std::vector<int> inv(sigma.size());
  for (std::size_t i = 0; i < sigma.size(); ++i) {
    inv[sigma[i]] = static_cast<int>(i);
  }
  return inv;
}

std::vector<int> identity_perm(int n) {
  std::vector<int> id(n);
  for (int i = 0; i < n; ++i) id[i] = i;
  return id;
}

/// The image vector of P_sigma o f o P_sigma^-1.
std::vector<std::uint64_t> conjugate_image(
    const std::vector<std::uint64_t>& image, const std::vector<int>& sigma) {
  std::vector<std::uint64_t> out(image.size());
  for (std::uint64_t x = 0; x < image.size(); ++x) {
    out[permute_bits(x, sigma)] = permute_bits(image[x], sigma);
  }
  return out;
}

/// Per-wire relabeling invariant: for every input Hamming weight w, how
/// often output bit i is 1 and how often it differs from input bit i.
/// Conjugation by sigma carries wire i's signature to wire sigma[i]
/// unchanged (weight-w inputs map onto weight-w inputs), so only
/// signature-compatible relabelings can reach the orbit minimum — the
/// candidate sets above exact_max_vars (docs/caching.md). Wire i's
/// signature is row i of the result, `stride` = 2 (n + 1) counts long.
std::vector<std::uint32_t> wire_signatures(std::span<const std::uint64_t> image,
                                           int n, std::size_t stride) {
  std::vector<std::uint32_t> sigs(static_cast<std::size_t>(n) * stride, 0);
  const std::size_t toggles = static_cast<std::size_t>(n) + 1;
  std::size_t w = 0;  // Hamming weight of x
  for (std::uint64_t x = 0; x < image.size(); ++x) {
    if (x != 0) w = w + 1 - static_cast<std::size_t>(std::countr_zero(x));
    const std::uint64_t y = image[x];
    for (std::uint64_t b = y; b != 0; b &= b - 1) {
      ++sigs[std::countr_zero(b) * stride + w];
    }
    for (std::uint64_t b = y ^ x; b != 0; b &= b - 1) {
      ++sigs[std::countr_zero(b) * stride + toggles + w];
    }
  }
  return sigs;
}

constexpr int kMaxWires = 64;

std::uint64_t bit(int i) { return std::uint64_t{1} << i; }

/// The wire of a cell that holds one. A cell is never empty; the modulus
/// only tells the compiler that the result indexes a kMaxWires array.
std::size_t sole_wire(std::uint64_t cell) {
  return static_cast<std::size_t>(std::countr_zero(cell)) % kMaxWires;
}

/// An ordered partition of the representative's positions into cells, each
/// a run of consecutive positions. Bit p of `starts` marks the first
/// position of a cell; `wires[p]` then holds, as a bit set, the wires that
/// may still land in that cell. The relabelings a partition admits are
/// those that send every wire into its cell.
struct Cells {
  std::uint64_t starts = 1;
  std::array<std::uint64_t, kMaxWires> wires{};
};

/// The candidate relabelings: every wire anywhere when `use_signatures` is
/// false, otherwise each wire within the block of wires sharing its
/// signature. Blocks take consecutive positions in signature order, so
/// every orbit member derives the same cell structure.
Cells initial_cells(std::span<const std::uint64_t> image, int n,
                    bool use_signatures) {
  Cells cells;
  if (!use_signatures) {
    cells.wires[0] = bit(n) - 1;
    return cells;
  }
  const std::size_t stride = 2 * static_cast<std::size_t>(n + 1);
  const std::vector<std::uint32_t> sigs = wire_signatures(image, n, stride);
  const auto sig = [&](int wire) {
    return std::span<const std::uint32_t>(sigs).subspan(wire * stride,
                                                        stride);
  };
  const auto less = [&](int a, int b) {
    const auto sa = sig(a);
    const auto sb = sig(b);
    return std::lexicographical_compare(sa.begin(), sa.end(), sb.begin(),
                                        sb.end());
  };
  std::vector<int> order = identity_perm(n);
  std::stable_sort(order.begin(), order.end(), less);
  int start = 0;
  for (int pos = 0; pos < n; ++pos) {
    if (pos > 0 && less(order[pos - 1], order[pos])) {
      start = pos;
      cells.starts |= bit(pos);
    }
    cells.wires[start] |= bit(order[pos]);
  }
  return cells;
}

/// Product of |cell|! with saturation at `cap + 1`.
std::uint64_t count_candidates(const Cells& cells, std::uint64_t cap) {
  std::uint64_t total = 1;
  for (std::uint64_t s = cells.starts; s != 0; s &= s - 1) {
    const int size = std::popcount(cells.wires[std::countr_zero(s)]);
    for (std::uint64_t k = 2; k <= static_cast<std::uint64_t>(size); ++k) {
      if (total > cap / k) return cap + 1;
      total *= k;
    }
  }
  return total;
}

/// A wire permutation that conjugates the function to itself.
struct Automorphism {
  std::array<std::uint8_t, kMaxWires> image;  ///< wire -> wire
  std::uint64_t fixed = 0;                     ///< wires it maps to themselves
};

/// Branch-and-bound search for the lexicographically least conjugate
/// P_sigma o f o P_sigma^-1 over the relabelings some cells admit. It fixes
/// the representative row by row: row 2^p is the first that needs the wire
/// at position p, so the search branches there over the wires p's cell
/// holds, ascending. Every row then refines each cell by the row's image
/// (its wires in the image move to the cell's lowest positions), which
/// makes the row's value the least any remaining relabeling gives; a
/// branch dies at its first row above the best image's. Leaves that tie
/// the best image differ from the side's reference leaf (its first such
/// leaf) by an automorphism; the search records it, unwinds to where the
/// two paths split, and skips every child an automorphism fixing the
/// node's prefix maps onto an explored child (McKay & Piperno, "Practical
/// graph isomorphism II", 2014).
///
/// run() searches one side and may be called again for the other: the
/// best image is kept across calls and an earlier side wins ties. Within
/// a side the winner is its first leaf in depth-first order, i.e. the
/// relabeling least in wire-at-position order; first_in_block_order()
/// turns it into the odometer order the stored transforms follow.
class OrbitSearch {
 public:
  /// `best` and `source` each hold 2^n rows.
  OrbitSearch(int n, std::uint64_t* best, std::uint64_t* source)
      : n_(n), rows_(std::uint64_t{1} << n), best_(best), source_(source) {}

  void run(const std::uint64_t* image, const Cells& cells, bool inverted) {
    image_ = image;
    inverted_ = inverted;
    cells_ = cells;
    have_reference_ = false;
    descend(0, 0, !have_best_);
  }

  [[nodiscard]] bool best_inverted() const { return best_inverted_; }

  /// The winning relabeling as position -> wire, moved to the relabeling
  /// that the odometer over `cells` (the winning side's; its last cell
  /// most significant, each cell's wires by ascending position) meets
  /// first among all that give the best image. Those are the winner
  /// composed with the automorphism group, which the recorded
  /// automorphisms generate. When each of them moves wires of one cell
  /// only, the group acts on every cell separately and the winner already
  /// is that relabeling; otherwise the group is enumerated. It acts freely
  /// on the candidates, so it has no more elements than they have.
  [[nodiscard]] std::array<std::uint8_t, kMaxWires> first_in_block_order(
      const Cells& cells) const {
    const auto within_one_cell = [&](const Automorphism& a) {
      const std::uint64_t moved = ~a.fixed & (rows_ - 1);  // n wires
      for (std::uint64_t s = cells.starts; s != 0; s &= s - 1) {
        const std::uint64_t cell = cells.wires[std::countr_zero(s)];
        if ((moved & ~cell) == 0) return true;
      }
      return false;
    };
    if (std::all_of(autos_.begin(), autos_.end(), within_one_cell)) {
      return best_wire_at_;
    }
    std::vector<int> order;  // positions, most significant first
    for (int p = n_ - 1; p >= 0;) {
      int lo = p;
      while (((cells.starts >> lo) & 1u) == 0) --lo;
      for (int q = lo; q <= p; ++q) order.push_back(q);
      p = lo - 1;
    }
    // Group elements as wire -> wire byte strings, so they hash as keys.
    std::string identity(static_cast<std::size_t>(n_), '\0');
    for (int w = 0; w < n_; ++w) identity[w] = static_cast<char>(w);
    std::unordered_set<std::string> seen{identity};
    std::vector<std::string> group{identity};
    std::array<std::uint8_t, kMaxWires> first = best_wire_at_;
    for (std::size_t i = 0; i < group.size(); ++i) {
      const std::string g = group[i];  // group grows below
      const auto precedes = [&] {
        for (const int p : order) {
          const auto w = static_cast<std::uint8_t>(g[best_wire_at_[p]]);
          if (w != first[p]) return w < first[p];
        }
        return false;
      };
      if (precedes()) {
        for (int p = 0; p < n_; ++p) {
          first[p] = static_cast<std::uint8_t>(g[best_wire_at_[p]]);
        }
      }
      for (const Automorphism& a : autos_) {
        std::string next(g.size(), '\0');
        for (int w = 0; w < n_; ++w) {
          next[w] = static_cast<char>(a.image[static_cast<std::uint8_t>(g[w])]);
        }
        if (seen.insert(next).second) group.push_back(std::move(next));
      }
    }
    return first;
  }

 private:
  static constexpr int kNoUnwind = kMaxWires + 1;

  /// Extends the current node from row `y` on. `better` holds once an
  /// earlier row of this path is below best_'s; from then on the path
  /// writes its rows into best_. Returns the branch depth to resume at.
  int descend(std::uint64_t y, int depth, bool better) {
    for (; y < rows_; ++y) {
      std::uint64_t x = 0;
      if (y != 0) {
        // Positions below y's top bit hold one wire each by now.
        const int p = std::countr_zero(y);
        const std::uint64_t wires = cells_.wires[p];
        if ((y & (y - 1)) == 0 && (wires & (wires - 1)) != 0) {
          return branch(y, p, depth, better);
        }
        x = source_[y & (y - 1)] | wires;
      }
      source_[y] = x;
      if (!admit(y, refine(image_[x]), better)) return kNoUnwind;
      if (cells_.starts == rows_ - 1) return finish(y + 1, better);
    }
    return leaf(better);
  }

  /// descend() once every position holds one wire: nothing splits or
  /// branches any more, and a row's value is its image row relabeled.
  int finish(std::uint64_t y, bool better) {
    std::array<std::uint8_t, kMaxWires> position{};
    for (int p = 0; p < n_; ++p) {
      position[sole_wire(cells_.wires[p])] = static_cast<std::uint8_t>(p);
    }
    for (; y < rows_; ++y) {
      const std::uint64_t x =
          source_[y & (y - 1)] | cells_.wires[std::countr_zero(y)];
      source_[y] = x;
      std::uint64_t value = 0;
      for (std::uint64_t b = image_[x]; b != 0; b &= b - 1) {
        value |= bit(position[std::countr_zero(b)]);
      }
      if (!admit(y, value, better)) return kNoUnwind;
    }
    return leaf(better);
  }

  /// Compares row y's value with best_'s; false cuts the branch.
  bool admit(std::uint64_t y, std::uint64_t value, bool& better) {
    if (!better && value != best_[y]) {
      if (value > best_[y]) return false;
      better = true;
    }
    if (better) best_[y] = value;
    return true;
  }

  /// Splits every cell by the image row `out` and returns the row's value.
  /// Only a split needs the count of wires; a path splits at most n - 1
  /// times, so the common case stays free of popcounts (which, without
  /// the popcnt instruction, are library calls).
  std::uint64_t refine(std::uint64_t out) {
    std::uint64_t value = 0;
    for (std::uint64_t s = cells_.starts; s != 0; s &= s - 1) {
      const int lo = std::countr_zero(s);
      const std::uint64_t cell = cells_.wires[lo];
      const std::uint64_t in = out & cell;
      if (in == cell) {
        const std::uint64_t next = s & (s - 1);
        // The whole cell: positions lo up to the next start (rows_ is bit n).
        value |= (next == 0 ? rows_ : next & (~next + 1)) - bit(lo);
      } else if (in != 0) {
        const int k = std::popcount(in);
        value |= (bit(k) - 1) << lo;
        cells_.wires[lo] = in;
        cells_.wires[lo + k] = cell & ~in;
        cells_.starts |= bit(lo + k);
      }
    }
    return value;
  }

  /// Merges the cells split since the partition had `starts`.
  void restore(std::uint64_t starts) {
    for (std::uint64_t extra = cells_.starts & ~starts; extra != 0;
         extra &= extra - 1) {
      const int t = std::countr_zero(extra);
      const int s = std::bit_width(starts & (bit(t) - 1)) - 1;
      cells_.wires[s] |= cells_.wires[t];
    }
    cells_.starts = starts;
  }

  /// Row y = 2^p needs the wire at position p: tries each wire of p's cell
  /// there, ascending, except those an automorphism fixing this node maps
  /// onto a wire already tried.
  int branch(std::uint64_t y, int p, int depth, bool better) {
    const std::uint64_t cell = cells_.wires[p];
    const std::uint64_t starts = cells_.starts;
    std::uint64_t fixed = 0;  // the node's prefix: every placed wire
    for (std::uint64_t s = starts; s != 0; s &= s - 1) {
      const std::uint64_t wires = cells_.wires[std::countr_zero(s)];
      if (std::has_single_bit(wires)) fixed |= wires;
    }
    std::uint64_t explored = 0;
    for (std::uint64_t rest = cell; rest != 0; rest &= rest - 1) {
      const std::uint64_t w = rest & (~rest + 1);
      if ((orbit(w, fixed) & explored) != 0) continue;
      explored |= w;
      cells_.wires[p] = w;
      cells_.wires[p + 1] = cell & ~w;
      cells_.starts |= bit(p + 1);
      path_[depth] = std::countr_zero(w);
      const int resume = descend(y, depth + 1, better);
      restore(starts);
      // The first child left best_ equal to this node's rows.
      better = false;
      if (resume < depth) return resume;
    }
    return kNoUnwind;
  }

  /// The orbit of the wire set `w` under the automorphisms that fix every
  /// wire of `fixed`.
  [[nodiscard]] std::uint64_t orbit(std::uint64_t w,
                                    std::uint64_t fixed) const {
    std::uint64_t members = w;
    for (std::uint64_t frontier = w; frontier != 0;) {
      std::uint64_t next = 0;
      for (const Automorphism& a : autos_) {
        if ((fixed & ~a.fixed) != 0) continue;
        for (std::uint64_t f = frontier; f != 0; f &= f - 1) {
          next |= bit(a.image[std::countr_zero(f)]);
        }
      }
      frontier = next & ~members;
      members |= next;
    }
    return members;
  }

  int leaf(bool better) {
    std::array<std::uint8_t, kMaxWires> wire_at{};
    for (int p = 0; p < n_; ++p) {
      wire_at[p] = static_cast<std::uint8_t>(sole_wire(cells_.wires[p]));
    }
    if (better || !have_reference_) {
      have_reference_ = true;
      reference_wire_at_ = wire_at;
      reference_path_ = path_;
      if (better) {
        have_best_ = true;
        best_inverted_ = inverted_;
        best_wire_at_ = wire_at;
      }
      return kNoUnwind;
    }
    // Same image as the reference: alpha = reference^-1 o leaf maps the
    // function to itself.
    Automorphism& a = autos_.emplace_back();
    for (int p = 0; p < n_; ++p) a.image[wire_at[p]] = reference_wire_at_[p];
    for (int w = 0; w < n_; ++w) {
      if (a.image[w] == w) a.fixed |= bit(w);
    }
    int split = 0;
    while (path_[split] == reference_path_[split]) ++split;
    return split;
  }

  int n_;
  std::uint64_t rows_;
  std::uint64_t* best_;
  std::uint64_t* source_;  ///< source_[y]: the row of f feeding row y
  const std::uint64_t* image_ = nullptr;
  bool inverted_ = false;
  Cells cells_;
  std::array<int, kMaxWires> path_{};  ///< wire chosen at each branch depth

  bool have_best_ = false;
  bool best_inverted_ = false;
  std::array<std::uint8_t, kMaxWires> best_wire_at_{};

  bool have_reference_ = false;
  std::array<std::uint8_t, kMaxWires> reference_wire_at_{};
  std::array<int, kMaxWires> reference_path_{};

  std::vector<Automorphism> autos_;
};

std::uint64_t key_of(const TruthTable& representative) {
  return pprm_of_truth_table(representative).hash();
}

/// The spec as its own representative: the cache still deduplicates
/// exact resubmissions, just not orbits.
CanonicalForm identity_orbit(const TruthTable& spec) {
  CanonicalForm out;
  out.representative = spec;
  out.transform.sigma = identity_perm(spec.num_vars());
  out.key = key_of(spec);
  return out;
}

}  // namespace

TruthTable conjugate(const TruthTable& f, const std::vector<int>& sigma) {
  check_permutation(sigma, f.num_vars());
  return TruthTable(conjugate_image(f.image(), sigma));
}

CanonicalForm canonicalize(const TruthTable& spec,
                           const CanonicalOptions& options) {
  const int n = spec.num_vars();
  if (n < 1 || n > options.max_vars) return identity_orbit(spec);

  // The candidate budget must be judged for both sides — the signature
  // multisets of pi and pi^-1 generally differ — and the fallback must
  // trigger symmetrically or orbit members would disagree on their key.
  const bool use_signatures = n > options.exact_max_vars;
  const auto over_budget = [&](const Cells& cells) {
    return use_signatures && count_candidates(cells, options.max_candidates) >
                                 options.max_candidates;
  };
  const std::vector<std::uint64_t>& image = spec.image();
  const Cells spec_cells = initial_cells(image, n, use_signatures);
  if (over_budget(spec_cells)) return identity_orbit(spec);
  const std::uint64_t rows = image.size();
  // The inverse's image, then the search's source rows.
  std::vector<std::uint64_t> work(2 * rows);
  for (std::uint64_t x = 0; x < rows; ++x) work[image[x]] = x;
  const std::span<const std::uint64_t> inverse(work.data(), rows);
  const Cells inverse_cells = initial_cells(inverse, n, use_signatures);
  if (over_budget(inverse_cells)) return identity_orbit(spec);

  std::vector<std::uint64_t> best(rows);
  OrbitSearch search(n, best.data(), work.data() + rows);
  search.run(image.data(), spec_cells, /*inverted=*/false);
  search.run(inverse.data(), inverse_cells, /*inverted=*/true);
  const bool inverted = search.best_inverted();
  const std::array<std::uint8_t, kMaxWires> wire_at =
      search.first_in_block_order(inverted ? inverse_cells : spec_cells);

  CanonicalForm out;
  out.transform.sigma.resize(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) out.transform.sigma[wire_at[p]] = p;
  out.transform.inverted = inverted;
  out.representative = TruthTable(std::move(best));
  out.key = key_of(out.representative);
  return out;
}

Circuit reconstruct_circuit(const Circuit& canonical_circuit,
                            const OrbitTransform& transform) {
  check_permutation(transform.sigma, canonical_circuit.num_lines());
  Circuit c = canonical_circuit.relabel_wires(inverse_of(transform.sigma));
  return transform.inverted ? c.inverse() : c;
}

Circuit canonical_circuit_of(const Circuit& circuit,
                             const OrbitTransform& transform) {
  check_permutation(transform.sigma, circuit.num_lines());
  const Circuit base = transform.inverted ? circuit.inverse() : circuit;
  return base.relabel_wires(transform.sigma);
}

TruthTable reconstruct_spec(const TruthTable& representative,
                            const OrbitTransform& transform) {
  const TruthTable conj =
      conjugate(representative, inverse_of(transform.sigma));
  return transform.inverted ? conj.inverse() : conj;
}

std::uint64_t stable_spec_key(const TruthTable& spec) {
  // FNV-1a, 64-bit. Frozen constants: this key is persisted in checkpoint
  // files and decides shard membership across processes, so it must hash
  // identically forever (docs/fleet.md). Each image value is folded as 8
  // little-endian bytes after a num_vars prefix byte, which is exactly the
  // information content of the normalized spec line.
  constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h = kOffset;
  const auto fold = [&](std::uint64_t byte) {
    h ^= byte & 0xffu;
    h *= kPrime;
  };
  fold(static_cast<std::uint64_t>(spec.num_vars()));
  for (const std::uint64_t v : spec.image()) {
    for (int b = 0; b < 8; ++b) fold(v >> (8 * b));
  }
  return h;
}

}  // namespace rmrls
