#include "rev/bitslice.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "rev/pprm_dense.hpp"

namespace rmrls {

namespace {

/// Bits of a column word that stand for an input below 2^n: all of them
/// from n = 6 up. Bits above stay zero through simulation and transform.
[[nodiscard]] std::uint64_t live_bits(int num_vars) {
  return num_vars >= 6 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << (1u << num_vars)) - 1;
}

}  // namespace

void SlicedTable::reset(int num_vars) {
  if (num_vars < 0 || num_vars > kMaxDenseVariables) {
    throw std::invalid_argument("function too wide to slice");
  }
  num_vars_ = num_vars;
  words_ = num_vars > 6 ? std::size_t{1} << (num_vars - 6) : std::size_t{1};
  bits_.assign(static_cast<std::size_t>(num_vars) * words_, 0);
}

SlicedTable::SlicedTable(const Circuit& c) {
  reset(c.num_lines());
  // Start from the identity: line v's column is bit v of every input.
  const std::uint64_t live = live_bits(num_vars_);
  for (int v = 0; v < num_vars_; ++v) {
    std::uint64_t* col = mutable_column(v);
    for (std::size_t w = 0; w < words_; ++w) {
      col[w] = v < 6 ? kDenseVarMask[v] & live
                     : std::uint64_t{0} - ((w >> (v - 6)) & 1u);
    }
  }
  const std::uint64_t* controls[kMaxVariables] = {};
  for (const Gate& g : c.gates()) {
    int k = 0;
    for (Cube rest = g.controls; rest != 0; rest &= rest - 1) {
      controls[k++] = column(std::countr_zero(rest));
    }
    std::uint64_t* target = mutable_column(g.target);
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t fire = live;
      for (int i = 0; i < k; ++i) fire &= controls[i][w];
      target[w] ^= fire;
    }
  }
}

SlicedTable::SlicedTable(const TruthTable& tt) {
  reset(tt.num_vars());
  for (std::uint64_t x = 0; x < tt.size(); ++x) {
    const std::size_t word = x >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (x & 63);
    for (std::uint64_t y = tt.apply(x); y != 0; y &= y - 1) {
      mutable_column(std::countr_zero(y))[word] |= bit;
    }
  }
}

void SlicedTable::moebius_transform() {
  // a_S = XOR of f(x) over x subset of S, one variable j at a time:
  // f[x] ^= f[x ^ 2^j] for every x containing j. For j < 6 both indices
  // share a word and a masked shift does all 32 pairs; for j >= 6 they are
  // whole words 2^(j-6) apart.
  const int low = std::min(num_vars_, 6);
  for (int i = 0; i < num_vars_; ++i) {
    std::uint64_t* col = mutable_column(i);
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t x = col[w];
      for (int j = 0; j < low; ++j) x ^= (x << (1u << j)) & kDenseVarMask[j];
      col[w] = x;
    }
    for (std::size_t stride = 1; stride < words_; stride <<= 1) {
      for (std::size_t base = 0; base < words_; base += 2 * stride) {
        for (std::size_t k = 0; k < stride; ++k) {
          col[base + stride + k] ^= col[base + k];
        }
      }
    }
  }
}

Pprm SlicedTable::to_pprm() const {
  Pprm p(num_vars_);
  for (int i = 0; i < num_vars_; ++i) {
    const std::uint64_t* col = column(i);
    std::size_t terms = 0;
    for (std::size_t w = 0; w < words_; ++w) terms += std::popcount(col[w]);
    std::vector<Cube> cubes;
    cubes.reserve(terms);
    for (std::size_t w = 0; w < words_; ++w) {
      for (std::uint64_t word = col[w]; word != 0; word &= word - 1) {
        cubes.push_back((static_cast<Cube>(w) << 6) +
                        static_cast<unsigned>(std::countr_zero(word)));
      }
    }
    p.output(i) = CubeList(std::move(cubes));
  }
  return p;
}

bool SlicedTable::equals_pprm(const Pprm& p) const {
  if (p.num_vars() != num_vars_) return false;
  for (int i = 0; i < num_vars_; ++i) {
    const std::uint64_t* col = column(i);
    const std::vector<Cube>& cubes = p.output(i).cubes();
    std::size_t terms = 0;
    for (std::size_t w = 0; w < words_; ++w) terms += std::popcount(col[w]);
    // The cubes are distinct, so equal counts plus every cube present
    // means equal sets.
    if (terms != cubes.size()) return false;
    for (const Cube c : cubes) {
      if ((c >> num_vars_) != 0 || ((col[c >> 6] >> (c & 63)) & 1u) == 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace rmrls
