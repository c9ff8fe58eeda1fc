#include "rev/pprm_transform.hpp"

#include <bit>
#include <stdexcept>

#include "rev/bitslice.hpp"

namespace rmrls {

void reed_muller_transform(std::vector<std::uint8_t>& f) {
  const std::size_t n = f.size();
  if (n == 0 || !std::has_single_bit(n)) {
    throw std::invalid_argument("truth vector size must be a power of two");
  }
  for (std::size_t stride = 1; stride < n; stride <<= 1) {
    for (std::size_t x = 0; x < n; ++x) {
      if (x & stride) f[x] ^= f[x ^ stride];
    }
  }
}

CubeList pprm_of_truth_vector(std::vector<std::uint8_t> f) {
  reed_muller_transform(f);
  std::vector<Cube> cubes;
  for (std::size_t x = 0; x < f.size(); ++x) {
    if (f[x] & 1) cubes.push_back(static_cast<Cube>(x));
  }
  return CubeList(std::move(cubes));
}

Pprm pprm_of_truth_table(const TruthTable& tt) {
  SlicedTable table(tt);
  table.moebius_transform();
  return table.to_pprm();
}

TruthTable truth_table_of_pprm(const Pprm& p) {
  if (p.num_vars() > 24) {
    throw std::invalid_argument("PPRM too wide to enumerate");
  }
  std::vector<std::uint64_t> image(std::uint64_t{1} << p.num_vars());
  for (std::uint64_t x = 0; x < image.size(); ++x) image[x] = p.eval(x);
  return TruthTable(std::move(image));  // validates bijectivity
}

}  // namespace rmrls
