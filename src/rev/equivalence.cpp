#include "rev/equivalence.hpp"

#include <stdexcept>

#include "rev/bitslice.hpp"

namespace rmrls {

bool equivalent(const Circuit& a, const Circuit& b) {
  if (a.num_lines() != b.num_lines()) {
    throw std::invalid_argument("comparing circuits of different width");
  }
  if (a.num_lines() <= kMaxSimulatedLines) {
    return SlicedTable(a) == SlicedTable(b);
  }
  // Compare the canonical PPRMs directly. (Appending b's mirror to a and
  // checking for the identity is also exact but can blow up the
  // intermediate expansions exponentially on wide carry-chain circuits.)
  return a.to_pprm() == b.to_pprm();
}

bool equivalent(const Circuit& c, const Pprm& spec) {
  if (c.num_lines() != spec.num_vars()) {
    throw std::invalid_argument("comparing circuit and spec of different width");
  }
  if (c.num_lines() > kMaxSimulatedLines) return c.to_pprm() == spec;
  SlicedTable table(c);
  table.moebius_transform();
  return table.equals_pprm(spec);
}

bool equivalent(const MixedCircuit& a, const Circuit& b) {
  return equivalent(a.to_toffoli(), b);
}

}  // namespace rmrls
