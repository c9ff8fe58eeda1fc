#include "rev/circuit.hpp"

#include <sstream>
#include <stdexcept>

#include "rev/pprm.hpp"

namespace rmrls {

std::string gate_to_string(const Gate& g, int num_vars) {
  std::ostringstream os;
  os << "TOF" << g.size() << "(";
  bool first = true;
  for (int v = 0; v < num_vars; ++v) {
    if (!cube_has_var(g.controls, v)) continue;
    if (!first) os << ", ";
    os << cube_to_string(cube_of_var(v), num_vars);
    first = false;
  }
  if (!first) os << "; ";
  os << cube_to_string(cube_of_var(g.target), num_vars) << ")";
  return os.str();
}

Circuit::Circuit(int num_lines) : num_lines_(num_lines) {
  if (num_lines < 0 || num_lines > kMaxVariables) {
    throw std::invalid_argument("num_lines out of range");
  }
}

Circuit::Circuit(int num_lines, std::vector<Gate> gates) : Circuit(num_lines) {
  for (const Gate& g : gates) append(g);
}

namespace {
void check_gate_fits(const Gate& g, int num_lines) {
  const Cube line_mask =
      num_lines == kMaxVariables ? ~Cube{0} : (Cube{1} << num_lines) - 1;
  if (g.target >= num_lines || (g.controls & ~line_mask) != 0) {
    throw std::invalid_argument("gate touches a line outside the circuit");
  }
}
}  // namespace

void Circuit::append(const Gate& g) {
  check_gate_fits(g, num_lines_);
  gates_.push_back(g);
}

std::uint64_t Circuit::simulate(std::uint64_t x) const {
  for (const Gate& g : gates_) x = g.apply(x);
  return x;
}

TruthTable Circuit::to_truth_table() const {
  if (num_lines_ > 24) {
    throw std::invalid_argument(
        "truth table too large; use to_pprm() or sampled checks");
  }
  std::vector<std::uint64_t> image(std::uint64_t{1} << num_lines_);
  for (std::uint64_t x = 0; x < image.size(); ++x) image[x] = simulate(x);
  return TruthTable(std::move(image));
}

Pprm Circuit::to_pprm() const {
  // The cascade realizes F = G_k o ... o G_1 (G_1 applied first). Writing
  // F's outputs over its inputs means substituting the gates into the
  // identity system from the *last* gate backwards: each substitution
  // composes one more gate at the input side.
  Pprm p = Pprm::identity(num_lines_);
  for (auto it = gates_.rbegin(); it != gates_.rend(); ++it) {
    p.substitute(it->target, it->controls);
  }
  return p;
}

Circuit Circuit::inverse() const {
  Circuit inv(num_lines_);
  for (auto it = gates_.rbegin(); it != gates_.rend(); ++it) inv.append(*it);
  return inv;
}

Circuit Circuit::relabel_wires(const std::vector<int>& perm) const {
  if (static_cast<int>(perm.size()) != num_lines_) {
    throw std::invalid_argument("wire permutation has the wrong size");
  }
  std::uint64_t seen = 0;
  for (const int v : perm) {
    if (v < 0 || v >= num_lines_ || ((seen >> v) & 1u) != 0) {
      throw std::invalid_argument("wire relabeling is not a permutation");
    }
    seen |= std::uint64_t{1} << v;
  }
  Circuit out(num_lines_);
  for (const Gate& g : gates_) {
    Cube controls = kConstOne;
    for (int v = 0; v < num_lines_; ++v) {
      if (cube_has_var(g.controls, v)) controls |= cube_of_var(perm[v]);
    }
    out.append(Gate(controls, perm[g.target]));
  }
  return out;
}

Circuit Circuit::then(const Circuit& tail) const {
  if (tail.num_lines_ != num_lines_) {
    throw std::invalid_argument("concatenating circuits of different width");
  }
  Circuit out = *this;
  for (const Gate& g : tail.gates_) out.append(g);
  return out;
}

int Circuit::max_gate_size() const {
  int m = 0;
  for (const Gate& g : gates_) m = std::max(m, g.size());
  return m;
}

std::string Circuit::to_string() const {
  if (gates_.empty()) return "(empty)";
  std::ostringstream os;
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    if (i != 0) os << " ";
    os << gate_to_string(gates_[i], num_lines_);
  }
  return os.str();
}

}  // namespace rmrls
