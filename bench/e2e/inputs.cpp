#include "bench/e2e/inputs.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <unordered_set>

#include "bench_suite/functions.hpp"
#include "core/batch.hpp"
#include "core/synthesizer.hpp"
#include "io/spec.hpp"
#include "rev/canonical.hpp"
#include "rev/random.hpp"

namespace rmrls::e2e {

namespace {

/// Seed of the reference blocks of the cold workloads.
constexpr std::uint64_t kReferenceSeed = 0x7265666572656e63ULL;

TruthTable random_cascade(int n, std::mt19937_64& rng) {
  const int gates = 2 + static_cast<int>(rng() % 7u);  // 2..8 gates
  return random_circuit(n, gates, GateLibrary::kNCT, rng).to_truth_table();
}

TruthTable prime_multiplier(int n, std::uint64_t p) {
  const std::uint64_t size = std::uint64_t{1} << n;
  std::vector<std::uint64_t> image(size);
  for (std::uint64_t x = 0; x < size; ++x) image[x] = (p * x) & (size - 1);
  return TruthTable(std::move(image));
}

/// Keeps only specs whose canonical orbit has not been seen before.
class OrbitSet {
 public:
  bool fresh(const TruthTable& spec) {
    return keys_.insert(canonicalize(spec).key).second;
  }

 private:
  std::unordered_set<std::uint64_t> keys_;
};

}  // namespace

std::vector<TruthTable> cold_small_specs(std::uint64_t seed, std::size_t count,
                                         std::size_t reference) {
  std::mt19937_64 fixed_rng(kReferenceSeed ^ 0x636f6c64736d616cULL);
  std::mt19937_64 rng(seed ^ 0x636f6c64736d616cULL);
  reference = std::min(reference, count);
  std::vector<TruthTable> specs;
  specs.reserve(count);
  if (reference > 0) specs.push_back(suite::fig1());
  while (specs.size() < count) {
    specs.push_back(random_reversible_function(
        3, specs.size() < reference ? fixed_rng : rng));
  }
  return specs;
}

std::vector<TruthTable> cold_search_specs(std::uint64_t seed,
                                          std::size_t count,
                                          std::size_t reference) {
  OrbitSet seen;
  std::vector<TruthTable> specs;
  specs.reserve(count);
  // One block of `size` specs in the 3/8 : 3/8 : 1/4 mix, in its own order.
  const auto block = [&](std::size_t size, std::mt19937_64 rng) {
    const std::size_t begin = specs.size();
    const std::size_t random4 = size * 3 / 8;
    const std::size_t random5 = size * 3 / 8;
    while (specs.size() - begin < size) {
      const std::size_t i = specs.size() - begin;
      TruthTable t = i < random4 ? random_reversible_function(4, rng)
                     : i < random4 + random5
                         ? random_reversible_function(5, rng)
                         : random_cascade(4 + (i & 1), rng);
      if (seen.fresh(t)) specs.push_back(std::move(t));
    }
    std::shuffle(specs.begin() + static_cast<std::ptrdiff_t>(begin),
                 specs.end(), rng);
  };
  reference = std::min(reference, count);
  block(reference, std::mt19937_64(kReferenceSeed ^ 0x636f6c6473656172ULL));
  block(count - reference, std::mt19937_64(seed ^ 0x636f6c6473656172ULL));
  return specs;
}

std::vector<Base> orbit_bases(int min_vars, int max_vars) {
  std::mt19937_64 rng(0x6f72626974626173ULL);
  static constexpr std::uint64_t kPrimes[] = {3, 5, 7, 11, 13, 17, 19, 23,
                                              29, 31, 37, 41, 43, 47};
  OrbitSet seen;
  std::vector<Base> bases;
  const auto add = [&](std::string label, TruthTable spec) {
    if (seen.fresh(spec)) bases.push_back({std::move(label), std::move(spec)});
  };
  for (int n = min_vars; n <= max_vars; ++n) {
    const std::string w = std::to_string(n);
    add("hwb" + w, suite::hwb(n));
    for (int k = 0; k < 2; ++k) {
      const std::uint64_t p = kPrimes[rng() % std::size(kPrimes)];
      add("prime" + w + "_p" + std::to_string(p), prime_multiplier(n, p));
    }
    for (int k = 0; k < 3; ++k) add("tof" + w, random_cascade(n, rng));
    if (n <= 5) {
      for (int k = 0; k < 2; ++k) {
        add("rand" + w, random_reversible_function(n, rng));
      }
    }
  }
  return bases;
}

MemberDeck::MemberDeck(const std::vector<Base>& bases, std::uint64_t seed)
    : rng_(seed) {
  std::map<int, std::vector<const Base*>> widths;
  for (const Base& b : bases) widths[b.spec.num_vars()].push_back(&b);
  for (auto& [n, of_width] : widths) {
    by_width_.push_back(of_width);
    width_order_.push_back(width_order_.size());
    base_order_.emplace_back(of_width.size());
    std::iota(base_order_.back().begin(), base_order_.back().end(), 0);
  }
  width_pos_ = width_order_.size();
  base_pos_.assign(by_width_.size(), 0);
  for (std::size_t w = 0; w < by_width_.size(); ++w) {
    base_pos_[w] = base_order_[w].size();
  }
}

std::size_t MemberDeck::deal(std::vector<std::size_t>& order,
                             std::size_t& pos) {
  if (pos == order.size()) {
    std::shuffle(order.begin(), order.end(), rng_);
    pos = 0;
  }
  return order[pos++];
}

TruthTable MemberDeck::next() {
  const std::size_t w = deal(width_order_, width_pos_);
  const Base& base = *by_width_[w][deal(base_order_[w], base_pos_[w])];
  std::vector<int> sigma(static_cast<std::size_t>(base.spec.num_vars()));
  std::iota(sigma.begin(), sigma.end(), 0);
  std::shuffle(sigma.begin(), sigma.end(), rng_);
  TruthTable member = conjugate(base.spec, sigma);
  if ((rng_() & 1u) != 0) member = member.inverse();
  return member;
}

std::size_t MemberDeck::period() const {
  std::size_t bases = 1;
  for (const std::vector<std::size_t>& order : base_order_) {
    bases = std::lcm(bases, order.size());
  }
  return by_width_.size() * bases;
}

std::string spec_list_text(const std::vector<TruthTable>& specs) {
  std::string text;
  for (const TruthTable& t : specs) {
    text += write_permutation_spec(t);
    text += '\n';
  }
  return text;
}

bool prefill_store(const std::string& dir, const std::vector<Base>& bases) {
  SynthCacheOptions options;
  options.dir = dir;
  SynthCache cache(options);
  ResilienceOptions resilience;
  resilience.search.max_nodes = 20000;
  resilience.enable_greedy = false;
  bool ok = true;
  for (const Base& b : bases) {
    const CachedSynthesisOutcome out =
        synthesize_cached(b.spec, &cache, CanonicalOptions{}, resilience);
    ok = ok && out.status.ok();
  }
  return ok;
}

std::string Oracle::check(const TruthTable& spec, const Circuit& circuit) {
  if (circuit.num_lines() != spec.num_vars()) {
    return "circuit has " + std::to_string(circuit.num_lines()) +
           " lines, spec " + std::to_string(spec.num_vars());
  }
  if (!implements(circuit, spec)) return "circuit does not realize the spec";
  if (spec.num_vars() == 3) {
    if (optimal3_ == nullptr) {
      optimal3_ = std::make_unique<OptimalCounts3>(OptimalLibrary::kNCT);
    }
    const int optimum = optimal3_->distance(spec);
    if (circuit.gate_count() < optimum) {
      return std::to_string(circuit.gate_count()) +
             " gates beats the BFS optimum " + std::to_string(optimum);
    }
  }
  return {};
}

}  // namespace rmrls::e2e
