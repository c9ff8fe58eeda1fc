/// \file canonical_golden.cpp
/// \brief Prints canonicalize()'s key and transform for a fixed, seeded set
/// of specs at n = 3..12, one line per spec:
///
///     n label key=<hex> sigma=<s0,s1,...> inverted=<0|1>
///
/// bench/golden/canonical_golden.cmake compares the output with
/// bench/golden/canonical_golden.txt, so any change of a key or a stored
/// transform (which would orphan disk stores and change the circuits a
/// cache miss synthesizes) fails the build's tests.
///
/// With `--time MS` it instead times every spec, repeating the call for
/// about MS milliseconds, and prints one mean per (family, n):
///
///     n family mean_us=<microseconds> calls=<count>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench_suite/functions.hpp"
#include "io/flags.hpp"
#include "rev/canonical.hpp"
#include "rev/random.hpp"

namespace {

using namespace rmrls;

struct Spec {
  int n = 0;
  std::string family;
  std::string label;
  TruthTable table;
};

TruthTable table_of(int n, auto&& f) {
  std::vector<std::uint64_t> image(std::uint64_t{1} << n);
  for (std::uint64_t x = 0; x < image.size(); ++x) image[x] = f(x);
  return TruthTable(std::move(image));
}

/// Fisher-Yates with a plain modulus, so the draw does not depend on the
/// standard library's distributions.
std::vector<int> random_sigma(int n, std::mt19937_64& rng) {
  std::vector<int> sigma(n);
  for (int i = 0; i < n; ++i) sigma[i] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(sigma[i], sigma[rng() % static_cast<std::uint64_t>(i + 1)]);
  }
  return sigma;
}

/// The bases at width n, each followed by two random orbit members
/// (conjugated, and inverted half the time).
std::vector<Spec> specs_at(int n) {
  std::mt19937_64 rng(0xC0FFEE + static_cast<std::uint64_t>(n));
  const std::uint64_t mask = (std::uint64_t{1} << n) - 1;
  std::vector<std::pair<std::string, TruthTable>> bases;
  if (n <= 10) bases.emplace_back("rand", random_reversible_function(n, rng));
  for (const int gates : {1, 2, 3, 5, 8, 3 * n}) {
    const std::string name = gates == 3 * n ? std::string("nct3n")
                                            : "nct" + std::to_string(gates);
    bases.emplace_back(
        name,
        random_circuit(n, gates, GateLibrary::kNCT, rng).to_truth_table());
  }
  bases.emplace_back("hwb", suite::hwb(n));
  for (const std::uint64_t p : {5u, 13u}) {
    bases.emplace_back("mul" + std::to_string(p),
                       table_of(n, [&](std::uint64_t x) {
                         return (p * x) & mask;
                       }));
  }
  bases.emplace_back("id", TruthTable::identity(n));
  const std::uint64_t top = std::uint64_t{1} << (n - 1);
  bases.emplace_back("tof", table_of(n, [&](std::uint64_t x) {
                       return (x & (top - 1)) == top - 1 ? x ^ top : x;
                     }));
  bases.emplace_back("not1", table_of(n, [](std::uint64_t x) {
                       return x ^ 1u;
                     }));
  bases.emplace_back("notall", table_of(n, [&](std::uint64_t x) {
                       return x ^ mask;
                     }));

  std::vector<Spec> out;
  for (const auto& [family, table] : bases) {
    const std::string label = family + std::to_string(n);
    out.push_back({n, family, label, table});
    for (int m = 1; m <= 2; ++m) {
      TruthTable member = conjugate(table, random_sigma(n, rng));
      if ((rng() & 1u) != 0) member = member.inverse();
      out.push_back({n, family, label + ".m" + std::to_string(m),
                     std::move(member)});
    }
  }
  return out;
}

void print_form(const Spec& spec) {
  const CanonicalForm form = canonicalize(spec.table);
  std::printf("%d %s key=%016llx sigma=", spec.n, spec.label.c_str(),
              static_cast<unsigned long long>(form.key));
  for (std::size_t i = 0; i < form.transform.sigma.size(); ++i) {
    std::printf(i == 0 ? "%d" : ",%d", form.transform.sigma[i]);
  }
  std::printf(" inverted=%d\n", form.transform.inverted ? 1 : 0);
}

/// Mean microseconds per call over about `budget_ms` of repeated calls.
double time_spec(const Spec& spec, double budget_ms, int& calls) {
  using Clock = std::chrono::steady_clock;
  const auto us_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
  };
  Clock::time_point t0 = Clock::now();
  std::uint64_t sink = canonicalize(spec.table).key;
  const double first_us = us_since(t0);
  calls = std::max(1, static_cast<int>(budget_ms * 1e3 / first_us));
  t0 = Clock::now();
  for (int i = 0; i < calls; ++i) sink ^= canonicalize(spec.table).key;
  const double mean = us_since(t0) / calls;
  if (sink == 0x5eed) std::printf("%c", ' ');  // keeps the calls alive
  return mean;
}

}  // namespace

int main(int argc, char** argv) {
  double time_ms = 0;
  FlagTable flags("[--time MS]");
  flags.number("--time", time_ms, "MS",
               "time each spec for about MS milliseconds and print the mean "
               "per (family, n) instead of the forms",
               0.0, 1e6);
  flags.parse(argc, argv);

  for (int n = 3; n <= 12; ++n) {
    const std::vector<Spec> specs = specs_at(n);
    if (time_ms <= 0) {
      for (const Spec& spec : specs) print_form(spec);
      continue;
    }
    struct Mean {
      double sum_us = 0;
      int specs = 0;
      int calls = 0;
    };
    std::map<std::string, Mean> by_family;
    std::vector<std::string> order;
    for (const Spec& spec : specs) {
      int calls = 0;
      const double mean = time_spec(spec, time_ms, calls);
      auto [it, fresh] = by_family.try_emplace(spec.family);
      if (fresh) order.push_back(spec.family);
      it->second.sum_us += mean;
      it->second.specs += 1;
      it->second.calls += calls;
    }
    for (const std::string& family : order) {
      const Mean& m = by_family[family];
      std::printf("%d %s mean_us=%.3f calls=%d\n", n, family.c_str(),
                  m.sum_us / m.specs, m.calls);
    }
  }
  return 0;
}
