/// \file table3_random5.cpp
/// \brief Reproduces Table III: circuit-size histogram for random
/// five-variable reversible functions, including the failure rate.
///
/// The paper draws 3000 uniform random permutations of {0..31}, 180 s per
/// function, a 60-gate cap, greedy pruning; 6.5% failed. Default here:
/// 150 seeded samples (--full for 3000).

#include <iostream>
#include <random>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/synthesizer.hpp"
#include "io/table.hpp"
#include "rev/random.hpp"

int main(int argc, char** argv) {
  using namespace rmrls;
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::BenchTelemetry telemetry(args);
  bench::BenchJson json(args);
  const std::uint64_t sample =
      args.full ? 3000 : (args.samples ? args.samples : 60);

  SynthesisOptions options = args.options(60000);
  options.max_gates = 60;  // the paper's cap
  options.greedy_k = 4;    // the paper's greedy option

  std::cout << "=== Table III: random five-variable reversible functions ===\n"
            << sample << " seeded samples (paper: 3000), max 60 gates, "
            << "greedy k=4, " << options.max_nodes
            << " nodes per function\n\n";

  std::vector<std::uint64_t> histogram(61, 0);
  std::uint64_t fails = 0;
  double gate_sum = 0;
  std::mt19937_64 rng(args.seed);
  for (std::uint64_t i = 0; i < sample; ++i) {
    const TruthTable f = random_reversible_function(5, rng);
    const SynthesisResult r = synthesize(f, options);
    json.record("5var-" + std::to_string(i), 5, r,
                r.success ? &r.circuit : nullptr);
    if (!r.success) {
      ++fails;
      continue;
    }
    ++histogram[static_cast<std::size_t>(r.circuit.gate_count())];
    gate_sum += r.circuit.gate_count();
  }

  TextTable table({"Circuit size", "No. of circuits"});
  for (std::size_t g = 0; g <= 60; ++g) {
    if (histogram[g] == 0) continue;
    table.add_row({std::to_string(g), std::to_string(histogram[g])});
  }
  table.print(std::cout);
  const std::uint64_t ok = sample - fails;
  std::cout << "\nAverage size: " << (ok ? fixed(gate_sum / ok) : "-")
            << "   failures: " << fails << " / " << sample << " ("
            << fixed(100.0 * fails / sample, 1) << "%)\n";
  std::cout << "Paper reference: sizes 28-51, bulk in 30-45, 194/3000"
               " (6.5%) failed within 180 s.\n";
  return 0;
}
