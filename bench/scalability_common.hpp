/// \file scalability_common.hpp
/// \brief Shared driver for Tables V-VII (the Section V-E scalability
/// experiments).
///
/// Pipeline, exactly as the paper describes: draw a random GT-library
/// cascade with a bounded gate count, derive the realized function's PPRM
/// (by reverse gate substitution -- no truth table, so 16 variables cost
/// nothing), then re-synthesize from the PPRM alone, stopping at the first
/// valid circuit. Reported: a histogram of found sizes in buckets of five,
/// plus the failure count/rate per variable count.

#pragma once

#include <iostream>
#include <random>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/synthesizer.hpp"
#include "io/table.hpp"
#include "rev/random.hpp"

namespace rmrls::bench {

inline int run_scalability_table(const char* title, int max_gate_count,
                                 std::uint64_t paper_samples,
                                 std::uint64_t default_samples,
                                 std::uint64_t default_nodes, int argc,
                                 char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  BenchTelemetry telemetry(args);
  BenchJson json(args);
  const std::uint64_t samples =
      args.full ? paper_samples
                : (args.samples ? args.samples : default_samples);

  SynthesisOptions options = args.options(default_nodes);
  options.stop_at_first_solution = true;
  options.greedy_k = 4;  // the paper's greedy option

  std::cout << "=== " << title << " ===\n"
            << samples << " random GT cascades per variable count (paper: "
            << paper_samples << "), max " << max_gate_count
            << " gates per cascade, first-solution mode, "
            << options.max_nodes << " nodes per function\n\n";

  constexpr int kBuckets = 8;  // 1-5, 6-10, ..., 36-40
  TextTable table({"Vars", "1-5", "6-10", "11-15", "16-20", "21-25", "26-30",
                   "31-35", "36-40", ">40", "Failed", "%"});
  std::mt19937_64 rng(args.seed);
  std::uniform_int_distribution<int> gate_count_dist(1, max_gate_count);
  for (int vars = 6; vars <= 16; ++vars) {
    std::vector<std::uint64_t> buckets(kBuckets + 1, 0);
    std::uint64_t fails = 0;
    for (std::uint64_t i = 0; i < samples; ++i) {
      const Circuit random_cascade =
          random_circuit(vars, gate_count_dist(rng), GateLibrary::kGT, rng);
      const SynthesisResult r = synthesize(random_cascade.to_pprm(), options);
      json.record(std::to_string(vars) + "var-" + std::to_string(i), vars, r,
                  r.success ? &r.circuit : nullptr);
      if (!r.success) {
        ++fails;
        continue;
      }
      const int g = r.circuit.gate_count();
      const int bucket = g == 0 ? 0 : (g - 1) / 5;
      ++buckets[static_cast<std::size_t>(std::min(bucket, kBuckets))];
    }
    std::vector<std::string> row{std::to_string(vars)};
    for (int b = 0; b <= kBuckets; ++b) {
      row.push_back(std::to_string(buckets[static_cast<std::size_t>(b)]));
    }
    row.push_back(std::to_string(fails));
    row.push_back(fixed(100.0 * static_cast<double>(fails) /
                            static_cast<double>(samples),
                        1));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  return 0;
}

}  // namespace rmrls::bench
