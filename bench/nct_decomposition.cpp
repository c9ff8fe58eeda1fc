/// \file nct_decomposition.cpp
/// \brief Extension experiment: lower every synthesized GT cascade of
/// Table IV into the NCT library (the conversion the paper's abstract
/// defers to "other algorithms" — Barenco et al. [12], implemented in
/// rev/decompose.hpp) and report the blow-up alongside the quantum-cost
/// model's prediction.

#include <iostream>

#include "bench/bench_common.hpp"
#include "bench_suite/registry.hpp"
#include "core/synthesizer.hpp"
#include "io/table.hpp"
#include "rev/circuit_stats.hpp"
#include "rev/decompose.hpp"
#include "rev/equivalence.hpp"
#include "rev/quantum_cost.hpp"

int main(int argc, char** argv) {
  using namespace rmrls;
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::BenchTelemetry telemetry(args);
  const SynthesisOptions options = args.options(50000);

  std::cout << "=== Extension: GT -> NCT decomposition of Table IV"
               " circuits ===\n"
            << "budget " << options.max_nodes
            << " nodes per benchmark; every lowered cascade is checked"
               " equivalent (exact, via PPRM)\n\n";

  TextTable table({"Benchmark", "GT gates", "widest", "NCT gates", "depth",
                   "QC (GT)", "equal"});
  for (const std::string& name : suite::benchmark_names()) {
    const suite::Benchmark b = suite::get_benchmark(name);
    const SynthesisResult r = synthesize(b.pprm, options);
    if (!r.success) {
      table.add_row({name, "DNF", "-", "-", "-", "-", "-"});
      continue;
    }
    const CircuitStats before = analyze(r.circuit);
    // Full-width gates have no NCT network (parity); keep them in place
    // and report honestly.
    const Circuit lowered =
        decompose_to_nct(r.circuit, FullWidthPolicy::kKeep);
    const CircuitStats after = analyze(lowered);
    const bool equal = equivalent(lowered, r.circuit);
    table.add_row({name, std::to_string(before.gates),
                   "TOF" + std::to_string(before.max_gate_size),
                   std::to_string(after.gates) +
                       (after.fits_nct ? "" : "*"),
                   std::to_string(after.depth),
                   std::to_string(quantum_cost(r.circuit)),
                   equal ? "yes" : "NO"});
    if (!equal) {
      std::cerr << "ERROR: decomposition changed " << name << "\n";
      return 1;
    }
  }
  table.print(std::cout);
  std::cout << "\n* = a full-width gate (odd permutation) was kept: no NCT"
               " network exists without an extra line.\n"
               "The NCT count grows linearly with gate width (4(m-2) TOF3"
               " per m-control gate with spares), mirroring the trend of"
               " the quantum-cost column.\n";
  return 0;
}
