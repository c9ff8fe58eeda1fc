/// \file toolchain_tour.cpp
/// \brief Post-synthesis toolchain in one pass: synthesize a benchmark,
/// simplify with templates, extract Fredkin gates (the paper's Section VI
/// future work), lower to the NCT library (Barenco decomposition), check
/// every step exactly equivalent, and export .tfc.
///
/// Build & run:  ./build/examples/toolchain_tour [benchmark]
/// (default: shift10 — wide gates make the lowering interesting)

#include <iostream>
#include <string>

#include "bench_suite/registry.hpp"
#include "core/synthesizer.hpp"
#include "io/tfc.hpp"
#include "rev/circuit_stats.hpp"
#include "rev/decompose.hpp"
#include "rev/equivalence.hpp"
#include "rev/quantum_cost.hpp"
#include "templates/fredkinize.hpp"
#include "templates/simplify.hpp"

int main(int argc, char** argv) {
  using namespace rmrls;
  const std::string name = argc > 1 ? argv[1] : "shift10";
  const suite::Benchmark b = suite::get_benchmark(name);
  std::cout << "Benchmark " << name << " (" << b.info.lines << " lines, "
            << b.pprm.term_count() << " PPRM terms)\n\n";

  // 1. Synthesize.
  SynthesisOptions options;
  options.max_nodes = 150000;
  const SynthesisResult r = synthesize(b.pprm, options);
  if (!r.success) {
    std::cerr << "synthesis failed within budget\n";
    return 1;
  }
  std::cout << "synthesized: " << stats_to_string(analyze(r.circuit))
            << "quantum cost " << quantum_cost(r.circuit) << "\n\n";

  // 2. Template simplification (exact, checked).
  const Circuit simplified = simplify_templates(r.circuit).circuit;
  std::cout << "templates:   removed "
            << r.circuit.gate_count() - simplified.gate_count()
            << " gates; still equivalent: " << std::boolalpha
            << equivalent(simplified, b.pprm) << "\n";

  // 3. Fredkin extraction (mixed cascade).
  const FredkinizeResult fr = fredkinize(simplified);
  std::cout << "fredkinize:  " << fr.fredkin_gates
            << " controlled swaps extracted -> " << fr.circuit.gate_count()
            << " mixed gates, cost " << quantum_cost(fr.circuit)
            << "; equivalent: " << equivalent(fr.circuit, simplified)
            << "\n";

  // 4. Lower to the NCT library (full-width gates kept: no network exists).
  const Circuit nct = decompose_to_nct(simplified, FullWidthPolicy::kKeep);
  std::cout << "NCT lowering: " << simplified.gate_count() << " GT gates -> "
            << nct.gate_count() << " gates ("
            << (analyze(nct).fits_nct ? "pure NCT" : "wide gates kept")
            << "); equivalent: " << equivalent(nct, simplified) << "\n\n";

  // 5. Export.
  std::cout << "--- .tfc (simplified GT cascade) ---\n"
            << write_tfc(simplified);
  return 0;
}
