/// \file budget_curve.cpp
/// \brief Anytime behaviour: circuit quality and failure rate as a
/// function of the search budget.
///
/// The paper controls effort with wall-clock limits (60 s / 180 s on a
/// 1.6 GHz Pentium IV); we use deterministic node budgets. This harness
/// maps out the budget -> quality curve on a seeded sample of 4-variable
/// functions, backing the budget choices the table harnesses use and the
/// "more time would improve sizes" remarks in Section V-B.

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
  const std::uint64_t samples = args.samples ? args.samples : 100;

  std::cout << "=== Budget curve: random 4-variable functions ===\n"
            << samples << " seeded samples per budget\n\n";

  TextTable table({"Node budget", "Avg gates", "Fails", "Avg nodes spent"});
  for (const std::uint64_t budget :
       {std::uint64_t{1000}, std::uint64_t{3000}, std::uint64_t{10000},
        std::uint64_t{30000}, std::uint64_t{100000}}) {
    SynthesisOptions options = args.options(budget);
    options.max_nodes = budget;  // the curve's axis, whatever --max-nodes says
    options.max_gates = 40;
    std::mt19937_64 rng(args.seed);
    double gates = 0;
    double nodes = 0;
    std::uint64_t fails = 0;
    for (std::uint64_t i = 0; i < samples; ++i) {
      const TruthTable f = random_reversible_function(4, rng);
      const SynthesisResult r = synthesize(f, options);
      nodes += static_cast<double>(r.stats.nodes_expanded);
      if (!r.success) {
        ++fails;
        continue;
      }
      gates += r.circuit.gate_count();
    }
    const std::uint64_t ok = samples - fails;
    table.add_row({std::to_string(budget),
                   ok ? fixed(gates / static_cast<double>(ok)) : "-",
                   std::to_string(fails),
                   std::to_string(static_cast<long long>(
                       nodes / static_cast<double>(samples)))});
  }
  table.print(std::cout);
  std::cout << "\nQuality saturates once the budget clears the refinement"
               " knee; the table harnesses pick budgets past it.\n";
  return 0;
}
