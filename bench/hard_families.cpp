/// \file hard_families.cpp
/// \brief Reproduces the paper's honest failure note (Section V-D): "Due
/// to memory constraints, our algorithm was not able to find a solution to
/// some examples, namely, in the ham#, hwb#, and #symm family of
/// functions."
///
/// We run the next members of each family past the ones RMRLS handles
/// (hwb4 and ham7 are in Table IV) under the same budget Table IV uses and
/// report what synthesizes and what does not — failures here are the
/// expected, paper-matching outcome, so the binary exits 0 either way.

#include <iostream>

#include "bench/bench_common.hpp"
#include "bench_suite/functions.hpp"
#include "core/synthesizer.hpp"
#include "io/table.hpp"
#include "rev/pprm_transform.hpp"
#include "rev/quantum_cost.hpp"

int main(int argc, char** argv) {
  using namespace rmrls;
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::BenchTelemetry telemetry(args);
  struct Row {
    std::string name;
    TruthTable table;
    std::uint64_t nodes;  // dense PPRMs make nodes pricey: scale budgets
  };
  const std::vector<Row> rows = {
      {"hwb4 (Table IV anchor)", suite::hwb(4), 100000},
      {"hwb5 (85 PPRM terms)", suite::hwb(5), 30000},
      {"hwb6 (186 terms)", suite::hwb(6), 6000},
      {"hwb7 (427 terms)", suite::hwb(7), 1500},
      {"6sym (465 terms)", suite::sym(6, 2, 4), 4000},
      {"8sym-lite (1877 terms)", suite::sym(8, 3, 6), 300},
  };

  std::cout << "=== Hard families (Section V-D failure note) ===\n"
            << "per-function node budgets scale inversely with PPRM"
               " density; failures below REPRODUCE the paper's reported"
               " behaviour\n\n";

  TextTable table({"Function", "Lines", "PPRM terms", "Gates", "Cost",
                   "Outcome"});
  for (const Row& row : rows) {
    const Pprm spec = pprm_of_truth_table(row.table);
    const SynthesisOptions options = args.options(row.nodes);
    const SynthesisResult r = synthesize(spec, options);
    if (r.success && implements(r.circuit, row.table)) {
      table.add_row({row.name, std::to_string(row.table.num_vars()),
                     std::to_string(spec.term_count()),
                     std::to_string(r.circuit.gate_count()),
                     std::to_string(quantum_cost(r.circuit)), "synthesized"});
    } else {
      table.add_row({row.name, std::to_string(row.table.num_vars()),
                     std::to_string(spec.term_count()), "-", "-",
                     "DNF (expected for the larger members)"});
    }
  }
  table.print(std::cout);
  std::cout << "\nThe paper synthesizes hwb4 (15 gates) and fails on the"
               " larger hwb/sym members; matching failures here are a"
               " successful reproduction, so the exit code is 0 either"
               " way.\n";

  // History on ham7, the 7-line family member RMRLS does solve (Table
  // IV): the full refinement driver with and without the history table,
  // under the same node budget. The comparison metrics are the final gate
  // count, the effort the returned circuit actually required
  // (nodes_at_best — nodes_expanded always equals the budget here because
  // refinement spends whatever is left hunting for better), and wall
  // clock. Records flow into --json (bench/BENCH_7.json is a committed run
  // of this section's first form, whose history row had the since-deleted
  // deepening ladder switched on; see EXPERIMENTS.md).
  bench::BenchJson json(args);
  std::cout << "\n=== History heuristic on ham7: off vs on ===\n";
  const TruthTable ham = suite::ham7();
  const Pprm ham_spec = pprm_of_truth_table(ham);
  struct Mode {
    std::string name;
    bool history;
  };
  const std::vector<Mode> modes = {
      {"ham7_no_history", false},
      {"ham7_history", true},
  };
  TextTable cmp({"Configuration", "Gates", "Nodes@best", "Nodes", "ms",
                 "Outcome"});
  std::vector<double> effort_of(modes.size(), 0.0);
  std::vector<int> gates_of(modes.size(), -1);
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const Mode& m = modes[i];
    SynthesisOptions o = args.options(2000000);
    o.use_history = m.history;
    const SynthesisResult r = synthesize(ham_spec, o);
    const bool ok = r.success && implements(r.circuit, ham);
    effort_of[i] = static_cast<double>(r.stats.nodes_at_best);
    if (ok) gates_of[i] = r.circuit.gate_count();
    cmp.add_row({m.name,
                 ok ? std::to_string(r.circuit.gate_count()) : "-",
                 std::to_string(r.stats.nodes_at_best),
                 std::to_string(r.stats.nodes_expanded),
                 fixed(static_cast<double>(r.stats.elapsed.count()) / 1000.0),
                 ok ? "ok" : "DNF"});
    json.record(m.name, ham.num_vars(), r, ok ? &r.circuit : nullptr);
  }
  cmp.print(std::cout);
  if (effort_of[0] > 0) {
    const double reduction = 100.0 * (1.0 - effort_of[1] / effort_of[0]);
    std::cout << "\ngates: no history " << gates_of[0] << " vs history "
              << gates_of[1] << "\n"
              << "effort-to-result reduction (history vs none, valid when"
                 " gates <=): "
              << fixed(reduction) << "%\n";
  }
  return 0;
}
