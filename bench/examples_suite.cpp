/// \file examples_suite.cpp
/// \brief Regenerates the worked examples of Section V-C (Examples 1-14,
/// covering Figs. 7 and 8): synthesizes each printed specification and
/// compares gate counts with the cascades the paper prints.

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench_suite/functions.hpp"
#include "bench_suite/registry.hpp"
#include "core/synthesizer.hpp"
#include "io/table.hpp"
#include "rev/pprm_transform.hpp"
#include "rev/quantum_cost.hpp"

int main(int argc, char** argv) {
  using namespace rmrls;
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::BenchTelemetry telemetry(args);
  const SynthesisOptions options = args.options(200000);

  struct Row {
    std::string label;
    Pprm spec;
    int paper_gates;  // size of the cascade the paper prints
  };
  std::vector<Row> rows;
  const auto add_table = [&rows](std::string label, const TruthTable& t,
                                 int paper_gates) {
    rows.push_back({std::move(label),
                    pprm_of_truth_table(t), paper_gates});
  };
  add_table("Fig. 1 / Fig. 3(d)", suite::fig1(), 3);
  add_table("Example 1 (Fig. 7)", suite::example(1), 4);
  add_table("Example 2 (shift right 3v)", suite::example(2), 3);
  add_table("Example 3 (Fredkin)", suite::example(3), 3);
  add_table("Example 4 (state swap 3v)", suite::example(4), 6);
  add_table("Example 5 (state swap 4v)", suite::example(5), 7);
  add_table("Example 6 (shift left 3v)", suite::example(6), 3);
  add_table("Example 7 (shift left 4v)", suite::example(7), 4);
  add_table("Example 8 (adder, Fig. 8)", suite::example(8), 4);
  add_table("Example 9 (rd53)", suite::rd53(), 13);
  add_table("Example 10 (majority5)", suite::majority5(), 16);
  add_table("Example 11 (decod24)", suite::decod24(), 11);
  add_table("Example 12 (5one013)", suite::five_one013(), 19);
  rows.push_back({"Example 14 (shift10)",
                  suite::get_benchmark("shift10").pprm, 27});

  std::cout << "=== Section V-C worked examples ===\n"
            << "search budget " << options.max_nodes
            << " nodes per example\n\n";

  TextTable table({"Example", "Ours gates", "Ours cost", "Paper gates",
                   "Circuit (ours)"});
  bool all_ok = true;
  for (const Row& row : rows) {
    const SynthesisResult r = synthesize(row.spec, options);
    if (!r.success || !implements(r.circuit, row.spec)) {
      table.add_row({row.label, "DNF", "-", std::to_string(row.paper_gates),
                     "-"});
      all_ok = false;
      continue;
    }
    std::string circuit = r.circuit.to_string();
    if (circuit.size() > 60) circuit = circuit.substr(0, 57) + "...";
    table.add_row({row.label, std::to_string(r.circuit.gate_count()),
                   std::to_string(quantum_cost(r.circuit)),
                   std::to_string(row.paper_gates), circuit});
  }
  table.print(std::cout);
  std::cout << "\nEvery non-DNF circuit above was verified by simulation"
               " against its printed specification.\n";
  return all_ok ? 0 : 1;
}
