/// \file ablation_heuristics.cpp
/// \brief Ablation study over the design choices DESIGN.md calls out:
/// priority weights (eq. 4), the additional-substitution classes
/// (Section IV-D), greedy pruning (Section IV-E), the restart heuristic,
/// and our extensions (transposition table, exemption budget/scope,
/// iterative refinement).
///
/// Workload: a seeded sample of 3- and 4-variable random functions plus
/// four Table IV benchmarks. Reported per configuration: average gates,
/// failure count, average nodes expanded.

#include <functional>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench_suite/registry.hpp"
#include "core/synthesizer.hpp"
#include "io/table.hpp"
#include "rev/pprm_transform.hpp"
#include "rev/random.hpp"

namespace {

using namespace rmrls;

struct Config {
  std::string name;
  std::function<void(SynthesisOptions&)> tweak;
};

struct Outcome {
  double avg_gates = 0;
  std::uint64_t fails = 0;
  double avg_nodes = 0;
};

Outcome evaluate(const std::vector<Pprm>& workload,
                 const SynthesisOptions& options) {
  Outcome out;
  double gates = 0;
  double nodes = 0;
  std::uint64_t ok = 0;
  for (const Pprm& spec : workload) {
    const SynthesisResult r = synthesize(spec, options);
    nodes += static_cast<double>(r.stats.nodes_expanded);
    if (!r.success) {
      ++out.fails;
      continue;
    }
    gates += r.circuit.gate_count();
    ++ok;
  }
  out.avg_gates = ok ? gates / static_cast<double>(ok) : 0;
  out.avg_nodes = nodes / static_cast<double>(workload.size());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::BenchTelemetry telemetry(args);
  const std::uint64_t n3 = args.samples ? args.samples : 150;
  const std::uint64_t n4 = args.samples ? args.samples / 3 + 1 : 50;

  std::vector<Pprm> workload;
  std::mt19937_64 rng(args.seed);
  for (std::uint64_t i = 0; i < n3; ++i) {
    workload.push_back(pprm_of_truth_table(random_reversible_function(3, rng)));
  }
  for (std::uint64_t i = 0; i < n4; ++i) {
    workload.push_back(pprm_of_truth_table(random_reversible_function(4, rng)));
  }
  for (const char* name : {"3_17", "4_49", "hwb4", "decod24"}) {
    workload.push_back(suite::get_benchmark(name).pprm);
  }

  SynthesisOptions base;
  base.max_nodes = args.max_nodes ? args.max_nodes : 20000;

  const std::vector<Config> configs = {
      {"default", [](SynthesisOptions&) {}},
      {"alpha=0 (no depth reward)",
       [](SynthesisOptions& o) { o.alpha = 0.0; }},
      {"beta=0 (no elim reward)", [](SynthesisOptions& o) { o.beta = 0.0; }},
      {"gamma=0 (no literal penalty)",
       [](SynthesisOptions& o) { o.gamma = 0.0; }},
      {"cumulative elim priority",
       [](SynthesisOptions& o) { o.cumulative_elim_priority = true; }},
      {"basic substitutions only",
       [](SynthesisOptions& o) {
         o.allow_relaxed_targets = false;
         o.allow_complement = false;
       }},
      {"greedy k=1", [](SynthesisOptions& o) { o.greedy_k = 1; }},
      {"greedy k=3", [](SynthesisOptions& o) { o.greedy_k = 3; }},
      {"greedy k=5", [](SynthesisOptions& o) { o.greedy_k = 5; }},
      {"no restarts", [](SynthesisOptions& o) { o.restart_interval = 0; }},
      {"restart every 2000",
       [](SynthesisOptions& o) { o.restart_interval = 2000; }},
      {"no transposition table",
       [](SynthesisOptions& o) { o.use_transposition_table = false; }},
      {"tt budget = 1 MiB",
       [](SynthesisOptions& o) { o.tt_mb = 1; }},
      {"no history heuristic",
       [](SynthesisOptions& o) { o.use_history = false; }},
      {"no iterative refinement",
       [](SynthesisOptions& o) { o.iterative_refinement = false; }},
      {"exempt scope = additional",
       [](SynthesisOptions& o) {
         o.exempt_scope = SynthesisOptions::ExemptScope::kAdditional;
       }},
      {"exempt scope = any",
       [](SynthesisOptions& o) {
         o.exempt_scope = SynthesisOptions::ExemptScope::kAny;
       }},
      {"exempt budget = 0",
       [](SynthesisOptions& o) { o.exempt_budget = 0; }},
      {"exempt budget = 4",
       [](SynthesisOptions& o) { o.exempt_budget = 4; }},
      {"forbid exempt chains",
       [](SynthesisOptions& o) { o.forbid_exempt_chains = true; }},
  };

  std::cout << "=== Ablation: search heuristics and extensions ===\n"
            << "workload: " << n3 << " random 3-var + " << n4
            << " random 4-var functions + 4 Table IV benchmarks; budget "
            << base.max_nodes << " nodes\n\n";

  TextTable table({"Configuration", "Avg gates", "Fails", "Avg nodes"});
  for (const Config& cfg : configs) {
    SynthesisOptions o = base;
    cfg.tweak(o);
    const Outcome out = evaluate(workload, o);
    table.add_row({cfg.name, fixed(out.avg_gates),
                   std::to_string(out.fails),
                   std::to_string(static_cast<long long>(out.avg_nodes))});
  }
  table.print(std::cout);
  std::cout << "\nLower avg gates / fails is better; avg nodes measures"
               " search effort actually spent (budget-capped).\n";
  return 0;
}
