/// \file ablation_heuristics.cpp
/// \brief Ablation study over the design choices DESIGN.md calls out:
/// priority weights (eq. 4), the additional substitutions (Section IV-D),
/// greedy pruning (Section IV-E), the restart heuristic, and our
/// extensions (transposition table and its ceiling, history ordering,
/// exemption budget and scope, iterative refinement, the dense kernel).
///
/// Two workloads, every configuration on each, at the same node budget
/// (`--max-nodes`, default 20000): Table A is a seeded sample of 3- and
/// 4-variable random functions plus four Table IV benchmarks; Table B a
/// seeded sample of 5-variable random functions plus three 5- to 7-line
/// benchmarks, where the transposition table fills and history pays.
/// Reported per configuration: average gates, failure count, average
/// nodes expanded, transposition-table evictions and total wall time.

#include <chrono>
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
  std::uint64_t evictions = 0;
  double wall_s = 0;
};

Outcome evaluate(const std::vector<Pprm>& workload,
                 const SynthesisOptions& options) {
  using Clock = std::chrono::steady_clock;
  Outcome out;
  double gates = 0;
  double nodes = 0;
  std::uint64_t ok = 0;
  const auto start = Clock::now();
  for (const Pprm& spec : workload) {
    const SynthesisResult r = synthesize(spec, options);
    nodes += static_cast<double>(r.stats.nodes_expanded);
    out.evictions += r.stats.tt_evictions;
    if (!r.success) {
      ++out.fails;
      continue;
    }
    gates += r.circuit.gate_count();
    ++ok;
  }
  out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  out.avg_gates = ok ? gates / static_cast<double>(ok) : 0;
  out.avg_nodes = nodes / static_cast<double>(workload.size());
  return out;
}

void print_table(const std::vector<Pprm>& workload,
                 const SynthesisOptions& base,
                 const std::vector<Config>& configs) {
  TextTable table({"Configuration", "Avg gates", "Fails", "Avg nodes",
                   "TT evictions", "Wall s"});
  for (const Config& cfg : configs) {
    SynthesisOptions o = base;
    cfg.tweak(o);
    const Outcome out = evaluate(workload, o);
    table.add_row({cfg.name, fixed(out.avg_gates),
                   std::to_string(out.fails),
                   std::to_string(static_cast<long long>(out.avg_nodes)),
                   std::to_string(out.evictions), fixed(out.wall_s)});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::BenchTelemetry telemetry(args);
  const std::uint64_t n3 = args.samples ? args.samples : 150;
  const std::uint64_t n4 = args.samples ? args.samples / 3 + 1 : 50;
  const std::uint64_t n5 = args.samples ? args.samples / 12 + 1 : 12;

  std::vector<Pprm> small;
  std::mt19937_64 rng(args.seed);
  for (std::uint64_t i = 0; i < n3; ++i) {
    small.push_back(pprm_of_truth_table(random_reversible_function(3, rng)));
  }
  for (std::uint64_t i = 0; i < n4; ++i) {
    small.push_back(pprm_of_truth_table(random_reversible_function(4, rng)));
  }
  for (const char* name : {"3_17", "4_49", "hwb4", "decod24"}) {
    small.push_back(suite::get_benchmark(name).pprm);
  }

  std::vector<Pprm> wide;
  std::mt19937_64 rng5(args.seed);
  for (std::uint64_t i = 0; i < n5; ++i) {
    wide.push_back(pprm_of_truth_table(random_reversible_function(5, rng5)));
  }
  for (const char* name : {"5one013", "mod5adder", "rd53"}) {
    wide.push_back(suite::get_benchmark(name).pprm);
  }

  const SynthesisOptions base = args.options(20000);

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
       [](SynthesisOptions& o) { o.additional_substitutions = false; }},
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
      {"exempt scope = any",
       [](SynthesisOptions& o) {
         o.exempt_scope = SynthesisOptions::ExemptScope::kAny;
       }},
      {"exempt budget = 0",
       [](SynthesisOptions& o) { o.exempt_budget = 0; }},
      {"exempt budget = 4",
       [](SynthesisOptions& o) { o.exempt_budget = 4; }},
      {"sparse kernel only",
       [](SynthesisOptions& o) { o.dense_threshold = 0; }},
  };

  std::cout << "=== Ablation: search heuristics and extensions ===\n"
            << "budget " << base.max_nodes
            << " nodes per function; Wall s is the whole row\n\n"
            << "Table A: " << n3 << " random 3-var + " << n4
            << " random 4-var functions + 4 Table IV benchmarks\n";
  print_table(small, base, configs);
  std::cout << "\nTable B: " << n5
            << " random 5-var functions + 5one013, mod5adder, rd53 (5-7"
               " lines)\n";
  print_table(wide, base, configs);
  std::cout << "\nLower avg gates / fails is better; avg nodes measures"
               " search effort actually spent (budget-capped). The sparse"
               " kernel returns the default's circuits by construction, so"
               " its row differs only in wall time.\n";
  return 0;
}
