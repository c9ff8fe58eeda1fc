/// \file deadline_overshoot.cpp
/// \brief Deadline fidelity of the resilient driver (docs/robustness.md).
///
/// The paper's experiments bound effort with wall-clock limits (60 s /
/// 180 s in Section V); the resilient driver makes such limits a hard
/// contract: best-first, then the fallback cascade, all under one
/// deadline, armed on the cascade's token and polled by every engine
/// (docs/robustness.md). This harness
/// measures how well the contract holds: for widths 8/15/20/25 and
/// deadlines 10/50/100 ms it runs seeded random GT specs through
/// synthesize_resilient and reports wall time, the worst overshoot, and
/// which engine produced the returned circuit. The acceptance bar for the
/// subsystem (a 100 ms deadline answered within 150 ms at width 20) is
/// directly readable off the width-20 row. It exits 1 when any cell's
/// worst overshoot passes kMaxOvershootMs.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <random>
#include <string>

#include "bench/bench_common.hpp"
#include "core/resilient.hpp"
#include "io/table.hpp"
#include "rev/random.hpp"

namespace {

/// The worst overshoot, in whole milliseconds past the deadline, that any
/// cell may show. The engines' polls keep every cell within 1 ms on a
/// 4-vCPU VM; a clock read on every 16th poll overshot the width-25 cells
/// by 10-22 ms at five samples per cell.
constexpr long kMaxOvershootMs = 5;

}  // namespace

int main(int argc, char** argv) {
  using namespace rmrls;
  using Clock = std::chrono::steady_clock;
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::BenchTelemetry telemetry(args);
  bench::BenchJson json(args);
  const std::uint64_t samples = args.samples ? args.samples : 5;

  std::cout << "=== Deadline overshoot: synthesize_resilient on random GT"
               " specs ===\n"
            << samples << " seeded samples per cell\n\n";

  TextTable table({"Vars", "Deadline ms", "Solved", "Engines (bf/gr/tb)",
                   "Avg wall ms", "Max overshoot ms"});
  long worst_cell = 0;
  // Width 8 is small enough that cells actually solve, showing the engine
  // attribution; 15/20/25 probe deadline fidelity where nothing finishes.
  for (const int vars : {8, 15, 20, 25}) {
    for (const long deadline_ms : {10L, 50L, 100L}) {
      std::mt19937_64 rng(args.seed + static_cast<std::uint64_t>(vars));
      std::uint64_t solved = 0;
      std::uint64_t by_engine[3] = {0, 0, 0};  // best-first/greedy/transform
      double wall_sum = 0;
      long worst_overshoot = 0;
      for (std::uint64_t i = 0; i < samples; ++i) {
        const Pprm spec =
            random_circuit(vars, 2 * vars, GateLibrary::kGT, rng).to_pprm();
        ResilienceOptions options;
        options.deadline = std::chrono::milliseconds(deadline_ms);
        // Unlimited nodes: only the deadline stops a run.
        options.search = args.options(0);
        options.search.stop_at_first_solution = true;
        const auto t0 = Clock::now();
        const ResilientResult rr = synthesize_resilient(spec, options);
        const long wall = static_cast<long>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - t0)
                .count());
        wall_sum += static_cast<double>(wall);
        worst_overshoot = std::max(worst_overshoot, wall - deadline_ms);
        worst_cell = std::max(worst_cell, worst_overshoot);
        if (rr.status.ok() && rr.verified) {
          ++solved;
          switch (rr.engine) {
            case FallbackEngine::kBestFirst: ++by_engine[0]; break;
            case FallbackEngine::kGreedy: ++by_engine[1]; break;
            case FallbackEngine::kTransformationBased: ++by_engine[2]; break;
            case FallbackEngine::kNone: break;
          }
        }
        json.record("overshoot_n" + std::to_string(vars) + "_d" +
                        std::to_string(deadline_ms) + "_s" +
                        std::to_string(i),
                    vars, rr.result, rr.status.ok() ? &rr.result.circuit
                                                    : nullptr);
      }
      table.add_row(
          {std::to_string(vars), std::to_string(deadline_ms),
           std::to_string(solved) + "/" + std::to_string(samples),
           std::to_string(by_engine[0]) + "/" + std::to_string(by_engine[1]) +
               "/" + std::to_string(by_engine[2]),
           fixed(wall_sum / static_cast<double>(samples)),
           std::to_string(worst_overshoot)});
    }
  }
  table.print(std::cout);
  std::cout << "\nOvershoot stays bounded by the engines' poll cadence,"
               " independent of width; unsolved cells return a structured"
               " budget-exhausted status, never hang.\n"
            << "Worst overshoot " << worst_cell << " ms (bound "
            << kMaxOvershootMs << " ms)\n";
  if (worst_cell > kMaxOvershootMs) {
    std::cerr << "error: a cell overshot its deadline by " << worst_cell
              << " ms, past the " << kMaxOvershootMs << " ms bound\n";
    return 1;
  }
  return 0;
}
