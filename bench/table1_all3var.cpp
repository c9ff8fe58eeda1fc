/// \file table1_all3var.cpp
/// \brief Reproduces Table I: gate-count histogram over three-variable
/// reversible functions.
///
/// Columns: RMRLS (ours), RMRLS after template post-processing (the
/// paper's 6.10 -> 6.05 aside), the Miller-Maslov-Dueck transformation
/// baselines (the paper compares against [7]), and the exact optima for
/// the NCT and NCTS libraries [16], recomputed here by BFS.
///
/// Default: a seeded 4000-function sample plus exact optimum histograms
/// over all 40320 functions. --full synthesizes all 40320 functions
/// (a few minutes).

#include <algorithm>
#include <iostream>
#include <numeric>
#include <random>
#include <vector>

#include "baselines/optimal_bfs.hpp"
#include "baselines/transformation_based.hpp"
#include "bench/bench_common.hpp"
#include "core/synthesizer.hpp"
#include "io/table.hpp"
#include "rev/random.hpp"
#include "templates/fredkinize.hpp"
#include "templates/simplify.hpp"

namespace {

using namespace rmrls;

struct GateHistogram {
  std::vector<std::uint64_t> counts = std::vector<std::uint64_t>(32, 0);
  std::uint64_t fails = 0;

  void add(int gates) { ++counts[static_cast<std::size_t>(gates)]; }
  [[nodiscard]] std::uint64_t total() const {
    return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  }
  [[nodiscard]] double average() const {
    double weighted = 0;
    for (std::size_t g = 0; g < counts.size(); ++g) {
      weighted += static_cast<double>(g) * static_cast<double>(counts[g]);
    }
    return weighted / static_cast<double>(total());
  }
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::BenchTelemetry telemetry(args);
  bench::BenchJson json(args);
  const std::uint64_t sample =
      args.full ? 40320 : (args.samples ? args.samples : 4000);

  const SynthesisOptions options = args.options(20000);

  std::cout << "=== Table I: three-variable reversible functions ===\n"
            << (args.full ? "all 40320 functions"
                          : "seeded sample of " + std::to_string(sample) +
                                " functions (use --full for all 40320)")
            << ", search budget " << options.max_nodes
            << " nodes per function\n\n";

  GateHistogram ours;
  GateHistogram ours_templates;
  GateHistogram ours_fredkin;  // swap triples count as one gate (NCTS-style)
  GateHistogram mmd_basic;
  GateHistogram mmd_bidir;
  GateHistogram mmd_perm;  // bidirectional + output permutations + templates

  std::uint64_t function_index = 0;
  const auto run_one = [&](const TruthTable& f) {
    const SynthesisResult r = synthesize(f, options);
    if (!r.success) {
      ++ours.fails;
      ++ours_templates.fails;
      ++ours_fredkin.fails;
      json.record("3var-" + std::to_string(function_index), 3, r, nullptr);
    } else {
      ours.add(r.circuit.gate_count());
      const Circuit simplified = simplify_templates(r.circuit).circuit;
      ours_templates.add(simplified.gate_count());
      ours_fredkin.add(fredkinize(simplified).circuit.gate_count());
      json.record("3var-" + std::to_string(function_index), 3, r,
                  &r.circuit);
    }
    ++function_index;
    mmd_basic.add(synthesize_transformation_based(f).gate_count());
    mmd_bidir.add(synthesize_transformation_bidir(f).gate_count());
    mmd_perm.add(simplify_templates(synthesize_transformation_perm(f))
                     .circuit.gate_count());
  };

  if (args.full) {
    std::vector<std::uint64_t> image(8);
    std::iota(image.begin(), image.end(), 0);
    do {
      run_one(TruthTable(image));
    } while (std::next_permutation(image.begin(), image.end()));
  } else {
    std::mt19937_64 rng(args.seed);
    for (std::uint64_t i = 0; i < sample; ++i) {
      run_one(random_reversible_function(3, rng));
    }
  }

  const OptimalCounts3 opt_nct(OptimalLibrary::kNCT);
  const OptimalCounts3 opt_ncts(OptimalLibrary::kNCTS);

  int max_gates = 8;
  for (int g = 31; g > 8; --g) {
    if (ours.counts[static_cast<std::size_t>(g)] ||
        mmd_basic.counts[static_cast<std::size_t>(g)] ||
        mmd_bidir.counts[static_cast<std::size_t>(g)] ||
        mmd_perm.counts[static_cast<std::size_t>(g)]) {
      max_gates = g;
      break;
    }
  }

  TextTable table({"gates", "RMRLS", "RMRLS+tmpl", "RMRLS+F", "MMD",
                   "MMD-bidir", "MMD-perm", "Optimal NCT", "Optimal NCTS"});
  const auto opt_at = [](const OptimalCounts3& o, int g) -> std::uint64_t {
    return g < static_cast<int>(o.histogram().size())
               ? o.histogram()[static_cast<std::size_t>(g)]
               : 0;
  };
  for (int g = max_gates; g >= 0; --g) {
    const auto idx = static_cast<std::size_t>(g);
    table.add_row({std::to_string(g), std::to_string(ours.counts[idx]),
                   std::to_string(ours_templates.counts[idx]),
                   std::to_string(ours_fredkin.counts[idx]),
                   std::to_string(mmd_basic.counts[idx]),
                   std::to_string(mmd_bidir.counts[idx]),
                   std::to_string(mmd_perm.counts[idx]),
                   std::to_string(opt_at(opt_nct, g)),
                   std::to_string(opt_at(opt_ncts, g))});
  }
  table.add_row({"Avg.", fixed(ours.average()), fixed(ours_templates.average()),
                 fixed(ours_fredkin.average()), fixed(mmd_basic.average()),
                 fixed(mmd_bidir.average()), fixed(mmd_perm.average()),
                 fixed(opt_nct.average()), fixed(opt_ncts.average())});
  table.print(std::cout);

  std::cout << "\nRMRLS failures: " << ours.fails << " / " << sample << "\n";
  std::cout << "Paper reference (Table I): RMRLS avg 6.10, Miller [7] avg"
               " 6.18, Kerntopf [6] avg 6.01, optimal NCT 5.87, optimal"
               " NCTS 5.63.\n";
  std::cout << "RMRLS+F extracts Fredkin/swap triples (the paper's"
               " future-work extension) so it is the column to compare"
               " against the SWAP-capable NCTS methods.\n";
  std::cout << "The optimal columns above are exact (whole-group BFS) and"
               " must match the paper's optimal columns exactly.\n";
  return ours.fails == 0 ? 0 : 1;
}
