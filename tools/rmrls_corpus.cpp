/// \file rmrls_corpus.cpp
/// \brief Spec-corpus generator for fleet benchmarking (docs/fleet.md).
///
/// Emits an `rmrls --batch` spec file with controlled orbit-repeat
/// structure (bench_suite/corpus.hpp): base specs from the classic
/// hwb / prime-multiplier / simulated-Toffoli / random families, plus
/// planted repeats that are random wire conjugations (and inversions) of
/// earlier bases. Deterministic for a given --seed, so a (family, size,
/// seed) triple names the same corpus on every machine of a fleet.

#include <fstream>
#include <iostream>
#include <string>

#include "bench_suite/corpus.hpp"
#include "core/status.hpp"
#include "io/flags.hpp"

int main(int argc, char** argv) {
  using namespace rmrls;
  suite::CorpusOptions options;
  std::string out_file;

  FlagTable flags("[options]");
  flags
      .section(
          "Writes a spec corpus (one permutation per line, labels in '#'\n"
          "comments) to stdout or --out, suitable for `rmrls --batch` and\n"
          "`bench/fleet_throughput` (docs/fleet.md).")
      .custom("--family", "hwb|prime|tof|random|mixed",
              "corpus family (default mixed: round-robin over all four)",
              [&](std::string_view v) {
                Result<suite::CorpusFamily> family =
                    suite::parse_corpus_family(std::string(v));
                if (family.ok()) options.family = family.value();
                return family.ok();
              })
      .number("--size", options.size, "N", "total specs (default 256)")
      .number("--repeat-rate", options.repeat_rate, "X",
              "fraction in [0,1] of entries that are orbit repeats of"
              " earlier bases (default 0.5)")
      .number("--min-vars", options.min_vars, "N",
              "narrowest spec (default 3, min 2)")
      .number("--max-vars", options.max_vars, "N",
              "widest spec (default 5, max 16)")
      .number("--seed", options.seed, "N",
              "RNG seed (default 1); same seed, same corpus")
      .text("--out", out_file, "FILE", "write to FILE instead of stdout")
      .footer("Exit codes: 0 success; 2 usage; 6 internal error.");
  flags.parse(argc, argv);

  try {
    Result<std::vector<suite::CorpusEntry>> corpus =
        suite::generate_corpus(options);
    if (!corpus.ok()) {
      std::cerr << "error: " << corpus.status().to_string() << "\n";
      return 2;
    }
    const std::string text = suite::write_corpus(corpus.value());
    if (out_file.empty()) {
      std::cout << text;
      return 0;
    }
    std::ofstream out(out_file);
    if (!out) {
      std::cerr << "cannot open " << out_file << " for writing\n";
      return 2;
    }
    out << text;
    out.flush();
    if (!out) {
      std::cerr << "write to " << out_file << " failed\n";
      return 6;
    }
    std::cerr << "wrote " << corpus.value().size() << " specs to "
              << out_file << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 6;
  }
}
