/// \file bench_common.hpp
/// \brief Shared plumbing for the table-reproduction harnesses.
///
/// Every binary in bench/ regenerates one table of the paper. They accept:
///   --samples N     sample size (tables based on random draws)
///   --max-nodes N   per-function search budget
///   --full          paper-scale sample sizes (slow)
///   --seed N        RNG seed (default 20040216, the DATE'04 date)
///   --json FILE     append one rmrls-metrics-v1 JSONL record per
///                   synthesized function (see docs/observability.md)
///   --help          print this option list and exit
/// and print through io/table.hpp so outputs are diffable.

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>

#include "core/search.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace rmrls::bench {

struct BenchArgs {
  std::uint64_t samples = 0;  // 0 = binary-specific default
  std::uint64_t max_nodes = 0;
  bool full = false;
  std::uint64_t seed = 20040216;
  std::string json_out;  // empty = no JSONL metrics
  /// Live-telemetry heartbeat period (docs/observability.md): 0 keeps the
  /// registry disabled; N > 0 arms it and streams rmrls-metrics-v2
  /// heartbeats to stderr every N ms while the harness runs.
  long long heartbeat_ms = 0;
  int threads = 1;  // search workers (docs/parallelism.md)
  /// Dense-kernel width cap (docs/dense_pprm.md): -1 = keep the library
  /// default, 0 = force sparse, N > 0 = dense up to N variables.
  int dense_threshold = -1;
  /// Search-core knobs (docs/parallelism.md): transposition-table budget,
  /// plus the history and iterative-deepening kill switches the ablation
  /// harness flips.
  int tt_mb = 0;  // 0 = library default
  bool use_history = true;
  bool iterative_deepening = true;

  /// Copies the flags that map one-to-one onto SynthesisOptions fields.
  void apply(SynthesisOptions& options) const {
    options.num_threads = threads;
    if (dense_threshold >= 0) options.dense_threshold = dense_threshold;
    if (tt_mb > 0) options.tt_mb = tt_mb;
    options.use_history = use_history;
    options.iterative_deepening = iterative_deepening;
  }

  static void print_help(std::ostream& os) {
    os << "options:\n"
          "  --samples N     sample size (0 = binary-specific default)\n"
          "  --max-nodes N   per-function search budget\n"
          "  --full          paper-scale sample sizes (slow)\n"
          "  --seed N        RNG seed (default 20040216)\n"
          "  --json FILE     write one JSONL metrics record per"
          " synthesized function\n"
          "  --heartbeat-ms N\n"
          "                  stream live telemetry heartbeats"
          " (rmrls-metrics-v2)\n"
          "                  to stderr every N ms\n"
          "  --threads N     parallel search workers (1 = sequential,\n"
          "                  0 = one per hardware thread)\n"
          "  --dense-threshold N\n"
          "                  widest system run on the dense spectrum kernel\n"
          "                  (-1 = library default, 0 = always sparse)\n"
          "  --tt-mb N       transposition-table budget in MiB (0 = library\n"
          "                  default)\n"
          "  --no-history    disable the history-heuristic ordering bonus\n"
          "  --no-id         disable iterative deepening on the gate bound\n"
          "  --help          this text\n";
  }

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs a;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) {
          std::cerr << "missing value for " << arg << "\n";
          std::exit(2);
        }
        return argv[++i];
      };
      // Junk, negative and out-of-range values exit 2 with a diagnostic
      // instead of aborting or wrapping (std::stoull reads "-1" as
      // 2^64 - 1, and a static_cast<int> truncates).
      const auto next_number = [&](long long lo, long long hi) -> long long {
        const std::string value = next();
        try {
          std::size_t used = 0;
          const long long parsed = std::stoll(value, &used);
          if (used == value.size() && parsed >= lo && parsed <= hi) {
            return parsed;
          }
        } catch (const std::exception&) {
        }
        std::cerr << "invalid number for " << arg << ": '" << value << "'\n";
        std::exit(2);
      };
      constexpr long long kMax = std::numeric_limits<long long>::max();
      constexpr int kIntMax = std::numeric_limits<int>::max();
      if (arg == "--samples") {
        a.samples = static_cast<std::uint64_t>(next_number(0, kMax));
      } else if (arg == "--max-nodes") {
        a.max_nodes = static_cast<std::uint64_t>(next_number(0, kMax));
      } else if (arg == "--full") {
        a.full = true;
      } else if (arg == "--seed") {
        a.seed = static_cast<std::uint64_t>(next_number(0, kMax));
      } else if (arg == "--json") {
        a.json_out = next();
      } else if (arg == "--heartbeat-ms") {
        a.heartbeat_ms = next_number(1, kMax);
      } else if (arg == "--threads") {
        a.threads = static_cast<int>(next_number(0, kIntMax));
      } else if (arg == "--dense-threshold") {
        a.dense_threshold = static_cast<int>(next_number(-1, kIntMax));
      } else if (arg == "--tt-mb") {
        a.tt_mb = static_cast<int>(next_number(0, kIntMax));
      } else if (arg == "--no-history") {
        a.use_history = false;
      } else if (arg == "--no-id") {
        a.iterative_deepening = false;
      } else if (arg == "--help" || arg == "-h") {
        print_help(std::cout);
        std::exit(0);
      } else {
        std::cerr << "unknown argument: " << arg << "\n";
        print_help(std::cerr);
        std::exit(2);
      }
    }
    return a;
  }
};

/// RAII guard for --heartbeat-ms: arms the process-wide telemetry
/// registry and runs a background Snapshotter that streams v2 heartbeats
/// to stderr for the lifetime of the harness (destruction emits one final
/// flush heartbeat, so even sub-period runs leave a record). With
/// heartbeat_ms == 0 this is a no-op and the registry stays disabled —
/// the instrumented layers keep their one-relaxed-load fast path.
class BenchTelemetry {
 public:
  explicit BenchTelemetry(const BenchArgs& args) {
    if (args.heartbeat_ms <= 0) return;
    Telemetry& telemetry = Telemetry::enable();
    telemetry.reset();
    snapshotter_ = std::make_unique<Snapshotter>(
        telemetry, std::chrono::milliseconds(args.heartbeat_ms), std::cerr);
  }

  ~BenchTelemetry() {
    if (snapshotter_ != nullptr) snapshotter_->stop();
  }

  BenchTelemetry(const BenchTelemetry&) = delete;
  BenchTelemetry& operator=(const BenchTelemetry&) = delete;

 private:
  std::unique_ptr<Snapshotter> snapshotter_;
};

/// JSONL metrics emitter for the harnesses: one record per synthesized
/// function, same rmrls-metrics-v1 schema as `rmrls --metrics-out`.
/// Construct from BenchArgs; when --json was not given every call is a
/// no-op. Exits with a diagnostic if the file cannot be opened.
class BenchJson {
 public:
  explicit BenchJson(const BenchArgs& args) {
    if (args.json_out.empty()) return;
    out_.open(args.json_out);
    if (!out_) {
      std::cerr << "cannot open " << args.json_out << " for writing\n";
      std::exit(2);
    }
    enabled_ = true;
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records one synthesis outcome. `circuit` is the final (possibly
  /// post-processed) cascade; pass nullptr on failure.
  void record(const std::string& name, int vars, const SynthesisResult& r,
              const Circuit* circuit) {
    if (!enabled_) return;
    MetricsRegistry rec;
    rec.set("name", name).set("vars", vars).set("success", r.success);
    rec.add_stats(r.stats, r.termination);
    if (circuit != nullptr) {
      rec.add_circuit(*circuit);
    } else {
      rec.set("gates", -1).set("quantum_cost", -1);
    }
    MetricsWriter(out_).write(rec);
  }

 private:
  std::ofstream out_;
  bool enabled_ = false;
};

}  // namespace rmrls::bench
