/// \file bench_common.hpp
/// \brief Shared plumbing for the table-reproduction harnesses.
///
/// Every binary in bench/ regenerates one table of the paper. They share
/// the BenchArgs flags (sample size, search budget, seed, JSONL metrics,
/// search-core knobs; run any harness with `--help` for the list) and
/// print through io/table.hpp so outputs are diffable.

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "core/search.hpp"
#include "io/flags.hpp"
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
  /// Dense-kernel width cap (docs/dense_pprm.md): -1 = keep the library
  /// default, 0 = force sparse, N > 0 = dense up to N variables.
  int dense_threshold = -1;
  /// Search-core knobs (docs/search_tables.md): transposition-table budget
  /// and the history kill switch.
  int tt_mb = 0;  // 0 = library default
  bool use_history = true;

  /// The search options every harness starts from: the library defaults,
  /// `--max-nodes` (else `default_nodes`, the harness's own budget) and
  /// the flags that map one-to-one onto SynthesisOptions fields.
  [[nodiscard]] SynthesisOptions options(std::uint64_t default_nodes) const {
    SynthesisOptions o;
    o.max_nodes = max_nodes ? max_nodes : default_nodes;
    if (dense_threshold >= 0) o.dense_threshold = dense_threshold;
    if (tt_mb > 0) o.tt_mb = tt_mb;
    o.use_history = use_history;
    return o;
  }

  /// Adds the shared harness flags to `flags`, bound to this object.
  void declare(FlagTable& flags) {
    flags.number("--samples", samples, "N",
                 "sample size (0 = binary-specific default)")
        .number("--max-nodes", max_nodes, "N", "per-function search budget")
        .flag("--full", full, "paper-scale sample sizes (slow)")
        .number("--seed", seed, "N", "RNG seed (default 20040216)")
        .text("--json", json_out, "FILE",
              "write one JSONL metrics record per synthesized function")
        .number("--heartbeat-ms", heartbeat_ms, "N",
                "stream live telemetry heartbeats (rmrls-metrics-v2) to"
                " stderr every N ms",
                1)
        .number("--dense-threshold", dense_threshold, "N",
                "widest system run on the dense spectrum kernel (-1 ="
                " library default, 0 = always sparse)",
                -1)
        .number("--tt-mb", tt_mb, "N",
                "transposition-table budget in MiB (0 = library default)", 0)
        .flag("--no-history", use_history,
              "disable the history-heuristic ordering bonus", false);
  }

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs a;
    FlagTable flags("[options]");
    a.declare(flags);
    flags.parse(argc, argv);
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
