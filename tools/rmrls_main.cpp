/// \file rmrls_main.cpp
/// \brief Command-line front end of the RMRLS synthesizer.
///
/// Run `rmrls --help` for the full option list, which main() declares on
/// one FlagTable (io/flags.hpp).

#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "bench_suite/registry.hpp"
#include "core/batch.hpp"
#include "core/cancel.hpp"
#include "core/checkpoint.hpp"
#include "core/resilient.hpp"
#include "core/status.hpp"
#include "core/synth_cache.hpp"
#include "core/synthesizer.hpp"
#include "io/flags.hpp"
#include "io/spec.hpp"
#include "io/tfc.hpp"
#include "rev/canonical.hpp"
#include "rev/equivalence.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_profile.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "rev/pprm_transform.hpp"
#include "rev/quantum_cost.hpp"
#include "templates/fredkinize.hpp"
#include "templates/simplify.hpp"

namespace {

/// Ctrl-C cancels the run cooperatively: the engines drain within one
/// candidate evaluation and the CLI exits with the kCancelled code (5),
/// after writing metrics. CancelToken::cancel is a lock-free atomic CAS,
/// safe to call from a signal handler.
rmrls::CancelToken g_cancel;

void handle_cancel_signal(int) {
  // Async-signal-safe by construction: one lock-free CAS, no allocation,
  // no logging (docs/robustness.md). The main thread notices the token
  // and does the reporting outside signal context.
  g_cancel.cancel(rmrls::CancelReason::kUser);
}

/// SIGINT (Ctrl-C), SIGTERM (service managers / `kill`) and SIGHUP
/// (closed terminal) all request the same graceful wind-down: cancel
/// cooperatively, write metrics, exit 5.
void install_cancel_signals() {
  std::signal(SIGINT, handle_cancel_signal);
  std::signal(SIGTERM, handle_cancel_signal);
#ifdef SIGHUP
  std::signal(SIGHUP, handle_cancel_signal);
#endif
}

/// Flushes `out` and reports whether everything written to it arrived;
/// prints "error: cannot write NAME" when it did not (a full disk,
/// /dev/full).
bool flushed(std::ostream& out, const std::string& name) {
  if (out.flush()) return true;
  std::cerr << "error: cannot write " << name << "\n";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rmrls;
  std::string perm_text;
  std::string spec_file;
  std::string benchmark;
  std::string batch_file;
  std::string cache_dir;
  long long cache_mb = -1;  // sentinel: 64 in batch / with --cache-dir, else 0
  long long cache_gc_mb = 0;  // disk-store budget, 0 = unbounded
  int canonical_cap = -1;
  int threads = 1;  // concurrent --batch jobs
  int shard_index = 0;
  int shard_count = 1;
  std::string checkpoint_file;
  SynthesisOptions options;
  bool list = false;
  bool no_extra = false;
  bool run_templates = false;
  bool run_fredkinize = false;
  bool bidirectional = false;
  bool resilient_mode = false;
  bool use_watchdog = true;
  bool emit_tfc = false;
  std::string tfc_file;
  std::string trace_file;
  std::string metrics_file;
  long long heartbeat_ms = 0;
  bool progress = false;

  FlagTable flags(
      "(--perm SPEC | --spec FILE | --batch FILE | --benchmark NAME"
      " | --resynth FILE | --list) [options]");
  flags.section("Input (exactly one):")
      .text("--perm", perm_text, "SPEC",
            "inline permutation, e.g. \"{1, 0, 7, 2, 3, 4, 5, 6}\"")
      .text("--spec", spec_file, "FILE", "permutation spec file (same syntax)")
      .text("--batch", batch_file, "FILE",
            "spec-list file: one permutation per line, '#' comments; jobs"
            " run concurrently through the orbit cache (docs/caching.md)")
      .text("--benchmark", benchmark, "NAME",
            "named function from the paper's suite")
      .text("--resynth", tfc_file, "FILE",
            "resynthesize an existing .tfc cascade")
      .flag("--list", list, "list benchmark names and exit");
  flags.section("Search options:")
      .number("--alpha", options.alpha, "X",
              "eq. (4) priority weight on depth (default 0.3)")
      .number("--beta", options.beta, "X",
              "eq. (4) priority weight on terms eliminated (default 0.6)")
      .number("--gamma", options.gamma, "X",
              "eq. (4) priority weight on factor literals (default 0.1)")
      .number("--greedy", options.greedy_k, "K",
              "keep best K substitutions per variable (0 = all)", 0)
      .number("--max-gates", options.max_gates, "N",
              "circuit size cap (0 = unlimited)", 0)
      .number("--max-nodes", options.max_nodes, "N",
              "search-node budget (default 200000)")
      .number("--time-ms", options.time_limit, "N",
              "wall-clock limit in milliseconds")
      .flag("--first", options.stop_at_first_solution,
            "stop at the first valid circuit")
      .flag("--no-extra", no_extra, "basic substitutions only (Section IV-A)")
      .custom("--scope", "c|additional|any", "non-reducing substitution scope",
              [&](std::string_view s) {
                using Scope = SynthesisOptions::ExemptScope;
                if (s == "c") {
                  options.exempt_scope = Scope::kComplement;
                } else if (s == "additional") {
                  options.exempt_scope = Scope::kAdditional;
                } else if (s == "any") {
                  options.exempt_scope = Scope::kAny;
                } else {
                  return false;
                }
                return true;
              })
      .number("--cbudget", options.exempt_budget, "N",
              "non-reducing substitutions per path (-1 = auto)")
      .number("--restart", options.restart_interval, "N",
              "restart interval in expansions (0 = off)")
      .number("--queue", options.max_queue, "N",
              "queued-candidate cap (default 2^20); with --tt-mb this bounds"
              " the search's resident memory on long runs (overflow counts"
              " dropped_queue_full)",
              1)
      .number("--tt-mb", options.tt_mb, "N",
              "transposition-table memory ceiling in MiB (default 64); the"
              " table starts at 4 KiB and doubles with its entries up to N,"
              " and evicts, oldest search pass first, exactly where an"
              " N MiB table would; see docs/search_tables.md",
              1)
      .flag("--no-history", options.use_history,
            "disable the history heuristic (learned (target, factor-class)"
            " ordering bonus)",
            false)
      .flag("--no-id", options.iterative_deepening,
            "disable iterative deepening on the gate bound (single"
            " full-depth pass)",
            false)
      .number("--dense-threshold", options.dense_threshold, "N",
              "widest system (in variables) eligible for the word-parallel"
              " dense spectrum kernel (default 14, 0 = always sparse); see"
              " docs/dense_pprm.md",
              0)
      .flag("--tt", options.use_transposition_table,
            "transposition table on (the default)")
      .flag("--no-tt", options.use_transposition_table,
            "transposition table off", false)
      .flag("--cumul", options.cumulative_elim_priority,
            "cumulative elimination priority")
      .flag("--stage-elim", options.cumulative_elim_priority,
            "per-stage elimination priority (the default)", false);
  flags.section("Caching and batch throughput (docs/caching.md):")
      .number("--cache-mb", cache_mb, "N",
              "in-memory orbit-cache budget in MiB (0 = off, not allowed"
              " with --cache-dir; default 64 in --batch mode or with"
              " --cache-dir, otherwise 0)",
              0, kMaxMebibytes)
      .text("--cache-dir", cache_dir, "DIR",
            "on-disk circuit store (one .tfc per canonical key); persists"
            " cache entries across runs")
      .number("--canonical-cap", canonical_cap, "N",
              "widest spec (in variables) canonicalized to its orbit"
              " representative (default 12); wider specs are cached by exact"
              " identity only",
              0)
      .number("--threads", threads, "N",
              "jobs run at once in --batch mode (default 1; 0 = one per"
              " hardware thread); every search runs on one thread."
              " --time-ms bounds the *whole batch* under one watchdog.",
              0);
  flags.section("Fleet scale-out (docs/fleet.md, --batch mode only):")
      .custom("--shard", "I/N",
              "run only shard I of N (0-based, I < N): each spec line is"
              " assigned to exactly one shard by a stable content hash, so N"
              " processes over the same file partition it without"
              " coordination",
              [&](std::string_view v) {
                const std::size_t slash = v.find('/');
                return slash != std::string_view::npos &&
                       parse_number(v.substr(0, slash), shard_index, 0) &&
                       parse_number(v.substr(slash + 1), shard_count, 1) &&
                       shard_index < shard_count;
              })
      .text("--checkpoint", checkpoint_file, "FILE",
            "record completed job ids (tmp+rename); on restart those jobs"
            " are skipped and the run resumes where the dead one stopped")
      .number("--cache-gc-mb", cache_gc_mb, "N",
              "byte budget of the --cache-dir store in MiB (0 = unbounded);"
              " oldest .tfc files are garbage-collected past it, and stale"
              " lease/tmp litter from dead processes is swept",
              0, kMaxMebibytes);
  flags.section("Resilience (docs/robustness.md):")
      .flag("--resilient", resilient_mode,
            "fallback cascade: best-first, then greedy, then"
            " transformation-based; the winner is verified and labelled in"
            " the metrics. With --time-ms the whole cascade shares the"
            " wall-clock budget under a watchdog.")
      .flag("--no-watchdog", use_watchdog,
            "enforce --time-ms cooperatively only (no watchdog thread)",
            false);
  flags.section("Post-processing and output:")
      .flag("--templates", run_templates,
            "post-process with the template pass (single-shot runs only)")
      .flag("--fredkin", run_fredkinize,
            "extract Fredkin gates (mixed output, text only: not with"
            " --tfc; single-shot runs only)")
      .flag("--bidir", bidirectional,
            "also try the inverse direction (single-shot runs only)")
      .flag("--tfc", emit_tfc, "print the circuit in .tfc format");
  flags.section("Observability:")
      .text("--trace", trace_file, "FILE",
            "write typed search events as JSONL")
      .number("--trace-interval", options.trace_sample_interval, "N",
              "sample node-expansion/prune events every Nth expansion"
              " (default 1 = every event)")
      .text("--metrics-out", metrics_file, "FILE",
            "write one JSON metrics record (counters, per-phase timings,"
            " termination reason, circuit stats); schema rmrls-metrics-v1,"
            " see docs/observability.md")
      .number("--heartbeat-ms", heartbeat_ms, "N",
              "arm live telemetry and write one heartbeat record every N ms"
              " (schema rmrls-metrics-v2: counters, gauges, histograms,"
              " uptime) into --metrics-out (stderr without it). In --batch"
              " mode each job also gets a trace_id correlated across job"
              " records, trace events and the heartbeats' active set",
              1)
      .flag("--progress", progress,
            "human-readable search progress on stderr");
  flags.footer(
      "Exit codes: 0 success; 1 an output could not be opened or written;\n"
      "2 usage / invalid argument; 3 unreadable or malformed input;\n"
      "4 budget exhausted without a circuit; 5 cancelled\n"
      "(SIGINT/SIGTERM/SIGHUP); 6 internal error (verification failure);\n"
      "7 server unavailable (rmrls-serve load shed — retryable, see\n"
      "docs/serving.md).");
  flags.parse(argc, argv);
  const auto usage = [&] {
    flags.print_help(std::cerr, argv[0]);
    return 2;
  };
  if (list) {
    for (const std::string& name : suite::benchmark_names()) {
      std::cout << name << "\n";
    }
    return 0;
  }
  if (batch_file.empty()) {
    // These shape a --batch run only; anywhere else they are refused
    // instead of silently ignored.
    for (const auto& [name, given] :
         {std::pair{"--threads", threads != 1},
          std::pair{"--shard", shard_count != 1},
          std::pair{"--checkpoint", !checkpoint_file.empty()},
          std::pair{"--cache-gc-mb", cache_gc_mb != 0}}) {
      if (given) {
        std::cerr << "error: " << name << " applies to --batch only\n";
        return usage();
      }
    }
  } else {
    // These shape one circuit; a batch run would silently ignore them.
    for (const auto& [name, given] :
         {std::pair{"--templates", run_templates},
          std::pair{"--fredkin", run_fredkinize},
          std::pair{"--bidir", bidirectional}}) {
      if (given) {
        std::cerr << "error: " << name
                  << " applies to single-shot runs only\n";
        return usage();
      }
    }
  }
  if (cache_mb == 0 && !cache_dir.empty()) {
    std::cerr << "error: --cache-dir needs a cache, and --cache-mb 0 turns"
                 " it off\n";
    return usage();
  }
  if (run_fredkinize && emit_tfc) {
    std::cerr << "error: --fredkin output has no .tfc form\n";
    return usage();
  }
  if (no_extra) {
    options.allow_relaxed_targets = false;
    options.allow_complement = false;
  }

  try {
    // Observability: assemble the requested sinks (both --trace and
    // --progress may be active at once) and the phase profile.
    std::ofstream trace_out;
    std::unique_ptr<JsonlTraceSink> jsonl_sink;
    std::unique_ptr<ProgressTraceSink> progress_sink;
    MultiTraceSink multi_sink;
    if (!trace_file.empty()) {
      trace_out.open(trace_file);
      if (!trace_out) {
        std::cerr << "cannot open " << trace_file << " for writing\n";
        return 1;
      }
      jsonl_sink = std::make_unique<JsonlTraceSink>(trace_out);
      multi_sink.add(jsonl_sink.get());
    }
    if (progress) {
      progress_sink = std::make_unique<ProgressTraceSink>(std::cerr);
      multi_sink.add(progress_sink.get());
    }
    if (jsonl_sink || progress_sink) options.trace_sink = &multi_sink;
    PhaseProfile profile;
    if (!metrics_file.empty()) options.phase_profile = &profile;

    // The metrics stream opens before the run (not after, as the v1-only
    // code did) so heartbeat records can interleave with it; the per-run /
    // per-job v1 records are still written after the snapshotter stopped,
    // so the two writers never race on the stream.
    std::ofstream metrics_out;
    if (!metrics_file.empty()) {
      metrics_out.open(metrics_file);
      if (!metrics_out) {
        std::cerr << "cannot open " << metrics_file << " for writing\n";
        return 1;
      }
    }
    // Each exit that reports a run flushes the outputs first: a write
    // that failed on any of them turns the exit code into 1.
    const auto finish = [&](int code) {
      bool ok = flushed(std::cout, "<stdout>");
      if (trace_out.is_open()) ok = flushed(trace_out, trace_file) && ok;
      if (metrics_out.is_open()) ok = flushed(metrics_out, metrics_file) && ok;
      return ok ? code : 1;
    };
    // Live telemetry (docs/observability.md): arming must precede the
    // construction of everything that caches instrument handles (caches,
    // engines, the batch driver).
    std::unique_ptr<Snapshotter> snapshotter;
    if (heartbeat_ms > 0) {
      Telemetry& telemetry = Telemetry::enable();
      telemetry.reset();
      snapshotter = std::make_unique<Snapshotter>(
          telemetry, std::chrono::milliseconds(heartbeat_ms),
          metrics_file.empty() ? static_cast<std::ostream&>(std::cerr)
                               : static_cast<std::ostream&>(metrics_out));
    }

    // Input handling is fail-soft (docs/robustness.md): the checked
    // parsers return a Status whose diagnostic carries file:line, and the
    // Status category picks the exit code.
    const auto input_error = [](const Status& status) {
      std::cerr << "error: " << status.to_string() << "\n";
      return exit_code_for(status.code());
    };

    if (!batch_file.empty()) {
      if (!perm_text.empty() || !spec_file.empty() || !benchmark.empty() ||
          !tfc_file.empty()) {
        std::cerr << "error: --batch cannot be combined with another input\n";
        return usage();
      }
      std::ifstream in(batch_file);
      if (!in) {
        std::cerr << "error: cannot open " << batch_file << "\n";
        return exit_code_for(StatusCode::kParseError);
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      Result<std::vector<NamedSpec>> parsed =
          parse_permutation_batch_checked(buf.str(), batch_file);
      if (!parsed.ok()) return input_error(parsed.status());

      std::vector<BatchJob> jobs;
      for (NamedSpec& s : parsed.value()) {
        jobs.push_back(BatchJob{std::move(s.name), std::move(s.table), ""});
      }
      // Ids are assigned over the FULL corpus before shard filtering so a
      // job keeps the same id whatever N is (docs/fleet.md) — a checkpoint
      // written at --shard 0/4 still resumes correctly at 0/8.
      assign_job_ids(jobs);
      jobs = filter_shard(std::move(jobs), shard_index, shard_count);

      std::optional<BatchCheckpoint> checkpoint;
      if (!checkpoint_file.empty()) {
        Result<BatchCheckpoint> opened = BatchCheckpoint::open(checkpoint_file);
        if (!opened.ok()) return input_error(opened.status());
        checkpoint.emplace(std::move(opened).value());
        // Write (or rewrite) the file before any job runs, so a run killed
        // mid-corpus always leaves a loadable ledger behind.
        checkpoint->flush();
      }

      install_cancel_signals();
      BatchOptions bopts;
      bopts.resilience.search = options;
      bopts.resilience.search.time_limit = std::chrono::milliseconds{0};
      bopts.total_threads = threads;
      bopts.deadline = options.time_limit;  // bounds the whole batch
      bopts.use_watchdog = use_watchdog;
      bopts.cancel_token = &g_cancel;
      if (canonical_cap >= 0) bopts.canonical.max_vars = canonical_cap;
      if (checkpoint.has_value()) bopts.checkpoint = &*checkpoint;
      const long long mb = cache_mb < 0 ? 64 : cache_mb;
      std::unique_ptr<SynthCache> cache;
      if (mb > 0) {
        SynthCacheOptions copts;
        copts.byte_budget = static_cast<std::size_t>(mb) << 20;
        copts.dir = cache_dir;
        copts.disk_byte_budget = static_cast<std::size_t>(cache_gc_mb) << 20;
        cache = std::make_unique<SynthCache>(std::move(copts));
        bopts.cache = cache.get();
      }

      const BatchResult br = run_batch(jobs, bopts);
      // Final gauge/counter state is in place now; the flush heartbeat
      // must land before the v1 records start using the stream.
      if (snapshotter != nullptr) snapshotter->stop();

      for (const BatchJobOutcome& out : br.outcomes) {
        // Checkpoint-resumed jobs were already emitted by the run that
        // completed them; re-printing would duplicate output in the union.
        if (out.skipped) continue;
        if (!out.status.ok()) {
          std::cerr << out.name << ": " << out.status.to_string() << "\n";
          continue;
        }
        if (emit_tfc) {
          std::cout << "# " << out.name << "\n"
                    << write_tfc(out.result.circuit);
        } else {
          std::cout << out.name << ": " << out.result.circuit.to_string()
                    << "\n";
        }
      }
      std::cerr << "batch: " << br.stats.jobs << " jobs, "
                << br.stats.completed << " ok, " << br.stats.failed
                << " failed, " << br.stats.skipped << " resumed, "
                << br.stats.cache_hits << " cache hits ("
                << br.stats.cache_orbit_hits << " via orbit), "
                << br.stats.cache_misses << " misses, "
                << br.stats.batch_dedup << " deduped, "
                << br.elapsed.count() << " us\n";

      if (!metrics_file.empty()) {
        MetricsWriter writer(metrics_out);
        std::int64_t total_gates = 0;
        std::int64_t total_cost = 0;
        for (const BatchJobOutcome& job : br.outcomes) {
          if (job.skipped) continue;  // emitted by the run that completed it
          writer.write(job_metrics(job.name, job.result.circuit.num_lines(),
                                   job, job.trace_id));
          if (job.status.ok()) {
            total_gates += job.result.circuit.gate_count();
            total_cost +=
                static_cast<std::int64_t>(quantum_cost(job.result.circuit));
          }
        }
        // One summary record carrying the batch-level counters; gates is
        // the total across jobs so the success/gates invariant holds.
        MetricsRegistry summary;
        const bool ok = br.status.ok();
        const TerminationReason summary_termination =
            ok ? TerminationReason::kSolved
            : br.status.code() == StatusCode::kCancelled
                ? TerminationReason::kCancelled
                : br.search_stats.watchdog_fired
                      ? TerminationReason::kTimeLimit
                      : TerminationReason::kQueueExhausted;
        summary.set("name", batch_file).set("success", ok);
        summary.add_stats(br.search_stats, summary_termination);
        summary.set("batch_jobs", br.stats.jobs)
            .set("batch_completed", br.stats.completed)
            .set("batch_failed", br.stats.failed)
            .set("cache_hits", br.stats.cache_hits)
            .set("cache_misses", br.stats.cache_misses)
            .set("cache_orbit_hits", br.stats.cache_orbit_hits)
            .set("batch_dedup", br.stats.batch_dedup)
            .set("batch_skipped", br.stats.skipped);
        if (shard_count > 1) {
          // Lets tools/metrics_report label the per-shard breakdown rows
          // without inferring shards from filenames.
          summary.set("shard", std::to_string(shard_index) + "/" +
                                   std::to_string(shard_count));
        }
        if (ok) {
          summary.set("gates", total_gates).set("quantum_cost", total_cost);
        } else {
          summary.set("gates", -1).set("quantum_cost", -1);
        }
        writer.write(summary);
      }
      return finish(exit_code_for(br.status.code()));
    }

    Pprm spec;
    std::string input_name;
    std::optional<TruthTable> table_spec;
    if (!tfc_file.empty()) {
      // Resynthesis mode: read a cascade and search for a better one
      // realizing the same function.
      std::ifstream in(tfc_file);
      if (!in) {
        std::cerr << "error: cannot open " << tfc_file << "\n";
        return exit_code_for(StatusCode::kParseError);
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      Result<Circuit> parsed = read_tfc_checked(buf.str(), tfc_file);
      if (!parsed.ok()) return input_error(parsed.status());
      const Circuit original = std::move(parsed).value();
      std::cerr << "resynthesizing " << original.gate_count()
                << "-gate cascade on " << original.num_lines() << " lines\n";
      spec = original.to_pprm();
      input_name = tfc_file;
    } else if (!perm_text.empty()) {
      Result<TruthTable> parsed =
          parse_permutation_spec_checked(perm_text, "<perm>");
      if (!parsed.ok()) return input_error(parsed.status());
      table_spec = std::move(parsed).value();
      spec = pprm_of_truth_table(*table_spec);
      input_name = "perm";
    } else if (!spec_file.empty()) {
      std::ifstream in(spec_file);
      if (!in) {
        std::cerr << "error: cannot open " << spec_file << "\n";
        return exit_code_for(StatusCode::kParseError);
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      Result<TruthTable> parsed =
          parse_permutation_spec_checked(buf.str(), spec_file);
      if (!parsed.ok()) return input_error(parsed.status());
      table_spec = std::move(parsed).value();
      spec = pprm_of_truth_table(*table_spec);
      input_name = spec_file;
    } else if (!benchmark.empty()) {
      try {
        spec = suite::get_benchmark(benchmark).pprm;
      } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return exit_code_for(StatusCode::kInvalidArgument);
      }
      input_name = benchmark;
    } else {
      return usage();
    }

    // Ctrl-C / SIGTERM / SIGHUP cancel cooperatively from here on (user
    // reason -> exit 5).
    install_cancel_signals();
    options.cancel_token = &g_cancel;

    // Single-shot orbit cache (docs/caching.md): off unless sized
    // explicitly or given a disk store; only permutation-table inputs
    // canonicalize. A verified hit skips synthesis entirely; a miss
    // synthesizes as before and inserts the *representative's* circuit
    // (forward transform), so the emitted circuit is byte-identical to a
    // cache-less run.
    const long long single_mb =
        cache_mb >= 0 ? cache_mb : (cache_dir.empty() ? 0 : 64);
    std::unique_ptr<SynthCache> cache;
    CanonicalForm canonical_form;
    bool cache_enabled = false;
    bool cache_hit = false;
    if (single_mb > 0 && table_spec.has_value()) {
      SynthCacheOptions copts;
      copts.byte_budget = static_cast<std::size_t>(single_mb) << 20;
      copts.dir = cache_dir;
      cache = std::make_unique<SynthCache>(std::move(copts));
      CanonicalOptions canon;
      if (canonical_cap >= 0) canon.max_vars = canonical_cap;
      canonical_form = canonicalize(*table_spec, canon);
      cache_enabled = true;
    }

    SynthesisResult result;
    FallbackEngine engine = FallbackEngine::kNone;
    bool verified = false;
    Status run_status;
    if (cache_enabled) {
      std::optional<Circuit> cached = cache->lookup(canonical_form.key);
      // Mandatory re-verification: a hash collision or corrupt disk entry
      // (a circuit of another width included) fails here and degrades to
      // a plain miss, whose insert below overwrites the entry.
      if (cached.has_value() &&
          cached->num_lines() == table_spec->num_vars()) {
        Circuit rebuilt =
            reconstruct_circuit(*cached, canonical_form.transform);
        if (equivalent(rebuilt, spec)) {
          result.success = true;
          result.circuit = std::move(rebuilt);
          result.initial_terms = spec.term_count();
          result.termination = TerminationReason::kSolved;
          verified = true;
          cache_hit = true;
        }
      }
    }
    if (!cache_hit && resilient_mode) {
      ResilienceOptions ropts;
      ropts.search = options;
      ropts.search.time_limit = std::chrono::milliseconds{0};
      ropts.deadline = options.time_limit;  // the cascade owns the clock
      ropts.use_watchdog = use_watchdog;
      ropts.cancel_token = &g_cancel;
      if (bidirectional) {
        std::cerr << "note: --resilient runs the forward cascade;"
                     " --bidir is ignored\n";
      }
      ResilientResult rr = table_spec
                               ? synthesize_resilient(*table_spec, ropts)
                               : synthesize_resilient(spec, ropts);
      result = std::move(rr.result);
      engine = rr.engine;
      verified = rr.verified;
      run_status = rr.status;
    } else if (!cache_hit) {
      // The watchdog backstops --time-ms even if a pass wedges between
      // cooperative deadline polls.
      std::unique_ptr<Watchdog> watchdog;
      if (use_watchdog && options.time_limit.count() > 0) {
        watchdog = std::make_unique<Watchdog>(g_cancel, options.time_limit);
      }
      result = bidirectional && table_spec
                   ? synthesize_bidirectional(*table_spec, options)
                   : synthesize(spec, options);
      if (bidirectional && !table_spec) {
        std::cerr << "note: --bidir needs an explicit permutation spec;"
                     " running forward only\n";
      }
      if (watchdog != nullptr) {
        watchdog->disarm();
        result.stats.watchdog_fired = watchdog->fired();
      }
    }
    if (cache_enabled && !cache_hit && result.success) {
      cache->insert(
          canonical_form.key,
          canonical_circuit_of(result.circuit, canonical_form.transform));
    }
    // Flush the final heartbeat before the v1 record shares the stream.
    if (snapshotter != nullptr) snapshotter->stop();
    // One JSONL record per run: counters + termination + phase timings +
    // circuit stats (gates/cost -1 when the synthesis failed).
    const auto write_metrics = [&](const Circuit* circuit) {
      if (metrics_file.empty()) return;
      MetricsRegistry record;
      record.set("name", input_name).set("vars", spec.num_vars());
      record.set("success", result.success);
      record.add_stats(result.stats, result.termination);
      if (resilient_mode) {
        // Degradation visibility: which engine of the cascade won (or
        // "none") and whether the winner passed exact verification.
        record.set("fallback_engine", std::string_view(to_string(engine)));
        record.set("verified", verified);
      }
      if (cache_enabled) {
        record.set("cache_hits", std::uint64_t{cache_hit ? 1u : 0u});
        record.set("cache_misses", std::uint64_t{cache_hit ? 0u : 1u});
      }
      record.add_profile(profile);
      if (circuit != nullptr) {
        record.add_circuit(*circuit);
      } else {
        record.set("gates", -1).set("quantum_cost", -1);
      }
      MetricsWriter(metrics_out).write(record);
    };

    if (!result.success) {
      std::cerr << "synthesis failed within budget ("
                << result.stats.nodes_expanded << " nodes expanded,"
                   " termination: "
                << to_string(result.termination) << ")\n";
      if (result.partial_terms >= 0) {
        std::cerr << "best partial cascade: " << result.partial.gate_count()
                  << " gates, " << result.partial_terms
                  << " terms remaining\n";
      }
      write_metrics(nullptr);
      if (resilient_mode) return finish(exit_code_for(run_status.code()));
      return finish(exit_code_for(
          result.termination == TerminationReason::kCancelled
              ? StatusCode::kCancelled
              : StatusCode::kBudgetExhausted));
    }
    Circuit circuit = result.circuit;
    if (run_templates) {
      circuit = simplify_templates(circuit, options.phase_profile).circuit;
    }
    if (!implements(circuit, spec)) {
      std::cerr << "internal error: circuit fails verification\n";
      return exit_code_for(StatusCode::kInternal);
    }
    write_metrics(&circuit);
    if (run_fredkinize) {
      const FredkinizeResult fr = fredkinize(circuit);
      std::cout << fr.circuit.to_string() << "\n";
      std::cout << "gates: " << fr.circuit.gate_count() << " ("
                << fr.fredkin_gates << " Fredkin)"
                << "  quantum cost: " << quantum_cost(fr.circuit)
                << "  nodes: " << result.stats.nodes_expanded
                << "  termination: " << to_string(result.termination)
                << "\n";
      return finish(0);
    }
    // Stats go to stderr in .tfc mode so stdout stays a valid .tfc file.
    std::ostream& stats_out = emit_tfc ? std::cerr : std::cout;
    if (emit_tfc) {
      std::cout << write_tfc(circuit);
    } else {
      std::cout << circuit.to_string() << "\n";
    }
    stats_out << "gates: " << circuit.gate_count()
              << "  quantum cost: " << quantum_cost(circuit)
              << "  nodes: " << result.stats.nodes_expanded
              << "  time: " << result.stats.elapsed.count() << " us"
              << "  termination: " << to_string(result.termination) << "\n";
    if (!metrics_file.empty()) {
      stats_out << "\nphase profile:\n" << profile.to_string();
    }
    return finish(0);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return exit_code_for(StatusCode::kInternal);
  }
}
