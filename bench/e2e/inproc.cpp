/// \file inproc.cpp
/// \brief The three in-process workloads: cold_small, cold_search and
/// orbit_warm (bench/e2e/README.md).
///
/// Each runs its set-up kSetupRepeats times, then measures whole passes
/// over a fixed, seeded job list: one pass takes about --seconds at the
/// seed's speed, and further passes run only while less than half of
/// --seconds has gone by, so faster code still measures a meaningful span.
/// Quality (gates, quantum cost) comes from the first pass, over the job
/// list's reference jobs, whose circuits are the same for every seed; later
/// passes must reproduce every job's gates exactly.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>

#include "bench/e2e/bench.hpp"
#include "bench/e2e/inputs.hpp"
#include "bench/e2e/tracing.hpp"
#include "core/batch.hpp"
#include "io/spec.hpp"
#include "io/tfc.hpp"
#include "rev/quantum_cost.hpp"

namespace rmrls::e2e {

namespace {

/// Jobs one pass holds per second of --seconds; set so a pass takes about
/// --seconds on the seed commit (4-CPU host, Release build).
constexpr double kColdSmallPerSecond = 130.0;
constexpr double kColdSearchPerSecond = 4.2;
constexpr double kOrbitWarmPerSecond = 1300.0;

/// Reference jobs of the cold workloads: about half of the default 10 s job
/// list, drawn from a fixed seed, so gates_mean and quantum_cost_mean read
/// exactly the same for every seed and any change in them is the code's.
/// Over the whole seeded list they spread 0.6-4 % between seeds, which would
/// hide a quality loss of that size.
constexpr std::size_t kColdSmallReference = 640;
constexpr std::size_t kColdSearchReference = 20;

/// Untimed calls each set-up makes before measuring, through the same entry
/// point the workload measures. Their inputs are the same for every seed:
/// about 1 % of random n = 3 specs take ~80 ms, so seed-drawn warm-ups made
/// setup_s swing sixfold between seeds. The cold workloads make 100: with
/// 20 (about 0.07 s), set-up sampled the host's speed over too short a span
/// and its median moved 40 % between two sets of ten runs.
constexpr std::size_t kColdWarmupCalls = 100;
constexpr std::size_t kOrbitWarmupJobs = 20;
constexpr std::uint64_t kWarmupSeed = 0x7761726d;

/// Jobs re-run through the untraced entry point to check the replica.
constexpr std::size_t kReplicaCheckSmall = 64;
constexpr std::size_t kReplicaCheckSearch = 4;
constexpr std::size_t kReplicaCheckOrbit = 512;

/// Job threads of the batch workloads: two jobs at a time, one search
/// thread each, so the host's 4 CPUs are never oversubscribed.
constexpr int kBatchThreads = 2;

/// An in-process workload after set-up: its jobs and how to run them.
struct Workload {
  std::string name;
  std::vector<TruthTable> specs;
  std::string text;       ///< the spec list the program parses
  /// Leading jobs that gates_mean and quantum_cost_mean are taken over.
  std::size_t reference = 0;
  int threads = 1;        ///< job threads; 1 = closed loop, one caller
  bool use_cache = false; ///< route through a SynthCache
  std::string store_dir;  ///< its on-disk store ("" = memory only)
  std::size_t replica_check = 0;
  bool require_all_hits = false;
};

/// Jobs of one pass: `per_second` per second of --seconds, at least
/// `minimum`, which is also the --quick size.
std::size_t scaled(const Config& cfg, double per_second, std::size_t minimum) {
  if (cfg.quick) return minimum;
  return std::max(minimum, static_cast<std::size_t>(per_second * cfg.seconds));
}

void add_stats(SynthCacheStats& into, const SynthCacheStats& from) {
  into.hits += from.hits;
  into.disk_hits += from.disk_hits;
  into.misses += from.misses;
  into.dedup_waits += from.dedup_waits;
  into.evictions += from.evictions;
}

/// The program's view of the jobs: the spec list as the io layer parses
/// it. A spec list that does not round-trip is a violation.
std::vector<TruthTable> parse_or_flag(const Workload& w, WorkloadResult& res) {
  Result<std::vector<NamedSpec>> parsed =
      parse_permutation_batch_checked(w.text, "<workload>");
  std::vector<TruthTable> specs;
  if (parsed.ok()) {
    for (NamedSpec& s : parsed.value()) specs.push_back(std::move(s.table));
  }
  if (specs != w.specs) {
    res.violation(w.name + ": spec list does not parse back to its specs");
    return w.specs;
  }
  return specs;
}

SynthCacheOptions cache_options(const Workload& w) {
  SynthCacheOptions o;
  o.dir = w.store_dir;
  return o;
}

/// What run_batch hands each job (core/batch.cpp job_resilience) when the
/// batch has no deadline.
ResilienceOptions job_resilience(CancelToken* token) {
  ResilienceOptions r;
  r.cancel_token = token;
  r.use_watchdog = false;
  return r;
}

/// The untraced library entry points over jobs [0, count): run_batch for
/// the batch workloads, cache-less synthesize_cached for the closed loop.
std::vector<JobOutcome> run_untraced(const Workload& w,
                                    const std::vector<TruthTable>& specs,
                                    std::size_t count,
                                    std::vector<double>* latency_ms,
                                    SynthCacheStats* cache_stats) {
  std::vector<JobOutcome> records(count);
  if (!w.use_cache) {
    for (std::size_t i = 0; i < count; ++i) {
      const auto t0 = Clock::now();
      CachedSynthesisOutcome out = synthesize_cached(
          specs[i], nullptr, CanonicalOptions{}, ResilienceOptions{});
      const std::string tfc = write_tfc(out.result.circuit);
      if (latency_ms != nullptr) latency_ms->push_back(seconds_since(t0) * 1e3);
      records[i] = {out.status.ok(), false, std::move(out.result.circuit)};
    }
    return records;
  }
  std::vector<BatchJob> jobs;
  for (std::size_t i = 0; i < count; ++i) {
    jobs.push_back(BatchJob{std::to_string(i), specs[i], {}});
  }
  SynthCache cache(cache_options(w));
  BatchOptions options;
  options.total_threads = w.threads;
  options.cache = &cache;
  BatchResult br = run_batch(jobs, options);
  for (std::size_t i = 0; i < count; ++i) {
    BatchJobOutcome& out = br.outcomes[i];
    const std::string tfc = write_tfc(out.result.circuit);
    if (latency_ms != nullptr) {
      latency_ms->push_back(static_cast<double>(out.elapsed.count()) / 1e3);
    }
    records[i] = {out.status.ok(), out.cache_hit || out.deduped,
                  std::move(out.result.circuit)};
  }
  if (cache_stats != nullptr) add_stats(*cache_stats, cache.stats());
  return records;
}

/// Runs passes of `pass` until the first pass is done and half of
/// --seconds has gone by; returns the measured seconds and pass count.
template <class Pass>
std::pair<double, std::uint64_t> run_passes(const Config& cfg, Pass&& pass) {
  double elapsed = 0.0;
  std::uint64_t passes = 0;
  do {
    const auto t0 = Clock::now();
    pass(passes);
    elapsed += seconds_since(t0);
    ++passes;
  } while (elapsed < cfg.seconds / 2.0);
  return {elapsed, passes};
}

/// Checks pass `records` against the first pass and the oracle (first
/// pass only), and counts failures.
void check_pass(const Workload& w, std::uint64_t pass,
                const std::vector<JobOutcome>& records,
                std::vector<JobOutcome>& first, Oracle& oracle,
                WorkloadResult& res) {
  std::size_t reported = 0;
  const auto flag = [&](std::size_t i, const std::string& what) {
    if (reported++ < 5) res.violation(w.name + " job " + std::to_string(i) +
                                      ": " + what);
  };
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JobOutcome& r = records[i];
    ++res.attempted;
    if (!r.ok) {
      ++res.failed;
      continue;
    }
    if (pass == 0) {
      const std::string bad = oracle.check(w.specs[i], r.circuit);
      if (!bad.empty()) flag(i, bad);
    } else if (r.circuit.gate_count() != first[i].circuit.gate_count()) {
      flag(i, "pass " + std::to_string(pass) + " gave " +
                  std::to_string(r.circuit.gate_count()) + " gates, pass 0 " +
                  std::to_string(first[i].circuit.gate_count()));
    }
  }
  if (reported > 5) {
    res.violation(w.name + ": " + std::to_string(reported - 5) +
                  " more oracle violations");
  }
  if (pass == 0) first = records;
}

void add_quality(const Workload& w, const std::vector<JobOutcome>& first,
                 WorkloadResult& res) {
  std::vector<double> gates, cost;
  for (std::size_t i = 0; i < w.reference; ++i) {
    const JobOutcome& r = first[i];
    if (!r.ok) continue;
    gates.push_back(r.circuit.gate_count());
    cost.push_back(static_cast<double>(quantum_cost(r.circuit)));
  }
  res.add("gates_mean", mean(gates), "gates");
  res.add("quantum_cost_mean", mean(cost), "cost");
}

/// What one caller waits for: a call in the closed loop, the whole batch
/// (parse, run_batch, write) for the batch workloads. A batch job's own
/// service time is printed as job_p50_ms / job_p99_ms; its median is not
/// gated, because it lands on a boundary between the cost modes of the job
/// mix and moved 30 % between runs.
void measure_untraced(const Config& cfg, const Workload& w,
                      WorkloadResult& res) {
  std::vector<double> job_ms, pass_ms;
  SynthCacheStats cache_stats;
  std::vector<JobOutcome> first;
  Oracle oracle;
  const auto [seconds, passes] = run_passes(cfg, [&](std::uint64_t pass) {
    const auto t0 = Clock::now();
    const std::vector<TruthTable> specs = parse_or_flag(w, res);
    const std::vector<JobOutcome> records =
        run_untraced(w, specs, specs.size(), &job_ms, &cache_stats);
    pass_ms.push_back(seconds_since(t0) * 1e3);
    check_pass(w, pass, records, first, oracle, res);
  });
  if (w.require_all_hits && cache_stats.misses != 0) {
    res.violation(w.name + ": " + std::to_string(cache_stats.misses) +
                  " cache misses in the measured phase (want 0)");
  }
  const double jobs = static_cast<double>(res.attempted);
  res.add("throughput_jobs_per_s", jobs / seconds, "jobs/s");
  const bool batch = w.use_cache;
  const std::vector<double>& latency_ms = batch ? pass_ms : job_ms;
  res.add("latency_p50_ms", quantile(latency_ms, 0.5), "ms");
  if (percentile_supported(latency_ms.size(), 0.99)) {
    res.add("latency_p99_ms", quantile(latency_ms, 0.99), "ms");
  }
  if (batch) {
    res.add("job_p50_ms", quantile(job_ms, 0.5), "ms");
    if (percentile_supported(job_ms.size(), 0.99)) {
      res.add("job_p99_ms", quantile(job_ms, 0.99), "ms");
    }
  }
  add_quality(w, first, res);
  res.add("fail_frac", static_cast<double>(res.failed) / jobs, "ratio");
  std::cout << w.name << ": " << res.attempted << " jobs in " << passes
            << " pass(es), " << seconds << " s measured, " << job_ms.size()
            << " job latency samples\n";
}

void measure_traced(const Config& cfg, const Workload& w,
                    WorkloadResult& res) {
  ThreadTrace parse_trace;
  std::vector<std::unique_ptr<ThreadTrace>> traces;
  CancelToken token;
  SynthCacheStats cache_stats;
  std::vector<JobOutcome> first;
  Oracle oracle;
  std::uint64_t specs_parsed = 0;
  const auto [seconds, passes] = run_passes(cfg, [&](std::uint64_t pass) {
    const int parse_span = parse_trace.open(
        SpanKind::kParse, -1, static_cast<std::uint32_t>(pass));
    const std::vector<TruthTable> specs = parse_or_flag(w, res);
    parse_trace.close(parse_span);
    specs_parsed += specs.size();
    std::unique_ptr<SynthCache> cache;
    if (w.use_cache) cache = std::make_unique<SynthCache>(cache_options(w));
    const ResilienceOptions resilience =
        w.use_cache ? job_resilience(&token) : ResilienceOptions{};
    const std::vector<JobOutcome> records =
        traced_pass(specs, w.threads, cache.get(), resilience,
                    static_cast<std::uint16_t>(pass), traces);
    if (cache != nullptr) add_stats(cache_stats, cache->stats());
    check_pass(w, pass, records, first, oracle, res);
  });

  // The replica must agree with the untraced entry point job for job.
  const std::size_t k = std::min(w.replica_check, w.specs.size());
  const std::vector<JobOutcome> reference =
      run_untraced(w, w.specs, k, nullptr, nullptr);
  for (std::size_t i = 0; i < k; ++i) {
    if (reference[i].circuit.gate_count() != first[i].circuit.gate_count() ||
        reference[i].from_cache != first[i].from_cache) {
      res.violation(w.name + " job " + std::to_string(i) +
                    ": traced replica disagrees with the untraced run (" +
                    std::to_string(first[i].circuit.gate_count()) + " vs " +
                    std::to_string(reference[i].circuit.gate_count()) +
                    " gates)");
      break;
    }
  }

  LayerInputs in;
  in.traces.push_back(&parse_trace);
  for (const auto& t : traces) in.traces.push_back(t.get());
  in.cache = cache_stats;
  in.wall_s = seconds;
  in.threads = w.threads;
  in.specs_parsed = specs_parsed;
  in.passes = passes;
  add_layer_metrics(in, res);
  add_serve_metrics(ServeLayer{}, res);
  if (!cfg.trace_out.empty()) {
    std::ofstream os(cfg.trace_out);
    write_spans(in.traces, os);
  }
  std::cout << w.name << " (traced): " << res.attempted << " jobs in "
            << passes << " pass(es), " << seconds << " s, replica checked on "
            << k << " jobs\n";
}

void measure(const Config& cfg, const Workload& w, WorkloadResult& res) {
  if (cfg.traced) {
    measure_traced(cfg, w, res);
  } else {
    measure_untraced(cfg, w, res);
  }
}

/// Cache-less warm-up calls, as a cold caller makes them.
void warm_up() {
  for (const TruthTable& spec :
       cold_small_specs(kWarmupSeed, kColdWarmupCalls, 0)) {
    const CachedSynthesisOutcome out = synthesize_cached(
        spec, nullptr, CanonicalOptions{}, ResilienceOptions{});
    const std::string tfc = write_tfc(out.result.circuit);
  }
}

}  // namespace

void add_setup(const std::vector<double>& setups, WorkloadResult& res) {
  std::cout << "set-ups:";
  for (double s : setups) std::cout << ' ' << s << " s";
  std::cout << '\n';
  res.add("setup_s", quantile(setups, 0.5), "s");
}

WorkloadResult run_cold_small(const Config& cfg) {
  WorkloadResult res;
  Workload w;
  w.name = "cold_small";
  w.specs = cold_small_specs(cfg.seed, scaled(cfg, kColdSmallPerSecond, 40),
                             kColdSmallReference);
  w.text = spec_list_text(w.specs);
  w.reference = std::min(kColdSmallReference, w.specs.size());
  w.replica_check = kReplicaCheckSmall;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    parse_or_flag(w, res);
    warm_up();
    setups.push_back(seconds_since(t0));
  }
  if (!cfg.traced) add_setup(setups, res);
  measure(cfg, w, res);
  return res;
}

WorkloadResult run_cold_search(const Config& cfg) {
  WorkloadResult res;
  Workload w;
  w.name = "cold_search";
  w.specs = cold_search_specs(cfg.seed, scaled(cfg, kColdSearchPerSecond, 4),
                              kColdSearchReference);
  w.text = spec_list_text(w.specs);
  w.reference = std::min(kColdSearchReference, w.specs.size());
  w.threads = kBatchThreads;
  w.use_cache = true;
  w.replica_check = kReplicaCheckSearch;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    parse_or_flag(w, res);
    warm_up();
    setups.push_back(seconds_since(t0));
  }
  if (!cfg.traced) add_setup(setups, res);
  measure(cfg, w, res);
  return res;
}

WorkloadResult run_orbit_warm(const Config& cfg) {
  WorkloadResult res;
  Workload w;
  w.name = "orbit_warm";
  const std::vector<Base> bases = orbit_bases(4, 7);
  MemberDeck deck(bases, cfg.seed ^ 0x6f72626974776172ULL);
  // Whole deck periods: every base gets the same share of the jobs for every
  // seed, and an orbit member's circuit has its base's gates and cost, so
  // every job is a reference job.
  const std::size_t period = deck.period();
  w.specs.resize((scaled(cfg, kOrbitWarmPerSecond, 200) + period - 1) /
                 period * period);
  for (TruthTable& t : w.specs) t = deck.next();
  w.text = spec_list_text(w.specs);
  w.reference = w.specs.size();
  w.threads = kBatchThreads;
  w.use_cache = true;
  w.replica_check = kReplicaCheckOrbit;
  w.require_all_hits = true;
  std::vector<TruthTable> warm(kOrbitWarmupJobs);
  MemberDeck warm_deck(bases, kWarmupSeed);
  for (TruthTable& t : warm) t = warm_deck.next();
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    // Each set-up builds its own store from scratch; the last one serves
    // the measured phase.
    w.store_dir = cfg.work_dir + "/orbit-store-" + std::to_string(i);
    std::filesystem::remove_all(w.store_dir);
    const auto t0 = Clock::now();
    parse_or_flag(w, res);
    if (!prefill_store(w.store_dir, bases)) {
      res.violation("orbit_warm: prefill failed to synthesize a base");
    }
    (void)run_untraced(w, warm, warm.size(), nullptr, nullptr);
    setups.push_back(seconds_since(t0));
  }
  if (!cfg.traced) add_setup(setups, res);
  std::cout << "orbit_warm: " << bases.size() << " bases at n = 4-7, "
            << w.specs.size() << " orbit members\n";
  measure(cfg, w, res);
  return res;
}

}  // namespace rmrls::e2e
