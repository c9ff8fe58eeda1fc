/// \file batch_throughput.cpp
/// \brief Throughput of the batch engine on duplicate-heavy workloads
/// (docs/caching.md).
///
/// The cache's value proposition is batch workloads where many requests
/// land in few orbits (standard-cell resynthesis, randomized experiment
/// sweeps). This harness builds a seeded workload of random n-variable
/// functions in which a configurable fraction of jobs are orbit repeats
/// (random conjugation and/or inversion of an earlier job), then runs it
/// two ways:
///
///   sequential  one job at a time through synthesize_resilient, no cache
///               (the pre-batch behaviour)
///   batch       run_batch with the orbit cache, `--threads` jobs at once
///
/// and reports jobs/s for both, the speedup, the cache counters, and the
/// mean cache-hit service latency vs the mean cold synthesis latency.
/// The PR's acceptance bar (>= 5x on a >= 50% orbit-repeat random-4
/// workload, hit latency < 1% of cold synthesis) reads directly off the
/// default row. With --workload FILE the jobs come from a spec-list file
/// (same hardened parser and exit-code taxonomy as `rmrls --batch`)
/// instead of the generator.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/batch.hpp"
#include "io/spec.hpp"
#include "io/table.hpp"
#include "rev/random.hpp"

namespace {

using namespace rmrls;
using Clock = std::chrono::steady_clock;

struct Args {
  bench::BenchArgs common;
  int vars = 4;
  double dup_frac = 0.5;  // fraction of jobs that are orbit repeats
  long long cache_mb = 64;
  std::string workload;  // spec-list file; empty = generated workload
  int threads = 1;       // concurrent batch jobs
};

Args parse_args(int argc, char** argv) {
  Args a;
  FlagTable flags("[options]");
  flags.section("batch_throughput: batch engine vs sequential no-cache"
                " baseline")
      .number("--vars", a.vars, "N",
              "workload width in variables (default 4)", 1)
      .number("--dup-frac", a.dup_frac, "X",
              "fraction of jobs that are orbit repeats, clamped to [0,1]"
              " (default 0.5)")
      .number("--cache-mb", a.cache_mb, "N",
              "cache budget in MiB for the batch run (default 64)", 0,
              kMaxMebibytes)
      .text("--workload", a.workload, "FILE",
            "spec-list file instead of the generated workload")
      .number("--threads", a.threads, "N",
              "batch jobs run at once (default 1; 0 = one per hardware"
              " thread)",
              0);
  a.common.declare(flags);
  flags.parse(argc, argv);
  a.dup_frac = std::clamp(a.dup_frac, 0.0, 1.0);
  return a;
}

/// Generated workload: `unique` fresh random functions, padded with orbit
/// repeats (random conjugation, random inversion) up to `total` jobs, then
/// shuffled so repeats interleave with their originals.
std::vector<BatchJob> generate_workload(int vars, std::uint64_t total,
                                        double dup_frac,
                                        std::mt19937_64& rng) {
  const auto unique = static_cast<std::uint64_t>(std::max<double>(
      1.0, static_cast<double>(total) * (1.0 - dup_frac) + 0.5));
  std::vector<TruthTable> bases;
  std::vector<BatchJob> jobs;
  for (std::uint64_t i = 0; i < total; ++i) {
    TruthTable t;
    if (i < unique) {
      t = random_reversible_function(vars, rng);
      bases.push_back(t);
    } else {
      t = bases[rng() % bases.size()];
      std::vector<int> sigma(static_cast<std::size_t>(vars));
      std::iota(sigma.begin(), sigma.end(), 0);
      std::shuffle(sigma.begin(), sigma.end(), rng);
      t = conjugate(t, sigma);
      if (rng() & 1u) t = t.inverse();
    }
    jobs.push_back(BatchJob{"job" + std::to_string(i), std::move(t), ""});
  }
  std::shuffle(jobs.begin(), jobs.end(), rng);
  return jobs;
}

/// File workload: the same hardened parser and exit-code taxonomy as
/// `rmrls --batch` (docs/robustness.md) — a malformed line exits 3 with a
/// file:line diagnostic, never an uncaught exception.
std::vector<BatchJob> load_workload(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot open " << path << "\n";
    std::exit(exit_code_for(StatusCode::kParseError));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  Result<std::vector<NamedSpec>> parsed =
      parse_permutation_batch_checked(buf.str(), path);
  if (!parsed.ok()) {
    std::cerr << "error: " << parsed.status().to_string() << "\n";
    std::exit(exit_code_for(parsed.status().code()));
  }
  std::vector<BatchJob> jobs;
  for (NamedSpec& s : parsed.value()) {
    jobs.push_back(BatchJob{std::move(s.name), std::move(s.table), ""});
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  bench::BenchTelemetry telemetry(args.common);
  bench::BenchJson json(args.common);
  const std::uint64_t total =
      args.common.samples ? args.common.samples : 64;

  std::mt19937_64 rng(args.common.seed);
  const std::vector<BatchJob> jobs =
      args.workload.empty()
          ? generate_workload(args.vars, total, args.dup_frac, rng)
          : load_workload(args.workload);

  std::cout << "=== Batch throughput: orbit cache vs sequential no-cache"
               " ===\n"
            << jobs.size() << " jobs";
  if (args.workload.empty()) {
    std::cout << ", " << args.vars << " vars, "
              << fixed(args.dup_frac * 100, 0) << "% orbit repeats";
  } else {
    std::cout << " from " << args.workload;
  }
  std::cout << ", cache " << args.cache_mb << " MiB\n\n";

  ResilienceOptions base;
  if (args.common.max_nodes) base.search.max_nodes = args.common.max_nodes;
  args.common.apply(base.search);

  // Baseline: one job at a time, no cache, no canonicalization.
  const auto seq_start = Clock::now();
  std::uint64_t seq_ok = 0;
  for (const BatchJob& job : jobs) {
    const ResilientResult rr = synthesize_resilient(job.spec, base);
    if (rr.status.ok()) ++seq_ok;
    json.record("seq_" + job.name, job.spec.num_vars(), rr.result,
                rr.status.ok() ? &rr.result.circuit : nullptr);
  }
  const double seq_s =
      std::chrono::duration<double>(Clock::now() - seq_start).count();

  // Batch engine with the orbit cache.
  SynthCacheOptions cache_options;
  cache_options.byte_budget =
      static_cast<std::size_t>(args.cache_mb) << 20;
  SynthCache cache(cache_options);
  BatchOptions batch_options;
  batch_options.resilience = base;
  batch_options.total_threads = args.threads;
  if (args.cache_mb > 0) batch_options.cache = &cache;
  const auto batch_start = Clock::now();
  const BatchResult br = run_batch(jobs, batch_options);
  const double batch_s =
      std::chrono::duration<double>(Clock::now() - batch_start).count();

  // Hit latency vs cold synthesis latency, from the per-job clocks.
  // Deduped jobs belong to neither bucket: a follower's clock is dominated
  // by waiting for its leader's synthesis, not by cache service.
  double hit_us_sum = 0, miss_us_sum = 0;
  std::uint64_t hit_n = 0, miss_n = 0;
  for (const BatchJobOutcome& out : br.outcomes) {
    if (!out.status.ok() || out.deduped) continue;
    if (out.cache_hit) {
      hit_us_sum += static_cast<double>(out.elapsed.count());
      ++hit_n;
    } else {
      miss_us_sum += static_cast<double>(out.elapsed.count());
      ++miss_n;
    }
  }
  const double hit_us = hit_n ? hit_us_sum / static_cast<double>(hit_n) : 0;
  const double miss_us =
      miss_n ? miss_us_sum / static_cast<double>(miss_n) : 0;

  TextTable table({"Mode", "Jobs ok", "Wall s", "Jobs/s", "Speedup"});
  const auto rate = [&](std::uint64_t ok, double s) {
    return s > 0 ? static_cast<double>(ok) / s : 0.0;
  };
  table.add_row({"sequential no-cache", std::to_string(seq_ok),
                 fixed(seq_s, 3), fixed(rate(seq_ok, seq_s), 1), "1.00"});
  table.add_row({"batch + cache", std::to_string(br.stats.completed),
                 fixed(batch_s, 3), fixed(rate(br.stats.completed, batch_s), 1),
                 fixed(batch_s > 0 ? seq_s / batch_s : 0, 2)});
  table.print(std::cout);

  std::cout << "\ncache: " << br.stats.cache_hits << " hits ("
            << br.stats.cache_orbit_hits << " via orbit), "
            << br.stats.cache_misses << " misses, " << br.stats.batch_dedup
            << " deduped\n"
            << "latency: hit " << fixed(hit_us, 1) << " us, cold synthesis "
            << fixed(miss_us, 1) << " us ("
            << (miss_us > 0 ? fixed(100.0 * hit_us / miss_us, 2) : "n/a")
            << "% of cold)\n";
  return br.status.ok() ? 0 : exit_code_for(br.status.code());
}
