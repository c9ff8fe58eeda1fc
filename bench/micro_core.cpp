/// \file micro_core.cpp
/// \brief google-benchmark microbenchmarks for the library's hot paths:
/// the Reed-Muller transform, exact equivalence, .tfc writing, PPRM
/// substitution, state hashing, candidate enumeration, circuit simulation,
/// and end-to-end synthesis of small specs. These back the performance
/// claims in EXPERIMENTS.md.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/transformation_based.hpp"
#include "bench_suite/functions.hpp"
#include "core/batch.hpp"
#include "core/factor_enum.hpp"
#include "core/resilient.hpp"
#include "core/synth_cache.hpp"
#include "core/synthesizer.hpp"
#include "io/tfc.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "rev/canonical.hpp"
#include "rev/equivalence.hpp"
#include "rev/pprm_transform.hpp"
#include "rev/random.hpp"

namespace {

using namespace rmrls;

void BM_ReedMullerTransform(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(1);
  std::vector<std::uint8_t> f(std::size_t{1} << n);
  for (auto& v : f) v = static_cast<std::uint8_t>(rng() & 1);
  for (auto _ : state) {
    std::vector<std::uint8_t> copy = f;
    reed_muller_transform(copy);
    benchmark::DoNotOptimize(copy);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ReedMullerTransform)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_PprmOfTruthTable(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(2);
  const TruthTable tt = random_reversible_function(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pprm_of_truth_table(tt));
  }
}
BENCHMARK(BM_PprmOfTruthTable)
    ->Arg(3)->Arg(4)->Arg(5)->Arg(7)->Arg(8)->Arg(10)->Arg(12);

// The exact check every cache hit pays: a random GT cascade (n lines,
// the given gate count) against its own PPRM. Bit-sliced simulation up
// to kMaxSimulatedLines, reverse substitution above.
void BM_Equivalent(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int gates = static_cast<int>(state.range(1));
  std::mt19937_64 rng(25);
  const Circuit c = random_circuit(n, gates, GateLibrary::kGT, rng);
  const Pprm spec = c.to_pprm();
  for (auto _ : state) {
    benchmark::DoNotOptimize(equivalent(c, spec));
  }
}
BENCHMARK(BM_Equivalent)
    ->ArgsProduct({{4, 7, 10, 14, 16}, {32, 128}})
    ->Unit(benchmark::kMicrosecond);

// .tfc text of a 32-gate n = 7 cascade, written after every batch job.
void BM_WriteTfc(benchmark::State& state) {
  std::mt19937_64 rng(26);
  const Circuit c = random_circuit(7, 32, GateLibrary::kGT, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(write_tfc(c));
  }
}
BENCHMARK(BM_WriteTfc);

void BM_Substitution(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(3);
  const Pprm base = pprm_of_truth_table(random_reversible_function(n, rng));
  const Cube factor = cube_of_var(1) | cube_of_var(2);
  for (auto _ : state) {
    Pprm p = base;
    p.substitute(0, factor);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_Substitution)->Arg(3)->Arg(5)->Arg(8);

// Counterpart of BM_Substitution on the engine's actual hot path: price
// read-only, then materialize into a pooled destination whose buffers are
// reused, so the steady state performs no allocation at all.
void BM_SubstituteIntoPooled(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(3);
  const Pprm base = pprm_of_truth_table(random_reversible_function(n, rng));
  const Cube factor = cube_of_var(1) | cube_of_var(2);
  PprmPool pool;
  for (auto _ : state) {
    Pprm dst = pool.acquire();
    base.substitute_into(0, factor, dst);
    benchmark::DoNotOptimize(dst);
    pool.release(std::move(dst));
  }
}
BENCHMARK(BM_SubstituteIntoPooled)->Arg(3)->Arg(5)->Arg(8);

// Word-parallel dense counterparts (rev/pprm_dense.hpp, same spec and
// factor as the sparse pair above, so each sparse/dense pair reads as a
// direct comparison). These back the dense-kernel claims in
// docs/dense_pprm.md and EXPERIMENTS.md. The search runs one-word
// WordPprm states at n <= 6 and multi-word DensePprm bitsets above, so
// each type is timed only at the widths it serves.
void BM_WordSubstituteInto(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(3);
  const WordPprm base(
      pprm_of_truth_table(random_reversible_function(n, rng)));
  const Cube factor = cube_of_var(1) | cube_of_var(2);
  WordPprm dst;
  for (auto _ : state) {
    base.substitute_into(0, factor, dst);
    benchmark::DoNotOptimize(dst);
  }
}
BENCHMARK(BM_WordSubstituteInto)->Arg(3)->Arg(5);

void BM_DenseSubstituteIntoPooled(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(3);
  const DensePprm base(
      pprm_of_truth_table(random_reversible_function(n, rng)));
  const Cube factor = cube_of_var(1) | cube_of_var(2);
  DensePprmPool pool;
  for (auto _ : state) {
    DensePprm dst = pool.acquire();
    base.substitute_into(0, factor, dst);
    benchmark::DoNotOptimize(dst);
    pool.release(std::move(dst));
  }
}
BENCHMARK(BM_DenseSubstituteIntoPooled)->Arg(8);

void BM_SubstituteDelta(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(3);
  const Pprm base = pprm_of_truth_table(random_reversible_function(n, rng));
  const Cube factor = cube_of_var(1) | cube_of_var(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.substitute_delta(0, factor));
  }
}
BENCHMARK(BM_SubstituteDelta)->Arg(3)->Arg(5)->Arg(8);

void BM_WordSubstituteDelta(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(3);
  const WordPprm base(
      pprm_of_truth_table(random_reversible_function(n, rng)));
  const Cube factor = cube_of_var(1) | cube_of_var(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.substitute_delta(0, factor));
  }
}
BENCHMARK(BM_WordSubstituteDelta)->Arg(3)->Arg(5);

void BM_DenseSubstituteDelta(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(3);
  const DensePprm base(
      pprm_of_truth_table(random_reversible_function(n, rng)));
  const Cube factor = cube_of_var(1) | cube_of_var(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.substitute_delta(0, factor));
  }
}
BENCHMARK(BM_DenseSubstituteDelta)->Arg(8);

void BM_PprmHash(benchmark::State& state) {
  std::mt19937_64 rng(4);
  const Pprm p = pprm_of_truth_table(random_reversible_function(6, rng));
  for (auto _ : state) benchmark::DoNotOptimize(p.hash());
}
BENCHMARK(BM_PprmHash);

void BM_EnumerateCandidates(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(5);
  const Pprm p = pprm_of_truth_table(random_reversible_function(n, rng));
  const SynthesisOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerate_candidates(p, options, nullptr));
  }
}
BENCHMARK(BM_EnumerateCandidates)->Arg(3)->Arg(5)->Arg(7);

void BM_CircuitSimulate(benchmark::State& state) {
  std::mt19937_64 rng(6);
  const Circuit c = random_circuit(16, 25, GateLibrary::kGT, rng);
  std::uint64_t x = 0;
  for (auto _ : state) {
    x = c.simulate(x) + 1;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_CircuitSimulate);

// End-to-end synthesis of the paper's Fig. 1 example. The default options
// run the adaptive dense kernel (dense_threshold = 14 covers n = 3, on
// one-word states); the *Sparse variant pins the cube-vector engine, so
// the pair measures the dense kernel's end-to-end speedup on an identical
// search tree (both produce the same circuit; see docs/dense_pprm.md).
void BM_SynthesizeFig1(benchmark::State& state) {
  const Pprm spec =
      pprm_of_truth_table(TruthTable({1, 0, 7, 2, 3, 4, 5, 6}));
  SynthesisOptions o;
  o.max_nodes = 20000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(synthesize(spec, o));
  }
}
BENCHMARK(BM_SynthesizeFig1);

void BM_SynthesizeFig1Sparse(benchmark::State& state) {
  const Pprm spec =
      pprm_of_truth_table(TruthTable({1, 0, 7, 2, 3, 4, 5, 6}));
  SynthesisOptions o;
  o.max_nodes = 20000;
  o.dense_threshold = 0;  // force the sparse engine
  for (auto _ : state) {
    benchmark::DoNotOptimize(synthesize(spec, o));
  }
}
BENCHMARK(BM_SynthesizeFig1Sparse);

void BM_Synthesize3Var(benchmark::State& state) {
  std::mt19937_64 rng(7);
  const Pprm spec = pprm_of_truth_table(random_reversible_function(3, rng));
  SynthesisOptions o;
  o.max_nodes = 20000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(synthesize(spec, o));
  }
}
BENCHMARK(BM_Synthesize3Var);

// Five variables is where substitution dominates the search (the sparse
// kernel's sort-and-merge grows with the term count while heap and
// enumeration overheads do not), so this pair shows the dense kernel's
// end-to-end effect unmasked by Amdahl's law; the budget bounds the run,
// both engines expand the same 2000 nodes.
void BM_Synthesize5Var(benchmark::State& state) {
  std::mt19937_64 rng(9);
  const Pprm spec = pprm_of_truth_table(random_reversible_function(5, rng));
  SynthesisOptions o;
  o.max_nodes = 2000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(synthesize(spec, o));
  }
}
BENCHMARK(BM_Synthesize5Var);

void BM_Synthesize5VarSparse(benchmark::State& state) {
  std::mt19937_64 rng(9);
  const Pprm spec = pprm_of_truth_table(random_reversible_function(5, rng));
  SynthesisOptions o;
  o.max_nodes = 2000;
  o.dense_threshold = 0;  // force the sparse engine
  for (auto _ : state) {
    benchmark::DoNotOptimize(synthesize(spec, o));
  }
}
BENCHMARK(BM_Synthesize5VarSparse);

// Observability overhead guards. With `trace_sink == nullptr` (the
// default, as in BM_Synthesize3Var/BM_SynthesizeFig1 above) every emission
// site reduces to one inlined pointer test; the claim in
// docs/observability.md is that this costs < 2% against the same search —
// compare the *Disarmed pair below against its baseline. The NullSink
// variant then pays the full event path (construction + virtual dispatch
// into a sink that discards everything) at sampling interval 1, an upper
// bound for any real sink before I/O.

void BM_Synthesize3VarTraceDisarmed(benchmark::State& state) {
  std::mt19937_64 rng(7);
  const Pprm spec = pprm_of_truth_table(random_reversible_function(3, rng));
  SynthesisOptions o;
  o.max_nodes = 20000;
  o.trace_sink = nullptr;  // explicit: the disabled-instrumentation path
  o.phase_profile = nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(synthesize(spec, o));
  }
}
BENCHMARK(BM_Synthesize3VarTraceDisarmed);

void BM_Synthesize3VarNullSink(benchmark::State& state) {
  std::mt19937_64 rng(7);
  const Pprm spec = pprm_of_truth_table(random_reversible_function(3, rng));
  NullTraceSink sink;
  SynthesisOptions o;
  o.max_nodes = 20000;
  o.trace_sink = &sink;
  o.trace_sample_interval = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(synthesize(spec, o));
  }
}
BENCHMARK(BM_Synthesize3VarNullSink);

void BM_Synthesize3VarNullSinkSampled(benchmark::State& state) {
  std::mt19937_64 rng(7);
  const Pprm spec = pprm_of_truth_table(random_reversible_function(3, rng));
  NullTraceSink sink;
  SynthesisOptions o;
  o.max_nodes = 20000;
  o.trace_sink = &sink;
  o.trace_sample_interval = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(synthesize(spec, o));
  }
}
BENCHMARK(BM_Synthesize3VarNullSinkSampled);

// Live-telemetry overhead guards (obs/telemetry.hpp). The instrument
// benchmarks price the *enabled* hot path: Counter::inc is one relaxed
// fetch_add on a padded per-thread shard, Histogram::record one bucket
// increment plus the running-sum add. The *TelemetryDisabled variant
// repeats BM_Synthesize3Var with the registry explicitly disarmed — the
// search engine's cached-handle sites then reduce to one null-pointer
// test each, and the docs/observability.md claim is that this stays
// within 2% of the uninstrumented baseline (compare against
// BM_Synthesize3Var; the Enabled variant bounds the armed cost).

void BM_TelemetryCounterInc(benchmark::State& state) {
  Counter& c = Telemetry::registry().counter("bench.counter_inc");
  c.reset();
  for (auto _ : state) {
    c.inc();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_TelemetryCounterInc);

void BM_TelemetryHistogramRecord(benchmark::State& state) {
  Histogram& h = Telemetry::registry().histogram("bench.histogram_record");
  h.reset();
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = (v * 2862933555777941757ULL + 3037000493ULL) >> 32;  // vary buckets
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_TelemetryHistogramRecord);

void BM_Synthesize3VarTelemetryDisabled(benchmark::State& state) {
  Telemetry::disable();
  std::mt19937_64 rng(7);
  const Pprm spec = pprm_of_truth_table(random_reversible_function(3, rng));
  SynthesisOptions o;
  o.max_nodes = 20000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(synthesize(spec, o));
  }
}
BENCHMARK(BM_Synthesize3VarTelemetryDisabled);

void BM_Synthesize3VarTelemetryEnabled(benchmark::State& state) {
  Telemetry& t = Telemetry::enable();
  t.reset();
  std::mt19937_64 rng(7);
  const Pprm spec = pprm_of_truth_table(random_reversible_function(3, rng));
  SynthesisOptions o;
  o.max_nodes = 20000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(synthesize(spec, o));
  }
  Telemetry::disable();
}
BENCHMARK(BM_Synthesize3VarTelemetryEnabled);

void BM_TransformationBased(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(8);
  const TruthTable spec = random_reversible_function(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(synthesize_transformation_bidir(spec));
  }
}
BENCHMARK(BM_TransformationBased)->Arg(3)->Arg(6)->Arg(8);

// Cache-path microbenchmarks (docs/caching.md). The first three price the
// building blocks of a verified cache hit; BM_CacheHitPath is the whole
// hit service — canonicalize, shard lookup, wire relabeling, equivalence
// re-verification — i.e. the numerator of the "hit latency < 1% of cold
// synthesis" claim that bench/batch_throughput measures end to end.

void BM_Canonicalize(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(21);
  const TruthTable spec = random_reversible_function(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(canonicalize(spec));
  }
}
// Random specs: at 4 and 6 every wire may take every position; at 8 only
// the positions of its signature block.
BENCHMARK(BM_Canonicalize)->Arg(4)->Arg(6)->Arg(8);

// Symmetric specs, where many relabelings tie and the search leans on the
// automorphisms it finds: hwb7 (invariant under rotating its wires) and
// tof_8 (invariant under any permutation of its seven controls).
void BM_CanonicalizeSymmetric(benchmark::State& state,
                              const TruthTable& spec) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(canonicalize(spec));
  }
}
TruthTable toffoli_on_top(int n) {
  const std::uint64_t top = std::uint64_t{1} << (n - 1);
  std::vector<std::uint64_t> image(std::uint64_t{1} << n);
  for (std::uint64_t x = 0; x < image.size(); ++x) {
    image[x] = (x & (top - 1)) == top - 1 ? x ^ top : x;
  }
  return TruthTable(std::move(image));
}
BENCHMARK_CAPTURE(BM_CanonicalizeSymmetric, hwb7, suite::hwb(7));
BENCHMARK_CAPTURE(BM_CanonicalizeSymmetric, tof8, toffoli_on_top(8));

void BM_RelabelWires(benchmark::State& state) {
  std::mt19937_64 rng(22);
  const Circuit c = random_circuit(8, 25, GateLibrary::kGT, rng);
  const std::vector<int> sigma = {3, 1, 7, 0, 5, 2, 6, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.relabel_wires(sigma));
  }
}
BENCHMARK(BM_RelabelWires);

void BM_CacheHitPath(benchmark::State& state) {
  std::mt19937_64 rng(23);
  const TruthTable spec = random_reversible_function(4, rng);
  const CanonicalForm form = canonicalize(spec);
  SynthCache cache{SynthCacheOptions{}};
  // Seed the cache with a constructive circuit for the representative, as
  // a warm batch run would have left behind.
  cache.insert(form.key, synthesize_transformation_bidir(form.representative));
  const Pprm spec_pprm = pprm_of_truth_table(spec);
  for (auto _ : state) {
    const CanonicalForm f = canonicalize(spec);
    const std::optional<Circuit> got = cache.lookup(f.key);
    const Circuit rebuilt = reconstruct_circuit(*got, f.transform);
    benchmark::DoNotOptimize(equivalent(rebuilt, spec_pprm));
  }
}
BENCHMARK(BM_CacheHitPath);

// The denominator of the same claim: cold resilient synthesis of the
// identical spec BM_CacheHitPath serves from the cache (seed 23 above).
void BM_ColdSynthesisRandom4(benchmark::State& state) {
  std::mt19937_64 rng(23);
  const TruthTable spec = random_reversible_function(4, rng);
  const ResilienceOptions o;
  for (auto _ : state) {
    benchmark::DoNotOptimize(synthesize_resilient(spec, o));
  }
}
BENCHMARK(BM_ColdSynthesisRandom4);

// The batch engine on a fixed 16-job, 50%-orbit-repeat 4-variable
// workload, sequentially (no cache) vs with a fresh orbit cache per
// iteration. Single-threaded on purpose: the pair isolates the cache's
// work-avoidance from the thread pool's parallelism (which
// bench/batch_throughput measures with real thread counts).
std::vector<BatchJob> micro_batch_jobs() {
  std::mt19937_64 rng(24);
  std::vector<TruthTable> bases;
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 16; ++i) {
    TruthTable t;
    if (i < 8) {
      t = random_reversible_function(4, rng);
      bases.push_back(t);
    } else {
      std::vector<int> sigma = {0, 1, 2, 3};
      std::shuffle(sigma.begin(), sigma.end(), rng);
      t = conjugate(bases[rng() % bases.size()], sigma);
      if (rng() & 1u) t = t.inverse();
    }
    jobs.push_back(BatchJob{"job" + std::to_string(i), std::move(t), ""});
  }
  return jobs;
}

void BM_BatchThroughputSequential(benchmark::State& state) {
  const std::vector<BatchJob> jobs = micro_batch_jobs();
  BatchOptions o;
  o.resilience.search.max_nodes = 50000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_batch(jobs, o));
  }
}
BENCHMARK(BM_BatchThroughputSequential);

void BM_BatchThroughputCached(benchmark::State& state) {
  const std::vector<BatchJob> jobs = micro_batch_jobs();
  for (auto _ : state) {
    SynthCache cache{SynthCacheOptions{}};
    BatchOptions o;
    o.resilience.search.max_nodes = 50000;
    o.cache = &cache;
    benchmark::DoNotOptimize(run_batch(jobs, o));
  }
}
BENCHMARK(BM_BatchThroughputCached);

/// One benchmark's name -> real_time (ns) from a google-benchmark JSON
/// report. Aggregate rows (mean/median/stddev repetitions) are skipped.
std::vector<std::pair<std::string, double>> read_report(
    const std::string& path) {
  std::vector<std::pair<std::string, double>> out;
  std::ifstream in(path);
  if (!in) return out;
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto parsed = rmrls::json_parse(buf.str());
  if (!parsed || !parsed->is_object()) return out;
  const rmrls::JsonValue* benches = parsed->find("benchmarks");
  if (benches == nullptr ||
      benches->type != rmrls::JsonValue::Type::kArray) {
    return out;
  }
  for (const rmrls::JsonValue& b : benches->array) {
    if (!b.is_object()) continue;
    const rmrls::JsonValue* name = b.find("name");
    const rmrls::JsonValue* rt = b.find("real_time");
    const rmrls::JsonValue* run_type = b.find("run_type");
    if (name == nullptr || !name->is_string() || rt == nullptr ||
        !rt->is_number()) {
      continue;
    }
    if (run_type != nullptr && run_type->is_string() &&
        run_type->string != "iteration") {
      continue;
    }
    out.emplace_back(name->string, rt->number);
  }
  return out;
}

/// Prints per-benchmark real_time deltas of this run against a committed
/// baseline report (bench/BENCH_seed.json by default when --json is
/// given). Positive speedup = this run is faster.
void print_baseline_delta(const std::string& current_path,
                          const std::string& baseline_path) {
  const auto baseline = read_report(baseline_path);
  const auto current = read_report(current_path);
  if (baseline.empty()) {
    std::cerr << "note: no baseline records in " << baseline_path
              << "; skipping delta report\n";
    return;
  }
  if (current.empty()) {
    std::cerr << "note: no current records in " << current_path
              << "; skipping delta report\n";
    return;
  }
  std::cout << "\n=== delta vs baseline " << baseline_path << " ===\n";
  std::printf("%-40s %12s %12s %9s\n", "benchmark", "baseline_ns",
              "current_ns", "speedup");
  for (const auto& [name, now_ns] : current) {
    double base_ns = -1.0;
    for (const auto& [bname, bns] : baseline) {
      if (bname == name) {
        base_ns = bns;
        break;
      }
    }
    if (base_ns < 0) {
      std::printf("%-40s %12s %12.0f %9s\n", name.c_str(), "-", now_ns,
                  "new");
    } else if (now_ns > 0) {
      std::printf("%-40s %12.0f %12.0f %8.2fx\n", name.c_str(), base_ns,
                  now_ns, base_ns / now_ns);
    }
  }
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): `--json FILE` is translated to
// google-benchmark's --benchmark_out flags, so this harness shares the
// --json spelling of every other binary in bench/. The committed baseline
// bench/BENCH_seed.json is regenerated with `micro_core --json ...`;
// after a --json run the harness prints each benchmark's real_time delta
// against `--baseline FILE` (default bench/BENCH_seed.json, resolved
// relative to the working directory; missing baseline = note, not error).
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  std::string json_out;
  std::string baseline = "bench/BENCH_seed.json";
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "missing value for --json\n";
        return 2;
      }
      json_out = argv[++i];
      args.push_back("--benchmark_out=" + json_out);
      args.push_back("--benchmark_out_format=json");
    } else if (arg == "--baseline") {
      if (i + 1 >= argc) {
        std::cerr << "missing value for --baseline\n";
        return 2;
      }
      baseline = argv[++i];
    } else {
      args.push_back(arg);
    }
  }
  std::vector<char*> argp;
  argp.reserve(args.size());
  for (std::string& a : args) argp.push_back(a.data());
  int count = static_cast<int>(argp.size());
  benchmark::Initialize(&count, argp.data());
  if (benchmark::ReportUnrecognizedArguments(count, argp.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  // RunSpecifiedBenchmarks closes its report stream on return, so the
  // file is complete and readable here.
  if (!json_out.empty()) print_baseline_delta(json_out, baseline);
  benchmark::Shutdown();
  return 0;
}
