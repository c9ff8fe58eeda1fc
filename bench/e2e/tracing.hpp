/// \file tracing.hpp
/// \brief Bench-owned spans for the traced run (bench/e2e/README.md).
///
/// The traced run drives every job through traced_synthesize_cached, a
/// replica of core/batch's synthesize_cached that calls the same public
/// functions in the same order with a span around each call. Search passes
/// come from the library's own TraceSink events (kRunBegin / kRunEnd /
/// kRefinementRound), sampled so sparsely that node-level events never
/// fire, and the engine phases from a PhaseProfile attached through
/// SynthesisOptions. Nothing inside src/ is instrumented for this.
///
/// Spans live in per-thread buffers in memory and are written out once,
/// after the measured phase. A span's self time is its duration minus the
/// time its direct children cover; layer self times are the sums per layer.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/bench.hpp"
#include "core/batch.hpp"
#include "obs/phase_profile.hpp"
#include "obs/trace.hpp"

namespace rmrls::e2e {

enum class SpanKind : std::uint8_t {
  kJob,           ///< one job: everything below plus glue (core.batch)
  kParse,         ///< parse_permutation_batch_checked of one pass (io)
  kCanonicalize,  ///< canonicalize (rev.canonical)
  kSpecPprm,      ///< pprm_of_truth_table of the spec (rev.equivalence)
  kAcquire,       ///< SynthCache::acquire (core.synth_cache)
  kReconstruct,   ///< reconstruct_circuit (rev.equivalence)
  kVerify,        ///< equivalent (rev.equivalence)
  kResilient,     ///< synthesize_resilient; self time = its tail
  kSearchSetup,   ///< call entry -> first kRunBegin (core.synthesizer)
  kSearchPass,    ///< one ID rung or broad retry (core.synthesizer)
  kSearchRefine,  ///< one refinement rerun (core.synthesizer)
  kSearchGap,     ///< between two passes (core.synthesizer)
  kPublish,       ///< SynthCache::publish (core.synth_cache)
  kWrite,         ///< write_tfc (io)
  kCount,
};

[[nodiscard]] const char* span_name(SpanKind kind);
[[nodiscard]] const char* span_layer(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kJob;
  std::uint8_t vars = 0;
  std::uint8_t outcome = 0;    ///< kAcquire: SynthCache::Outcome
  std::uint16_t pass = 0;      ///< batch pass (one SynthCache per pass)
  std::int32_t parent = -1;    ///< index in the same thread's buffer
  std::uint32_t job = 0;       ///< job index; pass index for kParse
  std::uint64_t key = 0;       ///< kAcquire: the canonical orbit key
  std::int64_t t0 = 0;         ///< steady_clock, ns since its epoch
  std::int64_t t1 = 0;
};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Engine counters summed over the synthesize_resilient calls of a thread.
struct SearchTotals {
  std::uint64_t calls = 0;
  std::uint64_t nodes_expanded = 0;
  std::uint64_t nodes_at_best = 0;
  std::uint64_t tt_inserts = 0;
  std::uint64_t tt_evictions = 0;
  std::uint64_t tt_dup_prunes = 0;
  std::uint64_t id_iterations = 0;
  std::uint64_t history_hits = 0;
  std::uint64_t fallback_greedy = 0;
  std::uint64_t fallback_tbs = 0;
  std::uint64_t failed = 0;

  SearchTotals& operator+=(const SearchTotals& o) {
    calls += o.calls;
    nodes_expanded += o.nodes_expanded;
    nodes_at_best += o.nodes_at_best;
    tt_inserts += o.tt_inserts;
    tt_evictions += o.tt_evictions;
    tt_dup_prunes += o.tt_dup_prunes;
    id_iterations += o.id_iterations;
    history_hits += o.history_hits;
    fallback_greedy += o.fallback_greedy;
    fallback_tbs += o.fallback_tbs;
    failed += o.failed;
    return *this;
  }
};

/// One thread's span buffer; also the TraceSink its searches report to.
/// Used by exactly one thread.
class ThreadTrace final : public TraceSink {
 public:
  int open(SpanKind kind, int parent, std::uint32_t job, int vars = 0);
  void close(int index) {
    spans[static_cast<std::size_t>(index)].t1 = now_ns();
  }

  /// Brackets one synthesize_resilient call: turns the pass events seen in
  /// between into kSearchPass / kSearchRefine children, plus the set-up
  /// span before the first pass and the gaps between passes.
  void begin_resilient(int span);
  void end_resilient();

  void on_event(const TraceEvent& event) override;

  std::vector<Span> spans;
  PhaseProfile profile;
  SearchTotals search;
  std::uint16_t pass = 0;  ///< stamped into every span opened

 private:
  int resilient_ = -1;
  bool refining_ = false;
  std::int64_t pass_t0_ = 0;
  std::vector<int> passes_;  ///< pass spans of the open resilient call
};

/// One job's result, from the replica or from an untraced entry point.
struct JobOutcome {
  bool ok = false;
  bool from_cache = false;  ///< served by the cache (hit or follower)
  Circuit circuit;
};

/// The replica of synthesize_cached (core/batch.cpp): same calls, same
/// order, each inside a span whose parent is `job_span`. `resilience` must
/// be what run_batch hands a job; the sink and profile are added here.
[[nodiscard]] JobOutcome traced_synthesize_cached(
    const TruthTable& spec, SynthCache* cache, ResilienceOptions resilience,
    ThreadTrace& trace, int job_span);

/// One traced pass: every job through the replica and then write_tfc,
/// under a kJob span, on `threads` threads sharing one job cursor the way
/// run_batch's workers do. `traces` grows to one buffer per thread and
/// keeps accumulating across passes; `pass` tells the passes apart.
[[nodiscard]] std::vector<JobOutcome> traced_pass(
    const std::vector<TruthTable>& specs, int threads, SynthCache* cache,
    const ResilienceOptions& resilience, std::uint16_t pass,
    std::vector<std::unique_ptr<ThreadTrace>>& traces);

/// Per-layer numbers of one traced phase, computed from the spans.
struct LayerInputs {
  std::vector<const ThreadTrace*> traces;
  SynthCacheStats cache;   ///< summed over the phase's cache instances
  double wall_s = 0.0;     ///< traced phase wall time
  int threads = 1;         ///< job threads of the phase
  std::uint64_t specs_parsed = 0;
  std::uint64_t passes = 1;  ///< batch passes in the phase
};

/// Appends every per-layer metric except the serve.*, gen.* and proc.*
/// ones, always in the same order and with 0 for a layer the workload does
/// not reach.
void add_layer_metrics(const LayerInputs& in, WorkloadResult& out);

/// Serve client-side numbers; zero for the in-process workloads.
struct ServeLayer {
  double accept_us_p50 = 0, accept_us_p99 = 0;
  double server_us_p50 = 0, server_us_p99 = 0;
  double queue_wait_us_p99 = 0;
  double shed = 0, queue_depth_max = 0, cache_hit_ratio = 0;
  double lag_ms_p99 = 0, lag_ms_max = 0;
};
void add_serve_metrics(const ServeLayer& s, WorkloadResult& out);

/// Writes every span as one JSON object per line.
void write_spans(const std::vector<const ThreadTrace*>& traces,
                 std::ostream& os);

}  // namespace rmrls::e2e
