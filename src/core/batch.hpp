/// \file batch.hpp
/// \brief Batch throughput driver: a thread pool *across* functions
/// (docs/caching.md).
///
/// Every search runs on one thread; this driver puts the cores to work by
/// running many independent synthesis jobs concurrently, routing each
/// through the canonical-orbit cache
/// (core/synth_cache.hpp) so duplicate-heavy workloads synthesize each
/// orbit once and relabel the rest. One CancelToken spans the whole batch
/// and carries the batch deadline (docs/robustness.md): a SIGINT stops
/// every in-flight job, the deadline stops them at its time, and either
/// fails the jobs not yet started.
///
/// With a cache, a job synthesizes its spec's *canonical representative*
/// (rev/canonical.hpp) so the cached circuit serves the entire orbit;
/// every cache hit is reconstructed and re-verified against the original
/// spec with the exact PPRM check before it counts. Without a cache the
/// driver degrades to plain per-job synthesize_resilient on the original
/// spec — bit-identical to the single-shot path.

#pragma once

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "core/resilient.hpp"
#include "core/status.hpp"
#include "core/synth_cache.hpp"
#include "obs/metrics.hpp"
#include "rev/canonical.hpp"
#include "rev/truth_table.hpp"

namespace rmrls {

class BatchCheckpoint;

/// One synthesis request of a batch.
struct BatchJob {
  std::string name;  ///< label for outcomes/metrics (e.g. "specs.txt:12")
  TruthTable spec;
  /// Stable job id `<16-hex stable_spec_key>.<occurrence>` used by shard
  /// assignment and checkpoint files (docs/fleet.md); filled by
  /// assign_job_ids over the *whole* corpus, before any shard filtering,
  /// so ids agree across every shard count. Empty = unidentified (no
  /// checkpointing for this job).
  std::string id;
};

/// Outcome of one cached synthesis (synthesize_cached): the per-request
/// core of a batch job, shared verbatim with the serve daemon
/// (src/serve/server.hpp) so both paths route through the same warm cache
/// with the same verification guarantees.
struct CachedSynthesisOutcome {
  /// kOk with a verified circuit; kCancelled / kBudgetExhausted /
  /// kInternal otherwise (docs/robustness.md).
  Status status;
  /// Circuit, accumulated engine counters, and termination reason. For
  /// cache hits the stats are empty — no engine ran.
  SynthesisResult result;
  FallbackEngine engine = FallbackEngine::kNone;
  bool verified = false;   ///< re-checked against the caller's own spec
  bool cache_hit = false;  ///< served from the cache (memory or disk)
  bool orbit_hit = false;  ///< hit with a non-identity orbit transform
  bool deduped = false;    ///< adopted a concurrent leader's result
};

/// Outcome of one job, in input order. A job stopped (or never started)
/// by the batch token ends kCancelled on a user cancel, kBudgetExhausted
/// on the batch deadline.
struct BatchJobOutcome : CachedSynthesisOutcome {
  std::string name;
  /// True iff a checkpoint said this job already completed in a previous
  /// run: nothing ran, nothing is emitted for it (status stays kOk with an
  /// empty circuit; the CLI suppresses its per-job output entirely).
  bool skipped = false;
  /// Correlation id of this job (obs/telemetry.hpp): stamped into the
  /// job's trace events, the heartbeat `active` set, and the per-job
  /// metrics record. 0 when telemetry is disarmed — disabled runs carry
  /// no ids anywhere, keeping their output byte-identical to v1.
  std::uint64_t trace_id = 0;
  std::chrono::microseconds elapsed{0};
};

/// The rmrls-metrics-v1 record of one job (docs/observability.md), built
/// the same way by `rmrls --batch` and rmrls-serve: outcome, engine
/// counters, cache flags, and circuit stats (gates and quantum_cost -1
/// on failure). A zero `trace_id` (telemetry disarmed) leaves the key out.
[[nodiscard]] MetricsRegistry job_metrics(std::string_view name, int vars,
                                          const CachedSynthesisOutcome& out,
                                          std::uint64_t trace_id);

/// Batch-level counters (the `rmrls-metrics-v1` fields of the summary
/// record). Every completed job contributes to exactly one of hits /
/// misses / dedup, so hits + misses + dedup <= jobs, with equality when
/// nothing was cancelled.
struct BatchStats {
  std::uint64_t jobs = 0;
  std::uint64_t completed = 0;  ///< jobs that ended kOk with a circuit
  std::uint64_t failed = 0;     ///< jobs that ended with a non-kOk status
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;      ///< jobs that invoked synthesis
  std::uint64_t cache_orbit_hits = 0;  ///< subset of hits: relabeled/inverted
  std::uint64_t batch_dedup = 0;       ///< followers served by a leader
  std::uint64_t skipped = 0;  ///< checkpoint-resumed (not in any bucket above)
};

struct BatchOptions {
  /// Per-job cascade configuration. `resilience.deadline`,
  /// `resilience.use_watchdog` and `resilience.cancel_token` are
  /// overridden per job: the batch owns the token and arms the batch
  /// deadline on it, so no job arms it, and each job's deadline is the
  /// batch time remaining at its start.
  ResilienceOptions resilience;

  /// Jobs run at once: min(total_threads, jobs) job threads, each running
  /// one single-threaded search at a time. 0 = one per hardware thread.
  int total_threads = 1;

  /// Wall-clock budget of the *whole batch*; zero means none. Armed on
  /// the batch token for the length of run_batch.
  std::chrono::milliseconds deadline{0};

  /// Optional caller-owned token (e.g. a SIGINT handler); adopted as the
  /// batch token so its user-reason cancellation reaches every job.
  CancelToken* cancel_token = nullptr;

  /// Orbit cache shared by the jobs; null runs cache-less (each job
  /// synthesizes its original spec directly).
  SynthCache* cache = nullptr;

  /// Canonicalizer configuration (exact-scan cutoff, candidate budget).
  CanonicalOptions canonical;

  /// Optional crash-resume ledger (core/checkpoint.hpp): jobs whose id is
  /// already recorded are skipped wholesale; every job finishing kOk is
  /// marked (and flushed per BatchCheckpoint's own cadence). Jobs with an
  /// empty id pass through unrecorded.
  BatchCheckpoint* checkpoint = nullptr;
};

struct BatchResult {
  std::vector<BatchJobOutcome> outcomes;  ///< 1:1 with the input jobs
  BatchStats stats;
  /// Engine counters accumulated across every job that synthesized.
  SynthesisStats search_stats;
  /// kOk iff every job succeeded; otherwise the first failing job's
  /// status in input order (the CLI exit code follows it).
  Status status;
  /// True when the batch deadline had passed when the last job ended.
  bool watchdog_fired = false;
  std::chrono::microseconds elapsed{0};
};

/// Synthesizes `spec` through the canonical-orbit cache (docs/caching.md):
/// canonicalize, single-flight acquire, reconstruct + re-verify every hit,
/// synthesize the orbit representative on a miss and publish it. `cache`
/// may be null — the call then degrades to plain synthesize_resilient on
/// the original spec, bit-identical to the single-shot path. Thread-safe
/// for concurrent callers sharing one cache; never throws on budget,
/// cancellation, or verification failure.
[[nodiscard]] CachedSynthesisOutcome synthesize_cached(
    const TruthTable& spec, SynthCache* cache,
    const CanonicalOptions& canonical, const ResilienceOptions& resilience);

/// Fills every job's stable id (docs/fleet.md): 16 lowercase hex digits of
/// stable_spec_key(spec), a dot, then the 0-based occurrence count of that
/// key among *earlier* jobs — so exact-duplicate corpus lines stay
/// distinct, and ids depend only on spec content and relative duplicate
/// order, never on the shard count. Call on the full corpus BEFORE
/// filter_shard.
void assign_job_ids(std::vector<BatchJob>& jobs);

/// True iff `spec` belongs to shard `shard_index` of `shard_count`
/// (docs/fleet.md): the stable spec key is finalizer-mixed (splitmix64) so
/// consecutive permutations spread evenly, then reduced mod shard_count.
/// Every spec belongs to exactly one shard; membership is independent of
/// file order, duplicates, and the process evaluating it.
[[nodiscard]] bool shard_owns(const TruthTable& spec, int shard_index,
                              int shard_count);

/// The subset of `jobs` owned by shard `shard_index` of `shard_count`, in
/// input order. shard_count <= 1 returns the input unchanged (ids and
/// all); shard_index out of range returns an empty vector.
[[nodiscard]] std::vector<BatchJob> filter_shard(std::vector<BatchJob> jobs,
                                                 int shard_index,
                                                 int shard_count);

/// Runs the batch. Always returns; never throws on budget, cancellation,
/// or individual job failure. An empty `jobs` vector is a valid batch (a
/// shard that owns no specs, an empty corpus): it returns kOk with
/// all-zero stats.
[[nodiscard]] BatchResult run_batch(const std::vector<BatchJob>& jobs,
                                    const BatchOptions& options = {});

}  // namespace rmrls
