#include "core/batch.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/checkpoint.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "rev/equivalence.hpp"
#include "rev/pprm.hpp"
#include "rev/pprm_transform.hpp"

namespace rmrls {

namespace {

using Clock = std::chrono::steady_clock;

int resolve_total(int total) {
  if (total > 0) return total;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::string hex16(std::uint64_t key) {
  static constexpr char digits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = digits[key & 0xf];
    key >>= 4;
  }
  return out;
}

/// splitmix64 finalizer: stable_spec_key is a plain FNV fold, and its low
/// bits correlate for near-identical permutations; the finalizer spreads
/// them before the mod-N shard reduction. Frozen like the key itself —
/// changing it reshards every deployed corpus (docs/fleet.md).
std::uint64_t mix64(std::uint64_t z) {
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

/// Shared mutable state of one batch run; workers pull job indices from
/// `next` and write only their own outcome slots, so the only lock guards
/// the accumulated counters.
struct BatchContext {
  const std::vector<BatchJob>* jobs = nullptr;
  const BatchOptions* options = nullptr;
  CancelToken* token = nullptr;
  Clock::time_point batch_start{};
  std::vector<BatchJobOutcome>* outcomes = nullptr;

  std::atomic<std::size_t> next{0};
  std::mutex stats_m;
  BatchStats stats;
  SynthesisStats search_stats;

  /// Live telemetry (obs/telemetry.hpp), armed once by run_batch when the
  /// process registry is active; null handles otherwise.
  Telemetry* tele = nullptr;
  Gauge* tele_inflight = nullptr;
  Gauge* tele_completed = nullptr;
  Gauge* tele_failed = nullptr;
  Histogram* tele_job_us = nullptr;
};

/// Milliseconds of batch budget left, clamped to at least 1ms so a job
/// starting at the wire still runs one cooperative poll instead of getting
/// an unlimited deadline from a zero remainder.
std::chrono::milliseconds remaining_deadline(const BatchContext& ctx) {
  if (ctx.options->deadline.count() <= 0) return std::chrono::milliseconds{0};
  const auto left =
      ctx.options->deadline - std::chrono::duration_cast<std::chrono::milliseconds>(
                                  Clock::now() - ctx.batch_start);
  return std::max(std::chrono::milliseconds{1}, left);
}

ResilienceOptions job_resilience(const BatchContext& ctx,
                                 std::uint64_t trace_id) {
  ResilienceOptions r = ctx.options->resilience;
  r.cancel_token = ctx.token;
  // The batch token carries the batch deadline; a job arming its own
  // deadline on it would move the deadline of every other job.
  r.use_watchdog = false;
  r.deadline = remaining_deadline(ctx);
  r.search.trace_id = trace_id;
  return r;
}

/// Verifies `circuit` against the caller's own spec; fills the outcome on
/// success.
bool adopt_verified(CachedSynthesisOutcome& out, const Pprm& spec_pprm,
                    Circuit circuit) {
  if (!equivalent(circuit, spec_pprm)) return false;
  out.verified = true;
  out.status = Status();
  out.result.success = true;
  out.result.circuit = std::move(circuit);
  out.result.termination = TerminationReason::kSolved;
  return true;
}

void run_one_job(BatchContext& ctx, std::size_t index) {
  const BatchJob& job = (*ctx.jobs)[index];
  BatchJobOutcome& out = (*ctx.outcomes)[index];
  out.name = job.name;
  // Correlation id only when telemetry is armed: disabled runs carry no
  // ids in any stream, so their output stays byte-identical to v1.
  const std::uint64_t trace_id =
      ctx.tele != nullptr ? derive_trace_id(job.name, index) : 0;
  out.trace_id = trace_id;
  if (ctx.tele != nullptr) {
    ctx.tele->add_active(trace_id_hex(trace_id));
    ctx.tele_inflight->add(1);
  }
  const auto job_start = Clock::now();
  const auto finish = [&] {
    out.elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        Clock::now() - job_start);
    if (ctx.tele != nullptr) {
      ctx.tele_job_us->record(
          static_cast<std::uint64_t>(out.elapsed.count()));
      (out.status.ok() ? ctx.tele_completed : ctx.tele_failed)->add(1);
      ctx.tele_inflight->add(-1);
      ctx.tele->remove_active(trace_id_hex(trace_id));
    }
    std::lock_guard<std::mutex> lock(ctx.stats_m);
    if (out.status.ok()) {
      ++ctx.stats.completed;
    } else {
      ++ctx.stats.failed;
    }
    if (out.cache_hit) {
      ++ctx.stats.cache_hits;
      if (out.orbit_hit) ++ctx.stats.cache_orbit_hits;
    } else if (out.deduped) {
      ++ctx.stats.batch_dedup;
    } else {
      ++ctx.stats.cache_misses;
    }
    merge_job_stats(ctx.search_stats, out.result.stats);
  };

  static_cast<CachedSynthesisOutcome&>(out) = synthesize_cached(
      job.spec, ctx.options->cache, ctx.options->canonical,
      job_resilience(ctx, trace_id));
  finish();
}

void worker_loop(BatchContext& ctx) {
  while (true) {
    const std::size_t index =
        ctx.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= ctx.jobs->size()) return;
    const BatchJob& job = (*ctx.jobs)[index];
    BatchCheckpoint* const cp = ctx.options->checkpoint;
    if (cp != nullptr && !job.id.empty() && cp->completed(job.id)) {
      // Resumed: a previous run already synthesized (and emitted) this
      // job. Nothing runs and nothing is re-emitted — the union of the
      // previous run's output and this run's output covers the shard
      // exactly once.
      BatchJobOutcome& out = (*ctx.outcomes)[index];
      out.name = job.name;
      out.skipped = true;
      out.result.circuit = Circuit(job.spec.num_vars());
      std::lock_guard<std::mutex> lock(ctx.stats_m);
      ++ctx.stats.skipped;
      continue;
    }
    if (ctx.token->expired()) {
      BatchJobOutcome& out = (*ctx.outcomes)[index];
      out.name = (*ctx.jobs)[index].name;
      out.status =
          ctx.token->reason() == CancelReason::kUser
              ? Status(StatusCode::kCancelled, "batch cancelled")
              : Status(StatusCode::kBudgetExhausted, "batch deadline expired");
      out.result.circuit = Circuit((*ctx.jobs)[index].spec.num_vars());
      if (ctx.tele_failed != nullptr) ctx.tele_failed->add(1);
      std::lock_guard<std::mutex> lock(ctx.stats_m);
      ++ctx.stats.failed;
      continue;
    }
    run_one_job(ctx, index);
    if (cp != nullptr && !job.id.empty() &&
        (*ctx.outcomes)[index].status.ok()) {
      // Marked only on success — a failed job is retried on resume. The
      // mark lands *after* the leader's publish inside synthesize_cached,
      // so by checkpoint time the orbit circuit is already in the shared
      // store and a resumed fleet can still serve the orbit's siblings.
      cp->mark(job.id);
    }
  }
}

}  // namespace

MetricsRegistry job_metrics(std::string_view name, int vars,
                            const CachedSynthesisOutcome& out,
                            std::uint64_t trace_id) {
  MetricsRegistry record;
  record.set("name", name).set("vars", vars).set("success", out.status.ok());
  if (trace_id != 0) record.set("trace_id", trace_id_hex(trace_id));
  record.add_stats(out.result.stats, out.result.termination);
  record.set("fallback_engine", std::string_view(to_string(out.engine)));
  record.set("verified", out.verified);
  record.set("cache_hit", out.cache_hit)
      .set("cache_orbit_hit", out.orbit_hit)
      .set("batch_deduped", out.deduped);
  if (out.status.ok()) {
    record.add_circuit(out.result.circuit);
  } else {
    record.set("gates", -1).set("quantum_cost", -1);
  }
  return record;
}

CachedSynthesisOutcome synthesize_cached(const TruthTable& spec,
                                         SynthCache* cache,
                                         const CanonicalOptions& canonical,
                                         const ResilienceOptions& resilience) {
  CachedSynthesisOutcome out;
  out.result.circuit = Circuit(spec.num_vars());

  if (cache == nullptr) {
    // Cache-less: identical per-request behaviour to the single-shot CLI
    // path (the --cache-mb 0 bit-identity guarantee).
    ResilientResult r = synthesize_resilient(spec, resilience);
    out.status = r.status;
    out.result = std::move(r.result);
    out.engine = r.engine;
    out.verified = r.verified;
    return out;
  }

  const CanonicalForm form = canonicalize(spec, canonical);
  const Pprm spec_pprm = pprm_of_truth_table(spec);

  SynthCache::Acquisition acq = cache->acquire(form.key);
  if (acq.outcome != SynthCache::Outcome::kLead && acq.circuit.has_value() &&
      acq.circuit->num_lines() == spec.num_vars()) {
    // A hash collision (or corrupt disk entry) fails this verification, or
    // the width check above, and falls through to a fresh synthesis that
    // overwrites the entry — hits are never trusted blindly.
    Circuit rebuilt = reconstruct_circuit(*acq.circuit, form.transform);
    if (adopt_verified(out, spec_pprm, std::move(rebuilt))) {
      if (acq.outcome == SynthCache::Outcome::kHit) {
        out.cache_hit = true;
        out.orbit_hit = !form.transform.is_identity();
      } else {
        out.deduped = true;
      }
      return out;
    }
  }

  // Miss (or follower of a failed/collided leader): synthesize the orbit
  // representative so the cached circuit serves every member of the orbit.
  ResilientResult r = synthesize_resilient(form.representative, resilience);
  const bool lead = acq.outcome == SynthCache::Outcome::kLead;
  if (r.status.ok() && r.result.success) {
    if (lead) {
      cache->publish(form.key, &r.result.circuit);
    } else {
      cache->insert(form.key, r.result.circuit);
    }
    Circuit rebuilt = reconstruct_circuit(r.result.circuit, form.transform);
    out.result.stats = r.result.stats;
    out.engine = r.engine;
    if (!adopt_verified(out, spec_pprm, std::move(rebuilt))) {
      out.status = Status(StatusCode::kInternal,
                          "orbit reconstruction failed verification");
      out.result.success = false;
      out.result.termination = r.result.termination;
    }
  } else {
    if (lead) cache->publish(form.key, nullptr);  // release the followers
    out.status = r.status;
    out.result = std::move(r.result);
    out.engine = r.engine;
    out.verified = r.verified;
  }
  return out;
}

void assign_job_ids(std::vector<BatchJob>& jobs) {
  std::unordered_map<std::uint64_t, std::uint64_t> occurrence;
  for (BatchJob& job : jobs) {
    const std::uint64_t key = stable_spec_key(job.spec);
    job.id = hex16(key) + "." + std::to_string(occurrence[key]++);
  }
}

bool shard_owns(const TruthTable& spec, int shard_index, int shard_count) {
  if (shard_count <= 1) return shard_index == 0;
  return mix64(stable_spec_key(spec)) %
             static_cast<std::uint64_t>(shard_count) ==
         static_cast<std::uint64_t>(shard_index);
}

std::vector<BatchJob> filter_shard(std::vector<BatchJob> jobs, int shard_index,
                                   int shard_count) {
  if (shard_count <= 1) return jobs;
  std::vector<BatchJob> owned;
  for (BatchJob& job : jobs) {
    if (shard_owns(job.spec, shard_index, shard_count)) {
      owned.push_back(std::move(job));
    }
  }
  return owned;
}

BatchResult run_batch(const std::vector<BatchJob>& jobs,
                      const BatchOptions& options) {
  const auto start = Clock::now();
  BatchResult result;
  result.outcomes.resize(jobs.size());
  result.stats.jobs = jobs.size();
  if (jobs.empty()) {
    // A legitimate outcome, not caller misuse: an empty corpus, or a
    // shard of a small corpus that owns no specs (docs/fleet.md). The
    // all-zero stats still make a valid summary record.
    return result;
  }

  // Same token-adoption pattern as synthesize_resilient: the caller's
  // token carries user cancellation, and the batch deadline is armed on
  // it for the length of the batch.
  CancelToken local_token;
  CancelToken* const token =
      options.cancel_token != nullptr ? options.cancel_token : &local_token;
  std::optional<ScopedDeadline> armed;
  if (options.deadline.count() > 0) {
    armed.emplace(*token, start + options.deadline);
  }

  const std::size_t job_threads = std::min<std::size_t>(
      static_cast<std::size_t>(resolve_total(options.total_threads)),
      jobs.size());

  // Concurrent jobs would otherwise drive the caller's (single-threaded)
  // sink from several worker threads at once; one lock at the fan-in point
  // keeps every existing sink implementation valid.
  BatchOptions opts = options;
  SyncTraceSink synced_sink(opts.resilience.search.trace_sink);
  if (opts.resilience.search.trace_sink != nullptr && job_threads > 1) {
    opts.resilience.search.trace_sink = &synced_sink;
  }

  BatchContext ctx;
  ctx.jobs = &jobs;
  ctx.options = &opts;
  ctx.token = token;
  ctx.batch_start = start;
  ctx.outcomes = &result.outcomes;
  if (Telemetry* t = Telemetry::active()) {
    ctx.tele = t;
    ctx.tele_inflight = &t->gauge("batch.jobs_inflight");
    ctx.tele_completed = &t->gauge("batch.jobs_completed");
    ctx.tele_failed = &t->gauge("batch.jobs_failed");
    ctx.tele_job_us = &t->histogram("batch.job_us");
    t->gauge("batch.jobs_total")
        .set(static_cast<std::int64_t>(jobs.size()));
  }

  if (job_threads <= 1) {
    worker_loop(ctx);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(job_threads);
    for (std::size_t t = 0; t < job_threads; ++t) {
      workers.emplace_back([&ctx] { worker_loop(ctx); });
    }
    for (std::thread& w : workers) w.join();
  }

  result.watchdog_fired = armed.has_value() && token->deadline_passed();
  // Final flush: concurrent marks can rename their snapshots out of order,
  // so one write after the workers join leaves the ledger complete.
  if (opts.checkpoint != nullptr) opts.checkpoint->flush();
  result.stats = ctx.stats;
  result.stats.jobs = jobs.size();
  result.search_stats = ctx.search_stats;
  result.search_stats.watchdog_fired |= result.watchdog_fired;

  result.status = Status();
  for (const BatchJobOutcome& out : result.outcomes) {
    if (!out.status.ok()) {
      result.status = out.status;
      break;
    }
  }
  result.elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::now() - start);
  return result;
}

}  // namespace rmrls
