#include "core/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "core/search.hpp"
#include "core/transposition.hpp"
#include "obs/phase_profile.hpp"
#include "obs/trace.hpp"

namespace rmrls {

namespace {

using Clock = std::chrono::steady_clock;

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// kSolved > kCancelled > kTimeLimit > kNodeBudget > kQueueExhausted: a
/// solution ending the run beats everything; an explicit cancellation or a
/// deadline hit anywhere means the run was cut short even if other workers
/// drained their queues.
int precedence(TerminationReason r) {
  switch (r) {
    case TerminationReason::kSolved: return 4;
    case TerminationReason::kCancelled: return 3;
    case TerminationReason::kTimeLimit: return 2;
    case TerminationReason::kNodeBudget: return 1;
    case TerminationReason::kQueueExhausted: return 0;
  }
  return 0;
}

std::chrono::microseconds wall_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               start);
}

/// Deterministic jitter seed of worker `w`. Worker 0 always searches the
/// canonical ordering (seed 0 = no jitter), so one worker of every pass is
/// the sequential engine's order and quality can only be added to, never
/// traded away.
std::uint64_t worker_jitter_seed(int w) {
  if (w == 0) return 0;
  return splitmix64(0x6c617a79736d70ull ^ static_cast<std::uint64_t>(w));
}

/// Transposition-table owner tag of the canonical worker (and of the root
/// expansion feeding every worker). Helpers write the default tag 0 and
/// prune on any entry; the canonical worker prunes only on this tag, so
/// no helper claim can cut it off a line the sequential engine would
/// explore — worker 0 stays a completeness guarantee, not just a
/// diversification choice (core/transposition.hpp).
constexpr std::uint8_t kCanonicalOwner = 1;

/// The engine, generic over the state representation (sparse Pprm or
/// dense DensePprm). Every worker of one pass runs the same
/// representation; see parallel.hpp.
template <class Rep>
SynthesisResult run_parallel_impl(const Rep& start,
                                  const SynthesisOptions& options) {
  const auto wall_start = Clock::now();
  const int requested = resolve_threads(options.num_threads);

  // The pass's shared structures are the driver's pass-spanning tables
  // (options.tt, options.history); either is null when its feature is off.
  TranspositionTable* const pass_tt = options.tt;
  SynthesisOptions pass_options = options;
  // The root expansion's depth-1 claims carry the canonical worker's tag:
  // they are exactly the entries the sequential engine would have written
  // first, so worker 0 prunes on them like its own (see the worker loop).
  pass_options.tt_owner = kCanonicalOwner;
  const TranspositionTable::Snapshot tt_before =
      pass_tt != nullptr ? pass_tt->snapshot() : TranspositionTable::Snapshot{};

  // Phase 1: expand the root sequentially and harvest the first-level
  // subtrees (sorted by descending priority). The root expansion writes
  // its children straight into the shared table (depth 1), so no worker
  // can re-reach a seed through a longer path.
  BasicRootExpansion<Rep> root =
      BasicSearch<Rep>::expand_root(start, pass_options);
  SynthesisResult result;
  result.initial_terms = start.term_count();
  result.stats = root.stats;
  result.circuit = Circuit(start.num_vars());

  if (root.identity) {
    result.success = true;
    result.termination = TerminationReason::kSolved;
    result.stats.elapsed = wall_since(wall_start);
    return result;
  }
  if (root.solved) {
    // A one-gate circuit is optimal (depth 0 would mean the identity), so
    // there is nothing left to search in parallel.
    result.success = true;
    result.circuit.append(root.solution_gate);
    result.termination = options.stop_at_first_solution
                             ? TerminationReason::kSolved
                             : TerminationReason::kQueueExhausted;
    result.stats.elapsed = wall_since(wall_start);
    return result;
  }

  if (options.cancel_token != nullptr && options.cancel_token->cancelled()) {
    result.termination =
        options.cancel_token->reason() == CancelReason::kDeadline
            ? TerminationReason::kTimeLimit
            : TerminationReason::kCancelled;
    result.stats.cancelled =
        result.termination == TerminationReason::kCancelled;
    result.stats.elapsed = wall_since(wall_start);
    return result;
  }

  std::uint64_t remaining_budget = 0;  // 0 = unlimited
  if (options.max_nodes > 0) {
    if (root.stats.nodes_expanded >= options.max_nodes) {
      result.termination = TerminationReason::kNodeBudget;
      result.stats.elapsed = wall_since(wall_start);
      return result;
    }
    remaining_budget = options.max_nodes - root.stats.nodes_expanded;
  }

  // The wall budget covers the whole pass: workers get what the root
  // expansion left, measured from their own start, so the pass-level
  // deadline holds without a shared clock.
  SynthesisOptions worker_base = pass_options;
  if (options.time_limit.count() > 0) {
    const auto spent = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::now() - wall_start);
    if (spent >= options.time_limit) {
      result.termination = TerminationReason::kTimeLimit;
      result.stats.elapsed = wall_since(wall_start);
      return result;
    }
    worker_base.time_limit = options.time_limit - spent;
  }
  if (root.seeds.empty()) {
    // Every first-level child was pruned away: the search space under this
    // configuration is exhausted.
    result.termination = TerminationReason::kQueueExhausted;
    result.stats.elapsed = wall_since(wall_start);
    return result;
  }

  // Phase 2, lazy SMP: every worker adopts ALL first-level subtrees — no
  // static partition to strand — and diversifies its exploration order
  // instead. Worker 0 keeps the canonical descending-priority order and
  // no jitter (the sequential engine's order); worker w rotates the seed
  // vector by w steps (restarts re-seed from different alternatives) and
  // prices candidates with its own deterministic jitter. The shared TT
  // then deduplicates: the first worker to a state claims it, peers prune
  // and diverge. More workers than subtrees adds pure duplication, so the
  // cap stays; likewise more workers than hardware threads only time-slice
  // the cores and re-derive each other's states, so the count is clamped
  // to hardware_concurrency unless oversubscription is explicitly allowed
  // (tests exercising multi-worker paths on small hosts).
  int capped = std::min<int>(requested, static_cast<int>(root.seeds.size()));
  if (!options.allow_oversubscription) {
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw > 0) capped = std::min<int>(capped, static_cast<int>(hw));
  }
  const int num_workers = std::max(1, capped);
  detail::SharedSearchContext shared(remaining_budget);

  // Per-worker seed vectors are prepared before any thread starts (the
  // workers would otherwise race on root.seeds). Worker 0 keeps the
  // canonical order untouched; worker w > 0 rotates by w and perturbs the
  // entry priorities with its jitter seed so its heap pops the shared
  // entry points in a different order from the first node on.
  std::vector<std::vector<BasicRootSeed<Rep>>> worker_seeds(
      static_cast<std::size_t>(num_workers));
  for (int w = num_workers - 1; w >= 0; --w) {
    std::vector<BasicRootSeed<Rep>>& seeds =
        worker_seeds[static_cast<std::size_t>(w)];
    if (w == 0) {
      seeds = std::move(root.seeds);
      continue;
    }
    seeds = root.seeds;
    const std::uint64_t jitter = worker_jitter_seed(w);
    std::rotate(seeds.begin(),
                seeds.begin() + static_cast<std::ptrdiff_t>(
                                    static_cast<std::size_t>(w) %
                                    seeds.size()),
                seeds.end());
    for (BasicRootSeed<Rep>& seed : seeds) {
      const std::uint64_t mix = splitmix64(
          jitter ^ static_cast<std::uint64_t>(seed.gate.controls) ^
          (static_cast<std::uint64_t>(seed.gate.target) << 56));
      seed.priority += 0.03 * (static_cast<double>(mix >> 40) /
                               static_cast<double>(std::uint64_t{1} << 24));
    }
  }

  // Existing sinks are single-threaded by contract; serialize the workers
  // onto the user's sink. Phase profiles are merged after the join.
  SyncTraceSink sync_sink(options.trace_sink);
  std::vector<PhaseProfile> profiles(static_cast<std::size_t>(num_workers));
  std::vector<SynthesisResult> worker_results(
      static_cast<std::size_t>(num_workers));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    pool.emplace_back([&, w] {
      SynthesisOptions wopts = worker_base;
      wopts.num_threads = 1;
      wopts.max_nodes = 0;  // the shared budget governs, not the local one
      wopts.order_jitter = worker_jitter_seed(w);
      // Worker 0 searches with sequential-exact dedup semantics: only its
      // own (and the root expansion's) entries prune it. Helpers keep the
      // claim-based semantics that spread them across the tree.
      wopts.tt_owner = w == 0 ? kCanonicalOwner : std::uint8_t{0};
      wopts.tt_own_only = w == 0;
      wopts.trace_sink =
          options.trace_sink != nullptr ? &sync_sink : nullptr;
      wopts.phase_profile = options.phase_profile != nullptr
                                ? &profiles[static_cast<std::size_t>(w)]
                                : nullptr;
      BasicSearch<Rep> search(
          start, wopts,
          std::move(worker_seeds[static_cast<std::size_t>(w)]), &shared);
      worker_results[static_cast<std::size_t>(w)] = search.run();
    });
  }
  for (std::thread& t : pool) t.join();

  if (options.phase_profile != nullptr) {
    for (const PhaseProfile& p : profiles) options.phase_profile->merge(p);
  }

  // Merge: counters add; the winner is the worker holding the smallest
  // circuit (the SharedBound race guarantees exactly one worker recorded
  // the final best depth).
  result.termination = TerminationReason::kQueueExhausted;
  int best = -1;
  for (int w = 0; w < num_workers; ++w) {
    const SynthesisResult& r = worker_results[static_cast<std::size_t>(w)];
    accumulate_stats(result.stats, r.stats);
    if (precedence(r.termination) > precedence(result.termination)) {
      result.termination = r.termination;
    }
    if (r.success &&
        (best < 0 ||
         r.circuit.gate_count() <
             worker_results[static_cast<std::size_t>(best)]
                 .circuit.gate_count())) {
      best = w;
    }
  }
  if (best >= 0) {
    result.success = true;
    result.circuit =
        std::move(worker_results[static_cast<std::size_t>(best)].circuit);
    // The winning worker's local count: a lower bound on the pass-wide
    // effort, but the only well-defined one without a shared clock.
    result.stats.nodes_at_best =
        worker_results[static_cast<std::size_t>(best)].stats.nodes_at_best;
  }
  result.stats.workers = static_cast<std::uint64_t>(num_workers);
  if (pass_tt != nullptr) {
    // Whole-pass table traffic (root expansion + all workers) as a delta
    // against the pass start, so a driver sharing one table across passes
    // can still sum per-pass stats without double counting. Overwrites —
    // the root expansion's own delta is already inside this one.
    const TranspositionTable::Snapshot tt_after = pass_tt->snapshot();
    result.stats.tt_inserts = tt_after.inserts - tt_before.inserts;
    result.stats.tt_evictions = tt_after.evictions - tt_before.evictions;
    result.stats.tt_generation = pass_tt->generation();
    result.stats.tt_shard_hits.assign(TranspositionTable::kStripes, 0);
    for (std::size_t i = 0; i < TranspositionTable::kStripes; ++i) {
      result.stats.tt_shard_hits[i] =
          tt_after.stripe_hits[i] - tt_before.stripe_hits[i];
    }
  }
  result.stats.elapsed = wall_since(wall_start);  // wall clock, not CPU sum
  return result;
}

}  // namespace

SynthesisResult run_parallel_search(const Pprm& start,
                                    const SynthesisOptions& options) {
  return run_parallel_impl(start, options);
}

SynthesisResult run_parallel_search(const DensePprm& start,
                                    const SynthesisOptions& options) {
  return run_parallel_impl(start, options);
}

}  // namespace rmrls
