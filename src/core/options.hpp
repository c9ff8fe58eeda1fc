/// \file options.hpp
/// \brief Tuning knobs of the RMRLS search (paper, Sections IV-A/D/E).

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace rmrls {

class TraceSink;      // obs/trace.hpp
struct PhaseProfile;  // obs/phase_profile.hpp
class CancelToken;    // core/cancel.hpp

/// Options controlling the RMRLS best-first search. Defaults reproduce the
/// paper's configuration: priority weights (0.3, 0.6, 0.1), the additional
/// substitutions of Section IV-D enabled, and the restart heuristic armed at
/// ~10000 steps. Wall-clock limits are off by default in favour of the
/// deterministic node budget (see DESIGN.md).
struct SynthesisOptions {
  /// Priority weights of eq. (4): alpha rewards depth (depth-first bias),
  /// beta rewards terms eliminated, gamma penalizes factor literal count.
  double alpha = 0.3;
  double beta = 0.6;
  double gamma = 0.1;

  /// The additional substitutions of Section IV-D, both classes: factors
  /// from out_t even when the solitary term v_t is absent from its
  /// expansion, and `v_t <- v_t XOR 1` always. false (`--no-extra`) keeps
  /// only the basic substitutions of Section IV-A.
  bool additional_substitutions = true;

  /// Cap on non-reducing substitutions per search path. The paper leaves
  /// its exemption unbounded, but then eq. (4)'s depth reward lets the
  /// search dive forever down junk paths; a cap bounds every path's length
  /// (each step either reduces the term count or consumes budget), so
  /// dives terminate. -1 means "auto": 1 under the quality-tuned
  /// kComplement scope, twice the number of variables otherwise (enough
  /// for pure wire permutations, whose swap chains are entirely
  /// non-reducing). Ablated in bench/ablation.
  int exempt_budget = -1;

  /// Which substitutions may be applied without reducing the term count
  /// (within the budget above). kComplement (only `v <- v XOR 1`, closest
  /// to the paper's text) gives the best circuits; kAny is needed for full
  /// coverage — some functions are provably unreachable under the narrow
  /// scope (see DESIGN.md). synthesize() tries kComplement first and falls
  /// back to kAny on failure.
  enum class ExemptScope { kComplement, kAny };
  ExemptScope exempt_scope = ExemptScope::kComplement;

  /// Greedy pruning (Section IV-E): keep only the best `greedy_k`
  /// substitutions per target variable at each expansion. 0 keeps all
  /// (the basic algorithm). The paper uses 3-5.
  int greedy_k = 0;

  /// Restart heuristic (Section IV-E): abandon the search and re-seed from
  /// the next first-level alternative after this many node expansions
  /// without improving the best solution. 0 disables restarts.
  std::uint64_t restart_interval = 10000;

  /// Hard budget on node expansions (priority-queue pops); the
  /// deterministic analogue of the paper's CPU-time limits. 0 = unlimited.
  std::uint64_t max_nodes = 200000;

  /// Optional wall-clock limit; zero means none.
  std::chrono::milliseconds time_limit{0};

  /// Maximum circuit size in gates; deeper nodes are pruned
  /// (the paper uses 40 for 4-variable and 60 for 5-variable runs).
  /// 0 = unlimited.
  int max_gates = 0;

  /// Bound on queued candidates, in entries, not bytes: further pushes are
  /// dropped (counted as dropped_queue_full) once the queue is full. It
  /// bounds the queue alone, not the search's memory: a dropped child has
  /// already been materialized, entered in the transposition table and
  /// given a node-arena record, and the arena never shrinks.
  std::size_t max_queue = std::size_t{1} << 20;

  /// Our extension (not in the paper, ablated in bench/ablation): skip
  /// states whose PPRM hash has been enqueued before. Many substitution
  /// orders reach the same expansion; without deduplication those copies
  /// drown the queue on 5-variable functions. synthesize() builds one
  /// table per call, and every pass of the call dedups against it.
  bool use_transposition_table = true;

  /// Memory ceiling of the bounded transposition table in megabytes
  /// (core/transposition.hpp, CLI `--tt-mb`). The ceiling fixes the
  /// bucket array whose answers the table gives: a fifth entry for one of
  /// its buckets evicts the oldest-generation entry (the deepest among
  /// equals), so long runs hold steady-state memory. The table itself
  /// starts at 4 KiB and doubles once its entries fill half its slots, so
  /// a search pays only for the entries it makes. Growth never changes a
  /// result: the table answers every lookup exactly like one built at the
  /// ceiling.
  int tt_mb = 64;

  /// History-guided ordering (core/history.hpp): blend each candidate's
  /// (target, factor-class) success score into eq. (4) as a small bonus
  /// (core/search.cpp kHistoryWeight). synthesize() builds one table per
  /// call, so its passes share what they learn. false (`--no-history`)
  /// restores the paper-exact ordering.
  bool use_history = true;

  /// Ablation variant of eq. (4): use cumulative terms eliminated since the
  /// root divided by depth, instead of the per-stage elimination the
  /// pseudocode stores.
  bool cumulative_elim_priority = false;

  /// Stop at the first valid circuit instead of searching for the best one
  /// within budget (the scalability experiments of Section V-E do this).
  bool stop_at_first_solution = false;

  /// Observability (obs/): receiver for typed search events. Null (the
  /// default) disables tracing entirely — the hot path pays one inlined
  /// pointer test per potential event and nothing else.
  TraceSink* trace_sink = nullptr;

  /// Sampling interval for the two high-frequency event kinds
  /// (node_expanded, child_pruned): only every Nth node expansion emits
  /// them. 1 = every event (required for the event/counter consistency
  /// checks in tests); solutions, restarts, queue drops and run
  /// begin/end are never sampled away.
  std::uint64_t trace_sample_interval = 1;

  /// Observability (obs/): accumulator for per-phase wall time and call
  /// counts. Null (the default) disables the phase timers — no clock
  /// reads on the hot path. The drivers share one profile across
  /// refinement reruns, so it aggregates the whole synthesis.
  PhaseProfile* phase_profile = nullptr;

  /// Observability (obs/telemetry.hpp): correlation id stamped into every
  /// TraceEvent this run emits, rendered as 16 hex digits alongside batch
  /// job records and heartbeat `active` sets so one job's story is
  /// greppable across all three streams. 0 (the default) means "no id" —
  /// nothing is stamped or rendered.
  std::uint64_t trace_id = 0;

  /// Cooperative cancellation (core/cancel.hpp, docs/robustness.md): when
  /// set, the engines poll this token from their expansion and candidate
  /// loops and stop within one iteration of it firing. A run also stops at
  /// the token's armed deadline, if that comes before its own time_limit.
  /// A deadline-reason cancellation or a passed deadline reports
  /// TerminationReason::kTimeLimit, a user cancellation kCancelled. Null
  /// (the default) disables the polls entirely.
  CancelToken* cancel_token = nullptr;

  /// Widest system (in variables) the engine may run on the dense
  /// word-parallel PPRM kernel (rev/pprm_dense.hpp, docs/dense_pprm.md).
  /// At or below this width — and when the spectrum is dense enough for
  /// word passes to beat walking sorted cubes — each search pass stores
  /// states as 2^n-bit coefficient bitsets and substitutes with
  /// shift/mask/XOR passes instead of cube merges; circuits are
  /// bit-identical to the sparse engine's by construction (same candidate
  /// order, deltas, and state hashes). 0 forces the sparse representation
  /// everywhere.
  int dense_threshold = 14;

  /// Our extension (ablated in bench/ablation): after a circuit of size D
  /// is found, restart the whole search with max_gates = D - 1 on the
  /// remaining node budget, repeating until a search fails. The tighter cap
  /// prunes deep junk at creation, which a single run's bestDepth rule
  /// cannot (the queue is already full of it).
  bool iterative_refinement = true;
};

/// Why a synthesis run stopped. `kSolved` means the run ended *because* a
/// solution ended it (identity input, or stop-at-first fired); a best-first
/// run that found circuits and then exhausted its budget while refining
/// reports the budget reason — the two were previously indistinguishable.
enum class TerminationReason : std::uint8_t {
  kSolved,          ///< stopped by a solution (stop-at-first / identity)
  kNodeBudget,      ///< max_nodes expansions reached
  kTimeLimit,       ///< wall-clock deadline passed (limit or token)
  kQueueExhausted,  ///< queue (and restart seeds) ran dry
  kCancelled,       ///< the caller's CancelToken fired (user reason)
};

[[nodiscard]] constexpr const char* to_string(TerminationReason reason) {
  switch (reason) {
    case TerminationReason::kSolved: return "solved";
    case TerminationReason::kNodeBudget: return "node_budget";
    case TerminationReason::kTimeLimit: return "time_limit";
    case TerminationReason::kQueueExhausted: return "queue_exhausted";
    case TerminationReason::kCancelled: return "cancelled";
  }
  return "unknown";
}

/// Counters describing one synthesis run. Every evaluated candidate is
/// counted exactly once, so (excluding stop-at-first runs, which abandon
/// the remainder of the last expansion):
///
///   children_created == children_pushed + solutions_found + pruned_elim
///                     + pruned_depth + pruned_max_gates + pruned_duplicate
///                     + pruned_greedy + dropped_queue_full
///
/// an invariant asserted by tests/test_obs.cpp. Runs aborted mid-expansion
/// by a deadline or cancellation (docs/robustness.md) are also excluded:
/// they may leave priced-but-unclassified children behind. `pruned_stale` counts
/// *popped* entries (already in children_pushed) discarded at expansion
/// time, so it is deliberately outside the identity. A restart re-seed
/// dropped into a full heap also counts under `dropped_queue_full` (it
/// must not be silently lost), even though the same child was already
/// counted `children_pushed` at creation; with the default queue bound
/// this cannot happen below millions of queued entries.
struct SynthesisStats {
  std::uint64_t nodes_expanded = 0;   ///< priority-queue pops
  std::uint64_t children_created = 0; ///< substitutions evaluated
  std::uint64_t children_pushed = 0;  ///< survived pruning, enqueued
  std::uint64_t pruned_elim = 0;      ///< failed the elim > 0 rule
  std::uint64_t pruned_depth = 0;     ///< at/beyond bestDepth - 1
  std::uint64_t pruned_max_gates = 0; ///< at/beyond the max_gates cap
  std::uint64_t pruned_duplicate = 0; ///< transposition-table hits
  std::uint64_t pruned_greedy = 0;    ///< beyond greedy_k for its target
  std::uint64_t pruned_stale = 0;     ///< popped entries obsolete at pop time
  std::uint64_t dropped_queue_full = 0;
  std::uint64_t restarts = 0;
  std::uint64_t solutions_found = 0;
  /// Transposition-table traffic of this run (core/transposition.hpp):
  /// entries written (fresh slots + evicting replacements) and entries
  /// evicted at the table's memory ceiling. Always evictions <= inserts, an
  /// invariant metrics_check enforces. Both are per-run deltas even when
  /// the table itself is shared across a driver's passes.
  std::uint64_t tt_inserts = 0;
  std::uint64_t tt_evictions = 0;
  /// Table generation after this run: the number of times the driver
  /// started a new pass on the shared table (mod 256), which is one fewer
  /// than the number of search passes it served. Merged by maximum.
  std::uint64_t tt_generation = 0;
  /// Always 1: kept so the rmrls-metrics-v1 key `id_iterations` keeps its
  /// value until the schema retires it together with `workers`.
  std::uint64_t id_iterations = 1;
  /// Candidates whose eq.-4 priority received a non-zero history bonus
  /// (core/history.hpp). 0 when use_history is off or nothing has been
  /// learned yet.
  std::uint64_t history_hits = 0;
  /// Total nodes expanded when the returned circuit was recorded — the
  /// search effort the result actually required, as opposed to
  /// nodes_expanded, which keeps counting while refinement hunts for
  /// something better. 0 when no circuit was found. Maintained by the
  /// drivers (accumulate_stats leaves it alone: only the layer that knows
  /// which sub-run's circuit won can offset it).
  std::uint64_t nodes_at_best = 0;
  /// True if any search pass of this run used the dense word-parallel
  /// PPRM kernel (SynthesisOptions::dense_threshold).
  bool dense_kernel = false;
  /// Times the representation changed between merged search passes (e.g.
  /// forward/backward bidirectional specs landing on opposite sides of
  /// the density rule). Normally 0: the kernel choice is a function of
  /// the spec, and one spec keeps it across refinement reruns.
  std::uint64_t representation_switches = 0;
  /// True when the run was stopped by an explicit (user-reason) cooperative
  /// cancellation; deadline-reason cancellations report through
  /// TerminationReason::kTimeLimit instead (docs/robustness.md).
  bool cancelled = false;
  /// True when a deadline armed on the run's token had passed when the
  /// call ended. Set by the layer that arms it (synthesize_resilient,
  /// run_batch), not by the search itself.
  bool watchdog_fired = false;
  std::chrono::microseconds elapsed{0};
};

/// Accumulates the stats of independent jobs into `into` (a batch
/// summary): counts and elapsed add, and each job's own
/// representation_switches add. Jobs are not passes of one search, so a
/// kernel difference between them is no switch.
inline void merge_job_stats(SynthesisStats& into, const SynthesisStats& from) {
  into.nodes_expanded += from.nodes_expanded;
  into.children_created += from.children_created;
  into.children_pushed += from.children_pushed;
  into.pruned_elim += from.pruned_elim;
  into.pruned_depth += from.pruned_depth;
  into.pruned_max_gates += from.pruned_max_gates;
  into.pruned_duplicate += from.pruned_duplicate;
  into.pruned_greedy += from.pruned_greedy;
  into.pruned_stale += from.pruned_stale;
  into.dropped_queue_full += from.dropped_queue_full;
  into.restarts += from.restarts;
  into.solutions_found += from.solutions_found;
  into.tt_inserts += from.tt_inserts;
  into.tt_evictions += from.tt_evictions;
  if (from.tt_generation > into.tt_generation) {
    into.tt_generation = from.tt_generation;
  }
  into.history_hits += from.history_hits;
  into.representation_switches += from.representation_switches;
  // dense_kernel means "any pass ran dense".
  into.dense_kernel |= from.dense_kernel;
  into.cancelled |= from.cancelled;
  into.watchdog_fired |= from.watchdog_fired;
  into.elapsed += from.elapsed;
}

/// Accumulates `from` into `into` as passes of one search. Used by the
/// multi-pass drivers (refinement, bidirectional) when merging sub-run
/// counters: as merge_job_stats, and a kernel disagreement between the
/// merged passes counts as a representation switch.
inline void accumulate_stats(SynthesisStats& into, const SynthesisStats& from) {
  if (into.dense_kernel != from.dense_kernel) ++into.representation_switches;
  merge_job_stats(into, from);
}

}  // namespace rmrls
