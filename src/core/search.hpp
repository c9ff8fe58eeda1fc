/// \file search.hpp
/// \brief The RMRLS priority-based search tree (paper, Fig. 4).
///
/// Internal engine behind synthesizer.hpp. The search explores sequences of
/// PPRM substitutions; a node is a partial cascade, a solution is a node
/// whose system is the identity. Per Section IV-C, expansions are stored
/// only with frontier (queued) entries; the node arena keeps just
/// {parent, gate, depth} so solution paths can be reconstructed cheaply.
///
/// The engine is templated over the state representation `Rep` — the
/// sparse cube-vector Pprm, or one of the dense bitset types of
/// rev/pprm_dense.hpp (docs/dense_pprm.md): WordPprm at n <= 6, DensePprm
/// above. All expose the same substitution/pricing/hash contract,
/// candidates enumerate in the same order, and state hashes agree, so the
/// instantiations expand identical trees and emit bit-identical circuits;
/// the synthesizer picks per pass via SynthesisOptions::dense_threshold.
/// `Search` is the sparse instantiation, `WordSearch` and `DenseSearch`
/// the dense ones.

#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/cancel.hpp"
#include "core/factor_enum.hpp"
#include "core/history.hpp"
#include "core/options.hpp"
#include "core/transposition.hpp"
#include "obs/phase_profile.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "rev/circuit.hpp"
#include "rev/pprm.hpp"
#include "rev/pprm_dense.hpp"

namespace rmrls {

/// Outcome of one synthesis run.
struct SynthesisResult {
  bool success = false;
  Circuit circuit;  ///< empty (zero-gate) circuit when `!success`
  int initial_terms = 0;
  SynthesisStats stats;
  /// Why the run stopped. For the multi-pass drivers (refinement,
  /// bidirectional) this is the reason of the final Search pass, i.e. why
  /// the overall synthesis stopped looking for better circuits.
  TerminationReason termination = TerminationReason::kQueueExhausted;
  /// Anytime engines (greedy; docs/robustness.md) fill in the incomplete
  /// cascade built before a failed run stopped, plus the term count of the
  /// system it leaves behind. Empty / -1 on success and for engines that
  /// do not produce partials.
  Circuit partial;
  int partial_terms = -1;
};

/// One run of the best-first search over representation `Rep`. Not
/// reusable; construct per call.
template <class Rep>
class BasicSearch {
 public:
  /// A search from the root of `start`, deduplicating against `tt` and
  /// learning into `history` (both non-owning). A null table turns its
  /// feature off; synthesize() passes the tables its passes share.
  BasicSearch(Rep start, SynthesisOptions options,
              TranspositionTable* tt = nullptr,
              HistoryTable* history = nullptr);

  /// Runs to completion (queue empty, budget exhausted, or first solution
  /// in stop-at-first mode) and returns the best circuit found.
  [[nodiscard]] SynthesisResult run();

 private:
  struct NodeRecord {
    std::int32_t parent = -1;
    Gate gate;
    std::int32_t depth = 0;
    /// Number of non-reducing (elim <= 0) substitutions on the path from
    /// the root. Eq. (4) rewards depth, so an unbounded supply of exempt
    /// substitutions would let the search dive forever down junk paths;
    /// we cap their count per path (SynthesisOptions::exempt_budget). See
    /// DESIGN.md.
    std::uint8_t exempt_count = 0;
  };

  struct QueueEntry {
    double priority = 0.0;
    std::uint64_t seq = 0;  // insertion order; older wins priority ties
    std::int32_t node = -1;
    std::int32_t terms = 0;
    Rep state;
  };

  struct EntryLess {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.priority != b.priority) return a.priority < b.priority;
      return a.seq > b.seq;
    }
  };

  /// A child candidate priced by substitute_delta, before pruning.
  struct ChildEval {
    Candidate cand;
    int terms = 0;
    int elim = 0;
    double priority = 0.0;
    bool solved = false;
  };

  /// Enqueues a new child, counting it (children_pushed / queue drops).
  void push_entry(QueueEntry entry);
  /// Enqueues without counting children_pushed — root seeding and restart
  /// re-seeds re-push entries that were already counted at creation. A
  /// push into a full heap still counts dropped_queue_full and emits
  /// kQueueDrop (a silently lost re-seed would undercount drops). Returns
  /// whether the entry was actually enqueued.
  bool push_uncounted(QueueEntry entry);
  [[nodiscard]] QueueEntry pop_entry();

  /// Records a solution at `child_depth` if it improves on the best
  /// depth. Returns whether it was recorded.
  bool record_solution(std::int32_t parent, const Gate& gate,
                       int child_depth, std::uint8_t exempt_count);

  /// Expands `entry`: evaluates every candidate substitution, records
  /// solutions, and enqueues surviving children. Returns true if the
  /// stop-at-first-solution condition fired.
  bool expand(QueueEntry entry);

  void restart();

  /// Eq. (4) plus the normalized history bonus (kHistoryWeight, counted
  /// in stats_.history_hits). Non-const only for the history-hit counter.
  [[nodiscard]] double priority_of(int depth, int elim_stage, int elim_total,
                                   int target, Cube factor);

  [[nodiscard]] Circuit extract_circuit(std::int32_t leaf) const;

  Rep start_;
  SynthesisOptions options_;
  int num_vars_ = 0;
  int initial_terms_ = 0;

  /// Heap-owning states (Pprm, DensePprm) recycle their buffers through
  /// pool_: the hot path materializes via substitute_into into pooled
  /// systems and stops allocating after warmup. A trivially copyable state
  /// (WordPprm) lives inside its QueueEntry and skips the pool.
  static constexpr bool kPooled = !std::is_trivially_copyable_v<Rep>;
  StatePool<Rep> pool_;
  [[nodiscard]] Rep acquire_state() {
    if constexpr (kPooled) {
      return pool_.acquire();
    } else {
      return Rep();
    }
  }
  void release_state(Rep&& state) {
    if constexpr (kPooled) pool_.release(std::move(state));
  }
  /// Reused across expansions: enumerate_candidates_into's output and
  /// expand()'s priced children.
  std::vector<Candidate> candidates_buf_;
  std::vector<ChildEval> children_buf_;

  std::vector<NodeRecord> arena_;
  std::vector<QueueEntry> heap_;  // std::push_heap/pop_heap with EntryLess
  std::uint64_t next_seq_ = 0;

  std::vector<QueueEntry> root_children_;  // saved for the restart heuristic
  bool root_sorted_ = false;  // sorted once, every restart indexes into it
  std::size_t restart_index_ = 0;
  std::uint64_t pops_since_improvement_ = 0;

  std::int32_t best_node_ = -1;
  int best_depth_ = -1;
  /// Fewest remaining terms any priced child has reached this run — the
  /// progress frontier. A child that pushes it earns its (target, factor
  /// class) a small history reward even before any solution exists: the
  /// cutoff analogue of the chess history heuristic, and what lets a
  /// failed narrow-scope scout train the ordering the broad-scope retry
  /// starts from (the history table spans driver passes).
  int best_terms_ = 0;

  /// synthesize()'s pass-spanning tables (constructor arguments): the
  /// bounded transposition table of core/transposition.hpp and the history
  /// heuristic of core/history.hpp. Null when the feature is off.
  TranspositionTable* tt_ = nullptr;
  HistoryTable* history_ = nullptr;
  /// Table counters at run() start; run() reports the delta in stats_.
  TranspositionTable::Snapshot tt_before_;
  /// Credits every gate on a newly recorded solution path (the history
  /// heuristic's learning signal).
  void reward_solution_path(std::int32_t parent, const Gate& gate,
                            int child_depth);

  SynthesisStats stats_;
  TerminationReason termination_ = TerminationReason::kQueueExhausted;

  /// Resilience (core/cancel.hpp, docs/robustness.md): the caller's
  /// cancellation token and the run's deadline, which run() fixes from
  /// the token and SynthesisOptions::time_limit. Polled once per pop and
  /// once per candidate in each expansion loop, each poll charged with the
  /// parent's term count, so a deadline is overshot by at most about
  /// StopPoll::kClockWork terms of substitution work: one candidate once
  /// a parent has that many terms.
  StopPoll stop_;

  /// Observability (obs/): both observers are null unless installed via
  /// SynthesisOptions; the emission sites reduce to one pointer test each.
  TraceSink* sink_ = nullptr;
  PhaseProfile* profile_ = nullptr;
  std::chrono::steady_clock::time_point run_start_{};

  /// Live telemetry (obs/telemetry.hpp): handles grabbed once at
  /// construction when the process registry is armed; null otherwise, so
  /// with telemetry off every site is one pointer test (same cost model
  /// as sink_). Wired by init_telemetry() in the ctors.
  Counter* tele_nodes_ = nullptr;
  Counter* tele_solutions_ = nullptr;
  Gauge* tele_queue_ = nullptr;
  Gauge* tele_tt_ = nullptr;
  Gauge* tele_tt_hits_ = nullptr;
  Gauge* tele_tt_evictions_ = nullptr;
  Gauge* tele_tt_generation_ = nullptr;
  Gauge* tele_history_hits_ = nullptr;
  void init_telemetry();
  /// Periodic gauge refresh (queue depth, TT occupancy/hits), called
  /// every 64 pops from the run loop.
  void sample_telemetry();

  /// Emits `event` if a sink is installed, stamping the running node
  /// counter, queue size, microseconds since run start, the steady-clock
  /// timestamp (heartbeat alignment) and the run's correlation id.
  /// `sampled` events additionally honour trace_sample_interval.
  void emit(TraceEvent event, bool sampled = false) {
    if (sink_ == nullptr) return;
    if (sampled && options_.trace_sample_interval > 1 &&
        stats_.nodes_expanded % options_.trace_sample_interval != 0) {
      return;
    }
    event.nodes_expanded = stats_.nodes_expanded;
    event.queue_size = heap_.size();
    const auto now = std::chrono::steady_clock::now();
    event.t_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                              run_start_)
            .count());
    event.timestamp_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now.time_since_epoch())
            .count());
    event.trace_id = options_.trace_id;
    sink_->on_event(event);
  }

  void emit_prune(PruneReason reason, std::int32_t depth, std::int32_t terms) {
    if (sink_ == nullptr) return;  // keep the hot path to one pointer test
    TraceEvent e;
    e.kind = TraceEventKind::kChildPruned;
    e.prune_reason = reason;
    e.depth = depth;
    e.terms = terms;
    emit(e, /*sampled=*/true);
  }
};

/// The sparse engine (cube vectors) — the pre-existing name.
using Search = BasicSearch<Pprm>;
/// The dense engines: one-word spectra at n <= 6, multi-word bitsets
/// above.
using WordSearch = BasicSearch<WordPprm>;
using DenseSearch = BasicSearch<DensePprm>;

extern template class BasicSearch<Pprm>;
extern template class BasicSearch<WordPprm>;
extern template class BasicSearch<DensePprm>;

}  // namespace rmrls
