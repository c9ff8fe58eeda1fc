#include "core/search.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

namespace rmrls {

namespace {
using Clock = std::chrono::steady_clock;

/// Weight of the normalized history bonus added to eq. (4). Small by
/// design: history breaks ties and nudges, it never overrides a clear
/// eq.-4 preference.
constexpr double kHistoryWeight = 0.10;

/// History payout for a child that pushes the run's fewest-remaining-terms
/// frontier (search.hpp best_terms_). Small next to solution-path payouts
/// (256 / depth per gate) so real solutions still dominate the ordering —
/// progress rewards only have to break the cold start when no solution
/// exists yet.
constexpr std::uint32_t kProgressReward = 4;
}

template <class Rep>
BasicSearch<Rep>::BasicSearch(Rep start, SynthesisOptions options,
                              TranspositionTable* tt, HistoryTable* history)
    : start_(std::move(start)),
      options_(options),
      num_vars_(start_.num_vars()),
      initial_terms_(start_.term_count()),
      tt_(tt),
      history_(history),
      sink_(options.trace_sink),
      profile_(options.phase_profile) {
  best_terms_ = initial_terms_;
  init_telemetry();
}

template <class Rep>
void BasicSearch<Rep>::init_telemetry() {
  if (Telemetry* t = Telemetry::active()) {
    tele_nodes_ = &t->counter("search.nodes_expanded");
    tele_solutions_ = &t->counter("search.solutions");
    tele_queue_ = &t->gauge("search.queue_depth");
    tele_tt_ = &t->gauge("search.tt_entries");
    tele_tt_hits_ = &t->gauge("search.tt_hits");
    tele_tt_evictions_ = &t->gauge("search.tt_evictions");
    tele_tt_generation_ = &t->gauge("search.tt_generation");
    tele_history_hits_ = &t->gauge("search.history_hits");
  }
}

template <class Rep>
void BasicSearch<Rep>::sample_telemetry() {
  // Concurrent batch jobs all write these gauges; last writer wins, which
  // is fine for an instantaneous "what is the engine doing" signal.
  tele_queue_->set(static_cast<std::int64_t>(heap_.size()));
  if (tt_ != nullptr) {
    const TranspositionTable::Snapshot tt = tt_->snapshot();
    tele_tt_->set(static_cast<std::int64_t>(tt.entries));
    tele_tt_hits_->set(static_cast<std::int64_t>(tt.hits));
    tele_tt_evictions_->set(static_cast<std::int64_t>(tt.evictions));
    tele_tt_generation_->set(static_cast<std::int64_t>(tt_->generation()));
  }
  tele_history_hits_->set(static_cast<std::int64_t>(stats_.history_hits));
}

template <class Rep>
void BasicSearch<Rep>::push_entry(QueueEntry entry) {
  if (push_uncounted(std::move(entry))) ++stats_.children_pushed;
}

template <class Rep>
bool BasicSearch<Rep>::push_uncounted(QueueEntry entry) {
  if (heap_.size() >= options_.max_queue) {
    ++stats_.dropped_queue_full;
    if (sink_) {
      TraceEvent e;
      e.kind = TraceEventKind::kQueueDrop;
      e.depth = entry.node >= 0 ? arena_[entry.node].depth : 0;
      e.terms = entry.terms;
      emit(e);
    }
    release_state(std::move(entry.state));
    return false;
  }
  const ScopedPhaseTimer timer(profile_, Phase::kHeapOps);
  heap_.push_back(std::move(entry));
  std::push_heap(heap_.begin(), heap_.end(), EntryLess{});
  return true;
}

template <class Rep>
typename BasicSearch<Rep>::QueueEntry BasicSearch<Rep>::pop_entry() {
  const ScopedPhaseTimer timer(profile_, Phase::kHeapOps);
  std::pop_heap(heap_.begin(), heap_.end(), EntryLess{});
  QueueEntry e = std::move(heap_.back());
  heap_.pop_back();
  return e;
}

template <class Rep>
double BasicSearch<Rep>::priority_of(int depth, int elim_stage, int elim_total,
                                     int target, Cube factor) {
  const double elim = options_.cumulative_elim_priority
                          ? static_cast<double>(elim_total)
                          : static_cast<double>(elim_stage);
  double p = options_.alpha * depth + options_.beta * elim / depth -
             options_.gamma * literal_count(factor);
  if (history_ != nullptr) {
    const double bonus = history_->bonus(target, factor);
    if (bonus > 0.0) {
      ++stats_.history_hits;
      p += kHistoryWeight * bonus;
    }
  }
  return p;
}

template <class Rep>
Circuit BasicSearch<Rep>::extract_circuit(std::int32_t leaf) const {
  // The path root -> leaf lists the substitutions in application order,
  // which is also gate order: the first substitution is the first gate.
  std::vector<Gate> reversed;
  for (std::int32_t n = leaf; n > 0; n = arena_[n].parent) {
    reversed.push_back(arena_[n].gate);
  }
  Circuit c(num_vars_);
  for (auto it = reversed.rbegin(); it != reversed.rend(); ++it) {
    c.append(*it);
  }
  return c;
}

template <class Rep>
bool BasicSearch<Rep>::record_solution(std::int32_t parent, const Gate& gate,
                                       int child_depth,
                                       std::uint8_t exempt_count) {
  if (best_depth_ >= 0 && child_depth >= best_depth_) return false;
  reward_solution_path(parent, gate, child_depth);
  arena_.push_back({parent, gate, child_depth, exempt_count});
  best_node_ = static_cast<std::int32_t>(arena_.size()) - 1;
  best_depth_ = child_depth;
  stats_.nodes_at_best = stats_.nodes_expanded;
  ++stats_.solutions_found;
  if (tele_solutions_ != nullptr) tele_solutions_->inc();
  pops_since_improvement_ = 0;
  TraceEvent e;
  e.kind = TraceEventKind::kSolutionFound;
  e.depth = child_depth;
  e.terms = num_vars_;
  e.gates = child_depth;
  emit(e);
  return true;
}

template <class Rep>
void BasicSearch<Rep>::reward_solution_path(std::int32_t parent,
                                            const Gate& gate,
                                            int child_depth) {
  if (history_ == nullptr) return;
  // Shallower solutions are stronger evidence, so they pay out more; the
  // driver's decay() between passes keeps old payouts from dominating.
  const std::uint32_t amount = static_cast<std::uint32_t>(
      child_depth > 0 ? std::max(1, 256 / child_depth) : 256);
  history_->reward(gate.target, gate.controls, amount);
  for (std::int32_t n = parent; n > 0; n = arena_[n].parent) {
    history_->reward(arena_[n].gate.target, arena_[n].gate.controls, amount);
  }
}

template <class Rep>
bool BasicSearch<Rep>::expand(QueueEntry entry) {
  // Copy out of the arena: expand() appends to it, invalidating references.
  const NodeRecord node = arena_[entry.node];
  const Candidate skip{node.gate.target, node.gate.controls};
  const bool is_root = node.parent < 0;
  {
    const ScopedPhaseTimer timer(profile_, Phase::kFactorEnum);
    enumerate_candidates_into(entry.state, options_,
                              is_root ? nullptr : &skip, candidates_buf_);
  }
  const std::vector<Candidate>& candidates = candidates_buf_;

  // Children are priced read-only (substitute_delta); only the ones that
  // survive pruning are materialized, which is the search's hot path.
  const int child_depth = node.depth + 1;
  std::vector<ChildEval>& children = children_buf_;
  children.clear();
  {
    const ScopedPhaseTimer timer(profile_, Phase::kSubstitute);
    for (const Candidate& cand : candidates) {
      // Polling here (not just between pops) bounds deadline overshoot
      // even when a single expansion enumerates thousands of candidates at
      // n >= 20: each poll is charged what one substitute_delta costs.
      if (stop_.stop(entry.terms)) {
        termination_ = stop_.reason();
        release_state(std::move(entry.state));
        return true;
      }
      ChildEval ce;
      ce.cand = cand;
      const int delta = entry.state.substitute_delta(cand.target, cand.factor);
      ce.terms = entry.terms + delta;
      ce.elim = -delta;
      ce.priority = priority_of(child_depth, ce.elim,
                                initial_terms_ - ce.terms, cand.target,
                                cand.factor);
      if (history_ != nullptr && ce.terms < best_terms_) {
        // Progress frontier pushed (see search.hpp best_terms_): reward
        // the factor even though no solution was reached through it yet.
        best_terms_ = ce.terms;
        history_->reward(cand.target, cand.factor, kProgressReward);
      }
      if (ce.terms == num_vars_) {
        // Only a system with exactly one term per output can be the
        // identity; confirm by materializing (see acquire_state()).
        Rep materialized = acquire_state();
        entry.state.substitute_into(cand.target, cand.factor, materialized);
        ce.solved = materialized.is_identity();
        release_state(std::move(materialized));
      }
      ++stats_.children_created;
      children.push_back(ce);
    }
  }

  // Record solutions first so greedy pruning can never drop one. Solved
  // children that do not improve on the best depth are depth-pruned like
  // any other child at/beyond bestDepth.
  for (const ChildEval& ce : children) {
    if (!ce.solved) continue;
    if (record_solution(entry.node, Gate(ce.cand.factor, ce.cand.target),
                        child_depth, node.exempt_count)) {
      if (options_.stop_at_first_solution) {
        termination_ = TerminationReason::kSolved;
        release_state(std::move(entry.state));
        return true;
      }
    } else {
      ++stats_.pruned_depth;
      emit_prune(PruneReason::kDepth, child_depth, ce.terms);
    }
  }

  // Greedy heuristic (Section IV-E): keep only the best k substitutions
  // per target variable.
  if (options_.greedy_k > 0) {
    std::stable_sort(children.begin(), children.end(),
                     [](const ChildEval& a, const ChildEval& b) {
                       if (a.cand.target != b.cand.target) {
                         return a.cand.target < b.cand.target;
                       }
                       return a.priority > b.priority;
                     });
    std::size_t kept = 0;
    int current_target = -1;
    int taken = 0;
    for (const ChildEval& ce : children) {
      if (ce.cand.target != current_target) {
        current_target = ce.cand.target;
        taken = 0;
      }
      if (ce.solved) continue;  // already handled above
      if (taken < options_.greedy_k) {
        children[kept++] = ce;
        ++taken;
      } else {
        ++stats_.pruned_greedy;
      }
    }
    children.resize(kept);
  }

  const bool narrow_scope =
      options_.exempt_scope == SynthesisOptions::ExemptScope::kComplement;
  const int exempt_budget =
      options_.exempt_budget >= 0 ? options_.exempt_budget
      : narrow_scope              ? 1
                                  : 2 * num_vars_;
  for (const ChildEval& ce : children) {
    if (ce.solved) continue;
    if (stop_.stop(entry.terms)) {
      termination_ = stop_.reason();
      release_state(std::move(entry.state));
      return true;
    }
    // Non-reducing substitutions are tolerated up to the per-path budget
    // (strict monotone pruning provably disconnects e.g. wire
    // permutations from the identity); see DESIGN.md.
    const bool exempt = ce.elim <= 0;
    if (exempt && ((narrow_scope && !ce.cand.is_complement()) ||
                   node.exempt_count >= exempt_budget)) {
      ++stats_.pruned_elim;
      emit_prune(PruneReason::kElim, child_depth, ce.terms);
      continue;
    }
    if (best_depth_ >= 0 && child_depth >= best_depth_ - 1) {
      ++stats_.pruned_depth;
      emit_prune(PruneReason::kDepth, child_depth, ce.terms);
      continue;
    }
    if (options_.max_gates > 0 && child_depth >= options_.max_gates) {
      ++stats_.pruned_max_gates;
      emit_prune(PruneReason::kMaxGates, child_depth, ce.terms);
      continue;
    }
    // Materialize only now, into a pooled system or a by-value word state:
    // everything pruned above never paid for a copy, and nothing here pays
    // for an allocation.
    Rep materialized = acquire_state();
    {
      const ScopedPhaseTimer timer(profile_, Phase::kSubstitute);
      entry.state.substitute_into(ce.cand.target, ce.cand.factor,
                                  materialized);
    }
    if (tt_ != nullptr) {
      // The generation-aware depth rule of core/transposition.hpp: a
      // shallower rediscovery overwrites and re-expands, never prunes.
      if (tt_->check_and_insert(materialized.hash(), child_depth)) {
        ++stats_.pruned_duplicate;
        emit_prune(PruneReason::kDuplicate, child_depth, ce.terms);
        release_state(std::move(materialized));
        continue;
      }
    }
    arena_.push_back(
        {entry.node, Gate(ce.cand.factor, ce.cand.target), child_depth,
         static_cast<std::uint8_t>(node.exempt_count + (exempt ? 1 : 0))});
    QueueEntry child;
    child.priority = ce.priority;
    child.seq = next_seq_++;
    child.node = static_cast<std::int32_t>(arena_.size()) - 1;
    child.terms = ce.terms;
    child.state = std::move(materialized);
    if (is_root) root_children_.push_back(child);  // copy kept for restarts
    push_entry(std::move(child));
  }
  release_state(std::move(entry.state));
  return false;
}

template <class Rep>
void BasicSearch<Rep>::restart() {
  ++stats_.restarts;
  pops_since_improvement_ = 0;
  for (QueueEntry& e : heap_) release_state(std::move(e.state));
  heap_.clear();
  ++restart_index_;
  {
    TraceEvent e;
    e.kind = TraceEventKind::kRestart;
    emit(e);
  }
  // Re-seed with the remaining first-level alternatives, skipping the
  // leaders already pursued (paper, Section IV-E: "restart the search from
  // the top of the search tree with a different substitution"). The saved
  // children are sorted once, on the first restart; every later restart
  // indexes into the same order instead of re-copying and re-sorting.
  if (!root_sorted_) {
    std::stable_sort(root_children_.begin(), root_children_.end(),
                     [](const QueueEntry& a, const QueueEntry& b) {
                       return EntryLess{}(b, a);  // descending priority
                     });
    root_sorted_ = true;
  }
  // Re-seeds were already counted as children when first created.
  for (std::size_t i = restart_index_; i < root_children_.size(); ++i) {
    if (i == restart_index_) {
      // Future restarts re-seed from strictly later indices, so this
      // alternative's system is moved into the heap, not copied.
      push_uncounted(std::move(root_children_[i]));
    } else {
      push_uncounted(root_children_[i]);
    }
  }
}

template <class Rep>
SynthesisResult BasicSearch<Rep>::run() {
  SynthesisResult result;
  result.initial_terms = initial_terms_;
  run_start_ = Clock::now();
  stop_ = StopPoll(options_.cancel_token, run_start_, options_.time_limit);
  // Report the table-traffic delta of this run: the pass-spanning table
  // may already hold counters from earlier passes.
  if (tt_ != nullptr) tt_before_ = tt_->snapshot();

  {
    TraceEvent e;
    e.kind = TraceEventKind::kRunBegin;
    e.terms = initial_terms_;
    emit(e);
  }

  if (start_.is_identity()) {
    result.success = true;
    result.circuit = Circuit(num_vars_);
    result.termination = TerminationReason::kSolved;
    result.stats.elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        Clock::now() - run_start_);
    TraceEvent e;
    e.kind = TraceEventKind::kRunEnd;
    e.gates = 0;
    emit(e);
    return result;
  }

  arena_.push_back({-1, Gate(), 0, 0});
  QueueEntry root;
  root.priority = std::numeric_limits<double>::infinity();
  root.seq = next_seq_++;
  root.node = 0;
  root.terms = initial_terms_;
  root.state = start_;
  push_uncounted(std::move(root));  // the root is not a child

  termination_ = TerminationReason::kQueueExhausted;
  while (!heap_.empty()) {
    if (options_.max_nodes > 0 &&
        stats_.nodes_expanded >= options_.max_nodes) {
      termination_ = TerminationReason::kNodeBudget;
      break;
    }
    // Polled every pop, charged with the term count of the entry about to
    // be expanded (the old every-64-pops cadence let a single slow
    // expansion overshoot the deadline unboundedly at large n); the
    // expansion loops poll per candidate on top of this.
    if (stop_.stop(heap_.front().terms)) {
      termination_ = stop_.reason();
      break;
    }
    // The restart heuristic (Section IV-E) fires only while no solution
    // has been found at all: once one exists, best-first refinement under
    // the bestDepth - 1 pruning rule takes over.
    if (options_.restart_interval > 0 && best_depth_ < 0 &&
        !root_children_.empty() &&
        pops_since_improvement_ >= options_.restart_interval) {
      if (restart_index_ + 1 >= root_children_.size()) break;
      restart();
      if (heap_.empty()) break;
    }

    QueueEntry entry = pop_entry();
    ++stats_.nodes_expanded;
    ++pops_since_improvement_;
    if (tele_nodes_ != nullptr) {
      tele_nodes_->inc();
      if ((stats_.nodes_expanded & 0x3f) == 0) sample_telemetry();
    }

    const int depth = arena_[entry.node].depth;
    if (sink_) {
      TraceEvent e;
      e.kind = TraceEventKind::kNodeExpanded;
      e.depth = depth;
      e.terms = entry.terms;
      e.priority = entry.priority;
      emit(e, /*sampled=*/true);
    }
    // Entries enqueued before the best solution shrank are discarded here;
    // they were counted children_pushed at creation, so they get their own
    // counter instead of the child-prune ones.
    if (best_depth_ >= 0 && depth >= best_depth_ - 1) {
      ++stats_.pruned_stale;
      emit_prune(PruneReason::kStale, depth, entry.terms);
      release_state(std::move(entry.state));
      continue;
    }
    if (options_.max_gates > 0 && depth >= options_.max_gates) {
      ++stats_.pruned_stale;
      emit_prune(PruneReason::kStale, depth, entry.terms);
      release_state(std::move(entry.state));
      continue;
    }
    if (expand(std::move(entry))) break;  // stop-at-first fired
  }

  stats_.elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::now() - run_start_);
  stats_.cancelled = termination_ == TerminationReason::kCancelled;
  if (tt_ != nullptr) {
    const TranspositionTable::Snapshot tt_after = tt_->snapshot();
    stats_.tt_inserts = tt_after.inserts - tt_before_.inserts;
    stats_.tt_evictions = tt_after.evictions - tt_before_.evictions;
    stats_.tt_generation = tt_->generation();
  }
  result.stats = stats_;
  result.termination = termination_;
  if (best_node_ >= 0) {
    result.success = true;
    result.circuit = extract_circuit(best_node_);
  } else {
    result.circuit = Circuit(num_vars_);
  }
  {
    TraceEvent e;
    e.kind = TraceEventKind::kRunEnd;
    e.gates = best_depth_;
    emit(e);
  }
  return result;
}

template class BasicSearch<Pprm>;
template class BasicSearch<WordPprm>;
template class BasicSearch<DensePprm>;

}  // namespace rmrls
