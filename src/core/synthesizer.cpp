#include "core/synthesizer.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "core/history.hpp"
#include "core/transposition.hpp"
#include "obs/phase_profile.hpp"
#include "obs/trace.hpp"
#include "rev/equivalence.hpp"
#include "rev/pprm_transform.hpp"
#include "rev/quantum_cost.hpp"

namespace rmrls {

namespace {

/// Adaptive kernel selection (docs/dense_pprm.md): the dense bitset
/// representation wins while its 2^n-bit spectra stay cache-resident and
/// reasonably populated, the sparse cube vectors win when the spectrum is
/// a sea of zero words. `dense_threshold` caps the width (0 forces
/// sparse); under the cap, narrow systems (n <= 8, spectra of at most four
/// words) always go dense, wider ones only when the spec populates on
/// average at least one term per word of every output's bitset.
bool pick_dense(const Pprm& spec, const SynthesisOptions& options) {
  const int n = spec.num_vars();
  if (options.dense_threshold <= 0 || n > options.dense_threshold) {
    return false;
  }
  if (n > kMaxDenseVariables) return false;
  if (n <= 8) return true;
  return spec.term_count() >=
         static_cast<int>(static_cast<std::uint64_t>(n) << (n - 6));
}

/// One search pass. Each pass independently picks the kernel for its
/// representation of the spec — every kernel expands the same tree and
/// emits the same circuit, so the choice only affects throughput (and the
/// dense_kernel stats flag). A dense pass at n <= 6 runs on one-word
/// states, a wider one on multi-word bitsets. `tt` and `history` are the
/// call's pass-spanning tables, null when their feature is off.
SynthesisResult run_search(const Pprm& spec, const SynthesisOptions& options,
                           TranspositionTable* tt, HistoryTable* history) {
  if (!pick_dense(spec, options)) {
    return Search(spec, options, tt, history).run();
  }
  SynthesisResult r =
      spec.num_vars() <= WordPprm::kMaxVariables
          ? WordSearch(WordPprm(spec), options, tt, history).run()
          : DenseSearch(DensePprm(spec), options, tt, history).run();
  r.stats.dense_kernel = true;
  return r;
}

/// Tells the trace sink (if any) that the driver starts an
/// iterative-refinement rerun hunting for circuits below `gates`.
void emit_refinement_round(const SynthesisOptions& options, int gates) {
  if (options.trace_sink == nullptr) return;
  TraceEvent e;
  e.kind = TraceEventKind::kRefinementRound;
  e.gates = gates;
  options.trace_sink->on_event(e);
}

}  // namespace

SynthesisResult synthesize(const Pprm& spec, const SynthesisOptions& options) {
  using Clock = std::chrono::steady_clock;
  const auto wall_start = Clock::now();

  // Pass-spanning search state (the chess-engine loop, docs/search_tables.md):
  // one bounded transposition table and one history table serve every pass
  // of this call — the opening pass, the broad-scope retry and the
  // refinement reruns. This is the only place either table is built;
  // search() hands both to each pass's engine, and a null table turns its
  // feature off. next_pass() bumps the table generation (old entries stop
  // pruning and become preferred eviction victims) and decays the history
  // scores between passes.
  std::unique_ptr<TranspositionTable> tt;
  if (options.use_transposition_table) {
    tt = std::make_unique<TranspositionTable>(options.tt_mb);
  }
  std::unique_ptr<HistoryTable> history;
  if (options.use_history) history = std::make_unique<HistoryTable>();
  const auto search = [&](const SynthesisOptions& pass) {
    return run_search(spec, pass, tt.get(), history.get());
  };
  const auto next_pass = [&]() {
    if (tt != nullptr) tt->new_generation();
    if (history != nullptr) history->decay();
  };
  // "The previous iteration's circuit seeds the next iteration's move
  // ordering": after the inter-pass decay, re-reward the best circuit's
  // gates so the next pass tries their (target, factor-class) cells first.
  const auto seed_history = [&](const Circuit& c) {
    if (history == nullptr) return;
    for (const Gate& g : c.gates()) history->reward(g.target, g.controls, 64);
  };

  const bool refine =
      options.iterative_refinement && !options.stop_at_first_solution;
  SynthesisResult result;
  // The budget rule of every pass: max_nodes and time_limit bound the
  // whole call, not each pass (docs/robustness.md), so a pass runs on what
  // is left of both. The opening pass of a refined run takes half, so a
  // failing opening pass cannot starve the broad-scope retry. Returns
  // false, with the reason in `result`, when nothing is left.
  const auto budget = [&](SynthesisOptions& pass, bool half) {
    if (options.max_nodes > 0) {
      if (result.stats.nodes_expanded >= options.max_nodes) {
        result.termination = TerminationReason::kNodeBudget;
        return false;
      }
      const std::uint64_t left =
          options.max_nodes - result.stats.nodes_expanded;
      pass.max_nodes = half ? std::max<std::uint64_t>(left / 2, 1) : left;
    }
    if (options.time_limit.count() > 0) {
      const auto left =
          options.time_limit -
          std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                                wall_start);
      if (left.count() <= 0) {
        result.termination = TerminationReason::kTimeLimit;
        return false;
      }
      pass.time_limit =
          half ? std::max<std::chrono::milliseconds>(
                     left / 2, std::chrono::milliseconds{1})
               : left;
    }
    return true;
  };

  SynthesisOptions first = options;
  if (!budget(first, refine)) return result;
  result = search(first);
  if (!refine) return result;
  // A user cancellation ends the whole driver, never just the pass.
  if (result.termination == TerminationReason::kCancelled) return result;
  SynthesisOptions scope = options;  // options for the refinement reruns
  if (!result.success) {
    // The opening pass found nothing: spend the rest of the budget on one
    // attempt with the broad exemption scope, which reaches functions the
    // quality-tuned scope provably cannot.
    SynthesisOptions rest = options;
    rest.exempt_scope = SynthesisOptions::ExemptScope::kAny;
    if (!budget(rest, false)) return result;
    next_pass();
    SynthesisResult retry = search(rest);
    if (retry.success) {
      retry.stats.nodes_at_best += result.stats.nodes_expanded;
    }
    accumulate_stats(retry.stats, result.stats);
    if (!retry.success) return retry;
    result = std::move(retry);
    scope.exempt_scope = SynthesisOptions::ExemptScope::kAny;
  }
  // Iterative tightening: rerun with a cap one below the best size so far;
  // each rerun spends what is left of the budget, against a fresh table
  // generation, with the best circuit seeding the history ordering.
  while (result.circuit.gate_count() > 1) {
    if (result.termination == TerminationReason::kCancelled) break;
    SynthesisOptions tighter = scope;
    if (!budget(tighter, false)) break;
    tighter.max_gates = result.circuit.gate_count() - 1;
    emit_refinement_round(options, result.circuit.gate_count());
    next_pass();
    seed_history(result.circuit);
    const std::uint64_t nodes_before = result.stats.nodes_expanded;
    SynthesisResult next = search(tighter);
    accumulate_stats(result.stats, next.stats);
    // The last pass executed is why the overall synthesis stopped looking.
    result.termination = next.termination;
    if (!next.success) break;
    result.stats.nodes_at_best = nodes_before + next.stats.nodes_at_best;
    result.circuit = std::move(next.circuit);
  }
  return result;
}

SynthesisResult synthesize(const TruthTable& spec,
                           const SynthesisOptions& options) {
  Pprm start;
  {
    const ScopedPhaseTimer timer(options.phase_profile,
                                 Phase::kPprmTransform);
    start = pprm_of_truth_table(spec);
  }
  return synthesize(start, options);
}

SynthesisResult synthesize_bidirectional(const TruthTable& spec,
                                         const SynthesisOptions& options) {
  using Clock = std::chrono::steady_clock;
  const auto wall_start = Clock::now();
  SynthesisOptions half = options;
  if (options.max_nodes > 0) {
    half.max_nodes = std::max<std::uint64_t>(options.max_nodes / 2, 1);
  }
  if (options.time_limit.count() > 0) {
    half.time_limit = std::max<std::chrono::milliseconds>(
        options.time_limit / 2, std::chrono::milliseconds{1});
  }
  SynthesisResult forward = synthesize(spec, half);
  if (forward.termination == TerminationReason::kCancelled) return forward;
  SynthesisOptions rest = options;
  if (options.max_nodes > 0) {
    const std::uint64_t spent = forward.stats.nodes_expanded;
    if (spent >= options.max_nodes) return forward;
    rest.max_nodes = options.max_nodes - spent;
  }
  if (options.time_limit.count() > 0) {
    const auto left =
        options.time_limit -
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              wall_start);
    if (left.count() <= 0) {
      forward.termination = TerminationReason::kTimeLimit;
      return forward;
    }
    rest.time_limit = left;
  }
  SynthesisResult backward = synthesize(spec.inverse(), rest);
  const std::uint64_t forward_nodes = forward.stats.nodes_expanded;
  accumulate_stats(forward.stats, backward.stats);
  forward.termination = backward.termination;  // the last pass executed
  if (!backward.success) return forward;
  Circuit mirrored = backward.circuit.inverse();
  const bool backward_wins =
      !forward.success ||
      mirrored.gate_count() < forward.circuit.gate_count() ||
      (mirrored.gate_count() == forward.circuit.gate_count() &&
       quantum_cost(mirrored) < quantum_cost(forward.circuit));
  if (backward_wins) {
    forward.success = true;
    forward.circuit = std::move(mirrored);
    forward.initial_terms = backward.initial_terms;
    forward.stats.nodes_at_best =
        forward_nodes + backward.stats.nodes_at_best;
  }
  return forward;
}

bool implements(const Circuit& circuit, const TruthTable& spec) {
  if (circuit.num_lines() != spec.num_vars()) return false;
  for (std::uint64_t x = 0; x < spec.size(); ++x) {
    if (circuit.simulate(x) != spec.apply(x)) return false;
  }
  return true;
}

bool implements(const Circuit& circuit, const Pprm& spec) {
  return circuit.num_lines() == spec.num_vars() && equivalent(circuit, spec);
}

}  // namespace rmrls
