#include "core/synthesizer.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <random>

#include "core/history.hpp"
#include "core/transposition.hpp"
#include "obs/phase_profile.hpp"
#include "obs/telemetry.hpp"
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
/// states, a wider one on multi-word bitsets.
SynthesisResult run_search(const Pprm& spec, const SynthesisOptions& options) {
  if (!pick_dense(spec, options)) return Search(spec, options).run();
  SynthesisResult r =
      spec.num_vars() <= WordPprm::kMaxVariables
          ? WordSearch(WordPprm(spec), options).run()
          : DenseSearch(DensePprm(spec), options).run();
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
  // time_limit bounds the whole multi-pass run, not each pass: every rerun
  // below receives only what is left on this wall clock (docs/robustness.md).
  const auto wall_start = Clock::now();
  const bool timed = options.time_limit.count() > 0;
  const auto remaining = [&]() {
    return options.time_limit -
           std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                                 wall_start);
  };

  // Pass-spanning search state (the chess-engine loop, docs/search_tables.md):
  // one bounded transposition table and one history table serve every pass
  // of this call — the iterative-deepening ladder, the broad-scope retry
  // and the refinement reruns. This is the only place either table is
  // built; the engines use what `base` points at, and a null pointer
  // turns the feature off. next_pass() bumps the table generation (old
  // entries stop pruning and become preferred eviction victims) and decays
  // the history scores between passes.
  std::unique_ptr<TranspositionTable> tt;
  if (options.use_transposition_table) {
    tt = std::make_unique<TranspositionTable>(options.tt_mb);
  }
  std::unique_ptr<HistoryTable> history;
  if (options.use_history) history = std::make_unique<HistoryTable>();
  SynthesisOptions base = options;
  base.tt = tt.get();
  base.history = history.get();
  const auto next_pass = [&base]() {
    if (base.tt != nullptr) base.tt->new_generation();
    if (base.history != nullptr) base.history->decay();
  };
  // "The previous iteration's circuit seeds the next iteration's move
  // ordering": after the inter-pass decay, re-reward the best circuit's
  // gates so the next pass tries their (target, factor-class) cells first.
  const auto seed_history = [&base](const Circuit& c) {
    if (base.history == nullptr) return;
    for (const Gate& g : c.gates()) {
      base.history->reward(g.target, g.controls, 64);
    }
  };

  const bool refine =
      options.iterative_refinement && !options.stop_at_first_solution;
  // Iterative deepening needs an unconstrained gate cap to ladder over; a
  // caller-set max_gates is already a (single) rung. The ladder itself is
  // complete — its final rung drops the cap — so it runs with or without
  // the refinement driver on top.
  const bool use_id = base.iterative_deepening && options.max_gates == 0;

  std::uint64_t id_iterations = 1;
  SynthesisResult result;
  if (!use_id) {
    SynthesisOptions first = base;
    if (refine && options.max_nodes > 0) {
      first.max_nodes = std::max<std::uint64_t>(options.max_nodes / 2, 1);
    }
    result = run_search(spec, first);
  } else {
    // Iterative deepening on the max-gates bound. Chess ladders climb
    // from depth 1 because a depth-d tree is exponentially cheaper than
    // depth d+1; RMRLS inverts that — branching is huge and solutions
    // deep, so a too-small cap forces a near-complete enumeration of the
    // shallow space and costs MORE than finding a solution outright. The
    // opening rung therefore starts from an informed upper bound (every
    // substitution eliminates at least one PPRM term on the quality path,
    // so term_count gates generously over-covers the first solution)
    // which prunes only genuine junk dives below it; a rung that
    // exhausts its queue without a solution doubles the cap, and the
    // final rung (cap off) restores completeness. Each rung gets half
    // the remaining node budget, so the ladder can never starve the
    // broad-scope retry or the refinement loop below. Successful
    // iterations continue downward as the tightening loop at the end of
    // this function — each pass re-seeded with the best circuit's
    // history — which is the productive direction of the ladder.
    int cap = std::max(spec.num_vars(), spec.term_count());
    bool have = false;
    for (std::uint64_t iter = 1;; ++iter) {
      if (iter > 1) next_pass();
      SynthesisOptions rung = base;
      const bool final_rung = cap >= kMaxVariables;
      rung.max_gates = final_rung ? 0 : cap;
      // Halving each rung's budget keeps a failed ladder from starving
      // what follows — but the final rung of an unrefined run IS the
      // whole remaining search (nothing follows), so it gets everything.
      const bool last_stage = final_rung && !refine;
      if (options.max_nodes > 0) {
        const std::uint64_t spent = have ? result.stats.nodes_expanded : 0;
        if (spent >= options.max_nodes) {
          result.termination = TerminationReason::kNodeBudget;
          break;
        }
        const std::uint64_t left = options.max_nodes - spent;
        rung.max_nodes = std::max<std::uint64_t>(last_stage ? left : left / 2,
                                                 1);
      }
      if (timed) {
        const auto left = remaining();
        if (left.count() <= 0) {
          result.termination = TerminationReason::kTimeLimit;
          break;
        }
        rung.time_limit = std::max<std::chrono::milliseconds>(
            last_stage ? left : left / 2, std::chrono::milliseconds{1});
      }
      // Published per rung (not just at the end) so heartbeats see the
      // ladder advance while the run is still in flight.
      if (Telemetry* t = Telemetry::active()) {
        t->gauge("search.id_iterations").set(static_cast<std::int64_t>(iter));
      }
      SynthesisResult r = run_search(spec, rung);
      if (r.success && have) {
        r.stats.nodes_at_best += result.stats.nodes_expanded;
      }
      if (have) accumulate_stats(r.stats, result.stats);
      result = std::move(r);
      have = true;
      id_iterations = iter;
      if (result.success) break;
      if (final_rung) break;
      if (result.termination != TerminationReason::kQueueExhausted) {
        // Budget, deadline or cancellation mid-ladder: deepening would
        // only re-pay what this rung already burned; hand what is left to
        // the retry / refinement stages.
        break;
      }
      cap *= 2;
    }
    result.stats.id_iterations = id_iterations;
  }
  if (!refine) {
    if (Telemetry* t = Telemetry::active()) {
      t->gauge("search.id_iterations")
          .set(static_cast<std::int64_t>(result.stats.id_iterations));
    }
    return result;
  }
  // A user cancellation ends the whole driver, never just the pass.
  if (result.termination == TerminationReason::kCancelled) return result;
  SynthesisOptions scope = base;  // options for the refinement reruns
  if (!result.success) {
    // The ladder / scouting run found nothing: spend the rest of the
    // budget on one attempt with the broad exemption scope, which reaches
    // functions the quality-tuned scope provably cannot. max_nodes == 0
    // is "unlimited", not "spent" — a purely time-limited run still gets
    // its retry from what is left on the clock.
    if (options.max_nodes > 0 &&
        result.stats.nodes_expanded >= options.max_nodes) {
      return result;
    }
    SynthesisOptions rest = base;
    rest.max_nodes = options.max_nodes > 0
                         ? options.max_nodes - result.stats.nodes_expanded
                         : 0;
    rest.iterative_refinement = false;
    rest.exempt_scope = SynthesisOptions::ExemptScope::kAny;
    if (timed) {
      const auto left = remaining();
      if (left.count() <= 0) {
        result.termination = TerminationReason::kTimeLimit;
        return result;
      }
      rest.time_limit = left;
    }
    next_pass();
    SynthesisResult retry = run_search(spec, rest);
    if (retry.success) {
      retry.stats.nodes_at_best += result.stats.nodes_expanded;
    }
    accumulate_stats(retry.stats, result.stats);
    if (!retry.success) return retry;
    result = std::move(retry);
    scope.exempt_scope = SynthesisOptions::ExemptScope::kAny;
  }
  // Iterative tightening: rerun with a cap one below the best size so far;
  // each rerun spends what is left of the node budget, against a fresh
  // table generation, with the best circuit seeding the history ordering.
  while (result.circuit.gate_count() > 1) {
    if (result.termination == TerminationReason::kCancelled) break;
    SynthesisOptions tighter = scope;
    if (options.max_nodes > 0) {
      if (result.stats.nodes_expanded >= options.max_nodes) {
        result.termination = TerminationReason::kNodeBudget;
        break;
      }
      tighter.max_nodes = options.max_nodes - result.stats.nodes_expanded;
    }
    if (timed) {
      const auto left = remaining();
      if (left.count() <= 0) {
        result.termination = TerminationReason::kTimeLimit;
        break;
      }
      tighter.time_limit = left;
    }
    tighter.max_gates = result.circuit.gate_count() - 1;
    tighter.iterative_refinement = false;
    emit_refinement_round(options, result.circuit.gate_count());
    next_pass();
    seed_history(result.circuit);
    // Tightening reruns are the ladder's productive direction: each one
    // deepens the search under a one-lower bound with the best circuit
    // seeding the ordering, so they count as deepening iterations.
    if (use_id) ++result.stats.id_iterations;
    const std::uint64_t nodes_before = result.stats.nodes_expanded;
    SynthesisResult next = run_search(spec, tighter);
    accumulate_stats(result.stats, next.stats);
    // The last pass executed is why the overall synthesis stopped looking.
    result.termination = next.termination;
    if (!next.success) break;
    result.stats.nodes_at_best = nodes_before + next.stats.nodes_at_best;
    result.circuit = std::move(next.circuit);
  }
  if (Telemetry* t = Telemetry::active()) {
    t->gauge("search.id_iterations")
        .set(static_cast<std::int64_t>(result.stats.id_iterations));
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

bool implements(const Circuit& circuit, const Pprm& spec, int samples) {
  const int n = spec.num_vars();
  if (circuit.num_lines() != n) return false;
  if (n <= 16) return equivalent(circuit, spec);
  const std::uint64_t mask =
      n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  // Deterministic sampling: low corner points catch constant-offset bugs,
  // the seeded uniform draws catch everything else with high probability.
  for (std::uint64_t x = 0; x < 256; ++x) {
    if (circuit.simulate(x) != spec.eval(x)) return false;
  }
  std::mt19937_64 rng(0x524d524c53ull);  // "RMRLS"
  for (int i = 0; i < samples; ++i) {
    const std::uint64_t x = rng() & mask;
    if (circuit.simulate(x) != spec.eval(x)) return false;
  }
  return true;
}

}  // namespace rmrls
