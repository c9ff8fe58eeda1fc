#include "baselines/greedy_pprm.hpp"

#include <chrono>

#include "core/cancel.hpp"
#include "core/factor_enum.hpp"
#include "rev/pprm_transform.hpp"

namespace rmrls {

SynthesisResult synthesize_greedy(const Pprm& spec,
                                  const SynthesisOptions& options) {
  using Clock = std::chrono::steady_clock;
  const auto start_time = Clock::now();

  SynthesisResult result;
  result.initial_terms = spec.term_count();
  Pprm state = spec;
  Circuit circuit(spec.num_vars());
  const int max_gates = options.max_gates > 0 ? options.max_gates : 1 << 14;
  Candidate previous{};
  bool have_previous = false;

  // Greedy is the anytime fallback of the resilience cascade
  // (docs/robustness.md): it shares the search engine's stop poll
  // (cancellation token, wall-clock limit), polled per step and per
  // candidate, each poll charged with the system's term count, so
  // overshoot stays within one substitution even on wide systems.
  StopPoll poll(options.cancel_token, start_time, options.time_limit);

  while (!state.is_identity() && circuit.gate_count() < max_gates) {
    const int terms = state.term_count();
    if (poll.stop(terms)) break;
    const std::vector<Candidate> candidates = enumerate_candidates(
        state, options, have_previous ? &previous : nullptr);
    const int depth = circuit.gate_count() + 1;

    bool found = false;
    Candidate best{};
    Pprm best_state;
    double best_priority = 0.0;
    for (const Candidate& cand : candidates) {
      if (poll.stop(terms)) break;
      Pprm next = state;
      const int delta = next.substitute(cand.target, cand.factor);
      ++result.stats.children_created;
      const int elim = -delta;
      if (!cand.is_complement() && elim <= 0) {
        ++result.stats.pruned_elim;
        continue;
      }
      const double priority =
          options.alpha * depth +
          options.beta * static_cast<double>(elim) / depth -
          options.gamma * literal_count(cand.factor);
      if (!found || priority > best_priority) {
        found = true;
        best = cand;
        best_state = std::move(next);
        best_priority = priority;
      }
    }
    if (poll.stopped() || !found) break;  // stopped, or stuck
    state = std::move(best_state);
    circuit.append(Gate(best.factor, best.target));
    previous = best;
    have_previous = true;
    ++result.stats.nodes_expanded;
  }

  result.stats.elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::now() - start_time);
  if (state.is_identity()) {
    result.success = true;
    result.circuit = std::move(circuit);
    result.stats.solutions_found = 1;
    result.termination = TerminationReason::kSolved;
  } else {
    result.circuit = Circuit(spec.num_vars());
    if (poll.stopped()) {
      result.termination = poll.reason();
    } else if (circuit.gate_count() >= max_gates) {
      result.termination = TerminationReason::kNodeBudget;
    } else {
      result.termination = TerminationReason::kQueueExhausted;
    }
    // Preserve the incomplete cascade: a caller out of budget may still
    // want the closest approximation the fallback reached.
    result.partial = std::move(circuit);
    result.partial_terms = state.term_count();
  }
  result.stats.cancelled =
      result.termination == TerminationReason::kCancelled;
  return result;
}

SynthesisResult synthesize_greedy(const TruthTable& spec,
                                  const SynthesisOptions& options) {
  return synthesize_greedy(pprm_of_truth_table(spec), options);
}

}  // namespace rmrls
