#include "core/resilient.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <utility>

#include "baselines/greedy_pprm.hpp"
#include "baselines/transformation_based.hpp"
#include "core/synthesizer.hpp"
#include "obs/telemetry.hpp"
#include "rev/equivalence.hpp"
#include "rev/pprm_transform.hpp"

namespace rmrls {

namespace {

using Clock = std::chrono::steady_clock;

/// Combines the caller's search time limit with what the cascade deadline
/// leaves: the smaller nonzero of the two.
std::chrono::milliseconds combine_limits(std::chrono::milliseconds a,
                                         std::chrono::milliseconds b) {
  if (a.count() <= 0) return b;
  if (b.count() <= 0) return a;
  return std::min(a, b);
}

ResilientResult resilient_impl(const Pprm& spec, const TruthTable* table,
                               const ResilienceOptions& options) {
  const auto wall_start = Clock::now();
  const bool timed = options.deadline.count() > 0;
  const auto remaining = [&]() {
    return options.deadline -
           std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                                 wall_start);
  };

  // All engines poll one token. The caller's token (if any) is adopted
  // directly — its user-reason cancellation must be distinguishable from
  // the watchdog's deadline reason, and CancelToken already latches the
  // first reason, so no chaining layer is needed.
  CancelToken local_token;
  CancelToken* const token =
      options.cancel_token != nullptr ? options.cancel_token : &local_token;
  Telemetry* const tele = Telemetry::active();
  std::unique_ptr<Watchdog> watchdog;
  if (timed && options.use_watchdog) {
    watchdog = std::make_unique<Watchdog>(*token, options.deadline);
    if (tele != nullptr) tele->counter("resilient.watchdog_arms").inc();
  }

  ResilientResult out;
  out.result.initial_terms = spec.term_count();
  out.result.circuit = Circuit(spec.num_vars());

  const auto user_cancelled = [&] {
    return token->cancelled() && token->reason() == CancelReason::kUser;
  };
  // Adopts `r` as the outcome of one engine attempt: counters accumulate
  // across the cascade, the incomplete cascade closest to the identity is
  // kept (fewest remaining terms), and the last engine's termination
  // stands. The first engine's stats are taken as they are: merged into a
  // default record, a dense run would count as a kernel switch.
  bool absorbed = false;
  const auto absorb = [&](SynthesisResult&& r) {
    if (!absorbed) {
      out.result.stats = r.stats;
      absorbed = true;
    } else {
      const std::uint64_t nodes_before = out.result.stats.nodes_expanded;
      if (r.success) {
        out.result.stats.nodes_at_best =
            nodes_before + r.stats.nodes_at_best;
      }
      accumulate_stats(out.result.stats, r.stats);
    }
    out.result.termination = r.termination;
    if (r.partial_terms >= 0 &&
        (out.result.partial_terms < 0 ||
         r.partial_terms < out.result.partial_terms)) {
      out.result.partial = std::move(r.partial);
      out.result.partial_terms = r.partial_terms;
    }
    if (r.success) {
      out.result.success = true;
      out.result.circuit = std::move(r.circuit);
    }
  };
  const auto finish = [&](FallbackEngine engine) {
    if (watchdog != nullptr) {
      watchdog->disarm();
      out.watchdog_fired = watchdog->fired();
    }
    out.engine = engine;
    out.result.stats.cancelled = user_cancelled();
    out.result.stats.watchdog_fired = out.watchdog_fired;
    out.result.stats.elapsed =
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              wall_start);
    if (tele != nullptr) {
      if (out.watchdog_fired) {
        tele->counter("resilient.watchdog_fires").inc();
        // How far past its deadline a fired run actually ran before the
        // cooperative polls stopped it.
        const auto overshoot_us =
            out.result.stats.elapsed -
            std::chrono::duration_cast<std::chrono::microseconds>(
                options.deadline);
        if (overshoot_us.count() > 0) {
          tele->histogram("resilient.deadline_overshoot_us")
              .record(static_cast<std::uint64_t>(overshoot_us.count()));
        }
      }
      tele->counter(std::string("resilient.engine.") + to_string(engine))
          .inc();
    }
    if (engine != FallbackEngine::kNone) {
      out.status = Status();
    } else if (user_cancelled()) {
      out.status = Status(StatusCode::kCancelled, "synthesis cancelled");
    } else {
      out.status = Status(StatusCode::kBudgetExhausted,
                          "no engine produced a circuit within budget");
    }
    return out;
  };
  // A success only counts once the exact equivalence check confirms it; an
  // unverified circuit falls through to the next engine.
  const auto verify = [&](const Circuit& c) {
    const bool ok = equivalent(c, spec);
    out.verified = ok;
    if (!ok) out.result.success = false;  // an unverified circuit is no win
    return ok;
  };

  // Stage 1: the primary best-first search, on its share of the deadline.
  // synthesize() builds the pass-spanning transposition and history
  // tables, so one --tt-mb memory budget and one learned history cover
  // every iterative-deepening rung and refinement rerun of this stage.
  {
    SynthesisOptions sopts = options.search;
    sopts.cancel_token = token;
    if (timed) {
      const auto share = std::chrono::milliseconds(std::max<std::int64_t>(
          1, static_cast<std::int64_t>(
                 static_cast<double>(options.deadline.count()) *
                 options.primary_share)));
      sopts.time_limit = combine_limits(options.search.time_limit, share);
    }
    SynthesisResult r = synthesize(spec, sopts);
    const bool success = r.success;
    absorb(std::move(r));
    if (success && verify(out.result.circuit)) {
      return finish(FallbackEngine::kBestFirst);
    }
  }
  if (user_cancelled()) return finish(FallbackEngine::kNone);

  // Stage 2: the greedy anytime baseline on what is left of the clock. It
  // also records the closest incomplete cascade for the partial field.
  if (options.enable_greedy && (!timed || remaining().count() > 0)) {
    SynthesisOptions gopts = options.search;
    gopts.cancel_token = token;
    gopts.max_gates = 0;
    if (timed) gopts.time_limit = remaining();
    SynthesisResult r = synthesize_greedy(spec, gopts);
    const bool success = r.success;
    absorb(std::move(r));
    if (success && verify(out.result.circuit)) {
      return finish(FallbackEngine::kGreedy);
    }
  }
  if (user_cancelled()) return finish(FallbackEngine::kNone);

  // Stage 3: transformation-based synthesis — constructive, so it cannot
  // fail, but it materializes the full 2^n-row table; gate the width. A
  // cancelled run returns an incomplete cascade, which the verification
  // below rejects.
  if (options.enable_transformation &&
      spec.num_vars() <= options.transformation_max_vars &&
      (!timed || remaining().count() > 0)) {
    try {
      const TruthTable tt = table != nullptr ? *table
                                             : truth_table_of_pprm(spec);
      Circuit c = synthesize_transformation_bidir(tt, token);
      if (verify(c)) {
        out.result.success = true;
        out.result.circuit = std::move(c);
        out.result.termination = TerminationReason::kSolved;
        return finish(FallbackEngine::kTransformationBased);
      }
      out.result.termination = token->cancelled()
                                   ? (token->reason() == CancelReason::kUser
                                          ? TerminationReason::kCancelled
                                          : TerminationReason::kTimeLimit)
                                   : out.result.termination;
    } catch (const std::invalid_argument&) {
      // Spec not reconstructible into a table (too wide); skip the stage.
    }
  }
  return finish(FallbackEngine::kNone);
}

}  // namespace

ResilientResult synthesize_resilient(const Pprm& spec,
                                     const ResilienceOptions& options) {
  return resilient_impl(spec, nullptr, options);
}

ResilientResult synthesize_resilient(const TruthTable& spec,
                                     const ResilienceOptions& options) {
  const Pprm pprm = pprm_of_truth_table(spec);
  return resilient_impl(pprm, &spec, options);
}

}  // namespace rmrls
