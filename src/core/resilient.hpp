/// \file resilient.hpp
/// \brief Resilient synthesis driver: deadline and fallback cascade
/// (docs/robustness.md).
///
/// The best-first search is a heuristic: it can blow its budget or be
/// cancelled without producing a circuit. synthesize_resilient wraps it in
/// an anytime cascade — best-first, then the greedy baseline, then
/// (width permitting) Miller-Maslov-Dueck transformation-based synthesis,
/// which is constructive and cannot fail — so a caller with a wall-clock
/// budget always gets back either a *verified* circuit labelled with the
/// engine that produced it, or a structured Status explaining the miss,
/// plus the best incomplete cascade any engine reached.

#pragma once

#include <chrono>

#include "core/cancel.hpp"
#include "core/options.hpp"
#include "core/search.hpp"
#include "core/status.hpp"
#include "rev/pprm.hpp"
#include "rev/truth_table.hpp"

namespace rmrls {

/// Which engine of the cascade produced the returned circuit.
enum class FallbackEngine : std::uint8_t {
  kNone = 0,        ///< no engine succeeded
  kBestFirst,       ///< the primary RMRLS search
  kGreedy,          ///< baselines/greedy_pprm.hpp
  kTransformationBased,  ///< baselines/transformation_based.hpp
};

[[nodiscard]] constexpr const char* to_string(FallbackEngine engine) {
  switch (engine) {
    case FallbackEngine::kNone: return "none";
    case FallbackEngine::kBestFirst: return "best_first";
    case FallbackEngine::kGreedy: return "greedy";
    case FallbackEngine::kTransformationBased: return "transformation_based";
  }
  return "unknown";
}

struct ResilienceOptions {
  /// Options of the primary best-first attempt; the greedy fallback reuses
  /// its priority weights. `search.cancel_token` is overridden — use
  /// `cancel_token` below to cancel the whole cascade.
  SynthesisOptions search;

  /// Wall-clock budget of the *whole* cascade; zero means none (the
  /// cascade then only stops via the search's own budgets or the token).
  /// The best-first and greedy stages keep it through their time limits.
  std::chrono::milliseconds deadline{0};

  /// Arm `deadline` on the cascade's token for the length of the call
  /// (core/cancel.hpp), so that every stage sees it, the
  /// transformation-based one included, which has no time limit of its
  /// own. Arming is for a caller that owns its token: an rmrls-serve
  /// request arms it. A run_batch job must not, because its token is the
  /// batch's, shared with every other job and armed with the batch
  /// deadline.
  bool use_watchdog = true;

  /// Stage toggles of the cascade.
  bool enable_greedy = true;
  bool enable_transformation = true;

  /// Optional caller-owned token to cancel the cascade from outside (e.g.
  /// a SIGINT handler). The driver adopts it as the cascade's token; the
  /// first cancel reason wins.
  CancelToken* cancel_token = nullptr;
};

struct ResilientResult {
  /// kOk with a verified circuit; kCancelled / kBudgetExhausted /
  /// kInternal otherwise (docs/robustness.md).
  Status status;
  /// Circuit, stats (accumulated across every engine that ran) and the
  /// best incomplete cascade (`partial`) when no engine finished.
  SynthesisResult result;
  /// Which engine produced `result.circuit`; kNone on failure.
  FallbackEngine engine = FallbackEngine::kNone;
  /// True iff the returned circuit was re-checked against the spec with
  /// the exact PPRM equivalence check (rev/equivalence.hpp).
  bool verified = false;
  /// True when this call armed `deadline` on its token (use_watchdog)
  /// and the deadline had passed when the call ended.
  bool watchdog_fired = false;
};

/// Runs the fallback cascade on a PPRM spec. Always returns; never throws
/// on budget or cancellation.
[[nodiscard]] ResilientResult synthesize_resilient(
    const Pprm& spec, const ResilienceOptions& options = {});

/// Truth-table overload: the transformation-based fallback uses the table
/// directly instead of reconstructing it from the PPRM.
[[nodiscard]] ResilientResult synthesize_resilient(
    const TruthTable& spec, const ResilienceOptions& options = {});

}  // namespace rmrls
