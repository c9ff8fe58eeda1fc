// Tests for the resilience layer (docs/robustness.md): cooperative
// cancellation, the watchdog, deadline behaviour of the engines, and the
// synthesize_resilient fallback cascade. The acceptance case of the
// subsystem — a 100 ms deadline on a 20-variable spec returning promptly
// with either a verified circuit or a structured budget status — lives in
// DeadlineAcceptance below; bench/deadline_overshoot measures the
// overshoot distribution.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "baselines/greedy_pprm.hpp"
#include "core/cancel.hpp"
#include "core/resilient.hpp"
#include "core/synthesizer.hpp"
#include "rev/equivalence.hpp"
#include "rev/pprm_transform.hpp"
#include "rev/random.hpp"

namespace rmrls {
namespace {

using std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

Pprm fig1_pprm() {
  return pprm_of_truth_table(TruthTable({1, 0, 7, 2, 3, 4, 5, 6}));
}

/// A wide spec from the scalability family (Section V-E): a random GT
/// cascade simulated into its PPRM. Hard enough that no engine finishes
/// it instantly at the budgets used here.
Pprm wide_spec(int vars, int gates) {
  std::mt19937_64 rng(7);
  return random_circuit(vars, gates, GateLibrary::kGT, rng).to_pprm();
}

TEST(CancelToken, FirstReasonWins) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  token.cancel(CancelReason::kUser);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kUser);
  token.cancel(CancelReason::kDeadline);  // latched: no overwrite
  EXPECT_EQ(token.reason(), CancelReason::kUser);
  token.reset();
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
}

TEST(WatchdogTest, FiresAfterDeadline) {
  CancelToken token;
  Watchdog watchdog(token, milliseconds(10));
  const auto give_up = Clock::now() + milliseconds(2000);
  while (!token.cancelled() && Clock::now() < give_up) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  EXPECT_TRUE(watchdog.fired());
}

TEST(WatchdogTest, DisarmPreventsFiring) {
  CancelToken token;
  {
    Watchdog watchdog(token, milliseconds(10000));
    watchdog.disarm();
  }  // dtor joins; must not hang for 10 s
  EXPECT_FALSE(token.cancelled());
}

TEST(Cancellation, PreCancelledSearchReturnsImmediately) {
  CancelToken token;
  token.cancel(CancelReason::kUser);
  SynthesisOptions options;
  options.cancel_token = &token;
  const auto t0 = Clock::now();
  const SynthesisResult r = synthesize(fig1_pprm(), options);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.termination, TerminationReason::kCancelled);
  EXPECT_TRUE(r.stats.cancelled);
  EXPECT_LT(Clock::now() - t0, milliseconds(1000));
}

TEST(Cancellation, DeadlineReasonReportsTimeLimit) {
  // A watchdog-fired token must look like a deadline, not a user cancel.
  CancelToken token;
  token.cancel(CancelReason::kDeadline);
  SynthesisOptions options;
  options.cancel_token = &token;
  const SynthesisResult r = synthesize(fig1_pprm(), options);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.termination, TerminationReason::kTimeLimit);
  EXPECT_FALSE(r.stats.cancelled);
}

TEST(Cancellation, GreedyHonorsToken) {
  CancelToken token;
  token.cancel(CancelReason::kUser);
  SynthesisOptions options;
  options.cancel_token = &token;
  const SynthesisResult r = synthesize_greedy(fig1_pprm(), options);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.termination, TerminationReason::kCancelled);
  EXPECT_TRUE(r.stats.cancelled);
}

TEST(Deadline, SynthesizeHonorsOverallTimeLimit) {
  // Unlimited nodes, refinement on: only the wall clock can stop this, and
  // it must stop the *whole* multi-pass driver, not each pass afresh.
  SynthesisOptions options;
  options.max_nodes = 0;
  options.time_limit = milliseconds(50);
  const auto t0 = Clock::now();
  const SynthesisResult r = synthesize(wide_spec(18, 24), options);
  const auto elapsed = Clock::now() - t0;
  EXPECT_LT(elapsed, milliseconds(1000));
  if (!r.success) {
    EXPECT_EQ(r.termination, TerminationReason::kTimeLimit);
  }
}

TEST(GreedyPartial, PreservedWhenGateCapHits) {
  SynthesisOptions options;
  options.max_gates = 1;  // fig1 needs 3 gates: forced to stop early
  const SynthesisResult r = synthesize_greedy(fig1_pprm(), options);
  ASSERT_FALSE(r.success);
  EXPECT_EQ(r.termination, TerminationReason::kNodeBudget);
  EXPECT_EQ(r.partial.gate_count(), 1);
  EXPECT_GT(r.partial_terms, 0);
}

TEST(Resilient, PrimaryWinsWhenItCan) {
  const ResilientResult rr = synthesize_resilient(fig1_pprm());
  ASSERT_TRUE(rr.status.ok());
  EXPECT_EQ(rr.engine, FallbackEngine::kBestFirst);
  EXPECT_TRUE(rr.verified);
  EXPECT_TRUE(rr.result.success);
  EXPECT_TRUE(equivalent(rr.result.circuit, fig1_pprm()));
}

// Stage 1 is synthesize() under the cascade's cancel token and builds no
// tables of its own, so when it wins, the cascade reports exactly the
// circuit and the counters of a plain synthesize() call.
TEST(Resilient, PrimaryStageMatchesSynthesize) {
  const Pprm spec = pprm_of_truth_table(
      TruthTable({0, 7, 6, 9, 4, 11, 10, 13, 8, 15, 14, 1, 12, 3, 2, 5}));
  ResilienceOptions options;
  options.search.max_nodes = 50000;
  options.search.tt_mb = 1;
  const SynthesisResult direct = synthesize(spec, options.search);
  const ResilientResult rr = synthesize_resilient(spec, options);
  ASSERT_TRUE(direct.success);
  ASSERT_EQ(rr.engine, FallbackEngine::kBestFirst);
  EXPECT_EQ(rr.result.circuit.to_string(), direct.circuit.to_string());
  EXPECT_EQ(rr.result.stats.nodes_expanded, direct.stats.nodes_expanded);
  EXPECT_EQ(rr.result.stats.tt_inserts, direct.stats.tt_inserts);
  EXPECT_EQ(rr.result.stats.tt_generation, direct.stats.tt_generation);
  EXPECT_EQ(rr.result.stats.history_hits, direct.stats.history_hits);
  // Several passes shared both tables, so the comparison is not vacuous.
  EXPECT_GT(direct.stats.tt_generation, 0u);
  EXPECT_GT(direct.stats.history_hits, 0u);
}

// A dense search that wins stage 1 ran on one kernel throughout: the
// cascade reports its stats as they are, with no representation switch.
TEST(Resilient, DenseWinReportsNoRepresentationSwitch) {
  const ResilientResult rr = synthesize_resilient(fig1_pprm());
  ASSERT_EQ(rr.engine, FallbackEngine::kBestFirst);
  EXPECT_TRUE(rr.result.stats.dense_kernel);
  EXPECT_EQ(rr.result.stats.representation_switches, 0u);
}

TEST(Resilient, CascadesToGreedy) {
  // One node of search budget: best-first cannot find fig1's 3-gate
  // cascade, greedy can.
  ResilienceOptions options;
  options.search.max_nodes = 1;
  const ResilientResult rr = synthesize_resilient(fig1_pprm(), options);
  ASSERT_TRUE(rr.status.ok());
  EXPECT_EQ(rr.engine, FallbackEngine::kGreedy);
  EXPECT_TRUE(rr.verified);
  EXPECT_TRUE(equivalent(rr.result.circuit, fig1_pprm()));
}

TEST(Resilient, CascadesToTransformationBased) {
  // Pure wire swap: greedy has no productive first move (see
  // test_baselines), the constructive transformation engine still wins.
  const TruthTable swap({0, 2, 1, 3});
  ResilienceOptions options;
  options.search.max_nodes = 1;
  options.search.exempt_budget = 0;  // deny the search its swap chains
  const ResilientResult rr = synthesize_resilient(swap, options);
  ASSERT_TRUE(rr.status.ok());
  EXPECT_EQ(rr.engine, FallbackEngine::kTransformationBased);
  EXPECT_TRUE(rr.verified);
  EXPECT_TRUE(equivalent(rr.result.circuit, pprm_of_truth_table(swap)));
}

TEST(Resilient, StructuredFailureWhenEverythingDisabled) {
  const TruthTable swap({0, 2, 1, 3});
  ResilienceOptions options;
  options.search.max_nodes = 1;
  options.search.exempt_budget = 0;
  options.enable_greedy = false;
  options.enable_transformation = false;
  const ResilientResult rr = synthesize_resilient(swap, options);
  EXPECT_FALSE(rr.status.ok());
  EXPECT_EQ(rr.status.code(), StatusCode::kBudgetExhausted);
  EXPECT_EQ(rr.engine, FallbackEngine::kNone);
  EXPECT_FALSE(rr.result.success);
}

TEST(Resilient, UserCancelShortCircuitsTheCascade) {
  CancelToken token;
  token.cancel(CancelReason::kUser);
  ResilienceOptions options;
  options.cancel_token = &token;
  const ResilientResult rr = synthesize_resilient(fig1_pprm(), options);
  EXPECT_FALSE(rr.status.ok());
  EXPECT_EQ(rr.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(rr.result.stats.cancelled);
}

TEST(Resilient, DeadlineAcceptance) {
  // The subsystem's acceptance criterion: a 100 ms deadline on a
  // 20-variable hard-family spec returns promptly with either a verified
  // circuit or a structured budget-exhausted status.
  const Pprm spec = wide_spec(20, 40);
  ResilienceOptions options;
  options.deadline = milliseconds(100);
  options.search.stop_at_first_solution = true;
  options.search.max_nodes = 0;
  const auto t0 = Clock::now();
  const ResilientResult rr = synthesize_resilient(spec, options);
  const auto elapsed =
      std::chrono::duration_cast<milliseconds>(Clock::now() - t0);
  // 150 ms per the acceptance criterion, with slack for loaded CI: the
  // bench (bench/deadline_overshoot) measures the true distribution.
  EXPECT_LT(elapsed.count(), 500) << "deadline overshoot";
  if (rr.status.ok()) {
    EXPECT_TRUE(rr.verified);
    EXPECT_TRUE(equivalent(rr.result.circuit, spec));
    EXPECT_NE(rr.engine, FallbackEngine::kNone);
  } else {
    EXPECT_EQ(rr.status.code(), StatusCode::kBudgetExhausted);
    EXPECT_EQ(rr.engine, FallbackEngine::kNone);
  }
  EXPECT_EQ(rr.result.stats.watchdog_fired, rr.watchdog_fired);
}

TEST(Resilient, PartialCascadeSurvivesBudgetMiss) {
  // Deny everything but a sliver of greedy: the result must carry the
  // incomplete cascade greedy built before the clock ran out.
  const Pprm spec = wide_spec(16, 24);
  ResilienceOptions options;
  options.search.max_nodes = 1;
  options.enable_transformation = false;
  options.deadline = milliseconds(60);
  const ResilientResult rr = synthesize_resilient(spec, options);
  if (!rr.status.ok()) {
    EXPECT_EQ(rr.status.code(), StatusCode::kBudgetExhausted);
    // Greedy always manages at least one substitution on this family
    // before any plausible deadline, so a partial must be present.
    EXPECT_GE(rr.result.partial_terms, 0);
  }
}

}  // namespace
}  // namespace rmrls
