// Tests for the resilience layer (docs/robustness.md): cooperative
// cancellation, the token's deadline, deadline behaviour of the engines,
// and the synthesize_resilient fallback cascade. The acceptance case of the
// subsystem — a 100 ms deadline on a 20-variable spec returning promptly
// with either a verified circuit or a structured budget status — lives in
// DeadlineAcceptance below; bench/deadline_overshoot measures the
// overshoot distribution.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "baselines/greedy_pprm.hpp"
#include "baselines/transformation_based.hpp"
#include "core/cancel.hpp"
#include "core/resilient.hpp"
#include "core/synthesizer.hpp"
#include "rev/equivalence.hpp"
#include "rev/pprm_transform.hpp"
#include "rev/random.hpp"
#include "thread_probe.hpp"

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

TEST(CancelToken, DeadlineExpiresOnceItPasses) {
  CancelToken token;
  EXPECT_EQ(token.deadline(), Clock::time_point::max());
  token.arm_deadline(Clock::now() + milliseconds(10));
  const auto give_up = Clock::now() + milliseconds(2000);
  while (!token.expired() && Clock::now() < give_up) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_TRUE(token.expired());
  EXPECT_TRUE(token.deadline_passed());
  // A passed deadline does not fire the token: a later user cancel still
  // reports its own reason.
  EXPECT_FALSE(token.cancelled());
  token.cancel(CancelReason::kUser);
  EXPECT_EQ(token.reason(), CancelReason::kUser);
}

TEST(CancelToken, DisarmedDeadlineNeverExpires) {
  CancelToken token;
  {
    const ScopedDeadline armed(token, Clock::now() - milliseconds(1));
    EXPECT_TRUE(token.expired());
  }
  EXPECT_FALSE(token.expired());
  EXPECT_EQ(token.deadline(), Clock::time_point::max());
  token.arm_deadline(Clock::now() + milliseconds(10000));
  token.disarm_deadline();
  EXPECT_FALSE(token.expired());
  token.arm_deadline(Clock::now() - milliseconds(1));
  token.reset();
  EXPECT_FALSE(token.expired());
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

TEST(Cancellation, ArmedDeadlineStopsEveryEngineAsATimeLimit) {
  // The engines read the token's deadline even with no time limit of
  // their own, and report it as a time limit, not a user cancel.
  CancelToken token;
  token.arm_deadline(Clock::now() - milliseconds(1));
  SynthesisOptions options;
  options.cancel_token = &token;
  const SynthesisResult search = synthesize(fig1_pprm(), options);
  EXPECT_FALSE(search.success);
  EXPECT_EQ(search.termination, TerminationReason::kTimeLimit);
  EXPECT_FALSE(search.stats.cancelled);
  const SynthesisResult greedy = synthesize_greedy(fig1_pprm(), options);
  EXPECT_FALSE(greedy.success);
  EXPECT_EQ(greedy.termination, TerminationReason::kTimeLimit);
  const TruthTable fig1({1, 0, 7, 2, 3, 4, 5, 6});
  EXPECT_EQ(synthesize_transformation_based(fig1, &token).gate_count(), 0);
  EXPECT_EQ(synthesize_transformation_bidir(fig1, &token).gate_count(), 0);
  EXPECT_FALSE(token.cancelled());
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

// A deadline that never comes changes nothing. A cascade armed as
// rmrls-serve arms every miss (use_watchdog, here 10 s) expands the same
// tree as an untimed synthesize() and returns the same circuit, on each
// of the three kernels: one-word states, multi-word dense states and the
// sparse cube vectors.
TEST(Resilient, FarDeadlineMatchesUntimedSynthesize) {
  struct Case {
    const char* name;
    Pprm spec;
    int dense_threshold;
  };
  const Case cases[] = {
      {"one-word n=6", wide_spec(6, 6), SynthesisOptions{}.dense_threshold},
      {"multi-word n=8", wide_spec(8, 8), SynthesisOptions{}.dense_threshold},
      {"sparse n=5", wide_spec(5, 6), 0},
  };
  for (const Case& c : cases) {
    ResilienceOptions options;
    options.search.max_nodes = 20000;
    options.search.dense_threshold = c.dense_threshold;
    options.deadline = milliseconds(10000);
    options.use_watchdog = true;
    const SynthesisResult direct = synthesize(c.spec, options.search);
    const ResilientResult rr = synthesize_resilient(c.spec, options);
    ASSERT_TRUE(direct.success) << c.name;
    ASSERT_EQ(rr.engine, FallbackEngine::kBestFirst) << c.name;
    EXPECT_FALSE(rr.watchdog_fired) << c.name;
    EXPECT_EQ(rr.result.circuit.to_string(), direct.circuit.to_string())
        << c.name;
    EXPECT_EQ(rr.result.stats.nodes_expanded, direct.stats.nodes_expanded)
        << c.name;
    EXPECT_EQ(rr.result.stats.tt_inserts, direct.stats.tt_inserts) << c.name;
    EXPECT_EQ(rr.result.stats.history_hits, direct.stats.history_hits)
        << c.name;
    EXPECT_EQ(rr.result.stats.dense_kernel, c.dense_threshold > 0) << c.name;
    // Enough nodes that the stop poll ran many times.
    EXPECT_GT(direct.stats.nodes_expanded, 1000u) << c.name;
  }

  // Greedy, the cascade's second stage, under a far time limit of its own.
  // It does not solve this spec, so it runs to its step cap.
  const Pprm wide = wide_spec(10, 12);
  SynthesisOptions untimed;
  untimed.max_gates = 512;
  SynthesisOptions timed = untimed;
  timed.time_limit = milliseconds(10000);
  const SynthesisResult untimed_greedy = synthesize_greedy(wide, untimed);
  const SynthesisResult timed_greedy = synthesize_greedy(wide, timed);
  EXPECT_EQ(timed_greedy.success, untimed_greedy.success);
  EXPECT_EQ(timed_greedy.termination, untimed_greedy.termination);
  EXPECT_EQ(timed_greedy.circuit.to_string(),
            untimed_greedy.circuit.to_string());
  EXPECT_EQ(timed_greedy.partial.to_string(),
            untimed_greedy.partial.to_string());
  EXPECT_EQ(timed_greedy.stats.nodes_expanded,
            untimed_greedy.stats.nodes_expanded);
  EXPECT_EQ(timed_greedy.stats.children_created,
            untimed_greedy.stats.children_created);
  EXPECT_GT(untimed_greedy.stats.nodes_expanded, 1u);
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

// A timed call with use_watchdog, as rmrls-serve runs every miss, arms
// its deadline on the token and starts no thread of its own.
TEST(Resilient, TimedCallStartsNoThread) {
  ThreadsAtRunBegin probe;
  ResilienceOptions options;
  options.deadline = milliseconds(10000);
  options.use_watchdog = true;
  options.search.trace_sink = &probe;
  const int before = process_threads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status";
  const ResilientResult rr = synthesize_resilient(fig1_pprm(), options);
  ASSERT_TRUE(rr.status.ok());
  EXPECT_EQ(probe.threads, before);
  EXPECT_FALSE(rr.watchdog_fired);
}

/// Records the token's deadline as each search pass begins.
class DeadlineAtRunBegin final : public TraceSink {
 public:
  explicit DeadlineAtRunBegin(const CancelToken& token) : token_(token) {}
  void on_event(const TraceEvent& event) override {
    if (event.kind == TraceEventKind::kRunBegin) {
      seen.push_back(token_.deadline());
    }
  }
  std::vector<Clock::time_point> seen;

 private:
  const CancelToken& token_;
};

// use_watchdog arms the cascade deadline on the caller's token for the
// length of the call, so every stage sees it, and disarms it on return;
// `watchdog_fired` reports whether it had passed by then.
TEST(Resilient, ArmsItsDeadlineForTheLengthOfTheCall) {
  CancelToken token;
  DeadlineAtRunBegin probe(token);
  ResilienceOptions options;
  options.cancel_token = &token;
  options.deadline = milliseconds(10000);
  options.search.trace_sink = &probe;
  const auto t0 = Clock::now();
  ResilientResult rr = synthesize_resilient(fig1_pprm(), options);
  const auto t1 = Clock::now();
  ASSERT_TRUE(rr.status.ok());
  ASSERT_FALSE(probe.seen.empty());
  for (const Clock::time_point at : probe.seen) {
    EXPECT_GE(at, t0 + options.deadline);
    EXPECT_LE(at, t1 + options.deadline);
  }
  EXPECT_EQ(token.deadline(), Clock::time_point::max());
  EXPECT_FALSE(rr.watchdog_fired);

  // A batch job's configuration: the call leaves the shared token alone.
  probe.seen.clear();
  options.use_watchdog = false;
  rr = synthesize_resilient(fig1_pprm(), options);
  ASSERT_FALSE(probe.seen.empty());
  for (const Clock::time_point at : probe.seen) {
    EXPECT_EQ(at, Clock::time_point::max());
  }

  // A deadline that passes during the call is reported as such.
  options.use_watchdog = true;
  options.deadline = milliseconds(1);
  options.search.trace_sink = nullptr;
  options.search.stop_at_first_solution = true;
  options.search.max_nodes = 0;
  rr = synthesize_resilient(wide_spec(20, 40), options);
  EXPECT_EQ(rr.status.code(), StatusCode::kBudgetExhausted);
  EXPECT_TRUE(rr.watchdog_fired);
  EXPECT_TRUE(rr.result.stats.watchdog_fired);
  EXPECT_EQ(token.deadline(), Clock::time_point::max());
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
