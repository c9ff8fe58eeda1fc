/// \file test_obs.cpp
/// \brief Observability subsystem: event/counter consistency, phase
/// timers, termination reasons, and the JSON metrics pipeline.

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <vector>

#include "core/synthesizer.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_profile.hpp"
#include "obs/trace.hpp"
#include "rev/pprm_transform.hpp"
#include "rev/random.hpp"
#include "templates/simplify.hpp"

namespace rmrls {
namespace {

TruthTable fig1() { return TruthTable({1, 0, 7, 2, 3, 4, 5, 6}); }

/// The creation-side accounting identity documented on SynthesisStats.
void expect_counter_identity(const SynthesisStats& s) {
  EXPECT_EQ(s.children_created,
            s.children_pushed + s.solutions_found + s.pruned_elim +
                s.pruned_depth + s.pruned_max_gates + s.pruned_duplicate +
                s.pruned_greedy + s.dropped_queue_full);
}

TEST(ObsCounters, IdentityHoldsAcrossOptionVariants) {
  std::mt19937_64 rng(11);
  for (int i = 0; i < 4; ++i) {
    const TruthTable f = random_reversible_function(4, rng);
    SynthesisOptions basic;
    basic.max_nodes = 5000;
    expect_counter_identity(synthesize(f, basic).stats);

    SynthesisOptions greedy = basic;
    greedy.greedy_k = 3;
    greedy.max_gates = 12;
    expect_counter_identity(synthesize(f, greedy).stats);
  }
}

TEST(ObsCounters, MaxGatesPruningIsDistinguishable) {
  std::mt19937_64 rng(12);
  const TruthTable f = random_reversible_function(4, rng);
  SynthesisOptions options;
  options.max_nodes = 5000;
  options.max_gates = 3;  // almost certainly too tight for a random 4-var
  options.iterative_refinement = false;
  const SynthesisResult r = synthesize(f, options);
  EXPECT_GT(r.stats.pruned_max_gates, 0u);
  expect_counter_identity(r.stats);
}

TEST(ObsTrace, EventsMatchCounters) {
  RecordingTraceSink sink;
  SynthesisOptions options;
  options.max_nodes = 20000;
  options.trace_sink = &sink;
  const SynthesisResult r = synthesize(fig1(), options);
  ASSERT_TRUE(r.success);

  const SynthesisStats& s = r.stats;
  expect_counter_identity(s);
  EXPECT_EQ(sink.count(TraceEventKind::kNodeExpanded), s.nodes_expanded);
  EXPECT_EQ(sink.count(TraceEventKind::kSolutionFound), s.solutions_found);
  EXPECT_EQ(sink.count(TraceEventKind::kRestart), s.restarts);
  EXPECT_EQ(sink.count(TraceEventKind::kQueueDrop), s.dropped_queue_full);
  EXPECT_EQ(sink.count(PruneReason::kElim), s.pruned_elim);
  EXPECT_EQ(sink.count(PruneReason::kDepth), s.pruned_depth);
  EXPECT_EQ(sink.count(PruneReason::kMaxGates), s.pruned_max_gates);
  EXPECT_EQ(sink.count(PruneReason::kDuplicate), s.pruned_duplicate);
  EXPECT_EQ(sink.count(PruneReason::kStale), s.pruned_stale);
  // Every Search pass (scout + refinement reruns) frames its events.
  EXPECT_GT(sink.count(TraceEventKind::kRunBegin), 0u);
  EXPECT_EQ(sink.count(TraceEventKind::kRunBegin),
            sink.count(TraceEventKind::kRunEnd));
  // Fig. 1 needs 3 gates, so at least one refinement rerun was announced.
  EXPECT_GE(sink.count(TraceEventKind::kRefinementRound), 1u);
  // Events inside one run carry a monotone node counter. (Refinement
  // rounds are driver events between runs and carry no counter.)
  std::uint64_t last = 0;
  for (const TraceEvent& e : sink.events) {
    if (e.kind == TraceEventKind::kRefinementRound) continue;
    if (e.kind == TraceEventKind::kRunBegin) last = 0;
    EXPECT_GE(e.nodes_expanded, last);
    last = e.nodes_expanded;
  }
}

// tt_generation counts the driver's new-pass bumps of the shared table:
// one fewer than the search passes, each of which opens with kRunBegin.
TEST(ObsTrace, TtGenerationIsOneFewerThanThePasses) {
  std::mt19937_64 rng(23);
  std::vector<TruthTable> specs = {fig1()};
  for (int i = 0; i < 3; ++i) {
    specs.push_back(random_reversible_function(4, rng));
  }
  for (const TruthTable& spec : specs) {
    RecordingTraceSink sink;
    SynthesisOptions options;
    options.max_nodes = 20000;
    options.trace_sink = &sink;
    const SynthesisResult r = synthesize(spec, options);
    const std::uint64_t passes = sink.count(TraceEventKind::kRunBegin);
    EXPECT_GE(passes, 2u) << spec.to_string();  // not vacuous
    EXPECT_EQ(r.stats.tt_generation + 1, passes) << spec.to_string();
  }
}

TEST(ObsTrace, SamplingThinsHighFrequencyEventsOnly) {
  RecordingTraceSink dense;
  RecordingTraceSink sparse;
  SynthesisOptions options;
  options.max_nodes = 20000;
  options.trace_sink = &dense;
  const SynthesisResult a = synthesize(fig1(), options);
  options.trace_sink = &sparse;
  options.trace_sample_interval = 64;
  const SynthesisResult b = synthesize(fig1(), options);
  // Tracing must not disturb the search itself.
  EXPECT_EQ(a.stats.nodes_expanded, b.stats.nodes_expanded);
  EXPECT_LT(sparse.count(TraceEventKind::kNodeExpanded),
            dense.count(TraceEventKind::kNodeExpanded));
  EXPECT_EQ(sparse.count(TraceEventKind::kSolutionFound),
            dense.count(TraceEventKind::kSolutionFound));
  EXPECT_EQ(sparse.count(TraceEventKind::kRunBegin),
            dense.count(TraceEventKind::kRunBegin));
}

TEST(ObsTrace, JsonlEventsParseAndRoundTrip) {
  std::ostringstream out;
  JsonlTraceSink sink(out);
  SynthesisOptions options;
  options.max_nodes = 2000;
  options.trace_sink = &sink;
  (void)synthesize(fig1(), options);

  std::istringstream lines(out.str());
  std::string line;
  std::uint64_t events = 0;
  std::uint64_t solutions = 0;
  while (std::getline(lines, line)) {
    ++events;
    const auto v = json_parse(line);
    ASSERT_TRUE(v.has_value()) << line;
    ASSERT_TRUE(v->is_object());
    const JsonValue* ev = v->find("ev");
    ASSERT_NE(ev, nullptr);
    ASSERT_TRUE(ev->is_string());
    if (ev->string == "solution_found") ++solutions;
    ASSERT_NE(v->find("nodes"), nullptr);
    ASSERT_NE(v->find("t_us"), nullptr);
    if (ev->string == "child_pruned") {
      const JsonValue* reason = v->find("reason");
      ASSERT_NE(reason, nullptr);
      EXPECT_TRUE(reason->string == "elim" || reason->string == "depth" ||
                  reason->string == "max_gates" ||
                  reason->string == "duplicate" ||
                  reason->string == "stale");
    }
  }
  EXPECT_GT(events, 0u);
  EXPECT_GT(solutions, 0u);
}

TEST(ObsPhases, ProfileCoversEngineAndTransformAndTemplates) {
  PhaseProfile profile;
  SynthesisOptions options;
  options.max_nodes = 20000;
  options.phase_profile = &profile;
  const SynthesisResult r = synthesize(fig1(), options);
  ASSERT_TRUE(r.success);
  EXPECT_GT(profile[Phase::kPprmTransform].calls, 0u);
  EXPECT_GT(profile[Phase::kFactorEnum].calls, 0u);
  EXPECT_GT(profile[Phase::kSubstitute].calls, 0u);
  EXPECT_GT(profile[Phase::kHeapOps].calls, 0u);
  EXPECT_EQ(profile[Phase::kTemplateSimplify].calls, 0u);
  EXPECT_GT(profile.total_nanos(), 0u);

  (void)simplify_templates(r.circuit, &profile);
  EXPECT_EQ(profile[Phase::kTemplateSimplify].calls, 1u);

  // Merging two profiles adds counters.
  PhaseProfile copy = profile;
  copy.merge(profile);
  EXPECT_EQ(copy[Phase::kFactorEnum].calls,
            2 * profile[Phase::kFactorEnum].calls);

  // Human rendering names the active phases.
  const std::string rendered = profile.to_string();
  EXPECT_NE(rendered.find("factor_enum"), std::string::npos);
  EXPECT_NE(rendered.find("pprm_transform"), std::string::npos);
}

TEST(ObsTermination, SolvedOnIdentityInput) {
  const TruthTable identity({0, 1, 2, 3});
  const SynthesisResult r = synthesize(identity);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.termination, TerminationReason::kSolved);
}

TEST(ObsTermination, SolvedWhenStopAtFirstFires) {
  SynthesisOptions options;
  options.stop_at_first_solution = true;
  options.max_nodes = 50000;
  const SynthesisResult r = synthesize(fig1(), options);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.termination, TerminationReason::kSolved);
}

TEST(ObsTermination, NodeBudgetWhenBudgetTooSmall) {
  std::mt19937_64 rng(13);
  const TruthTable f = random_reversible_function(4, rng);
  SynthesisOptions options;
  options.max_nodes = 1;
  const SynthesisResult r = synthesize(f, options);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.termination, TerminationReason::kNodeBudget);
}

TEST(ObsTermination, QueueExhaustedOnTinySolvedSearch) {
  // A one-variable NOT: the search finds the single gate and then drains
  // the (tiny) queue looking for something smaller.
  const SynthesisResult r = synthesize(TruthTable({1, 0}));
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.circuit.gate_count(), 1);
  EXPECT_EQ(r.termination, TerminationReason::kQueueExhausted);
}

TEST(ObsMetrics, RegistryEmitsValidSchemaAndRoundTrips) {
  PhaseProfile profile;
  SynthesisOptions options;
  options.max_nodes = 20000;
  options.phase_profile = &profile;
  const SynthesisResult r = synthesize(fig1(), options);
  ASSERT_TRUE(r.success);

  MetricsRegistry record;
  record.set("name", "fig1").set("vars", 3).set("success", r.success);
  record.add_stats(r.stats, r.termination);
  record.add_profile(profile);
  record.add_circuit(r.circuit);
  const std::string line = record.to_json();

  const auto v = json_parse(line);
  ASSERT_TRUE(v.has_value()) << line;
  for (const std::string& key : metrics_required_keys()) {
    EXPECT_NE(v->find(key), nullptr) << "missing " << key << " in " << line;
  }
  EXPECT_EQ(v->find("schema")->string, kMetricsSchema);
  EXPECT_EQ(v->find("name")->string, "fig1");
  EXPECT_EQ(static_cast<std::uint64_t>(v->find("nodes_expanded")->number),
            r.stats.nodes_expanded);
  EXPECT_EQ(static_cast<int>(v->find("gates")->number),
            r.circuit.gate_count());
  const JsonValue* phases = v->find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_TRUE(phases->is_object());
  const JsonValue* factor = phases->find("factor_enum");
  ASSERT_NE(factor, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(factor->find("calls")->number),
            profile[Phase::kFactorEnum].calls);
}

TEST(ObsJson, EscapingAndParserEdges) {
  JsonObject o;
  o.field("k", "a\"b\\c\n\t\x01");
  const std::string line = o.str();
  const auto v = json_parse(line);
  ASSERT_TRUE(v.has_value()) << line;
  EXPECT_EQ(v->find("k")->string, "a\"b\\c\n\t\x01");

  EXPECT_TRUE(json_parse("{}").has_value());
  EXPECT_TRUE(json_parse("[1, 2.5, -3e2, true, null, \"x\"]").has_value());
  EXPECT_FALSE(json_parse("{").has_value());
  EXPECT_FALSE(json_parse("{} trailing").has_value());
  EXPECT_FALSE(json_parse("{'single': 1}").has_value());
  EXPECT_FALSE(json_parse("{\"a\": 01x}").has_value());

  const auto nested = json_parse("{\"a\": {\"b\": [1, {\"c\": false}]}}");
  ASSERT_TRUE(nested.has_value());
  EXPECT_EQ(nested->find("a")->find("b")->array[1].find("c")->boolean,
            false);
}

TEST(ObsTrace, NullAndMultiSinksBehave) {
  NullTraceSink null_sink;
  RecordingTraceSink rec;
  MultiTraceSink multi;
  multi.add(&null_sink);
  multi.add(&rec);
  multi.add(nullptr);  // ignored
  SynthesisOptions options;
  options.max_nodes = 2000;
  options.trace_sink = &multi;
  const SynthesisResult r = synthesize(fig1(), options);
  EXPECT_EQ(rec.count(TraceEventKind::kNodeExpanded),
            r.stats.nodes_expanded);
}

}  // namespace
}  // namespace rmrls
