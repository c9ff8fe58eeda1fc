#include "bench/e2e/tracing.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <ostream>
#include <thread>
#include <tuple>

#include "io/tfc.hpp"
#include "obs/json.hpp"
#include "rev/canonical.hpp"
#include "rev/equivalence.hpp"
#include "rev/pprm_transform.hpp"

namespace rmrls::e2e {

namespace {

struct KindInfo {
  const char* name;
  const char* layer;
};

constexpr std::array<KindInfo, static_cast<std::size_t>(SpanKind::kCount)>
    kKinds = {{
        {"job", "core.batch"},
        {"parse", "io"},
        {"canonicalize", "rev.canonical"},
        {"spec_pprm", "rev.equivalence"},
        {"acquire", "core.synth_cache"},
        {"reconstruct", "rev.equivalence"},
        {"verify", "rev.equivalence"},
        {"synthesize_resilient", "core.resilient"},
        {"search.setup", "core.synthesizer"},
        {"search.pass", "core.synthesizer"},
        {"search.refine", "core.synthesizer"},
        {"search.gap", "core.synthesizer"},
        {"publish", "core.synth_cache"},
        {"write_tfc", "io"},
    }};

/// Layers in report order, with the short name used in trace.self_share.*.
constexpr std::array<std::pair<const char*, const char*>, 7> kLayers = {{
    {"io", "io"},
    {"rev.canonical", "canonical"},
    {"rev.equivalence", "equivalence"},
    {"core.synth_cache", "synth_cache"},
    {"core.synthesizer", "synthesizer"},
    {"core.resilient", "resilient"},
    {"core.batch", "batch"},
}};

void account(SearchTotals& t, const ResilientResult& r) {
  const SynthesisStats& s = r.result.stats;
  ++t.calls;
  t.nodes_expanded += s.nodes_expanded;
  t.nodes_at_best += s.nodes_at_best;
  t.tt_inserts += s.tt_inserts;
  t.tt_evictions += s.tt_evictions;
  t.tt_dup_prunes += s.pruned_duplicate;
  t.id_iterations += s.id_iterations;
  t.history_hits += s.history_hits;
  if (r.engine == FallbackEngine::kGreedy) ++t.fallback_greedy;
  if (r.engine == FallbackEngine::kTransformationBased) ++t.fallback_tbs;
  if (!r.status.ok()) ++t.failed;
}

double us(std::int64_t ns) { return static_cast<double>(ns) / 1000.0; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

const char* span_name(SpanKind kind) {
  return kKinds[static_cast<std::size_t>(kind)].name;
}

const char* span_layer(SpanKind kind) {
  return kKinds[static_cast<std::size_t>(kind)].layer;
}

int ThreadTrace::open(SpanKind kind, int parent, std::uint32_t job,
                      int vars) {
  Span s;
  s.kind = kind;
  s.vars = static_cast<std::uint8_t>(vars);
  s.parent = parent;
  s.job = job;
  s.pass = pass;
  spans.push_back(s);
  // Stamped after the push, so a buffer reallocation is never charged to
  // the span being opened.
  spans.back().t0 = now_ns();
  return static_cast<int>(spans.size()) - 1;
}

void ThreadTrace::begin_resilient(int span) {
  resilient_ = span;
  refining_ = false;
  passes_.clear();
}

void ThreadTrace::end_resilient() {
  close(resilient_);
  const Span res = spans[static_cast<std::size_t>(resilient_)];
  const auto child = [&](SpanKind kind, std::int64_t t0, std::int64_t t1) {
    Span s;
    s.kind = kind;
    s.vars = res.vars;
    s.parent = resilient_;
    s.job = res.job;
    s.t0 = t0;
    s.t1 = t1;
    spans.push_back(s);
  };
  if (!passes_.empty()) {
    child(SpanKind::kSearchSetup, res.t0,
          spans[static_cast<std::size_t>(passes_.front())].t0);
    for (std::size_t i = 1; i < passes_.size(); ++i) {
      child(SpanKind::kSearchGap,
            spans[static_cast<std::size_t>(passes_[i - 1])].t1,
            spans[static_cast<std::size_t>(passes_[i])].t0);
    }
  }
  resilient_ = -1;
}

void ThreadTrace::on_event(const TraceEvent& event) {
  if (resilient_ < 0) return;
  const auto ts = static_cast<std::int64_t>(event.timestamp_ns);
  switch (event.kind) {
    case TraceEventKind::kRunBegin:
      pass_t0_ = ts;
      break;
    case TraceEventKind::kRefinementRound:
      refining_ = true;
      break;
    case TraceEventKind::kRunEnd: {
      const Span& res = spans[static_cast<std::size_t>(resilient_)];
      Span s;
      s.kind = refining_ ? SpanKind::kSearchRefine : SpanKind::kSearchPass;
      s.vars = res.vars;
      s.parent = resilient_;
      s.job = res.job;
      s.t0 = pass_t0_;
      s.t1 = ts;
      spans.push_back(s);
      passes_.push_back(static_cast<int>(spans.size()) - 1);
      break;
    }
    default:
      break;
  }
}

JobOutcome traced_synthesize_cached(const TruthTable& spec, SynthCache* cache,
                                    ResilienceOptions resilience,
                                    ThreadTrace& trace, int job_span) {
  resilience.search.trace_sink = &trace;
  // Only run begin/end and refinement events are wanted; at this interval
  // the per-node events never fire.
  resilience.search.trace_sample_interval = std::uint64_t{1} << 30;
  resilience.search.phase_profile = &trace.profile;
  const int n = spec.num_vars();
  const std::uint32_t job = trace.spans[static_cast<std::size_t>(job_span)].job;
  const auto timed = [&](SpanKind kind, auto&& call) {
    const int s = trace.open(kind, job_span, job, n);
    auto value = call();
    trace.close(s);
    return value;
  };
  const auto resilient = [&](const TruthTable& target) {
    const int s = trace.open(SpanKind::kResilient, job_span, job, n);
    trace.begin_resilient(s);
    ResilientResult r = synthesize_resilient(target, resilience);
    trace.end_resilient();
    account(trace.search, r);
    return r;
  };

  JobOutcome out;
  if (cache == nullptr) {
    ResilientResult r = resilient(spec);
    out.ok = r.status.ok();
    out.circuit = std::move(r.result.circuit);
    return out;
  }

  const CanonicalForm form =
      timed(SpanKind::kCanonicalize, [&] { return canonicalize(spec); });
  const Pprm spec_pprm =
      timed(SpanKind::kSpecPprm, [&] { return pprm_of_truth_table(spec); });
  const int acquire_span = trace.open(SpanKind::kAcquire, job_span, job, n);
  SynthCache::Acquisition acq = cache->acquire(form.key);
  trace.close(acquire_span);
  Span& acquired = trace.spans[static_cast<std::size_t>(acquire_span)];
  acquired.outcome = static_cast<std::uint8_t>(acq.outcome);
  acquired.key = form.key;

  const auto rebuild_and_verify = [&](const Circuit& rep_circuit) {
    Circuit rebuilt = timed(SpanKind::kReconstruct, [&] {
      return reconstruct_circuit(rep_circuit, form.transform);
    });
    const bool ok = timed(SpanKind::kVerify,
                          [&] { return equivalent(rebuilt, spec_pprm); });
    if (ok) {
      out.ok = true;
      out.circuit = std::move(rebuilt);
    }
    return ok;
  };

  if (acq.outcome != SynthCache::Outcome::kLead && acq.circuit.has_value() &&
      rebuild_and_verify(*acq.circuit)) {
    out.from_cache = true;
    return out;
  }

  ResilientResult r = resilient(form.representative);
  const bool lead = acq.outcome == SynthCache::Outcome::kLead;
  const bool success = r.status.ok() && r.result.success;
  if (lead || success) {
    const int publish_span = trace.open(SpanKind::kPublish, job_span, job, n);
    if (lead) {
      cache->publish(form.key, success ? &r.result.circuit : nullptr);
    } else {
      cache->insert(form.key, r.result.circuit);
    }
    trace.close(publish_span);
  }
  if (success) rebuild_and_verify(r.result.circuit);
  return out;
}

std::vector<JobOutcome> traced_pass(
    const std::vector<TruthTable>& specs, int threads, SynthCache* cache,
    const ResilienceOptions& resilience, std::uint16_t pass,
    std::vector<std::unique_ptr<ThreadTrace>>& traces) {
  while (traces.size() < static_cast<std::size_t>(threads)) {
    traces.push_back(std::make_unique<ThreadTrace>());
    // Room for a pass of the largest workload, so buffer growth (a copy of
    // every span so far) rarely lands inside a job.
    traces.back()->spans.reserve(std::size_t{1} << 18);
  }
  for (auto& t : traces) t->pass = pass;
  std::vector<JobOutcome> outcomes(specs.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&](int thread) {
    ThreadTrace& tr = *traces[static_cast<std::size_t>(thread)];
    for (std::size_t i = next.fetch_add(1); i < specs.size();
         i = next.fetch_add(1)) {
      const auto job_id = static_cast<std::uint32_t>(i);
      const int n = specs[i].num_vars();
      const int job = tr.open(SpanKind::kJob, -1, job_id, n);
      outcomes[i] =
          traced_synthesize_cached(specs[i], cache, resilience, tr, job);
      const int write = tr.open(SpanKind::kWrite, job, job_id, n);
      const std::string tfc = write_tfc(outcomes[i].circuit);
      tr.close(write);
      tr.close(job);
    }
  };
  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (std::thread& th : pool) th.join();
  }
  return outcomes;
}

void add_layer_metrics(const LayerInputs& in, WorkloadResult& out) {
  constexpr std::size_t kKindCount = static_cast<std::size_t>(SpanKind::kCount);
  std::array<std::vector<double>, kKindCount> dur_us;  // per kind
  std::array<double, 8> canon_us_by_width{};
  std::array<double, 8> canon_n_by_width{};
  std::vector<double> acquire_ram_us, acquire_disk_us, resilient_tail_us;
  std::array<double, kLayers.size()> self_us{};
  // Served acquires: (pass, key, start, us). A pass's first acquire of a key
  // is the one its fresh SynthCache revived from disk; later ones hit RAM.
  std::vector<std::tuple<std::uint16_t, std::uint64_t, std::int64_t, double>>
      hits;
  double covered_us = 0.0;
  std::uint64_t jobs_covered = 0;
  double job_us_total = 0.0;
  std::uint64_t jobs = 0;
  SearchTotals st;
  PhaseProfile profile;

  for (const ThreadTrace* t : in.traces) {
    const std::vector<Span>& spans = t->spans;
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::int64_t ns = s.t1 - s.t0;
      const double self = us(ns - child_ns[i]);
      dur_us[static_cast<std::size_t>(s.kind)].push_back(us(ns));
      for (std::size_t l = 0; l < kLayers.size(); ++l) {
        if (std::string_view(kLayers[l].first) == span_layer(s.kind)) {
          self_us[l] += self;
        }
      }
      switch (s.kind) {
        case SpanKind::kJob:
          ++jobs;
          job_us_total += us(ns);
          covered_us += us(child_ns[i]);
          if (child_ns[i] >= ns * 9 / 10) ++jobs_covered;
          break;
        case SpanKind::kCanonicalize:
          if (s.vars < canon_us_by_width.size()) {
            canon_us_by_width[s.vars] += us(ns);
            canon_n_by_width[s.vars] += 1;
          }
          break;
        case SpanKind::kAcquire:
          if (s.outcome ==
              static_cast<std::uint8_t>(SynthCache::Outcome::kHit)) {
            hits.emplace_back(s.pass, s.key, s.t0, us(ns));
          }
          break;
        case SpanKind::kResilient:
          resilient_tail_us.push_back(self);
          break;
        default:
          break;
      }
    }
    st += t->search;
    profile.merge(t->profile);
  }
  std::sort(hits.begin(), hits.end());
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const bool first = i == 0 ||
                       std::get<0>(hits[i - 1]) != std::get<0>(hits[i]) ||
                       std::get<1>(hits[i - 1]) != std::get<1>(hits[i]);
    (first ? acquire_disk_us : acquire_ram_us).push_back(std::get<3>(hits[i]));
  }

  const auto of = [&](SpanKind kind) -> const std::vector<double>& {
    return dur_us[static_cast<std::size_t>(kind)];
  };
  const auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
  };
  const auto count = [&](SpanKind kind) {
    return static_cast<double>(of(kind).size());
  };
  const double busy_den = static_cast<double>(in.threads) * in.wall_s * 1e6;
  const double calls = static_cast<double>(st.calls);
  const auto per_call = [&](double v) { return ratio(v, calls); };
  const auto per_call_n = [&](std::uint64_t v) {
    return per_call(static_cast<double>(v));
  };

  out.add("io.parse_us_per_spec",
          ratio(sum(of(SpanKind::kParse)),
                static_cast<double>(in.specs_parsed)),
          "us");
  out.add("io.write_us_per_job", mean(of(SpanKind::kWrite)), "us");

  out.add("canonical.calls", count(SpanKind::kCanonicalize), "count");
  out.add("canonical.us_p50", quantile(of(SpanKind::kCanonicalize), 0.5), "us");
  out.add("canonical.us_p99", quantile(of(SpanKind::kCanonicalize), 0.99),
          "us");
  for (int w = 3; w <= 7; ++w) {
    out.add("canonical.us_mean.w" + std::to_string(w),
            ratio(canon_us_by_width[static_cast<std::size_t>(w)],
                  canon_n_by_width[static_cast<std::size_t>(w)]),
            "us");
  }
  out.add("canonical.busy_frac",
          ratio(sum(of(SpanKind::kCanonicalize)), busy_den), "ratio");

  out.add("verify.calls", count(SpanKind::kVerify), "count");
  out.add("verify.us_p50", quantile(of(SpanKind::kVerify), 0.5), "us");
  out.add("verify.us_p99", quantile(of(SpanKind::kVerify), 0.99), "us");
  out.add("reconstruct.us_p50", quantile(of(SpanKind::kReconstruct), 0.5),
          "us");

  const double acquires = count(SpanKind::kAcquire);
  out.add("cache.acquires", acquires, "count");
  out.add("cache.hits", static_cast<double>(in.cache.hits), "count");
  out.add("cache.disk_hits", static_cast<double>(in.cache.disk_hits), "count");
  out.add("cache.misses", static_cast<double>(in.cache.misses), "count");
  out.add("cache.dedup_waits", static_cast<double>(in.cache.dedup_waits),
          "count");
  out.add("cache.evictions", static_cast<double>(in.cache.evictions), "count");
  out.add("cache.hit_ratio",
          ratio(static_cast<double>(in.cache.hits + in.cache.disk_hits),
                acquires),
          "ratio");
  out.add("cache.acquire_us_p50.hit", quantile(acquire_ram_us, 0.5), "us");
  out.add("cache.acquire_us_p50.disk_hit", quantile(acquire_disk_us, 0.5),
          "us");
  out.add("cache.acquire_us_p99", quantile(of(SpanKind::kAcquire), 0.99),
          "us");
  out.add("cache.publish_us_p50", quantile(of(SpanKind::kPublish), 0.5), "us");

  const double pass_us = sum(of(SpanKind::kSearchPass));
  const double refine_us = sum(of(SpanKind::kSearchRefine));
  out.add("search.calls", calls, "count");
  out.add("search.setup_us_p50", quantile(of(SpanKind::kSearchSetup), 0.5),
          "us");
  out.add("search.setup_share",
          ratio(sum(of(SpanKind::kSearchSetup)), sum(of(SpanKind::kResilient))),
          "ratio");
  out.add("search.passes_per_call",
          per_call(count(SpanKind::kSearchPass) +
                   count(SpanKind::kSearchRefine)),
          "count");
  out.add("search.ladder_us", per_call(pass_us), "us");
  out.add("search.refine_us", per_call(refine_us), "us");
  out.add("search.tail_us_p50", quantile(resilient_tail_us, 0.5), "us");
  out.add("search.nodes_expanded", per_call_n(st.nodes_expanded), "count");
  out.add("search.nodes_per_s",
          ratio(static_cast<double>(st.nodes_expanded),
                (pass_us + refine_us) / 1e6),
          "1/s");
  out.add("search.nodes_at_best", per_call_n(st.nodes_at_best), "count");
  out.add("search.useful_ratio",
          ratio(static_cast<double>(st.nodes_at_best),
                static_cast<double>(st.nodes_expanded)),
          "ratio");
  out.add("search.tt_inserts", per_call_n(st.tt_inserts), "count");
  out.add("search.tt_evictions", per_call_n(st.tt_evictions), "count");
  out.add("search.tt_dup_prunes", per_call_n(st.tt_dup_prunes), "count");
  out.add("search.id_iterations", per_call_n(st.id_iterations), "count");
  out.add("search.history_hits", per_call_n(st.history_hits), "count");
  const auto phase_us = [&](Phase phase) {
    return per_call(static_cast<double>(profile[phase].nanos) / 1000.0);
  };
  out.add("search.phase.factor_enum_us", phase_us(Phase::kFactorEnum), "us");
  out.add("search.phase.substitute_us", phase_us(Phase::kSubstitute), "us");
  out.add("search.phase.heap_us", phase_us(Phase::kHeapOps), "us");

  out.add("resilient.fallback_greedy", static_cast<double>(st.fallback_greedy),
          "count");
  out.add("resilient.fallback_tbs", static_cast<double>(st.fallback_tbs),
          "count");
  out.add("resilient.failed", static_cast<double>(st.failed), "count");

  out.add("batch.wall_us",
          ratio(in.wall_s * 1e6, static_cast<double>(in.passes)), "us");
  out.add("batch.busy_frac", ratio(job_us_total, busy_den), "ratio");

  out.add("trace.throughput_jobs_per_s",
          ratio(static_cast<double>(jobs), in.wall_s), "jobs/s");
  const double coverage = ratio(covered_us, job_us_total);
  if (jobs > 0 && coverage < 0.9) {
    out.violation("layer spans cover only " + std::to_string(coverage) +
                  " of job time (want >= 0.9)");
  }
  out.add("trace.span_coverage", coverage, "ratio");
  out.add("trace.jobs_covered_90pct",
          ratio(static_cast<double>(jobs_covered), static_cast<double>(jobs)),
          "ratio");
  const double traced_us = job_us_total + sum(of(SpanKind::kParse));
  for (std::size_t l = 0; l < kLayers.size(); ++l) {
    out.add(std::string("trace.self_share.") + kLayers[l].second,
            ratio(self_us[l], traced_us), "ratio");
  }
}

void add_serve_metrics(const ServeLayer& s, WorkloadResult& out) {
  out.add("serve.accept_us_p50", s.accept_us_p50, "us");
  out.add("serve.accept_us_p99", s.accept_us_p99, "us");
  out.add("serve.server_us_p50", s.server_us_p50, "us");
  out.add("serve.server_us_p99", s.server_us_p99, "us");
  out.add("serve.queue_wait_us_p99", s.queue_wait_us_p99, "us");
  out.add("serve.shed", s.shed, "count");
  out.add("serve.queue_depth_max", s.queue_depth_max, "count");
  out.add("serve.cache_hit_ratio", s.cache_hit_ratio, "ratio");
  out.add("gen.lag_ms_p99", s.lag_ms_p99, "ms");
  out.add("gen.lag_ms_max", s.lag_ms_max, "ms");
}

void write_spans(const std::vector<const ThreadTrace*>& traces,
                 std::ostream& os) {
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const ThreadTrace* t : traces) {
    for (const Span& s : t->spans) origin = std::min(origin, s.t0);
  }
  for (std::size_t thread = 0; thread < traces.size(); ++thread) {
    const std::vector<Span>& spans = traces[thread]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      JsonObject o;
      o.field("thread", static_cast<std::uint64_t>(thread));
      o.field("id", static_cast<std::uint64_t>(i));
      o.field("parent", static_cast<std::int64_t>(s.parent));
      o.field("job", static_cast<std::uint64_t>(s.job));
      o.field("span", span_name(s.kind));
      o.field("layer", span_layer(s.kind));
      o.field("vars", static_cast<int>(s.vars));
      o.field("t0_ns", static_cast<std::int64_t>(s.t0 - origin));
      o.field("t1_ns", static_cast<std::int64_t>(s.t1 - origin));
      os << o.str() << '\n';
    }
  }
}

}  // namespace rmrls::e2e
