#include "obs/metrics.hpp"

#include <ostream>

#include "obs/json.hpp"
#include "rev/circuit_stats.hpp"
#include "rev/quantum_cost.hpp"

namespace rmrls {

const std::vector<std::string>& metrics_required_keys() {
  static const std::vector<std::string> keys = {
      "schema",        "success",     "termination", "nodes_expanded",
      "children_created", "children_pushed", "solutions_found",
      "elapsed_us",    "gates",       "quantum_cost", "workers",
      "dense_kernel",  "representation_switches",
      "cancelled",     "watchdog_fired",
  };
  return keys;
}

MetricsRegistry::MetricsRegistry() { set("schema", kMetricsSchema); }

MetricsRegistry& MetricsRegistry::set(std::string_view key,
                                      std::string_view value) {
  fields_.emplace_back(std::string(key), '"' + json_escape(value) + '"');
  return *this;
}
MetricsRegistry& MetricsRegistry::set(std::string_view key,
                                      std::int64_t value) {
  fields_.emplace_back(std::string(key), std::to_string(value));
  return *this;
}
MetricsRegistry& MetricsRegistry::set(std::string_view key,
                                      std::uint64_t value) {
  fields_.emplace_back(std::string(key), std::to_string(value));
  return *this;
}
MetricsRegistry& MetricsRegistry::set(std::string_view key, int value) {
  fields_.emplace_back(std::string(key), std::to_string(value));
  return *this;
}
MetricsRegistry& MetricsRegistry::set(std::string_view key, double value) {
  fields_.emplace_back(std::string(key), json_number(value));
  return *this;
}
MetricsRegistry& MetricsRegistry::set(std::string_view key, bool value) {
  fields_.emplace_back(std::string(key), value ? "true" : "false");
  return *this;
}

MetricsRegistry& MetricsRegistry::add_stats(const SynthesisStats& stats,
                                            TerminationReason termination) {
  set("termination", std::string_view(to_string(termination)));
  set("nodes_expanded", stats.nodes_expanded);
  set("children_created", stats.children_created);
  set("children_pushed", stats.children_pushed);
  set("pruned_elim", stats.pruned_elim);
  set("pruned_depth", stats.pruned_depth);
  set("pruned_max_gates", stats.pruned_max_gates);
  set("pruned_duplicate", stats.pruned_duplicate);
  set("pruned_greedy", stats.pruned_greedy);
  set("pruned_stale", stats.pruned_stale);
  set("dropped_queue_full", stats.dropped_queue_full);
  set("restarts", stats.restarts);
  set("solutions_found", stats.solutions_found);
  // Every search runs on one thread; the key stays because v1 requires it.
  set("workers", 1);
  set("dense_kernel", stats.dense_kernel);
  set("representation_switches", stats.representation_switches);
  set("cancelled", stats.cancelled);
  set("watchdog_fired", stats.watchdog_fired);
  // Chess-engine search core counters (PR 7). Not in the required-key
  // set, so pre-existing v1 records stay valid; when present they are
  // checked by validate_metrics_line (evictions <= inserts,
  // id_iterations >= 1).
  set("tt_inserts", stats.tt_inserts);
  set("tt_evictions", stats.tt_evictions);
  set("tt_generation", stats.tt_generation);
  set("id_iterations", stats.id_iterations);
  set("history_hits", stats.history_hits);
  set("nodes_at_best", stats.nodes_at_best);
  set("elapsed_us",
      static_cast<std::uint64_t>(stats.elapsed.count() < 0
                                     ? 0
                                     : stats.elapsed.count()));
  return *this;
}

MetricsRegistry& MetricsRegistry::add_profile(const PhaseProfile& profile) {
  JsonObject phases;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const PhaseProfile::Entry& e = profile.entries[i];
    if (e.calls == 0) continue;
    JsonObject entry;
    entry.field("calls", e.calls).field("ns", e.nanos);
    phases.raw(to_string(static_cast<Phase>(i)), entry.str());
  }
  fields_.emplace_back("phases", phases.str());
  return *this;
}

MetricsRegistry& MetricsRegistry::add_circuit(const Circuit& circuit) {
  const CircuitStats cs = analyze(circuit);
  set("gates", cs.gates);
  set("quantum_cost", static_cast<std::int64_t>(quantum_cost(circuit)));
  set("circuit_depth", cs.depth);
  set("lines", cs.lines);
  set("controls_total", cs.controls_total);
  set("fits_nct", cs.fits_nct);
  return *this;
}

std::string MetricsRegistry::to_json() const {
  JsonObject o;
  for (const auto& [key, rendered] : fields_) o.raw(key, rendered);
  return o.str();
}

void MetricsWriter::write(const MetricsRegistry& record) {
  out_ << record.to_json() << '\n';
}

}  // namespace rmrls
