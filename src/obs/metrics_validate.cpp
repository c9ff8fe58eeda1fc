#include "obs/metrics_validate.hpp"

#include <cctype>

#include "core/options.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace rmrls {

namespace {

bool is_hex16(const std::string& s) {
  if (s.size() != 16) return false;
  for (const char c : s) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

void MetricsValidator::begin_stream() {
  have_heartbeat_ = false;
  prev_seq_ = 0.0;
  prev_uptime_ = 0.0;
}

bool MetricsValidator::fail(const std::string& where,
                            const std::string& message) {
  errors_.push_back(where + ": " + message);
  return false;
}

bool MetricsValidator::check_line(const std::string& line,
                                  const std::string& where) {
  ++records_;
  const auto parsed = json_parse(line);
  if (!parsed || !parsed->is_object()) {
    return fail(where, "line is not a JSON object: " + line);
  }
  const JsonValue* schema = parsed->find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return fail(where, "missing schema tag");
  }
  if (schema->string == kMetricsSchema) return check_v1(*parsed, where);
  if (schema->string == kMetricsSchemaV2) {
    const JsonValue* record = parsed->find("record");
    if (record == nullptr || !record->is_string()) {
      return fail(where, "v2 record lacks a string 'record' kind");
    }
    if (record->string != "heartbeat") {
      return fail(where, "unknown v2 record kind '" + record->string + "'");
    }
    return check_heartbeat(*parsed, where);
  }
  return fail(where, "unknown schema tag '" + schema->string + "' (want " +
                         std::string(kMetricsSchema) + " or " +
                         std::string(kMetricsSchemaV2) + ")");
}

bool MetricsValidator::check_v1(const JsonValue& v, const std::string& where) {
  for (const std::string& key : metrics_required_keys()) {
    if (v.find(key) == nullptr) {
      return fail(where, "missing required key '" + key + "'");
    }
  }
  const JsonValue* termination = v.find("termination");
  const std::string& t = termination->string;
  if (!termination->is_string() ||
      (t != "solved" && t != "node_budget" && t != "time_limit" &&
       t != "queue_exhausted" && t != "cancelled")) {
    return fail(where, "unknown termination reason '" + t + "'");
  }
  const JsonValue* success = v.find("success");
  const JsonValue* gates = v.find("gates");
  const JsonValue* cost = v.find("quantum_cost");
  if (success->type != JsonValue::Type::kBool || !gates->is_number() ||
      !cost->is_number()) {
    return fail(where, "success/gates/quantum_cost have wrong types");
  }
  if (success->boolean ? gates->number < 0 : gates->number != -1) {
    return fail(where, "gates (" + std::to_string(gates->number) +
                           ") inconsistent with success flag");
  }
  const JsonValue* nodes = v.find("nodes_expanded");
  if (!nodes->is_number() || nodes->number < 0) {
    return fail(where, "nodes_expanded is not a non-negative number");
  }
  const JsonValue* workers = v.find("workers");
  if (!workers->is_number() || workers->number < 1) {
    return fail(where, "workers is not a number >= 1");
  }
  const JsonValue* dense = v.find("dense_kernel");
  if (dense->type != JsonValue::Type::kBool) {
    return fail(where, "dense_kernel is not a bool");
  }
  const JsonValue* switches = v.find("representation_switches");
  if (!switches->is_number() || switches->number < 0) {
    return fail(where, "representation_switches is not a non-negative number");
  }
  // Resilience fields (docs/robustness.md): the two flags are required by
  // the schema; the engine label and verification flag only appear on
  // --resilient runs.
  const JsonValue* cancelled = v.find("cancelled");
  const JsonValue* watchdog = v.find("watchdog_fired");
  if (cancelled->type != JsonValue::Type::kBool ||
      watchdog->type != JsonValue::Type::kBool) {
    return fail(where, "cancelled/watchdog_fired are not bools");
  }
  const JsonValue* engine = v.find("fallback_engine");
  if (engine != nullptr) {
    const std::string& e = engine->string;
    if (!engine->is_string() ||
        (e != "none" && e != "best_first" && e != "greedy" &&
         e != "transformation_based")) {
      return fail(where, "unknown fallback_engine '" + e + "'");
    }
    const JsonValue* verified = v.find("verified");
    if (verified == nullptr || verified->type != JsonValue::Type::kBool) {
      return fail(where, "fallback_engine without a boolean 'verified'");
    }
  }
  // Optional batch-span correlation id (docs/observability.md): 16 hex
  // digits, same spelling as trace events and heartbeat active sets.
  const JsonValue* trace_id = v.find("trace_id");
  if (trace_id != nullptr &&
      (!trace_id->is_string() || !is_hex16(trace_id->string))) {
    return fail(where, "trace_id is not a 16-hex-digit string");
  }
  // Optional serve-daemon outcome (docs/serving.md): the StatusCode the
  // request finished with, spelled the way to_string(StatusCode) does. A
  // shed request carries "unavailable" with success=false and no circuit.
  const JsonValue* serve_status = v.find("serve_status");
  if (serve_status != nullptr) {
    const std::string& s = serve_status->string;
    if (!serve_status->is_string() ||
        (s != "ok" && s != "invalid_argument" && s != "parse_error" &&
         s != "invalid_spec" && s != "budget_exhausted" && s != "cancelled" &&
         s != "internal" && s != "unavailable")) {
      return fail(where, "unknown serve_status '" + s + "'");
    }
    if (s == "ok" && !(success->boolean)) {
      return fail(where, "serve_status ok with success=false");
    }
    if (s != "ok" && success->boolean) {
      return fail(where, "serve_status '" + s + "' with success=true");
    }
  }
  // Optional cache / batch fields (docs/caching.md). Single-shot records
  // carry cache_hits/cache_misses when a cache was armed; a batch summary
  // record additionally carries batch_jobs and the orbit/dedup counters
  // with their invariants.
  const JsonValue* cache_hits = v.find("cache_hits");
  const JsonValue* cache_misses = v.find("cache_misses");
  if ((cache_hits == nullptr) != (cache_misses == nullptr)) {
    return fail(where, "cache_hits and cache_misses must appear together");
  }
  if (cache_hits != nullptr &&
      (!cache_hits->is_number() || cache_hits->number < 0 ||
       !cache_misses->is_number() || cache_misses->number < 0)) {
    return fail(where, "cache_hits/cache_misses are not non-negative numbers");
  }
  const JsonValue* batch_jobs = v.find("batch_jobs");
  if (batch_jobs != nullptr) {
    // Zero jobs is a valid batch: an empty corpus, or a fleet shard that
    // owns no specs (docs/fleet.md) — its summary record still validates.
    if (!batch_jobs->is_number() || batch_jobs->number < 0) {
      return fail(where, "batch_jobs is not a number >= 0");
    }
    const JsonValue* orbit_hits = v.find("cache_orbit_hits");
    const JsonValue* dedup = v.find("batch_dedup");
    if (cache_hits == nullptr || orbit_hits == nullptr || dedup == nullptr ||
        !orbit_hits->is_number() || orbit_hits->number < 0 ||
        !dedup->is_number() || dedup->number < 0) {
      return fail(where,
                  "batch record lacks non-negative cache_hits/"
                  "cache_misses/cache_orbit_hits/batch_dedup");
    }
    if (orbit_hits->number > cache_hits->number) {
      return fail(where, "cache_orbit_hits exceeds cache_hits");
    }
    if (cache_hits->number + cache_misses->number + dedup->number >
        batch_jobs->number) {
      return fail(where,
                  "cache_hits + cache_misses + batch_dedup exceeds"
                  " batch_jobs");
    }
    // Checkpoint-resumed jobs (docs/fleet.md): optional, bounded by the
    // job count like every other per-job bucket.
    const JsonValue* skipped = v.find("batch_skipped");
    if (skipped != nullptr &&
        (!skipped->is_number() || skipped->number < 0 ||
         skipped->number > batch_jobs->number)) {
      return fail(where,
                  "batch_skipped is not a number in [0, batch_jobs]");
    }
  }
  // Optional transposition-table / search-core fields (PR 7). Old records
  // may omit them entirely, but when the group is present its invariants
  // hold: a table can only evict slots it inserted into, and
  // id_iterations is at least 1 (new records always carry 1; older ones
  // counted the passes of a deepening ladder and may carry more).
  const JsonValue* tt_inserts = v.find("tt_inserts");
  const JsonValue* tt_evictions = v.find("tt_evictions");
  if ((tt_inserts == nullptr) != (tt_evictions == nullptr)) {
    return fail(where, "tt_inserts and tt_evictions must appear together");
  }
  if (tt_inserts != nullptr) {
    if (!tt_inserts->is_number() || tt_inserts->number < 0 ||
        !tt_evictions->is_number() || tt_evictions->number < 0) {
      return fail(where,
                  "tt_inserts/tt_evictions are not non-negative numbers");
    }
    if (tt_evictions->number > tt_inserts->number) {
      return fail(where, "tt_evictions exceeds tt_inserts");
    }
  }
  const JsonValue* tt_generation = v.find("tt_generation");
  if (tt_generation != nullptr &&
      (!tt_generation->is_number() || tt_generation->number < 0)) {
    return fail(where, "tt_generation is not a non-negative number");
  }
  const JsonValue* id_iterations = v.find("id_iterations");
  if (id_iterations != nullptr &&
      (!id_iterations->is_number() || id_iterations->number < 1)) {
    return fail(where, "id_iterations is not a number >= 1");
  }
  const JsonValue* history_hits = v.find("history_hits");
  if (history_hits != nullptr &&
      (!history_hits->is_number() || history_hits->number < 0)) {
    return fail(where, "history_hits is not a non-negative number");
  }
  const JsonValue* nodes_at_best = v.find("nodes_at_best");
  if (nodes_at_best != nullptr) {
    const JsonValue* nodes = v.find("nodes_expanded");
    if (!nodes_at_best->is_number() || nodes_at_best->number < 0 ||
        nodes == nullptr || !nodes->is_number() ||
        nodes_at_best->number > nodes->number) {
      return fail(where, "nodes_at_best is not in [0, nodes_expanded]");
    }
  }
  // Optional per-shard transposition hit counts, which records from
  // builds with a parallel search engine carry: an array of non-negative
  // numbers whose sum cannot exceed the total duplicate prunes.
  const JsonValue* shard_hits = v.find("tt_shard_hits");
  if (shard_hits != nullptr) {
    if (shard_hits->type != JsonValue::Type::kArray) {
      return fail(where, "tt_shard_hits is not an array");
    }
    double sum = 0.0;
    for (const JsonValue& e : shard_hits->array) {
      if (!e.is_number() || e.number < 0) {
        return fail(where,
                    "tt_shard_hits element is not a non-negative number");
      }
      sum += e.number;
    }
    const JsonValue* duplicates = v.find("pruned_duplicate");
    if (duplicates == nullptr || !duplicates->is_number() ||
        sum > duplicates->number) {
      return fail(where, "tt_shard_hits sum exceeds pruned_duplicate");
    }
  }
  return true;
}

bool MetricsValidator::check_heartbeat(const JsonValue& v,
                                       const std::string& where) {
  const JsonValue* seq = v.find("seq");
  const JsonValue* uptime = v.find("uptime_ns");
  const JsonValue* mono = v.find("mono_ns");
  if (seq == nullptr || !seq->is_number() || seq->number < 0) {
    return fail(where, "heartbeat lacks a non-negative 'seq'");
  }
  if (uptime == nullptr || !uptime->is_number() || uptime->number < 0) {
    return fail(where, "heartbeat lacks a non-negative 'uptime_ns'");
  }
  if (mono == nullptr || !mono->is_number() || mono->number < 0) {
    return fail(where, "heartbeat lacks a non-negative 'mono_ns'");
  }
  const JsonValue* counters = v.find("counters");
  const JsonValue* gauges = v.find("gauges");
  const JsonValue* histograms = v.find("histograms");
  if (counters == nullptr || !counters->is_object() || gauges == nullptr ||
      !gauges->is_object() || histograms == nullptr ||
      !histograms->is_object()) {
    return fail(where,
                "heartbeat lacks counters/gauges/histograms objects");
  }
  for (const auto& [name, c] : counters->object) {
    if (!c.is_number() || c.number < 0) {
      return fail(where, "counter '" + name + "' is not non-negative");
    }
  }
  for (const auto& [name, g] : gauges->object) {
    if (!g.is_number()) {
      return fail(where, "gauge '" + name + "' is not a number");
    }
  }
  for (const auto& [name, h] : histograms->object) {
    const JsonValue* count = h.find("count");
    const JsonValue* sum = h.find("sum");
    const JsonValue* buckets = h.find("buckets");
    if (!h.is_object() || count == nullptr || !count->is_number() ||
        count->number < 0 || sum == nullptr || !sum->is_number() ||
        buckets == nullptr || buckets->type != JsonValue::Type::kArray) {
      return fail(where, "histogram '" + name +
                             "' lacks count/sum/buckets fields");
    }
    double bucket_sum = 0.0;
    for (const JsonValue& b : buckets->array) {
      if (!b.is_number() || b.number < 0) {
        return fail(where, "histogram '" + name +
                               "' bucket is not a non-negative number");
      }
      bucket_sum += b.number;
    }
    if (bucket_sum != count->number) {
      return fail(where, "histogram '" + name + "' buckets sum to " +
                             std::to_string(bucket_sum) + ", count says " +
                             std::to_string(count->number));
    }
  }
  const JsonValue* active = v.find("active");
  if (active != nullptr) {
    if (active->type != JsonValue::Type::kArray) {
      return fail(where, "heartbeat 'active' is not an array");
    }
    for (const JsonValue& id : active->array) {
      if (!id.is_string() || !is_hex16(id.string)) {
        return fail(where,
                    "active trace id is not a 16-hex-digit string");
      }
    }
  }
  // Per-stream monotonicity: seq strictly increases, uptime never runs
  // backwards. The first heartbeat of a stream only seeds the state.
  if (have_heartbeat_) {
    if (seq->number <= prev_seq_) {
      return fail(where, "heartbeat seq not strictly increasing");
    }
    if (uptime->number < prev_uptime_) {
      return fail(where, "heartbeat uptime_ns ran backwards");
    }
  }
  have_heartbeat_ = true;
  prev_seq_ = seq->number;
  prev_uptime_ = uptime->number;
  ++heartbeats_;
  return true;
}

}  // namespace rmrls
