/// \file main.cpp
/// \brief rmrls_bench: the repository's end-to-end + per-layer benchmark
/// (bench/e2e/README.md).
///
///   rmrls_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
///               [--json FILE] [--repeat N] [--quick] [--trace-out FILE]
///               [--serve-bin PATH] [--work-dir DIR]
///
/// Without --workload it runs all four workloads. Each workload runs in a
/// forked child, so its peak RSS and CPU time (wait4 rusage) belong to it
/// alone. The last line of standard output is one JSON object: correct,
/// attempted, failed, and the metrics BENCHMARK.json names — the gated
/// end-to-end metrics for an untraced run, the per-layer metrics for a
/// traced one. Any oracle violation exits 1.

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>

#include "bench/e2e/bench.hpp"
#include "obs/json.hpp"

namespace {

using namespace rmrls;
using namespace rmrls::e2e;

constexpr const char* kWorkloads[] = {"cold_small", "cold_search",
                                      "orbit_warm", "serve_mixed"};

/// The end-to-end metrics BENCHMARK.json gates on; every workload reports
/// all of them. The others (latency_p99_ms, latency_p99_ms_high,
/// max_ok_rate_rps, fail_frac) are printed where they apply.
constexpr const char* kGated[] = {"setup_s",        "throughput_jobs_per_s",
                                  "latency_p50_ms", "gates_mean",
                                  "quantum_cost_mean", "peak_rss_mb"};

/// A workload process that outlives this is killed and the run fails.
constexpr auto kChildTimeout = std::chrono::seconds(170);

void help(std::ostream& os) {
  os << "usage: rmrls_bench [options]\n"
        "  --workload NAME   cold_small | cold_search | orbit_warm |\n"
        "                    serve_mixed (default: all four)\n"
        "  --seed N          input seed (default 1)\n"
        "  --seconds S       measured phase per workload (default 10)\n"
        "  --trace 0|1       1 = traced run: per-layer metrics\n"
        "  --trace-out FILE  traced run: write every span as JSONL\n"
        "  --json FILE       write all metrics of every workload run\n"
        "  --repeat N        A/A mode: N rounds on the same seed, workload\n"
        "                    order alternating; prints each metric's\n"
        "                    median, quartiles and spread\n"
        "  --quick           tiny sizes, 1 s, 2-rung serve ladder\n"
        "  --serve-bin PATH  rmrls-serve binary (default: next to this one)\n"
        "  --work-dir DIR    scratch directory (default .bench_build/work)\n";
}

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << "rmrls_bench: " << what << "\n";
  help(std::cerr);
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used == text.size() && std::isfinite(v) && v >= 0) return v;
  } catch (const std::exception&) {
  }
  usage_error("invalid number for " + flag + ": '" + text + "'");
}

WorkloadResult dispatch(const Config& cfg) {
  if (cfg.workload == "cold_small") return run_cold_small(cfg);
  if (cfg.workload == "cold_search") return run_cold_search(cfg);
  if (cfg.workload == "orbit_warm") return run_orbit_warm(cfg);
  return run_serve_mixed(cfg);
}

/// Appends `item` to a JSON array or object body opened with '[' or '{'.
void append(std::string& body, const std::string& item) {
  if (body.size() > 1) body += ',';
  body += item;
}

std::string quoted(const std::string& s) { return '"' + json_escape(s) + '"'; }

std::string encode(const WorkloadResult& r) {
  std::string metrics = "[";
  for (const Metric& m : r.metrics) {
    JsonObject o;
    o.field("name", m.name).field("value", m.value).field("unit", m.unit);
    append(metrics, o.str());
  }
  metrics += "]";
  std::string violations = "[";
  for (const std::string& v : r.violations) {
    append(violations, quoted(v));
  }
  violations += "]";
  JsonObject usage;
  usage.field("max_rss_mib", r.usage.max_rss_mib)
      .field("user_s", r.usage.user_s)
      .field("sys_s", r.usage.sys_s)
      .field("minor_faults", r.usage.minor_faults);
  JsonObject o;
  o.field("attempted", r.attempted).field("failed", r.failed);
  o.field("has_usage", r.has_usage).raw("usage", usage.str());
  o.raw("metrics", metrics).raw("violations", violations);
  return o.str();
}

WorkloadResult decode(const std::string& text) {
  WorkloadResult r;
  const std::optional<JsonValue> doc = json_parse(text);
  if (!doc || !doc->is_object()) {
    r.violation("workload process sent no result");
    return r;
  }
  const auto num = [](const JsonValue* v) {
    return v != nullptr && v->is_number() ? v->number : 0.0;
  };
  r.attempted = static_cast<std::uint64_t>(num(doc->find("attempted")));
  r.failed = static_cast<std::uint64_t>(num(doc->find("failed")));
  if (const JsonValue* h = doc->find("has_usage")) r.has_usage = h->boolean;
  if (const JsonValue* u = doc->find("usage")) {
    r.usage.max_rss_mib = num(u->find("max_rss_mib"));
    r.usage.user_s = num(u->find("user_s"));
    r.usage.sys_s = num(u->find("sys_s"));
    r.usage.minor_faults = num(u->find("minor_faults"));
  }
  if (const JsonValue* ms = doc->find("metrics")) {
    for (const JsonValue& m : ms->array) {
      r.add(m.find("name")->string, num(m.find("value")),
            m.find("unit")->string);
    }
  }
  if (const JsonValue* vs = doc->find("violations")) {
    for (const JsonValue& v : vs->array) r.violation(v.string);
  }
  return r;
}

/// Runs one workload in a forked child and adds the process metrics.
WorkloadResult run_forked(Config cfg) {
  cfg.work_dir += "/" + cfg.workload + "-" + std::to_string(::getpid());
  std::filesystem::remove_all(cfg.work_dir);
  std::filesystem::create_directories(cfg.work_dir);
  int fds[2];
  if (::pipe(fds) != 0) {
    WorkloadResult r;
    r.violation("pipe failed");
    return r;
  }
  std::cout.flush();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    WorkloadResult r;
    try {
      r = dispatch(cfg);
    } catch (const std::exception& e) {
      r.violation(cfg.workload + " threw: " + e.what());
    }
    std::cout.flush();
    const std::string out = encode(r);
    for (std::size_t off = 0; off < out.size();) {
      const ssize_t n = ::write(fds[1], out.data() + off, out.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string text;
  bool timed_out = false;
  const auto deadline = Clock::now() + kChildTimeout;
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) {
      timed_out = true;
      ::kill(pid, SIGKILL);
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[65536];
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  rusage ru{};
  int status = 0;
  ::wait4(pid, &status, 0, &ru);
  std::filesystem::remove_all(cfg.work_dir);

  WorkloadResult r = decode(text);
  if (timed_out) r.violation(cfg.workload + " exceeded its time limit");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    r.violation(cfg.workload + " process died (status " +
                std::to_string(status) + ")");
  }
  const Usage u = r.has_usage ? r.usage : usage_of(ru);
  if (cfg.traced) {
    r.add("proc.user_cpu_s", u.user_s, "s");
    r.add("proc.sys_cpu_s", u.sys_s, "s");
    r.add("proc.minor_faults", u.minor_faults, "count");
  } else {
    r.add("peak_rss_mb", u.max_rss_mib, "MiB");
  }
  return r;
}

const Metric* find(const WorkloadResult& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void print_report(const std::string& workload, const WorkloadResult& r) {
  std::cout << "== " << workload << ": " << r.attempted << " attempted, "
            << r.failed << " failed, "
            << (r.violations.empty() ? "correct" : "INVALID") << "\n";
  for (const Metric& m : r.metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  for (const std::string& v : r.violations) {
    std::cout << "  violation: " << v << "\n";
  }
}

std::string metrics_json(const WorkloadResult& r, bool gated_only) {
  std::string body = "{";
  const auto add = [&](const Metric& m) {
    JsonObject o;
    o.field("value", m.value).field("unit", m.unit);
    append(body, quoted(m.name) + ":" + o.str());
  };
  if (gated_only) {
    for (const char* name : kGated) {
      if (const Metric* m = find(r, name)) add(*m);
    }
  } else {
    for (const Metric& m : r.metrics) add(m);
  }
  return body + "}";
}

std::string result_line(const WorkloadResult& r, bool gated_only) {
  JsonObject o;
  o.field("correct", r.violations.empty());
  o.field("attempted", r.attempted).field("failed", r.failed);
  o.raw("metrics", metrics_json(r, gated_only));
  return o.str();
}

/// statistics.quantiles(values, n=4) (Python's default "exclusive"
/// method), so the spreads printed here are the ones BENCHMARK.json's
/// bounds were set from.
std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  std::array<double, 3> q{};
  if (n == 1) {
    q.fill(v[0]);
    return q;
  }
  const long m = n + 1;
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    const long delta = i * m - j * 4;
    j = std::clamp(j, 1L, n - 1);
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return q;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string json_out;
  int repeat = 0;
  bool seconds_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = value();
      if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                    cfg.workload) == std::end(kWorkloads)) {
        usage_error("unknown workload '" + cfg.workload + "'");
      }
    } else if (arg == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(parse_number(arg, value()));
    } else if (arg == "--seconds") {
      cfg.seconds = parse_number(arg, value());
      seconds_set = true;
      if (cfg.seconds <= 0) usage_error("--seconds must be positive");
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage_error("--trace wants 0 or 1");
      cfg.traced = v == "1";
    } else if (arg == "--trace-out") {
      cfg.trace_out = value();
    } else if (arg == "--json") {
      json_out = value();
    } else if (arg == "--repeat") {
      repeat = static_cast<int>(parse_number(arg, value()));
      if (repeat < 1) usage_error("--repeat must be at least 1");
    } else if (arg == "--quick") {
      cfg.quick = true;
    } else if (arg == "--serve-bin") {
      cfg.serve_bin = value();
    } else if (arg == "--work-dir") {
      cfg.work_dir = value();
    } else if (arg == "--help" || arg == "-h") {
      help(std::cout);
      return 0;
    } else {
      usage_error("unknown option " + arg);
    }
  }
  if (cfg.quick && !seconds_set) cfg.seconds = 1.0;
  if (cfg.serve_bin.empty()) {
    cfg.serve_bin =
        (std::filesystem::read_symlink("/proc/self/exe").parent_path() /
         "rmrls-serve")
            .string();
  }
  if (cfg.work_dir.empty()) cfg.work_dir = ".bench_build/work";
  // The serve workload changes into its work directory; every path it is
  // handed must survive that.
  cfg.serve_bin = std::filesystem::absolute(cfg.serve_bin).string();
  cfg.work_dir = std::filesystem::absolute(cfg.work_dir).string();
  if (!cfg.trace_out.empty()) {
    cfg.trace_out = std::filesystem::absolute(cfg.trace_out).string();
  }
  std::filesystem::create_directories(cfg.work_dir);

  std::vector<std::string> workloads;
  if (cfg.workload.empty()) {
    workloads.assign(std::begin(kWorkloads), std::end(kWorkloads));
  } else {
    workloads.push_back(cfg.workload);
  }
  std::cout << "rmrls_bench: seed " << cfg.seed << ", " << cfg.seconds
            << " s per workload, " << (cfg.traced ? "traced" : "untraced")
            << (cfg.quick ? ", quick" : "") << "\n";

  // One round per repetition; a single-workload run is one round. Every
  // round uses the same seed, so the spread between rounds is the host's
  // and the code's noise alone, not the inputs'.
  const int rounds = std::max(repeat, 1);
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  std::map<std::string, std::string> units;
  std::map<std::string, WorkloadResult> last;
  WorkloadResult total;
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::string> order = workloads;
    if (round % 2 == 1) std::reverse(order.begin(), order.end());
    for (const std::string& w : order) {
      Config run = cfg;
      run.workload = w;
      if (!cfg.trace_out.empty() && workloads.size() > 1) {
        run.trace_out = cfg.trace_out + "." + w;
      }
      WorkloadResult r = run_forked(run);
      if (!cfg.traced) {
        for (const char* name : kGated) {
          if (find(r, name) == nullptr) {
            r.violation(std::string("metric ") + name + " was not measured");
          }
        }
      }
      print_report(w, r);
      for (const std::string& v : r.violations) {
        total.violation(w + ": " + v);
      }
      for (const Metric& m : r.metrics) {
        values[w][m.name].push_back(m.value);
        units[m.name] = m.unit;
      }
      total.attempted += r.attempted;
      total.failed += r.failed;
      last[w] = std::move(r);
    }
  }

  std::string per_workload = "{";
  for (const std::string& w : workloads) {
    if (rounds == 1) {
      append(per_workload, quoted(w) + ":" + result_line(last[w], false));
      continue;
    }
    std::cout << "== " << w << " over " << rounds
              << " rounds: median [q1, q3] spread\n";
    std::string body = "{";
    for (const auto& [name, v] : values[w]) {
      const std::array<double, 3> q = quartiles(v);
      const double spread = q[1] != 0.0 ? (q[2] - q[0]) / std::abs(q[1]) : 0.0;
      std::cout << "  " << name << " = " << json_number(q[1]) << " ["
                << json_number(q[0]) << ", " << json_number(q[2]) << "] "
                << json_number(spread) << " " << units[name] << "\n";
      std::string list = "[";
      for (double x : v) append(list, json_number(x));
      JsonObject o;
      o.field("median", q[1]).field("q1", q[0]).field("q3", q[2]);
      o.field("spread", spread).field("unit", units[name]);
      o.raw("values", list + "]");
      append(body, quoted(name) + ":" + o.str());
    }
    append(per_workload, quoted(w) + ":" + body + "}");
  }
  JsonObject json;
  json.field("seed", cfg.seed).field("seconds", cfg.seconds);
  json.field("traced", cfg.traced).field("rounds", rounds);
  json.raw("workloads", per_workload + "}");
  if (!json_out.empty()) {
    std::ofstream os(json_out);
    os << json.str() << "\n";
    if (!os) {
      std::cerr << "rmrls_bench: cannot write " << json_out << "\n";
      return 2;
    }
  }

  if (workloads.size() == 1 && rounds == 1) {
    std::cout << result_line(last[workloads[0]], !cfg.traced) << std::endl;
  } else {
    std::cout << result_line(total, true) << std::endl;
  }
  return total.violations.empty() ? 0 : 1;
}
