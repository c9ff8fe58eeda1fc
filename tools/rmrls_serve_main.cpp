/// \file rmrls_serve_main.cpp
/// \brief `rmrls-serve`: the long-lived synthesis daemon (docs/serving.md).
///
/// Binds a unix-domain socket (or loopback TCP port), then serves
/// newline-delimited JSON requests until SIGTERM/SIGINT/SIGHUP or a
/// shutdown frame begins the graceful drain. One process-wide warm
/// SynthCache and one bounded worker pool outlive every request — the
/// whole point of running a daemon instead of one CLI process per spec.

#include <cstdint>
#include <iostream>
#include <limits>
#include <string>

#include "core/status.hpp"
#include "serve/server.hpp"

namespace {

void help(const char* argv0, std::ostream& os) {
  os << "usage: " << argv0
     << " (--socket PATH | --port N) [options]\n"
        "\n"
        "Listen address (exactly one):\n"
        "  --socket PATH      unix-domain socket (preferred; filesystem\n"
        "                     permissions apply). A stale socket file from\n"
        "                     a crashed daemon is replaced.\n"
        "  --port N           loopback TCP on 127.0.0.1:N; 0 picks an\n"
        "                     ephemeral port (printed on startup)\n"
        "\n"
        "Capacity:\n"
        "  --workers N        executor threads (default 2)\n"
        "  --search-threads N SynthesisOptions::num_threads per job\n"
        "                     (default 1)\n"
        "  --queue-cap N      admission queue bound (default 64); submits\n"
        "                     past it are shed with status \"unavailable\"\n"
        "                     (client exit code 7)\n"
        "\n"
        "Deadlines (ms):\n"
        "  --time-ms N        per-request default deadline (default 2000)\n"
        "  --max-time-ms N    clamp on a request's own time_ms (default\n"
        "                     30000)\n"
        "  --drain-ms N       graceful-drain budget after SIGTERM /\n"
        "                     shutdown; in-flight jobs still running at\n"
        "                     the deadline are cancelled (default 5000)\n"
        "\n"
        "Cache:\n"
        "  --cache-mb N       warm SynthCache budget (default 64)\n"
        "  --cache-dir DIR    on-disk TFC store shared across restarts\n"
        "\n"
        "Observability (docs/observability.md):\n"
        "  --metrics-out FILE JSONL sink: one rmrls-metrics-v1 record per\n"
        "                     job (with trace_id and serve_status) plus\n"
        "                     rmrls-metrics-v2 heartbeats\n"
        "  --heartbeat-ms N   arm live telemetry; one heartbeat every N ms\n"
        "                     to --metrics-out and to sessions subscribed\n"
        "                     with {\"op\":\"watch\"}\n"
        "\n"
        "  --help, -h         this text\n"
        "\n"
        "Exit codes: 0 clean drain; 2 usage / bind failure.\n"
        "Protocol: docs/serving.md (schema rmrls-serve-v1).\n";
}

int usage(const char* argv0) {
  help(argv0, std::cerr);
  return 2;
}

bool num_ll(const char* text, long long& out) {
  char* end = nullptr;
  out = std::strtoll(text, &end, 10);
  return end != text && *end == '\0';
}

long long bad_number(const char* flag) {
  std::cerr << "error: " << flag << " needs a non-negative integer\n";
  std::exit(2);
}

long long arg_number(int argc, char** argv, int& i, const char* flag) {
  if (i + 1 >= argc) return bad_number(flag);
  long long v = 0;
  if (!num_ll(argv[++i], v) || v < 0) return bad_number(flag);
  return v;
}

// int-typed options: range-checked before narrowing, so an out-of-range
// value is reported instead of silently wrapping.
int arg_int(int argc, char** argv, int& i, const char* flag) {
  const long long v = arg_number(argc, argv, i, flag);
  if (v > std::numeric_limits<int>::max()) bad_number(flag);
  return static_cast<int>(v);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rmrls;
  ServeOptions options;
  bool address_set = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help(argv[0], std::cout);
      return 0;
    } else if (arg == "--socket") {
      if (i + 1 >= argc) return usage(argv[0]);
      options.socket_path = argv[++i];
      address_set = true;
    } else if (arg == "--port") {
      options.tcp_port = arg_int(argc, argv, i, "--port");
      address_set = true;
    } else if (arg == "--workers") {
      options.workers = arg_int(argc, argv, i, "--workers");
    } else if (arg == "--search-threads") {
      options.search_threads = arg_int(argc, argv, i, "--search-threads");
    } else if (arg == "--queue-cap") {
      options.queue_cap =
          static_cast<std::size_t>(arg_number(argc, argv, i, "--queue-cap"));
    } else if (arg == "--time-ms") {
      options.default_deadline =
          std::chrono::milliseconds(arg_number(argc, argv, i, "--time-ms"));
    } else if (arg == "--max-time-ms") {
      options.max_deadline = std::chrono::milliseconds(
          arg_number(argc, argv, i, "--max-time-ms"));
    } else if (arg == "--drain-ms") {
      options.drain_deadline =
          std::chrono::milliseconds(arg_number(argc, argv, i, "--drain-ms"));
    } else if (arg == "--poll-ms") {
      options.poll_interval =
          std::chrono::milliseconds(arg_number(argc, argv, i, "--poll-ms"));
    } else if (arg == "--cache-mb") {
      options.cache_bytes =
          static_cast<std::size_t>(arg_number(argc, argv, i, "--cache-mb"))
          << 20;
    } else if (arg == "--cache-dir") {
      if (i + 1 >= argc) return usage(argv[0]);
      options.cache_dir = argv[++i];
    } else if (arg == "--metrics-out") {
      if (i + 1 >= argc) return usage(argv[0]);
      options.metrics_path = argv[++i];
    } else if (arg == "--heartbeat-ms") {
      options.heartbeat_interval = std::chrono::milliseconds(
          arg_number(argc, argv, i, "--heartbeat-ms"));
    } else {
      std::cerr << "error: unknown option " << arg << "\n";
      return usage(argv[0]);
    }
  }
  if (!address_set) {
    std::cerr << "error: need --socket PATH or --port N\n";
    return usage(argv[0]);
  }

  ServeDaemon daemon(std::move(options));
  const Status bound = daemon.start();
  if (!bound.ok()) {
    std::cerr << "error: " << bound.to_string() << "\n";
    return 2;
  }
  // One parseable line so wrappers (tests, rmrls_client --spawn) can wait
  // for readiness and learn an ephemeral TCP port.
  std::cout << "rmrls-serve listening on " << daemon.bound_address()
            << std::endl;
  const int rc = daemon.run();
  const ServeStats stats = daemon.stats();
  std::cerr << "rmrls-serve drained: " << stats.requests << " requests, "
            << stats.completed << " completed, " << stats.failed
            << " failed, " << stats.shed << " shed, "
            << stats.disconnect_cancelled << " cancelled by disconnect\n";
  return rc;
}
