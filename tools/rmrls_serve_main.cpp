/// \file rmrls_serve_main.cpp
/// \brief `rmrls-serve`: the long-lived synthesis daemon (docs/serving.md).
///
/// Binds a unix-domain socket (or loopback TCP port), then serves
/// newline-delimited JSON requests until SIGTERM/SIGINT/SIGHUP or a
/// shutdown frame begins the graceful drain. One process-wide warm
/// SynthCache and one bounded worker pool outlive every request — the
/// whole point of running a daemon instead of one CLI process per spec.

#include <iostream>
#include <limits>
#include <string>

#include "core/status.hpp"
#include "io/flags.hpp"
#include "serve/server.hpp"

int main(int argc, char** argv) {
  using namespace rmrls;
  ServeOptions options;
  int port = -1;  // -1: no --port given
  std::size_t cache_mb = options.cache_bytes >> 20;

  FlagTable flags("(--socket PATH | --port N) [options]");
  flags.section("Listen address (exactly one):")
      .text("--socket", options.socket_path, "PATH",
            "unix-domain socket (preferred; filesystem permissions apply). A"
            " stale socket file from a crashed daemon is replaced.")
      .number("--port", port, "N",
              "loopback TCP on 127.0.0.1:N; 0 picks an ephemeral port"
              " (printed on startup)",
              0, 65535);
  flags.section("Capacity:")
      .number("--workers", options.workers, "N",
              "executor threads, one job each (default 2)", 1)
      .number("--queue-cap", options.queue_cap, "N",
              "admission queue bound (default 64); submits past it are shed"
              " with status \"unavailable\" (client exit code 7)",
              1);
  flags.section("Deadlines (ms):")
      .number("--time-ms", options.default_deadline, "N",
              "per-request default deadline (default 2000)")
      .number("--max-time-ms", options.max_deadline, "N",
              "clamp on a request's own time_ms (default 30000)")
      .number("--drain-ms", options.drain_deadline, "N",
              "graceful-drain budget after SIGTERM / shutdown; in-flight"
              " jobs still running at the deadline are cancelled (default"
              " 5000)")
      .number("--poll-ms", options.poll_interval, "N",
              "poll(2) timeout of the serving loop, which bounds how late it"
              " acts on a client disconnect or the drain deadline (default"
              " 50)",
              0, std::numeric_limits<int>::max());
  flags.section("Cache:")
      .number("--cache-mb", cache_mb, "N", "warm SynthCache budget (default 64)",
              0, kMaxMebibytes)
      .text("--cache-dir", options.cache_dir, "DIR",
            "on-disk TFC store shared across restarts");
  flags.section("Observability (docs/observability.md):")
      .text("--metrics-out", options.metrics_path, "FILE",
            "JSONL sink: one rmrls-metrics-v1 record per job (with trace_id"
            " and serve_status) plus rmrls-metrics-v2 heartbeats")
      .number("--heartbeat-ms", options.heartbeat_interval, "N",
              "arm live telemetry; one heartbeat every N ms to --metrics-out"
              " and to sessions subscribed with {\"op\":\"watch\"}");
  flags.footer(
      "Exit codes: 0 clean drain; 2 usage / bind failure.\n"
      "Protocol: docs/serving.md (schema rmrls-serve-v1).");
  flags.parse(argc, argv);
  if (options.socket_path.empty() && port < 0) {
    std::cerr << "error: need --socket PATH or --port N\n";
    flags.print_help(std::cerr, argv[0]);
    return 2;
  }
  if (port >= 0) options.tcp_port = port;
  options.cache_bytes = cache_mb << 20;

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
