/// \file rmrls_client.cpp
/// \brief `rmrls_client`: command-line client (and test driver) for the
/// rmrls-serve daemon (docs/serving.md).
///
/// Speaks the rmrls-serve-v1 newline-delimited JSON protocol over a
/// unix-domain socket or loopback TCP. Doubles as the fault-injection
/// harness the serve tests are built on: it can spawn the daemon itself
/// (--spawn), trickle bytes (--slow-ms), send raw garbage (--raw),
/// disconnect with work in flight (--disconnect), and validate every
/// streamed heartbeat with the shared MetricsValidator (--validate).
///
/// Exit code is the *worst* outcome across all requests, using the same
/// exit-code contract as `rmrls` itself — so a shed request surfaces as
/// exit 7 (kUnavailable) and a cancelled one as exit 5, scriptable
/// without parsing JSON.

#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/status.hpp"
#include "io/flags.hpp"
#include "obs/json.hpp"
#include "obs/metrics_validate.hpp"
#include "obs/telemetry.hpp"
#include "serve/frame.hpp"

namespace {

using Clock = std::chrono::steady_clock;

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends all of `data`, optionally trickling it byte by byte.
/// MSG_NOSIGNAL: a daemon that hangs up mid-send (oversized frame, drain)
/// must come back as EPIPE, not kill the client with SIGPIPE.
bool send_all(int fd, const std::string& data, long long slow_ms) {
  if (slow_ms <= 0) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }
  for (const char c : data) {
    for (;;) {
      const ssize_t n = ::send(fd, &c, 1, MSG_NOSIGNAL);
      if (n == 1) break;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(slow_ms));
  }
  return true;
}

struct Options {
  std::string socket_path;
  int port = -1;
  std::string spawn_bin;
  std::vector<std::string> daemon_args;
  long long timeout_ms = 30000;
  bool ping = false;
  std::vector<std::string> submits;
  long long time_ms = 0;
  bool tfc = false;
  long long watch = 0;
  bool stats = false;
  bool shutdown = false;
  std::vector<std::string> raws;
  long long slow_ms = 0;
  bool disconnect = false;
  bool validate = false;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rmrls;
  Options o;

  FlagTable flags("(--socket PATH | --port N) [ops] [options]");
  flags.section("Connection:")
      .text("--socket", o.socket_path, "PATH", "daemon's unix-domain socket")
      .number("--port", o.port, "N", "daemon's loopback TCP port", 0, 65535)
      .text("--spawn", o.spawn_bin, "BIN",
            "fork+exec BIN as the daemon (passing --socket PATH),"
            " retry-connect until ready, and reap it on exit. Requires"
            " --socket.")
      .text("--daemon-arg", o.daemon_args, "ARG",
            "extra argv token for --spawn (repeatable)")
      .number("--timeout-ms", o.timeout_ms, "N",
              "overall client deadline (default 30000)", 0);
  flags.section(
          "Operations (run in order: ping, watch, raw, submit, stats,\n"
          "shutdown):")
      .flag("--ping", o.ping, "liveness probe")
      .text("--submit", o.submits, "SPEC",
            "synthesize a permutation (repeatable), e.g."
            " \"{1,0,7,2,3,4,5,6}\"")
      .number("--time-ms", o.time_ms, "N",
              "per-submit deadline sent with each request", 0)
      .flag("--tfc", o.tfc, "ask for the circuit as TFC text")
      .number("--watch", o.watch, "N",
              "subscribe to heartbeats; wait for N of them", 0)
      .flag("--stats", o.stats, "fetch daemon counters")
      .flag("--shutdown", o.shutdown,
            "ask the daemon to drain after the other ops");
  flags.section("Fault injection (test harness; docs/serving.md):")
      .text("--raw", o.raws, "LINE",
            "send LINE verbatim (repeatable); expects one response frame"
            " (an error, for garbage)")
      .number("--slow-ms", o.slow_ms, "N",
              "trickle request bytes one at a time with N ms pauses"
              " (slow-client simulation)",
              0)
      .flag("--disconnect", o.disconnect,
            "close the socket as soon as every submit is acknowledged,"
            " abandoning the results")
      .flag("--validate", o.validate,
            "check every received heartbeat with the shared"
            " MetricsValidator; any violation is an internal error (exit 6)");
  flags.footer(
      "Exit codes: worst across responses — 0 ok; 2 usage; 3 parse /\n"
      "invalid spec; 4 budget exhausted; 5 cancelled; 6 internal or\n"
      "protocol violation; 7 unavailable (shed / draining).");
  flags.parse(argc, argv);
  const auto usage = [&] {
    flags.print_help(std::cerr, argv[0]);
    return 2;
  };
  if (o.socket_path.empty() && o.port < 0) {
    std::cerr << "error: need --socket PATH or --port N\n";
    return usage();
  }
  if (!o.spawn_bin.empty() && o.socket_path.empty()) {
    std::cerr << "error: --spawn needs --socket\n";
    return usage();
  }

  const auto deadline =
      Clock::now() + std::chrono::milliseconds(o.timeout_ms);

  // Spawn the daemon if asked: plain fork+exec, stdout/stderr inherited
  // so test logs show both sides interleaved.
  pid_t daemon_pid = -1;
  if (!o.spawn_bin.empty()) {
    daemon_pid = ::fork();
    if (daemon_pid < 0) {
      std::cerr << "error: fork: " << std::strerror(errno) << "\n";
      return 6;
    }
    if (daemon_pid == 0) {
      std::vector<char*> args;
      args.push_back(const_cast<char*>(o.spawn_bin.c_str()));
      args.push_back(const_cast<char*>("--socket"));
      args.push_back(const_cast<char*>(o.socket_path.c_str()));
      for (const std::string& a : o.daemon_args) {
        args.push_back(const_cast<char*>(a.c_str()));
      }
      args.push_back(nullptr);
      ::execv(o.spawn_bin.c_str(), args.data());
      std::cerr << "error: exec " << o.spawn_bin << ": "
                << std::strerror(errno) << "\n";
      ::_exit(127);
    }
  }

  // Connect, retrying while the daemon comes up (spawned or racing).
  int fd = -1;
  for (;;) {
    fd = o.socket_path.empty() ? connect_tcp(o.port)
                               : connect_unix(o.socket_path);
    if (fd >= 0) break;
    if (Clock::now() >= deadline) {
      std::cerr << "error: could not connect within " << o.timeout_ms
                << " ms\n";
      if (daemon_pid > 0) {
        ::kill(daemon_pid, SIGKILL);
        ::waitpid(daemon_pid, nullptr, 0);
      }
      return 6;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // ---- Send phase (ordered: ping, watch, raw, submit, stats) ----------
  int worst = 0;
  const auto bump = [&](int code) { worst = std::max(worst, code); };
  std::string out;
  long long expect_simple = 0;  // pong/watch-ack/stats frames still due
  if (o.ping) {
    JsonObject j;
    j.field("op", "ping").field("id", "ping");
    out += j.str();
    out += '\n';
    ++expect_simple;
  }
  if (o.watch > 0) {
    JsonObject j;
    j.field("op", "watch").field("id", "watch").field("enable", true);
    out += j.str();
    out += '\n';
    ++expect_simple;
  }
  for (const std::string& raw : o.raws) {
    out += raw;
    out += '\n';
  }
  long long expect_raw = static_cast<long long>(o.raws.size());
  for (std::size_t i = 0; i < o.submits.size(); ++i) {
    JsonObject j;
    j.field("op", "submit").field("id", "c" + std::to_string(i));
    j.field("spec", o.submits[i]);
    if (o.time_ms > 0) {
      j.field("time_ms", static_cast<std::int64_t>(o.time_ms));
    }
    if (o.tfc) j.field("tfc", true);
    out += j.str();
    out += '\n';
  }
  if (o.stats) {
    JsonObject j;
    j.field("op", "stats").field("id", "stats");
    out += j.str();
    out += '\n';
    ++expect_simple;
  }
  if (!send_all(fd, out, o.slow_ms)) {
    std::cerr << "error: send failed: " << std::strerror(errno) << "\n";
    ::close(fd);
    return 6;
  }

  // ---- Receive phase --------------------------------------------------
  long long pending_accept = static_cast<long long>(o.submits.size());
  long long pending_result = static_cast<long long>(o.submits.size());
  long long heartbeats_seen = 0;
  bool shutdown_sent = false;
  bool shutdown_acked = false;
  MetricsValidator validator;
  bool validation_failed = false;
  FrameSplitter splitter;
  bool peer_closed = false;

  const auto done = [&] {
    if (expect_simple > 0 || expect_raw > 0 || pending_accept > 0) {
      return false;
    }
    if (!o.disconnect && pending_result > 0) return false;
    if (heartbeats_seen < o.watch) return false;
    if (o.shutdown && !shutdown_acked) return false;
    return true;
  };

  const auto handle_line = [&](const std::string& line) {
    const auto parsed = json_parse(line);
    if (!parsed || !parsed->is_object()) {
      std::cerr << "protocol error: unparseable frame: " << line << "\n";
      bump(6);
      return;
    }
    const JsonValue* schema = parsed->find("schema");
    const std::string schema_tag =
        schema != nullptr && schema->is_string() ? schema->string : "";
    if (schema_tag == kMetricsSchemaV2) {
      ++heartbeats_seen;
      if (o.validate &&
          !validator.check_line(line, "heartbeat#" +
                                          std::to_string(heartbeats_seen))) {
        validation_failed = true;
      }
      return;
    }
    if (schema_tag != kServeSchemaV1) {
      std::cerr << "protocol error: unknown schema in: " << line << "\n";
      bump(6);
      return;
    }
    const JsonValue* record = parsed->find("record");
    const std::string kind =
        record != nullptr && record->is_string() ? record->string : "";
    const JsonValue* idv = parsed->find("id");
    const std::string id =
        idv != nullptr && idv->is_string() ? idv->string : "";
    std::cout << line << "\n";
    if (kind == "pong" || kind == "stats" || kind == "watch") {
      --expect_simple;
    } else if (kind == "accepted") {
      --pending_accept;
    } else if (kind == "result") {
      --pending_result;
      const JsonValue* code = parsed->find("exit_code");
      if (code != nullptr && code->is_number()) {
        bump(static_cast<int>(code->number));
      }
    } else if (kind == "shutdown") {
      shutdown_acked = true;
    } else if (kind == "error") {
      const JsonValue* code = parsed->find("exit_code");
      if (code != nullptr && code->is_number()) {
        bump(static_cast<int>(code->number));
      } else {
        bump(6);
      }
      if (!id.empty() && id.rfind('c', 0) == 0) {
        // A submit that never became a job (shed, bad spec).
        --pending_accept;
        --pending_result;
      } else {
        --expect_raw;
      }
    } else {
      std::cerr << "protocol error: unknown record '" << kind << "'\n";
      bump(6);
    }
  };

  bool timed_out = false;
  while (!done()) {
    if (Clock::now() >= deadline) {
      timed_out = true;
      break;
    }
    // Once everything except the drain ack is settled, ask for shutdown.
    if (o.shutdown && !shutdown_sent && expect_simple == 0 &&
        expect_raw == 0 && pending_accept == 0 &&
        (o.disconnect || pending_result == 0) &&
        heartbeats_seen >= o.watch) {
      JsonObject j;
      j.field("op", "shutdown").field("id", "shutdown");
      if (!send_all(fd, j.str() + "\n", o.slow_ms)) {
        bump(6);
        break;
      }
      shutdown_sent = true;
    }
    if (peer_closed) break;
    pollfd pfd{fd, POLLIN, 0};
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    const int rc =
        ::poll(&pfd, 1, static_cast<int>(std::max<long long>(
                            1, std::min<long long>(left.count(), 100))));
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;
    char buf[16384];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) {
      peer_closed = true;
    } else if (n > 0) {
      splitter.feed(buf, static_cast<std::size_t>(n));
      while (std::optional<std::string> line = splitter.next()) {
        handle_line(*line);
        if (o.disconnect && pending_accept == 0 && expect_simple == 0 &&
            expect_raw == 0) {
          break;  // acknowledged: time to vanish mid-request
        }
      }
    } else if (errno != EINTR) {
      peer_closed = true;
    }
    if (o.disconnect && pending_accept == 0 && expect_simple == 0 &&
        expect_raw == 0) {
      break;
    }
  }
  ::close(fd);

  if (timed_out) {
    std::cerr << "error: timed out with "
              << (pending_result > 0 ? pending_result : 0)
              << " results pending\n";
    bump(6);
  }
  if (peer_closed && !done() && !o.disconnect && !timed_out) {
    std::cerr << "error: daemon closed the connection early\n";
    bump(6);
  }
  if (validation_failed) {
    for (const std::string& e : validator.errors()) {
      std::cerr << "validate: " << e << "\n";
    }
    bump(6);
  }
  if (o.validate) {
    std::cerr << "validated " << validator.heartbeats() << " heartbeats, "
              << (validation_failed ? "FAIL" : "ok") << "\n";
  }

  if (daemon_pid > 0) {
    // Reap the daemon. If nobody asked it to stop, SIGTERM triggers its
    // graceful drain (serve/signals.hpp).
    if (!o.shutdown) ::kill(daemon_pid, SIGTERM);
    int wstatus = 0;
    ::waitpid(daemon_pid, &wstatus, 0);
    const int drc = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 128;
    std::cerr << "daemon exited with code " << drc << "\n";
    if (drc != 0) bump(6);
  }
  return worst;
}
