// Fault-injection suite for the rmrls-serve daemon (docs/serving.md):
// protocol roundtrips, malformed and oversized frames, queue-cap load
// shedding (kUnavailable, never a hang), disconnect-equals-cancel, the
// SIGTERM graceful drain, and a concurrent soak mixing healthy, slow,
// disconnecting, and malformed clients. Runs under the tsan/asan presets
// via the concurrency/sanitize labels, so every path here must be
// race- and leak-clean, not just functionally right.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/spec.hpp"
#include "obs/json.hpp"
#include "obs/metrics_validate.hpp"
#include "rev/random.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"

namespace rmrls {
namespace {

using std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

constexpr const char* kFig1Spec = "{1, 0, 7, 2, 3, 4, 5, 6}";

/// A spec the cascade cannot finish early: an 8-variable uniformly random
/// permutation. Paired with daemon options that disable the fallbacks and
/// the node budget, a job on it runs until its deadline or its cancel
/// token fires — exactly what the cancellation tests need.
std::string hard_spec_text() {
  std::mt19937_64 rng(11);
  return write_permutation_spec(random_reversible_function(8, rng));
}

/// Daemon options tuned for tests: unix socket in a caller-owned temp
/// dir, fast poll so disconnect-cancel latency is measurable, and a
/// resilience base with no fallbacks or node budget (see hard_spec_text).
ServeOptions test_options(const std::string& socket_path) {
  ServeOptions o;
  o.socket_path = socket_path;
  o.workers = 2;
  o.poll_interval = milliseconds(10);
  o.default_deadline = milliseconds(1000);
  o.drain_deadline = milliseconds(2000);
  o.resilience.search.max_nodes = 0;
  o.resilience.enable_greedy = false;
  o.resilience.enable_transformation = false;
  return o;
}

/// Owns a short-pathed temp dir (sockaddr_un caps sun_path around 107
/// bytes, so the build tree is not a safe place for sockets).
class TempDir {
 public:
  TempDir() {
    char templ[] = "/tmp/rmrls_serve_XXXXXX";
    const char* made = ::mkdtemp(templ);
    if (made != nullptr) path_ = made;
  }
  ~TempDir() {
    if (path_.empty()) return;
    // Best-effort cleanup; the daemon unlinks its socket on shutdown.
    std::remove((path_ + "/serve.sock").c_str());
    std::remove((path_ + "/metrics.jsonl").c_str());
    ::rmdir(path_.c_str());
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Runs a ServeDaemon on its own thread and joins it on destruction.
class DaemonHarness {
 public:
  explicit DaemonHarness(ServeOptions options)
      : daemon_(std::move(options)) {}
  ~DaemonHarness() { stop(); }

  [[nodiscard]] bool start() {
    const Status bound = daemon_.start();
    if (!bound.ok()) {
      ADD_FAILURE() << "daemon start failed: " << bound.to_string();
      return false;
    }
    thread_ = std::thread([this] { exit_code_ = daemon_.run(); });
    return true;
  }

  /// Begins drain (idempotent) and joins run(); returns its exit code.
  int stop() {
    if (thread_.joinable()) {
      daemon_.begin_drain();
      thread_.join();
    }
    return exit_code_.load();
  }

  [[nodiscard]] ServeDaemon& daemon() { return daemon_; }

 private:
  ServeDaemon daemon_;
  std::thread thread_;
  std::atomic<int> exit_code_{-1};
};

/// A blocking test client over the unix socket, with frame-level reads.
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool send_line(const std::string& frame) {
    std::string wire = frame;
    wire.push_back('\n');
    return send_raw(wire);
  }

  bool send_raw(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next frame as parsed JSON; nullopt on timeout or EOF.
  std::optional<JsonValue> read_frame(milliseconds timeout) {
    const auto give_up = Clock::now() + timeout;
    for (;;) {
      if (std::optional<std::string> line = splitter_.next()) {
        std::optional<JsonValue> v = json_parse(*line);
        EXPECT_TRUE(v.has_value()) << "unparseable frame: " << *line;
        return v;
      }
      const auto left = std::chrono::duration_cast<milliseconds>(
          give_up - Clock::now());
      if (left.count() <= 0 || fd_ < 0) return std::nullopt;
      pollfd p{fd_, POLLIN, 0};
      const int rc = ::poll(&p, 1, static_cast<int>(left.count()));
      if (rc < 0 && errno != EINTR) return std::nullopt;
      if (rc <= 0) continue;
      char buf[4096];
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n == 0) return std::nullopt;  // EOF
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        return std::nullopt;
      }
      splitter_.feed(buf, static_cast<std::size_t>(n));
    }
  }

  /// Reads until a frame with the given record kind arrives; frames of
  /// other kinds (heartbeats, stray results) are collected in skipped().
  std::optional<JsonValue> read_until(const std::string& record,
                                      milliseconds timeout) {
    const auto give_up = Clock::now() + timeout;
    for (;;) {
      const auto left = std::chrono::duration_cast<milliseconds>(
          give_up - Clock::now());
      if (left.count() <= 0) return std::nullopt;
      std::optional<JsonValue> v = read_frame(left);
      if (!v) return std::nullopt;
      const JsonValue* kind = v->find("record");
      if (kind != nullptr && kind->string == record) return v;
      skipped_.push_back(*std::move(v));
    }
  }

  [[nodiscard]] const std::vector<JsonValue>& skipped() const {
    return skipped_;
  }

 private:
  int fd_ = -1;
  FrameSplitter splitter_;
  std::vector<JsonValue> skipped_;
};

std::string submit_frame(const std::string& id, const std::string& spec,
                         int time_ms, bool tfc = false) {
  std::ostringstream os;
  os << "{\"op\": \"submit\", \"id\": \"" << id << "\", \"spec\": \"" << spec
     << "\"";
  if (time_ms > 0) os << ", \"time_ms\": " << time_ms;
  if (tfc) os << ", \"tfc\": true";
  os << "}";
  return os.str();
}

const char* field_string(const JsonValue& v, const char* key) {
  const JsonValue* f = v.find(key);
  return f != nullptr && f->is_string() ? f->string.c_str() : "<missing>";
}

double field_number(const JsonValue& v, const char* key) {
  const JsonValue* f = v.find(key);
  return f != nullptr && f->is_number() ? f->number : -999;
}

TEST(ServeProtocol, PingPongRoundtrip) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  DaemonHarness harness(test_options(dir.path() + "/serve.sock"));
  ASSERT_TRUE(harness.start());

  Client client(dir.path() + "/serve.sock");
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line("{\"op\": \"ping\", \"id\": \"p1\"}"));
  const std::optional<JsonValue> pong =
      client.read_until("pong", milliseconds(2000));
  ASSERT_TRUE(pong.has_value());
  EXPECT_STREQ(field_string(*pong, "id"), "p1");
  EXPECT_STREQ(field_string(*pong, "schema"), kServeSchemaV1);
  EXPECT_EQ(harness.stop(), 0);
}

TEST(ServeProtocol, SubmitReturnsVerifiedCircuit) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  ServeOptions options = test_options(dir.path() + "/serve.sock");
  // Fig. 1 solves within the primary search; fallbacks stay off.
  DaemonHarness harness(std::move(options));
  ASSERT_TRUE(harness.start());

  Client client(dir.path() + "/serve.sock");
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line(submit_frame("j1", kFig1Spec, 5000, true)));
  const std::optional<JsonValue> accepted =
      client.read_until("accepted", milliseconds(2000));
  ASSERT_TRUE(accepted.has_value());
  // The ack carries the job's trace id — 16 hex digits, the same id its
  // metrics record will carry.
  EXPECT_EQ(std::strlen(field_string(*accepted, "trace_id")), 16u);

  const std::optional<JsonValue> result =
      client.read_until("result", milliseconds(10000));
  ASSERT_TRUE(result.has_value());
  EXPECT_STREQ(field_string(*result, "id"), "j1");
  const JsonValue* success = result->find("success");
  ASSERT_NE(success, nullptr);
  EXPECT_TRUE(success->boolean);
  const JsonValue* verified = result->find("verified");
  ASSERT_NE(verified, nullptr);
  EXPECT_TRUE(verified->boolean);
  EXPECT_GT(field_number(*result, "gates"), 0);
  // want_tfc: the circuit itself rides along as TFC text.
  const JsonValue* tfc = result->find("tfc");
  ASSERT_NE(tfc, nullptr);
  EXPECT_NE(tfc->string.find(".v"), std::string::npos);
  EXPECT_EQ(harness.stop(), 0);
}

TEST(ServeProtocol, MalformedFrameKeepsSessionAlive) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  DaemonHarness harness(test_options(dir.path() + "/serve.sock"));
  ASSERT_TRUE(harness.start());

  Client client(dir.path() + "/serve.sock");
  ASSERT_TRUE(client.connected());
  // Three distinct poisons: not JSON, JSON but no op, a bad spec. Each
  // must earn an error frame — and the session must survive all three.
  ASSERT_TRUE(client.send_line("this is not json"));
  std::optional<JsonValue> err =
      client.read_until("error", milliseconds(2000));
  ASSERT_TRUE(err.has_value());
  EXPECT_STREQ(field_string(*err, "status"), "parse_error");

  ASSERT_TRUE(client.send_line("{\"id\": \"x\"}"));
  err = client.read_until("error", milliseconds(2000));
  ASSERT_TRUE(err.has_value());

  ASSERT_TRUE(client.send_line(
      submit_frame("bad", "{0, 0, 1, 2}", 0)));  // non-bijective
  err = client.read_until("error", milliseconds(2000));
  ASSERT_TRUE(err.has_value());
  EXPECT_STREQ(field_string(*err, "id"), "bad");

  // Still alive?
  ASSERT_TRUE(client.send_line("{\"op\": \"ping\", \"id\": \"alive\"}"));
  const std::optional<JsonValue> pong =
      client.read_until("pong", milliseconds(2000));
  ASSERT_TRUE(pong.has_value());
  EXPECT_STREQ(field_string(*pong, "id"), "alive");

  EXPECT_EQ(harness.stop(), 0);
  EXPECT_GE(harness.daemon().stats().malformed, 3u);
}

TEST(ServeProtocol, OversizedFrameGetsErrorThenClose) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  DaemonHarness harness(test_options(dir.path() + "/serve.sock"));
  ASSERT_TRUE(harness.start());

  Client client(dir.path() + "/serve.sock");
  ASSERT_TRUE(client.connected());
  // One "line" past kMaxFrameBytes with no newline: the splitter latches
  // overflow, the daemon answers once and hangs up.
  // The daemon may hang up while we are still writing; a short write
  // here is fine (MSG_NOSIGNAL on our side too, via send_raw).
  const std::string flood(kMaxFrameBytes + 4096, 'x');
  client.send_raw(flood);
  const std::optional<JsonValue> err =
      client.read_until("error", milliseconds(5000));
  ASSERT_TRUE(err.has_value());
  EXPECT_STREQ(field_string(*err, "status"), "parse_error");
  // Next read must be EOF (nullopt without a frame), not more service.
  EXPECT_FALSE(client.read_frame(milliseconds(2000)).has_value());
  EXPECT_EQ(harness.stop(), 0);
}

TEST(ServeRobustness, QueueCapShedsWithUnavailable) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  ServeOptions options = test_options(dir.path() + "/serve.sock");
  options.workers = 1;
  options.queue_cap = 1;
  DaemonHarness harness(std::move(options));
  ASSERT_TRUE(harness.start());

  const std::string hard = hard_spec_text();
  Client client(dir.path() + "/serve.sock");
  ASSERT_TRUE(client.connected());
  // Four hard jobs into one worker and one queue slot: at most two can be
  // admitted (one running, one queued); at least two must be shed — with
  // kUnavailable immediately, never by queueing unboundedly or hanging.
  const auto t0 = Clock::now();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.send_line(
        submit_frame("q" + std::to_string(i), hard, 400)));
  }
  int accepted = 0;
  int shed = 0;
  for (int i = 0; i < 4; ++i) {
    std::optional<JsonValue> v = client.read_frame(milliseconds(5000));
    ASSERT_TRUE(v.has_value()) << "response " << i << " never arrived";
    const std::string record = field_string(*v, "record");
    if (record == "accepted") {
      ++accepted;
    } else if (record == "error") {
      ++shed;
      EXPECT_STREQ(field_string(*v, "status"), "unavailable");
      EXPECT_EQ(field_number(*v, "exit_code"), 7);
    } else {
      ADD_FAILURE() << "unexpected record " << record;
    }
  }
  const auto acks = std::chrono::duration_cast<milliseconds>(
      Clock::now() - t0);
  EXPECT_EQ(accepted + shed, 4);
  EXPECT_LE(accepted, 2);
  EXPECT_GE(shed, 2);
  // Shedding is immediate — well before the 400 ms jobs could finish.
  EXPECT_LT(acks.count(), 4000);

  // The admitted jobs still complete (budget-exhausted, not wedged).
  for (int i = 0; i < accepted; ++i) {
    const std::optional<JsonValue> result =
        client.read_until("result", milliseconds(10000));
    ASSERT_TRUE(result.has_value());
    const JsonValue* success = result->find("success");
    ASSERT_NE(success, nullptr);
    EXPECT_FALSE(success->boolean);
  }
  EXPECT_EQ(harness.stop(), 0);
  EXPECT_EQ(harness.daemon().stats().shed, static_cast<std::uint64_t>(shed));
}

TEST(ServeRobustness, DisconnectCancelsInflightJob) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  ServeOptions options = test_options(dir.path() + "/serve.sock");
  options.workers = 1;
  DaemonHarness harness(std::move(options));
  ASSERT_TRUE(harness.start());

  {
    Client client(dir.path() + "/serve.sock");
    ASSERT_TRUE(client.connected());
    // A 10 s job the engines cannot finish early...
    ASSERT_TRUE(client.send_line(submit_frame("gone", hard_spec_text(),
                                              10000)));
    ASSERT_TRUE(
        client.read_until("accepted", milliseconds(2000)).has_value());
  }  // ...whose client hangs up here.

  // Disconnect must cancel the job promptly — the poll loop notices EOF
  // within one poll interval and fires the job's token; the cooperative
  // cancel then lands far sooner than the 10 s deadline.
  const auto t0 = Clock::now();
  const auto give_up = t0 + milliseconds(5000);
  while (harness.daemon().stats().disconnect_cancelled == 0 &&
         Clock::now() < give_up) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  const auto latency =
      std::chrono::duration_cast<milliseconds>(Clock::now() - t0);
  EXPECT_EQ(harness.daemon().stats().disconnect_cancelled, 1u);
  EXPECT_LT(latency.count(), 5000) << "cancel took the full deadline";
  EXPECT_EQ(harness.stop(), 0);
}

TEST(ServeRobustness, ShutdownFrameDrainsGracefully) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  DaemonHarness harness(test_options(dir.path() + "/serve.sock"));
  ASSERT_TRUE(harness.start());

  Client client(dir.path() + "/serve.sock");
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line(submit_frame("last", kFig1Spec, 5000)));
  ASSERT_TRUE(
      client.read_until("accepted", milliseconds(2000)).has_value());
  ASSERT_TRUE(client.send_line("{\"op\": \"shutdown\", \"id\": \"bye\"}"));
  const std::optional<JsonValue> ack =
      client.read_until("shutdown", milliseconds(2000));
  ASSERT_TRUE(ack.has_value());
  const JsonValue* draining = ack->find("draining");
  ASSERT_NE(draining, nullptr);
  EXPECT_TRUE(draining->boolean);

  // Drain lets the admitted job finish and deliver before the hangup. A
  // fast job may deliver before the daemon reads the shutdown frame, in
  // which case its result came in ahead of the ack.
  std::optional<JsonValue> result;
  for (const JsonValue& v : client.skipped()) {
    const JsonValue* kind = v.find("record");
    if (kind != nullptr && kind->string == "result") result = v;
  }
  if (!result) result = client.read_until("result", milliseconds(10000));
  ASSERT_TRUE(result.has_value());
  EXPECT_STREQ(field_string(*result, "id"), "last");
  EXPECT_EQ(harness.stop(), 0);

  // Submits during drain would have been shed; after exit, nothing new.
  EXPECT_EQ(harness.daemon().stats().completed, 1u);
}

TEST(ServeRobustness, SigtermBeginsGracefulDrainWithFinalHeartbeat) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  ServeOptions options = test_options(dir.path() + "/serve.sock");
  options.metrics_path = dir.path() + "/metrics.jsonl";
  options.heartbeat_interval = milliseconds(20);
  DaemonHarness harness(std::move(options));
  ASSERT_TRUE(harness.start());

  Client client(dir.path() + "/serve.sock");
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line(submit_frame("hb", kFig1Spec, 5000)));
  ASSERT_TRUE(
      client.read_until("result", milliseconds(10000)).has_value());

  // The real signal path: raise(SIGTERM) lands in the daemon's self-pipe
  // handler (serve/signals.hpp) and begins the drain — same as `kill`.
  ASSERT_EQ(std::raise(SIGTERM), 0);
  const auto give_up = Clock::now() + milliseconds(10000);
  int rc = -1;
  std::thread joiner([&] { rc = harness.stop(); });
  joiner.join();
  ASSERT_LT(Clock::now(), give_up) << "drain overran its deadline";
  EXPECT_EQ(rc, 0);

  // The metrics stream must validate — v1 job records interleaved with
  // v2 heartbeats — and end with the final flush's heartbeat.
  std::ifstream in(dir.path() + "/metrics.jsonl");
  ASSERT_TRUE(in.good());
  MetricsValidator validator;
  validator.begin_stream();
  std::string line;
  std::string last;
  std::uint64_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(validator.check_line(
        line, "metrics.jsonl:" + std::to_string(++lines)))
        << (validator.errors().empty() ? "" : validator.errors().back());
    last = line;
  }
  EXPECT_GE(validator.records() - validator.heartbeats(), 1u);
  EXPECT_GE(validator.heartbeats(), 1u);
  EXPECT_NE(last.find("rmrls-metrics-v2"), std::string::npos)
      << "final flush did not end with a heartbeat: " << last;
}

TEST(ServeProtocol, WatchStreamsValidHeartbeats) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  ServeOptions options = test_options(dir.path() + "/serve.sock");
  options.heartbeat_interval = milliseconds(20);
  DaemonHarness harness(std::move(options));
  ASSERT_TRUE(harness.start());

  Client client(dir.path() + "/serve.sock");
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line("{\"op\": \"watch\", \"id\": \"w\"}"));
  ASSERT_TRUE(client.read_until("watch", milliseconds(2000)).has_value());

  // Heartbeats arrive on the session socket in the same rmrls-metrics-v2
  // schema the file sink uses (validated end to end in the SIGTERM test).
  for (int i = 0; i < 3; ++i) {
    const std::optional<JsonValue> hb =
        client.read_until("heartbeat", milliseconds(2000));
    ASSERT_TRUE(hb.has_value()) << "heartbeat " << i << " never arrived";
  }
  EXPECT_EQ(harness.stop(), 0);
}

// The acceptance soak (ISSUE: robustness): >= 8 concurrent clients mixing
// healthy, slow, disconnecting, and malformed behaviour against a small
// worker pool and queue. Every shed request must come back kUnavailable,
// every orphaned job must be cancelled, and the final SIGTERM-equivalent
// drain must complete within its deadline. tsan/asan run this via the
// concurrency/sanitize labels.
TEST(ServeSoak, ConcurrentMixedClients) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  ServeOptions options = test_options(dir.path() + "/serve.sock");
  options.workers = 2;
  options.queue_cap = 2;
  options.heartbeat_interval = milliseconds(50);
  options.metrics_path = dir.path() + "/metrics.jsonl";
  DaemonHarness harness(std::move(options));
  ASSERT_TRUE(harness.start());
  const std::string sock = dir.path() + "/serve.sock";
  const std::string hard = hard_spec_text();

  std::atomic<int> results{0};
  std::atomic<int> shed{0};          // healthy clients' shed submits
  std::atomic<int> orphan_shed{0};   // disconnectors' shed submits
  std::atomic<int> errors{0};
  std::atomic<int> protocol_failures{0};

  // 4 healthy clients: fig1 with a generous deadline; count outcomes.
  auto healthy = [&](int seq) {
    Client c(sock);
    if (!c.connected()) return void(++protocol_failures);
    if (!c.send_line(submit_frame("h" + std::to_string(seq), kFig1Spec,
                                  3000)))
      return void(++protocol_failures);
    for (;;) {
      std::optional<JsonValue> v = c.read_frame(milliseconds(15000));
      if (!v) return void(++protocol_failures);
      const std::string record = field_string(*v, "record");
      if (record == "result") return void(++results);
      if (record == "error") {
        // Shed under pressure is a legal outcome — but only with the
        // retryable status and exit code.
        if (std::string(field_string(*v, "status")) == "unavailable" &&
            field_number(*v, "exit_code") == 7) {
          ++shed;
        } else {
          ++errors;
        }
        return;
      }
    }
  };
  // 2 disconnectors: hard job, wait for the ack, hang up mid-flight.
  auto disconnector = [&](int seq) {
    Client c(sock);
    if (!c.connected()) return void(++protocol_failures);
    if (!c.send_line(submit_frame("d" + std::to_string(seq), hard, 8000)))
      return void(++protocol_failures);
    std::optional<JsonValue> v = c.read_frame(milliseconds(5000));
    if (!v) return void(++protocol_failures);
    const std::string record = field_string(*v, "record");
    if (record == "error") {
      if (std::string(field_string(*v, "status")) == "unavailable")
        ++orphan_shed;
      else
        ++errors;
    }
    // accepted (or shed) — either way, hang up without reading more.
  };
  // 1 malformed client: garbage frames, then a clean ping.
  auto malformed = [&] {
    Client c(sock);
    if (!c.connected()) return void(++protocol_failures);
    c.send_line("{{{{ not json");
    c.send_line("{\"op\": \"nonsense\"}");
    c.send_line("{\"op\": \"ping\", \"id\": \"mal\"}");
    if (!c.read_until("pong", milliseconds(5000)).has_value())
      ++protocol_failures;
  };
  // 1 slow-loris client: a valid ping trickled byte by byte.
  auto slow = [&] {
    Client c(sock);
    if (!c.connected()) return void(++protocol_failures);
    const std::string frame = "{\"op\": \"ping\", \"id\": \"slow\"}\n";
    for (char ch : frame) {
      if (!c.send_raw(std::string(1, ch))) return void(++protocol_failures);
      std::this_thread::sleep_for(milliseconds(5));
    }
    if (!c.read_until("pong", milliseconds(5000)).has_value())
      ++protocol_failures;
  };

  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) clients.emplace_back(healthy, i);
  for (int i = 0; i < 2; ++i) clients.emplace_back(disconnector, i);
  clients.emplace_back(malformed);
  clients.emplace_back(slow);
  ASSERT_GE(clients.size(), 8u);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(protocol_failures.load(), 0);
  EXPECT_EQ(errors.load(), 0) << "non-shed error frames under load";
  EXPECT_EQ(results.load() + shed.load(), 4)
      << "healthy submits must all resolve to a result or a shed";

  // Drain under load: the two orphaned hard jobs (if admitted) must be
  // cancelled — by disconnect or by the drain deadline — and the drain
  // itself must beat drain_deadline + slack.
  const auto t0 = Clock::now();
  EXPECT_EQ(harness.stop(), 0);
  const auto drained =
      std::chrono::duration_cast<milliseconds>(Clock::now() - t0);
  EXPECT_LT(drained.count(), 8000) << "drain overran";

  const ServeStats stats = harness.daemon().stats();
  EXPECT_GE(stats.connections, 8u);
  EXPECT_EQ(stats.shed,
            static_cast<std::uint64_t>(shed.load() + orphan_shed.load()));
  EXPECT_EQ(stats.completed + stats.failed, stats.submitted)
      << "every admitted job must resolve before exit";

  // The metrics file survived concurrent completion traffic intact.
  std::ifstream in(dir.path() + "/metrics.jsonl");
  ASSERT_TRUE(in.good());
  MetricsValidator validator;
  validator.begin_stream();
  std::string line;
  std::uint64_t n = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(
        validator.check_line(line, "soak:" + std::to_string(++n)))
        << (validator.errors().empty() ? "" : validator.errors().back());
  }
  // records() counts every line (v1 jobs + v2 heartbeats).
  EXPECT_EQ(validator.records() - validator.heartbeats(),
            stats.completed + stats.failed + stats.shed)
      << "one v1 record per resolved or shed job";
}

}  // namespace
}  // namespace rmrls
