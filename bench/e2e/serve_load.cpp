/// \file serve_load.cpp
/// \brief serve_mixed: open-loop load against a spawned rmrls-serve
/// (bench/e2e/README.md).
///
/// One generator thread drives kConnections connections to a daemon with
/// two workers and a kQueueCap-deep admission queue. Arrivals are Poisson at
/// the fixed rates of a rate ladder; 90 % of requests are orbit members of the
/// bases in the daemon's prefilled store, 10 % fresh random 3-variable
/// specs that must be searched. Latency runs from a request's *scheduled*
/// send time to its result frame, so a stalled generator or daemon is
/// charged to every request queued behind the stall. Circuits are checked
/// by the oracle after the ladder, off the generator's clock.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <random>
#include <thread>
#include <unordered_set>

#include "bench/e2e/bench.hpp"
#include "bench/e2e/inputs.hpp"
#include "bench/e2e/tracing.hpp"
#include "io/spec.hpp"
#include "io/tfc.hpp"
#include "obs/json.hpp"
#include "rev/canonical.hpp"
#include "rev/quantum_cost.hpp"
#include "rev/random.hpp"
#include "serve/frame.hpp"

namespace rmrls::e2e {

namespace {

/// The highest offered rate at which the seed commit keeps p99 latency
/// within kLatencyLimitMs and sheds nothing on this mix (4-CPU host,
/// Release build). The ladder's rates are fixed multiples of it, so they
/// never move with the code under test. The daemon completes about twice
/// this rate when saturated, but 10 % cold searches of up to ~100 ms each
/// clog both workers long before that.
constexpr double kSeedCapacity = 400.0;
constexpr std::array<double, 5> kRateFactors = {0.3, 0.5, 0.7, 0.9, 1.1};
constexpr std::array<double, 2> kQuickRateFactors = {0.5, 1.1};
/// Low-load latency (latency_p50_ms_low, latency_p99_ms) pools the rungs up
/// to this factor: at 0.3x and 0.5x requests rarely queue, and pooling
/// doubles the samples of the 0.5x rung alone.
constexpr double kLatencyRungFactor = 0.5;
constexpr double kHighRungFactor = 0.9;  ///< latency_p99_ms_high

constexpr std::uint64_t kFreshEvery = 10;  ///< 10 % fresh specs
constexpr int kConnections = 4;
/// The daemon's admission queue bound. At the default 64, two cold searches
/// that hold both workers for ~200 ms while the host stalls were enough to
/// shed requests at 360 or 440 req/s (9 runs in 26), so the failure count
/// followed the host rather than the code. With this bound an overloaded
/// rung shows as queueing latency instead, and no request fails.
constexpr const char* kQueueCap = "1024";
/// Saturation phase: requests per second of --seconds, and requests kept in
/// flight (far below the admission bound, so nothing is shed).
constexpr double kSaturationPerSecond = 400.0;
constexpr std::size_t kSaturationWindow = 32;
constexpr std::size_t kWarmupRequests = 20;
constexpr double kLatencyLimitMs = 100.0;
constexpr double kLagLimitMs = 2.0;
constexpr auto kStatsPeriod = std::chrono::milliseconds(100);
constexpr auto kSpin = std::chrono::microseconds(200);
constexpr int kGeneratorNice = -10;
constexpr auto kDrainTimeout = std::chrono::seconds(30);
constexpr auto kDaemonTimeout = std::chrono::seconds(10);

/// The daemon's per-request cascade, as ServeDaemon sets it up with its
/// default deadline (used by the traced replay).
ResilienceOptions daemon_resilience() {
  ResilienceOptions r;
  r.deadline = std::chrono::milliseconds(2000);
  r.use_watchdog = true;
  return r;
}

/// A spawned rmrls-serve on `serve.sock` in the current directory. The
/// destructor kills and reaps it if stop() did not.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::string& store) {
    int out[2];
    if (::pipe(out) != 0) return;
    pid_ = ::fork();
    if (pid_ == 0) {
      // Dies with the workload process, even one killed by the time limit.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execl(bin.c_str(), bin.c_str(), "--socket", "serve.sock",
              "--workers", "2", "--queue-cap", kQueueCap, "--cache-dir",
              store.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(out[1]);
    out_fd_ = out[0];
    if (pid_ < 0) return;
    // Ready once the daemon prints its listening line.
    std::string line;
    const auto deadline = Clock::now() + kDaemonTimeout;
    while (line.find('\n') == std::string::npos && Clock::now() < deadline) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      char buf[256];
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) break;
      line.append(buf, static_cast<std::size_t>(n));
    }
    ready_ = line.rfind("rmrls-serve listening on", 0) == 0;
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] bool ready() const { return ready_; }

  /// Waits for the daemon to exit after a shutdown frame; kills it when it
  /// does not drain in time. Returns its resource usage.
  Usage stop(bool& clean) {
    rusage ru{};
    int status = 0;
    const auto deadline = Clock::now() + kDaemonTimeout;
    pid_t done = 0;
    while ((done = ::wait4(pid_, &status, WNOHANG, &ru)) == 0 &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (done != pid_) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &status, 0, &ru);
    }
    clean = done == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    pid_ = -1;
    return usage_of(ru);
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  bool ready_ = false;
};

/// One client connection: nonblocking, buffered both ways.
class Conn {
 public:
  Conn() {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strcpy(addr.sun_path, "serve.sock");
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      if (fd_ >= 0) ::close(fd_);
      fd_ = -1;
      return;
    }
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool pending() const { return !out_.empty(); }
  void queue(const std::string& frame) {
    out_ += frame;
    out_ += '\n';
  }

  /// Sends what the socket takes now; false when the peer is gone.
  bool flush() {
    while (!out_.empty()) {
      const ssize_t n = ::send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
      if (n > 0) {
        out_.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else if (!(n < 0 && errno == EINTR)) {
        return false;
      }
    }
    return true;
  }

  /// Reads what is available into the frame splitter; false on EOF/error.
  bool read() {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n > 0) {
        in_.feed(buf, static_cast<std::size_t>(n));
      } else if (n == 0) {
        return false;
      } else {
        return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
      }
    }
  }

  std::optional<std::string> next_frame() { return in_.next(); }

 private:
  int fd_ = -1;
  std::string out_;
  FrameSplitter in_;
};

struct Request {
  Clock::duration due{};  ///< since its rung's start
  TruthTable spec;
  std::string frame;
};

struct Reply {
  Clock::time_point due{}, sent{}, accepted{}, done{};
  bool answered = false;
  bool ok = false;
  bool shed = false;
  bool cache_hit = false;
  double server_us = 0.0;
  int gates = -1;
  std::string tfc;
};

/// The requests of one rung (or of the warm-up) and what came back.
struct Rung {
  double rate = 0.0;  ///< offered requests/s; 0 = not paced
  std::vector<Request> requests;
  std::vector<Reply> replies;
  Clock::time_point start{};
  bool drained = false;
};

/// Frame id: a one-letter tag and a serial ('r' requests, 's' stats).
std::string tagged(char tag, std::size_t serial) {
  std::string id(1, tag);
  id += std::to_string(serial);
  return id;
}

std::string submit_frame(const std::string& id, const TruthTable& spec) {
  JsonObject o;
  o.field("op", "submit");
  o.field("id", id);
  o.field("spec", write_permutation_spec(spec));
  o.field("tfc", true);
  return o.str();
}

/// Seeded request mix. Fresh specs lie in orbits that neither the bases nor
/// any earlier fresh spec occupy, so each is a cache miss.
///
/// The saturation phase draws its fresh specs from a pool that is the same
/// for every seed and used whole: cold-search cost is heavy-tailed (p50
/// 2 ms, p99 ~80 ms at n = 3), so a per-seed draw of a few hundred of them
/// moved saturated throughput by 20 % between seeds.
class RequestSource {
 public:
  RequestSource(const std::vector<Base>& bases, std::uint64_t seed,
                std::size_t pool_size)
      : deck_(bases, seed ^ 0x6465636b), rng_(seed ^ 0x73657276656d6978ULL) {
    for (const Base& b : bases) used_.insert(canonicalize(b.spec).key);
    std::mt19937_64 pool_rng(0x706f6f6c);
    while (pool_.size() < pool_size) {
      TruthTable t = fresh(pool_rng);
      pool_.push_back(std::move(t));
    }
  }

  /// An orbit member, or, for every kFreshEvery-th request that allows
  /// one, a fresh spec.
  TruthTable next(bool allow_fresh) {
    if (allow_fresh && ++count_ % kFreshEvery == 0) return fresh(rng_);
    return deck_.next();
  }

  const std::vector<TruthTable>& pool() const { return pool_; }
  std::mt19937_64& rng() { return rng_; }

 private:
  TruthTable fresh(std::mt19937_64& rng) {
    // n = 3 has about 3400 orbits; past that, repeats are allowed.
    for (int attempt = 0; attempt < 1000; ++attempt) {
      TruthTable t = random_reversible_function(3, rng);
      if (used_.insert(canonicalize(t).key).second) return t;
    }
    return random_reversible_function(3, rng);
  }

  MemberDeck deck_;
  std::mt19937_64 rng_;
  std::uint64_t count_ = 0;
  std::unordered_set<std::uint64_t> used_;
  std::vector<TruthTable> pool_;
};

/// Saturation: every tenth request is the next spec of the fixed fresh
/// pool, the rest orbit members.
bool from_pool(std::size_t saturation_index) {
  return saturation_index % kFreshEvery == kFreshEvery - 1;
}

void plan_rung(Rung& rung, double seconds, RequestSource& source,
               std::size_t& serial) {
  std::exponential_distribution<double> gap(rung.rate);
  for (double t = gap(source.rng()); t < seconds; t += gap(source.rng())) {
    Request r;
    r.due = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(t));
    r.spec = source.next(true);
    r.frame = submit_frame(tagged('r', serial++), r.spec);
    rung.requests.push_back(std::move(r));
  }
  rung.replies.resize(rung.requests.size());
}

void add_request(Rung& rung, TruthTable spec, std::size_t& serial) {
  Request r;
  r.frame = submit_frame(tagged('r', serial++), spec);
  r.spec = std::move(spec);
  rung.requests.push_back(std::move(r));
  rung.replies.resize(rung.requests.size());
}

/// The generator: sends each request of `rung` at its scheduled time (open
/// loop), or whenever fewer than `window` are in flight (closed loop,
/// window > 0); reads replies as they come, and polls the daemon's stats op
/// at 10 Hz. Returns once every request has its final reply. `first_id` is
/// the serial of the rung's first request.
void drive(std::vector<std::unique_ptr<Conn>>& conns, Rung& rung,
           std::size_t first_id, double& queue_depth_max,
           std::size_t window = 0) {
  rung.start = Clock::now();
  std::size_t next = 0;
  std::size_t outstanding = 0;
  std::uint64_t stats_seq = 0;
  auto next_stats = rung.start;
  const std::size_t total = rung.requests.size();
  const auto last_due =
      total > 0 ? rung.requests.back().due : Clock::duration{};
  const auto give_up = rung.start + last_due + kDrainTimeout;

  const auto handle = [&](const std::string& line, Clock::time_point now) {
    const std::optional<JsonValue> doc = json_parse(line);
    if (!doc) return;
    const JsonValue* record = doc->find("record");
    const JsonValue* id = doc->find("id");
    if (record == nullptr || !record->is_string()) return;
    if (record->string == "stats") {
      if (const JsonValue* q = doc->find("queue_depth"); q && q->is_number()) {
        queue_depth_max = std::max(queue_depth_max, q->number);
      }
      return;
    }
    if (id == nullptr || !id->is_string() || id->string.size() < 2 ||
        id->string[0] != 'r') {
      return;
    }
    const std::size_t serial = std::stoull(id->string.substr(1));
    if (serial < first_id || serial >= first_id + total) return;
    Reply& r = rung.replies[serial - first_id];
    if (record->string == "accepted") {
      r.accepted = now;
      return;
    }
    if (r.answered) return;
    r.answered = true;
    r.done = now;
    --outstanding;
    if (record->string == "error") {
      const JsonValue* status = doc->find("status");
      r.shed = status != nullptr && status->string == "unavailable";
      return;
    }
    const auto flag = [&](const char* key) {
      const JsonValue* v = doc->find(key);
      return v != nullptr && v->type == JsonValue::Type::kBool && v->boolean;
    };
    const auto number = [&](const char* key) {
      const JsonValue* v = doc->find(key);
      return v != nullptr && v->is_number() ? v->number : -1.0;
    };
    r.ok = flag("success");
    r.cache_hit = flag("cache_hit");
    r.server_us = number("elapsed_us");
    r.gates = static_cast<int>(number("gates"));
    if (const JsonValue* t = doc->find("tfc"); t && t->is_string()) {
      r.tfc = t->string;
    }
  };

  std::array<pollfd, kConnections> fds{};
  for (;;) {
    auto now = Clock::now();
    while (next < total &&
           (window > 0 ? outstanding < window
                       : rung.start + rung.requests[next].due <= now)) {
      Reply& r = rung.replies[next];
      r.due = window > 0 ? now : rung.start + rung.requests[next].due;
      r.sent = now;
      conns[next % conns.size()]->queue(rung.requests[next].frame);
      ++next;
      ++outstanding;
    }
    if (now >= next_stats) {
      JsonObject stats;
      stats.field("op", "stats").field("id", tagged('s', stats_seq++));
      conns[0]->queue(stats.str());
      next_stats += kStatsPeriod;
    }
    for (auto& c : conns) c->flush();
    if (next == total && outstanding == 0) {
      rung.drained = true;
      return;
    }
    if (now > give_up) return;

    // Sleep until shortly before the next send is due, then spin: a timer
    // wake-up alone is late by tens of microseconds, and lag counts toward
    // every request's latency.
    auto wake = next < total && window == 0
                    ? rung.start + rung.requests[next].due - kSpin
                    : now + std::chrono::milliseconds(5);
    wake = std::min(wake, next_stats);
    const auto wait = std::max(Clock::duration::zero(), wake - now);
    const timespec ts{
        static_cast<time_t>(
            std::chrono::duration_cast<std::chrono::seconds>(wait).count()),
        static_cast<long>((wait % std::chrono::seconds(1)).count())};
    for (std::size_t i = 0; i < conns.size(); ++i) {
      const short events = conns[i]->pending() ? POLLIN | POLLOUT : POLLIN;
      fds[i] = {conns[i]->fd(), events, 0};
    }
    if (::ppoll(fds.data(), conns.size(), &ts, nullptr) <= 0) continue;
    now = Clock::now();
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!conns[i]->read()) return;  // the daemon went away
      while (std::optional<std::string> line = conns[i]->next_frame()) {
        handle(*line, now);
      }
    }
  }
}

double ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Per-rung summary, printed and used for the metrics.
struct RungStats {
  double rate = 0.0;
  std::size_t sent = 0, ok = 0, shed = 0, errors = 0;
  double p50_ms = 0.0, p99_ms = 0.0, lag_p99_ms = 0.0;
  double completed_per_s = 0.0;
};

/// Scheduled send -> result, in ms, of the requests that got a circuit.
std::vector<double> ok_latency_ms(const Rung& rung) {
  std::vector<double> latency;
  for (const Reply& r : rung.replies) {
    if (r.answered && r.ok) latency.push_back(ms(r.done - r.due));
  }
  return latency;
}

RungStats summarize(const Rung& rung) {
  RungStats s;
  s.rate = rung.rate;
  s.sent = rung.requests.size();
  std::vector<double> lag;
  Clock::time_point last = rung.start;
  for (const Reply& r : rung.replies) {
    lag.push_back(ms(r.sent - r.due));
    if (!r.answered) {
      ++s.errors;
    } else if (r.shed) {
      ++s.shed;
    } else if (!r.ok) {
      ++s.errors;
    } else {
      ++s.ok;
      last = std::max(last, r.done);
    }
  }
  const std::vector<double> latency = ok_latency_ms(rung);
  s.p50_ms = quantile(latency, 0.5);
  s.p99_ms = quantile(latency, 0.99);
  s.lag_p99_ms = quantile(lag, 0.99);
  const double span = std::chrono::duration<double>(last - rung.start).count();
  s.completed_per_s = span > 0.0 ? static_cast<double>(s.ok) / span : 0.0;
  return s;
}

/// Prefill, spawn, warm up: one set-up. Leaves the daemon running.
struct Setup {
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Conn>> conns;
  std::string store;
};

/// `warmup` holds the first requests of the run (serials from 0).
bool set_up(const Config& cfg, const std::vector<Base>& bases, int index,
            Rung& warmup, Setup& s, WorkloadResult& res) {
  s.store = "store-" + std::to_string(index);
  std::filesystem::remove_all(s.store);
  if (!prefill_store(s.store, bases)) {
    res.violation("serve_mixed: prefill failed to synthesize a base");
  }
  s.daemon = std::make_unique<Daemon>(cfg.serve_bin, s.store);
  if (!s.daemon->ready()) {
    res.violation("serve_mixed: " + cfg.serve_bin + " did not start");
    return false;
  }
  for (int i = 0; i < kConnections; ++i) {
    s.conns.push_back(std::make_unique<Conn>());
    if (s.conns.back()->fd() < 0) {
      res.violation("serve_mixed: cannot connect to the daemon");
      return false;
    }
  }
  double ignored = 0.0;
  warmup.replies.assign(warmup.requests.size(), Reply{});
  drive(s.conns, warmup, 0, ignored);
  if (!warmup.drained) res.violation("serve_mixed: warm-up did not drain");
  return warmup.drained;
}

Usage shut_down(Setup& s, WorkloadResult& res) {
  s.conns[0]->queue("{\"op\":\"shutdown\",\"id\":\"bye\"}");
  s.conns[0]->flush();
  bool clean = false;
  const Usage u = s.daemon->stop(clean);
  if (!clean) res.violation("serve_mixed: daemon did not drain cleanly");
  s.conns.clear();
  return u;
}

/// Traced run: replays `rung`'s requests in process through the replica,
/// against the first set-up's store (prefilled, no ladder traffic), so the
/// per-layer numbers of the daemon's own work are visible. The replay must
/// give the daemon's gate counts.
void replay_layers(const Config& cfg, const Rung& rung, WorkloadResult& res) {
  std::vector<TruthTable> specs;
  for (const Request& r : rung.requests) specs.push_back(r.spec);
  ThreadTrace parse_trace;
  std::vector<std::unique_ptr<ThreadTrace>> traces;
  SynthCacheOptions cache_options;
  cache_options.dir = "store-0";
  SynthCache cache(cache_options);
  const auto t0 = Clock::now();
  const int parse_span = parse_trace.open(SpanKind::kParse, -1, 0);
  const Result<std::vector<NamedSpec>> parsed =
      parse_permutation_batch_checked(spec_list_text(specs), "<replay>");
  parse_trace.close(parse_span);
  const std::vector<JobOutcome> outcomes =
      traced_pass(specs, 2, &cache, daemon_resilience(), 0, traces);
  const double wall = seconds_since(t0);
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    const Reply& r = rung.replies[k];
    if (r.ok && outcomes[k].ok && outcomes[k].circuit.gate_count() != r.gates) {
      res.violation("serve_mixed: replay of request " + std::to_string(k) +
                    " gave " +
                    std::to_string(outcomes[k].circuit.gate_count()) +
                    " gates, the daemon " + std::to_string(r.gates));
      break;
    }
  }
  LayerInputs in;
  in.traces.push_back(&parse_trace);
  for (const auto& t : traces) in.traces.push_back(t.get());
  in.cache = cache.stats();
  in.wall_s = wall;
  in.threads = 2;
  in.specs_parsed = parsed.ok() ? parsed.value().size() : 0;
  add_layer_metrics(in, res);
  if (!cfg.trace_out.empty()) {
    std::ofstream os(cfg.trace_out);
    write_spans(in.traces, os);
  }
}

}  // namespace

WorkloadResult run_serve_mixed(const Config& cfg) {
  WorkloadResult res;
  std::filesystem::current_path(cfg.work_dir);
  // This thread is the generator: no timer slack on its sleeps.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  const std::vector<Base> bases = orbit_bases(3, 6);
  const auto saturation_size = static_cast<std::size_t>(
      cfg.quick ? 100.0 : kSaturationPerSecond * cfg.seconds);
  RequestSource source(bases, cfg.seed, saturation_size / kFreshEvery);

  std::vector<double> factors(kRateFactors.begin(), kRateFactors.end());
  if (cfg.quick) {
    factors.assign(kQuickRateFactors.begin(), kQuickRateFactors.end());
  }
  const double rung_s = cfg.seconds / static_cast<double>(factors.size());
  std::size_t serial = 0;
  // Warm-up requests are the same for every seed, so setup_s measures the
  // same work each run.
  Rung warmup;
  MemberDeck warm_deck(bases, 0x7761726d);
  for (std::size_t i = 0; i < kWarmupRequests; ++i) {
    add_request(warmup, warm_deck.next(), serial);
  }
  std::vector<Rung> rungs(factors.size());
  std::vector<std::size_t> first_id(factors.size());
  for (std::size_t i = 0; i < factors.size(); ++i) {
    rungs[i].rate = factors[i] * kSeedCapacity;
    first_id[i] = serial;
    plan_rung(rungs[i], rung_s, source, serial);
  }
  Rung saturation;
  const std::size_t saturation_id = serial;
  for (std::size_t i = 0; i < saturation_size; ++i) {
    add_request(saturation,
                from_pool(i) ? source.pool()[i / kFreshEvery]
                             : source.next(false),
                serial);
  }

  std::vector<double> setups;
  Setup live;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Setup s;
    const auto t0 = Clock::now();
    if (!set_up(cfg, bases, i, warmup, s, res)) return res;
    setups.push_back(seconds_since(t0));
    if (i + 1 < kSetupRepeats) {
      shut_down(s, res);
    } else {
      live = std::move(s);
    }
  }

  // The generator must keep its schedule while the daemon's threads fill
  // the 4 CPUs: at normal priority it waited up to ~30 ms for a CPU in 1 of
  // 40 runs. Raised only for the measured phases, after the daemon is
  // spawned, so neither the daemon nor the replay inherit it; where the
  // host does not allow it the run goes on at normal priority.
  const int priority = ::getpriority(PRIO_PROCESS, 0);
  (void)::setpriority(PRIO_PROCESS, 0, kGeneratorNice);
  double queue_depth_max = 0.0;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    drive(live.conns, rungs[i], first_id[i], queue_depth_max);
    if (!rungs[i].drained) {
      res.violation("serve_mixed: rung " + std::to_string(i) +
                    " did not drain within the timeout");
    }
  }
  drive(live.conns, saturation, saturation_id, queue_depth_max,
        kSaturationWindow);
  if (!saturation.drained) {
    res.violation("serve_mixed: saturation phase did not drain");
  }
  (void)::setpriority(PRIO_PROCESS, 0, priority);
  res.usage = shut_down(live, res);
  res.has_usage = true;

  // Oracle, off the generator's clock: every returned circuit, parsed from
  // its TFC, must realize its spec.
  Oracle oracle;
  std::size_t bad = 0;
  std::vector<double> gates, cost, accept_us, server_us, queue_us;
  std::size_t hits = 0, ok_total = 0;
  // Quality comes from the saturation phase's fresh specs: the fixed pool,
  // the same for every seed, each a cold search in the daemon. Orbit hits
  // return the prefill's circuits, which orbit_warm already gates.
  const auto check = [&](const Rung& rung, bool quality) {
    for (std::size_t k = 0; k < rung.requests.size(); ++k) {
      const Reply& r = rung.replies[k];
      ++res.attempted;
      if (!r.answered || !r.ok) {
        ++res.failed;
        continue;
      }
      Result<Circuit> c = read_tfc_checked(r.tfc, "<result>");
      std::string why;
      if (!c.ok()) {
        why = c.status().to_string();
      } else if (c.value().gate_count() != r.gates) {
        why = "result frame says " + std::to_string(r.gates) +
              " gates, its TFC has " + std::to_string(c.value().gate_count());
      } else {
        why = oracle.check(rung.requests[k].spec, c.value());
      }
      if (!why.empty()) {
        if (bad++ < 5) res.violation("serve_mixed request: " + why);
        continue;
      }
      ++ok_total;
      hits += r.cache_hit ? 1 : 0;
      accept_us.push_back(us(r.accepted - r.sent));
      server_us.push_back(r.server_us);
      queue_us.push_back(us(r.done - r.sent) - r.server_us);
      if (quality && from_pool(k)) {
        gates.push_back(c.value().gate_count());
        cost.push_back(static_cast<double>(quantum_cost(c.value())));
      }
    }
  };
  for (const Rung& rung : rungs) check(rung, false);
  check(saturation, true);
  std::vector<RungStats> stats;
  double max_ok_rate = 0.0;
  std::vector<double> lag_ms;  // every rung below the top, pooled
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const RungStats s = summarize(rungs[i]);
    stats.push_back(s);
    if (i + 1 < rungs.size()) {
      for (const Reply& r : rungs[i].replies) {
        lag_ms.push_back(ms(r.sent - r.due));
      }
    }
    if (s.p99_ms <= kLatencyLimitMs && s.shed == 0 && s.errors == 0 &&
        s.lag_p99_ms < kLagLimitMs) {
      max_ok_rate = std::max(max_ok_rate, s.rate);
    }
    std::cout << "serve_mixed rung " << s.rate << " req/s: " << s.sent
              << " sent, " << s.ok << " ok, " << s.shed << " shed, "
              << s.errors << " errors, p50 " << s.p50_ms << " ms, p99 "
              << s.p99_ms << " ms (" << s.ok << " samples), lag p99 "
              << s.lag_p99_ms << " ms, " << s.completed_per_s
              << " completed/s\n";
  }
  // Generator lag is a property of the host, not of the program's output,
  // so it is reported (gen.lag_ms_*, and a rung that lagged does not count
  // toward max_ok_rate_rps) but never fails the run: on a shared 4-vCPU VM
  // the pooled p99 passed 2 ms in 4 runs of 20, with every reply correct.
  // Latency is taken from the scheduled send time, so lag is charged to the
  // requests it delayed either way.
  std::cout << "serve_mixed generator lag below the top rung: p99 "
            << quantile(lag_ms, 0.99) << " ms, max " << quantile(lag_ms, 1.0)
            << " ms (" << lag_ms.size() << " requests)\n";
  const RungStats saturated = summarize(saturation);
  std::cout << "serve_mixed saturation (" << kSaturationWindow
            << " in flight): " << saturated.sent << " sent, " << saturated.ok
            << " ok, " << saturated.completed_per_s << " completed/s\n";

  if (cfg.traced) {
    std::size_t replay_rung = 0;
    for (std::size_t i = 0; i < factors.size(); ++i) {
      if (factors[i] == kLatencyRungFactor) replay_rung = i;
    }
    replay_layers(cfg, rungs[replay_rung], res);

    ServeLayer sl;
    sl.accept_us_p50 = quantile(accept_us, 0.5);
    sl.accept_us_p99 = quantile(accept_us, 0.99);
    sl.server_us_p50 = quantile(server_us, 0.5);
    sl.server_us_p99 = quantile(server_us, 0.99);
    sl.queue_wait_us_p99 = quantile(queue_us, 0.99);
    for (const RungStats& s : stats) sl.shed += static_cast<double>(s.shed);
    sl.queue_depth_max = queue_depth_max;
    sl.cache_hit_ratio = ok_total > 0 ? static_cast<double>(hits) /
                                            static_cast<double>(ok_total)
                                      : 0.0;
    sl.lag_ms_p99 = quantile(lag_ms, 0.99);
    sl.lag_ms_max = quantile(lag_ms, 1.0);
    add_serve_metrics(sl, res);
    return res;
  }

  add_setup(setups, res);
  res.add("throughput_jobs_per_s", saturated.completed_per_s, "jobs/s");
  std::vector<double> low_load_ms;
  for (std::size_t i = 0; i < factors.size(); ++i) {
    if (factors[i] <= kLatencyRungFactor) {
      const std::vector<double> l = ok_latency_ms(rungs[i]);
      low_load_ms.insert(low_load_ms.end(), l.begin(), l.end());
    }
    if (factors[i] == kHighRungFactor &&
        percentile_supported(stats[i].ok, 0.99)) {
      res.add("latency_p99_ms_high", stats[i].p99_ms, "ms");
    }
  }
  // The gated latency is the saturation phase's. Low-load p50 is mostly
  // wake-up hops between idle vCPUs (about 0.35 ms in all); its median
  // over ten runs moved 26 % between two sets of ten on a 4-vCPU VM, past
  // any usable bound, so it is reported but not gated.
  res.add("latency_p50_ms", quantile(ok_latency_ms(saturation), 0.5), "ms");
  res.add("latency_p50_ms_low", quantile(low_load_ms, 0.5), "ms");
  if (percentile_supported(low_load_ms.size(), 0.99)) {
    res.add("latency_p99_ms", quantile(low_load_ms, 0.99), "ms");
  }
  std::cout << "serve_mixed low-load latency: " << low_load_ms.size()
            << " samples at <= " << kLatencyRungFactor * kSeedCapacity
            << " req/s\n";
  res.add("max_ok_rate_rps", max_ok_rate, "req/s");
  res.add("gates_mean", mean(gates), "gates");
  res.add("quantum_cost_mean", mean(cost), "cost");
  res.add("fail_frac",
          static_cast<double>(res.failed) / static_cast<double>(res.attempted),
          "ratio");
  return res;
}

}  // namespace rmrls::e2e
