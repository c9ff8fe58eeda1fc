#include "core/synth_cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "io/tfc.hpp"

namespace rmrls {

namespace {

/// Independently locked LRU stripes; a key's top byte picks its shard.
/// Measured against a one-shard build on a 4-vCPU VM (EXPERIMENTS.md): a
/// warm 100,000-job `rmrls --batch --threads 4` ran 10-16 % slower with
/// one shard, in 14 of 14 alternating pairs, and BM_CacheAcquireHit at 4
/// threads took 2.5 times as long. Two job threads, as in orbit_warm,
/// could not tell one shard from eight.
constexpr std::size_t kShards = 8;

/// Longest a process that lost a lease race polls for the winner's .tfc
/// before synthesizing anyway (duplicate work, never wrong results).
constexpr std::chrono::milliseconds kLeaseWait{3000};

/// A lease or tmp file older than this is abandoned (its holder was
/// SIGKILLed mid-synthesis): the lease is stolen, and gc_disk() removes
/// both. Must comfortably exceed the slowest expected single synthesis.
constexpr std::chrono::milliseconds kLeaseStale{120000};

/// gc_disk() runs at construction and after every this many disk stores.
constexpr std::uint64_t kDiskGcEvery = 64;

/// Approximate resident cost of one cache entry: the gate storage plus
/// list/map node bookkeeping. Precision is not the point — the budget only
/// needs to bound memory the same way for every entry.
std::size_t entry_cost(const Circuit& circuit) {
  return sizeof(Circuit) + 96 +
         static_cast<std::size_t>(circuit.gate_count()) * sizeof(Gate);
}

std::string hex_key(std::uint64_t key) {
  static constexpr char digits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = digits[key & 0xf];
    key >>= 4;
  }
  return out;
}

/// File age relative to the filesystem clock's now; errors read as age 0
/// (freshly written) so a racing removal never looks stale.
std::chrono::milliseconds file_age(const std::filesystem::path& path) {
  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) return std::chrono::milliseconds{0};
  const auto now = std::filesystem::file_time_type::clock::now();
  if (now <= mtime) return std::chrono::milliseconds{0};
  return std::chrono::duration_cast<std::chrono::milliseconds>(now - mtime);
}

}  // namespace

SynthCache::SynthCache(SynthCacheOptions options)
    : options_(std::move(options)),
      shards_(kShards) {
  shard_budget_ = options_.byte_budget / shards_.size();
  if (Telemetry* t = Telemetry::active()) {
    tele_hits_ = &t->counter("cache.hits");
    tele_disk_hits_ = &t->counter("cache.disk_hits");
    tele_misses_ = &t->counter("cache.misses");
    tele_inserts_ = &t->counter("cache.inserts");
    tele_evictions_ = &t->counter("cache.evictions");
    tele_bytes_ = &t->gauge("cache.bytes");
    tele_follow_us_ = &t->histogram("cache.follow_wait_us");
    tele_shard_bytes_.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      tele_shard_bytes_.push_back(
          &t->gauge("cache.shard" + std::to_string(i) + ".bytes"));
    }
  }
  if (!options_.dir.empty()) {
    // Best-effort: an uncreatable directory degrades to a memory-only
    // cache (reads and writes below fail soft, entry by entry).
    std::error_code ec;
    std::filesystem::create_directories(options_.dir, ec);
    // A fleet member joining a long-lived shared store sweeps dead
    // processes' litter (and any budget overrun) before its first store.
    gc_disk();
  }
}

SynthCache::Acquisition SynthCache::acquire(std::uint64_t key) {
  Shard& shard = shard_of(key);
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::unique_lock<std::mutex> lock(shard.m);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      ++shard.stats.hits;
      if (tele_hits_ != nullptr) tele_hits_->inc();
      return {Outcome::kHit, it->second->circuit};
    }
    const auto fit = shard.inflight.find(key);
    if (fit != shard.inflight.end()) {
      flight = fit->second;
      ++shard.stats.dedup_waits;
    } else {
      flight = std::make_shared<Flight>();
      shard.inflight.emplace(key, flight);
      leader = true;
    }
  }
  if (!leader) {
    const auto wait_start = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> wait_lock(flight->m);
    flight->cv.wait(wait_lock, [&] { return flight->done; });
    if (tele_follow_us_ != nullptr) {
      tele_follow_us_->record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - wait_start)
              .count()));
    }
    return {Outcome::kFollow, flight->circuit};
  }
  // Leadership covers the disk store too: exactly one thread pays the
  // file read, and its followers adopt the revived circuit.
  if (!options_.dir.empty()) {
    if (std::optional<Circuit> revived = load_from_disk(key)) {
      {
        std::unique_lock<std::mutex> lock(shard.m);
        ++shard.stats.disk_hits;
        if (tele_disk_hits_ != nullptr) tele_disk_hits_->inc();
        insert_locked(shard, key, *revived);
      }
      publish(key, &*revived);
      return {Outcome::kHit, std::move(revived)};
    }
    // Disk miss: other *processes* sharing this store may be synthesizing
    // the key right now. The lease protocol either claims the key for this
    // process or waits for the winner's .tfc to land (docs/fleet.md).
    if (std::optional<Circuit> adopted = lease_or_wait(key)) {
      {
        std::unique_lock<std::mutex> lock(shard.m);
        ++shard.stats.disk_hits;
        if (tele_disk_hits_ != nullptr) tele_disk_hits_->inc();
        insert_locked(shard, key, *adopted);
      }
      publish(key, &*adopted);
      return {Outcome::kHit, std::move(adopted)};
    }
  }
  {
    std::unique_lock<std::mutex> lock(shard.m);
    ++shard.stats.misses;
  }
  if (tele_misses_ != nullptr) tele_misses_->inc();
  return {Outcome::kLead, std::nullopt};
}

void SynthCache::publish(std::uint64_t key, const Circuit* circuit) {
  Shard& shard = shard_of(key);
  std::shared_ptr<Flight> flight;
  {
    std::unique_lock<std::mutex> lock(shard.m);
    const auto fit = shard.inflight.find(key);
    if (fit != shard.inflight.end()) {
      flight = fit->second;
      shard.inflight.erase(fit);
    }
    if (circuit != nullptr && shard.map.find(key) == shard.map.end()) {
      insert_locked(shard, key, *circuit);
    }
  }
  if (circuit != nullptr && !options_.dir.empty()) {
    store_to_disk(key, *circuit);
  }
  // The lease outlives the synthesis, not the process: release it on
  // every publish path, including a failed synthesis (circuit ==
  // nullptr), so other processes stop waiting and try themselves.
  release_lease(key);
  if (flight != nullptr) {
    std::unique_lock<std::mutex> wait_lock(flight->m);
    flight->done = true;
    if (circuit != nullptr) flight->circuit = *circuit;
    wait_lock.unlock();
    flight->cv.notify_all();
  }
}

std::optional<Circuit> SynthCache::lookup(std::uint64_t key) {
  Shard& shard = shard_of(key);
  {
    std::unique_lock<std::mutex> lock(shard.m);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      ++shard.stats.hits;
      if (tele_hits_ != nullptr) tele_hits_->inc();
      return it->second->circuit;
    }
  }
  if (!options_.dir.empty()) {
    if (std::optional<Circuit> revived = load_from_disk(key)) {
      std::unique_lock<std::mutex> lock(shard.m);
      ++shard.stats.disk_hits;
      if (tele_disk_hits_ != nullptr) tele_disk_hits_->inc();
      insert_locked(shard, key, *revived);
      return revived;
    }
  }
  std::unique_lock<std::mutex> lock(shard.m);
  ++shard.stats.misses;
  if (tele_misses_ != nullptr) tele_misses_->inc();
  return std::nullopt;
}

void SynthCache::insert(std::uint64_t key, const Circuit& circuit) {
  Shard& shard = shard_of(key);
  {
    std::unique_lock<std::mutex> lock(shard.m);
    insert_locked(shard, key, circuit);
  }
  if (!options_.dir.empty()) store_to_disk(key, circuit);
}

void SynthCache::insert_locked(Shard& shard, std::uint64_t key,
                               const Circuit& circuit) {
  const auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    shard.bytes -= it->second->bytes;
    it->second->circuit = circuit;
    it->second->bytes = entry_cost(circuit);
    shard.bytes += it->second->bytes;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.push_front(Entry{key, circuit, entry_cost(circuit)});
    shard.map[key] = shard.lru.begin();
    shard.bytes += shard.lru.front().bytes;
    ++shard.stats.inserts;
    if (tele_inserts_ != nullptr) tele_inserts_->inc();
  }
  // Byte-budget eviction from the LRU tail; the freshest entry is exempt
  // so one oversized circuit cannot make insertion a no-op.
  while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.map.erase(victim.key);
    shard.lru.pop_back();
    ++shard.stats.evictions;
    if (tele_evictions_ != nullptr) tele_evictions_->inc();
  }
  if (tele_bytes_ != nullptr) {
    const auto idx = static_cast<std::size_t>(&shard - shards_.data());
    tele_shard_bytes_[idx]->set(static_cast<std::int64_t>(shard.bytes));
    std::int64_t total = 0;
    for (const Gauge* g : tele_shard_bytes_) total += g->value();
    tele_bytes_->set(total);
  }
}

std::optional<Circuit> SynthCache::load_from_disk(std::uint64_t key) const {
  const std::filesystem::path path =
      std::filesystem::path(options_.dir) / (hex_key(key) + ".tfc");
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  // Hardened parser (docs/robustness.md): a truncated or corrupt file is
  // a miss, never an exception on the serving path.
  Result<Circuit> parsed = read_tfc_checked(buf.str(), path.string());
  if (!parsed.ok()) return std::nullopt;
  return std::move(parsed).value();
}

void SynthCache::store_to_disk(std::uint64_t key,
                               const Circuit& circuit) const {
  const std::filesystem::path dir(options_.dir);
  const std::filesystem::path path = dir / (hex_key(key) + ".tfc");
  // Write-to-temp + rename so concurrent readers (and crashed writers)
  // never observe a half-written .tfc. The tmp name must be unique across
  // *processes* sharing the store (the fleet / serve scenario), not just
  // threads: thread-id hashes can collide between processes, so the name
  // carries the pid plus a per-process counter. Failures degrade to a
  // cold key.
  static std::atomic<std::uint64_t> tmp_serial{0};
  const std::filesystem::path tmp =
      dir / (hex_key(key) + ".tmp" + std::to_string(::getpid()) + "." +
             std::to_string(tmp_serial.fetch_add(
                 1, std::memory_order_relaxed)));
  {
    std::ofstream out(tmp);
    if (!out) return;
    out << write_tfc(circuit);
    if (!out) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return;
  }
  if ((stores_since_gc_.fetch_add(1, std::memory_order_relaxed) + 1) %
          kDiskGcEvery ==
      0) {
    gc_disk();
  }
}

bool SynthCache::try_lease(std::uint64_t key) {
  const std::filesystem::path path =
      std::filesystem::path(options_.dir) / (hex_key(key) + ".lease");
  const int fd =
      ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return false;
  // The pid is advisory (debugging a wedged fleet by hand); staleness is
  // judged by mtime, never by pid liveness — pids recycle across hosts.
  const std::string body = std::to_string(::getpid()) + "\n";
  [[maybe_unused]] const auto n = ::write(fd, body.data(), body.size());
  ::close(fd);
  {
    std::lock_guard<std::mutex> lock(lease_m_);
    owned_leases_.insert(key);
  }
  lease_acquired_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void SynthCache::release_lease(std::uint64_t key) {
  {
    std::lock_guard<std::mutex> lock(lease_m_);
    if (owned_leases_.erase(key) == 0) return;
  }
  std::error_code ec;
  std::filesystem::remove(
      std::filesystem::path(options_.dir) / (hex_key(key) + ".lease"), ec);
}

std::optional<Circuit> SynthCache::lease_or_wait(std::uint64_t key) {
  if (try_lease(key)) return std::nullopt;  // we lead, lease in hand
  // Lost the race: another process is synthesizing this key. Poll for its
  // .tfc (adopt), for the lease to vanish (retry the claim), or for the
  // lease to go stale (steal it — its holder died without cleanup). The
  // wait is bounded: past kLeaseWait we synthesize anyway, trading
  // duplicate work for guaranteed progress.
  lease_waits_.fetch_add(1, std::memory_order_relaxed);
  const std::filesystem::path lease =
      std::filesystem::path(options_.dir) / (hex_key(key) + ".lease");
  const auto deadline =
      std::chrono::steady_clock::now() + kLeaseWait;
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
    if (std::optional<Circuit> revived = load_from_disk(key)) return revived;
    std::error_code ec;
    const bool lease_present = std::filesystem::exists(lease, ec) && !ec;
    if (!lease_present) {
      if (try_lease(key)) return std::nullopt;
      continue;  // lost again to a third process
    }
    if (file_age(lease) > kLeaseStale) {
      std::filesystem::remove(lease, ec);  // steal; remove is idempotent
      if (try_lease(key)) return std::nullopt;
    }
  }
  lease_timeouts_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;  // lead without a lease
}

std::size_t SynthCache::gc_disk() const {
  if (options_.dir.empty()) return 0;
  // One sweeper at a time per process; concurrent calls return instead of
  // queueing identical scans. Cross-process overlap is harmless — both
  // sweepers converge on the same survivors.
  bool expected = false;
  if (!gc_running_.compare_exchange_strong(expected, true,
                                           std::memory_order_acquire)) {
    return 0;
  }
  struct TfcFile {
    std::filesystem::path path;
    std::filesystem::file_time_type mtime;
    std::uintmax_t bytes = 0;
  };
  std::vector<TfcFile> tfcs;
  std::uintmax_t tfc_bytes = 0;
  std::error_code ec;
  for (std::filesystem::directory_iterator
           it(options_.dir, ec),
       end;
       !ec && it != end; it.increment(ec)) {
    const std::filesystem::path& path = it->path();
    const std::string name = path.filename().string();
    if (name.size() > 16 && name.compare(16, 4, ".tmp") == 0) {
      // Orphaned tmp file: its writer died between create and rename. A
      // live writer's tmp is younger than kLeaseStale and survives.
      if (file_age(path) > kLeaseStale) {
        std::error_code rec;
        std::filesystem::remove(path, rec);
      }
      continue;
    }
    if (path.extension() == ".lease") {
      if (file_age(path) > kLeaseStale) {
        std::error_code rec;
        std::filesystem::remove(path, rec);
      }
      continue;
    }
    if (path.extension() != ".tfc") continue;
    std::error_code sec;
    const std::uintmax_t bytes = std::filesystem::file_size(path, sec);
    const auto mtime = std::filesystem::last_write_time(path, sec);
    if (sec) continue;  // raced with a concurrent removal
    tfcs.push_back(TfcFile{path, mtime, bytes});
    tfc_bytes += bytes;
  }
  std::size_t evicted = 0;
  if (options_.disk_byte_budget > 0 && tfc_bytes > options_.disk_byte_budget) {
    std::sort(tfcs.begin(), tfcs.end(),
              [](const TfcFile& a, const TfcFile& b) {
                return a.mtime < b.mtime;
              });
    for (const TfcFile& f : tfcs) {
      if (tfc_bytes <= options_.disk_byte_budget) break;
      std::error_code rec;
      if (std::filesystem::remove(f.path, rec) && !rec) {
        tfc_bytes -= std::min<std::uintmax_t>(tfc_bytes, f.bytes);
        ++evicted;
      }
    }
    disk_evictions_.fetch_add(evicted, std::memory_order_relaxed);
  }
  gc_running_.store(false, std::memory_order_release);
  return evicted;
}

SynthCacheStats SynthCache::stats() const {
  SynthCacheStats total;
  for (const Shard& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard.m);
    total.hits += shard.stats.hits;
    total.disk_hits += shard.stats.disk_hits;
    total.misses += shard.stats.misses;
    total.dedup_waits += shard.stats.dedup_waits;
    total.inserts += shard.stats.inserts;
    total.evictions += shard.stats.evictions;
  }
  total.lease_acquired = lease_acquired_.load(std::memory_order_relaxed);
  total.lease_waits = lease_waits_.load(std::memory_order_relaxed);
  total.lease_timeouts = lease_timeouts_.load(std::memory_order_relaxed);
  total.disk_evictions = disk_evictions_.load(std::memory_order_relaxed);
  return total;
}

std::size_t SynthCache::bytes_used() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard.m);
    total += shard.bytes;
  }
  return total;
}

std::size_t SynthCache::entry_count() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard.m);
    total += shard.lru.size();
  }
  return total;
}

}  // namespace rmrls
