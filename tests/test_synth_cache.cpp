// Tests for the sharded orbit cache (core/synth_cache.hpp) and the batch
// driver built on it (core/batch.hpp): LRU eviction under the byte budget,
// the on-disk store across a cold restart, single-flight deduplication
// under contention, the two-level thread split, and the batch counters'
// invariants.

#include "core/synth_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "rev/equivalence.hpp"
#include "rev/random.hpp"

namespace rmrls {
namespace {

Circuit toy_circuit(int lines, int seed) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
  return random_circuit(lines, 4, GateLibrary::kGT, rng);
}

std::string fresh_dir(const char* name) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(SynthCache, InsertLookupRoundTrip) {
  SynthCache cache(SynthCacheOptions{});
  EXPECT_FALSE(cache.lookup(42).has_value());
  const Circuit c = toy_circuit(4, 1);
  cache.insert(42, c);
  const auto hit = cache.lookup(42);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, c);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(SynthCache, ByteBudgetEvictsLeastRecentlyUsed) {
  SynthCacheOptions options;
  options.shards = 1;           // deterministic: one LRU list
  options.byte_budget = 2000;   // a handful of toy circuits
  SynthCache cache(options);
  const int kKeys = 64;
  for (int k = 0; k < kKeys; ++k) cache.insert(k, toy_circuit(4, k));
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LT(cache.entry_count(), static_cast<std::size_t>(kKeys));
  EXPECT_LE(cache.bytes_used(), options.byte_budget);
  // The most recent key must have survived; the oldest must be gone.
  EXPECT_TRUE(cache.lookup(kKeys - 1).has_value());
  EXPECT_FALSE(cache.lookup(0).has_value());
}

TEST(SynthCache, OversizedEntryStillInserts) {
  SynthCacheOptions options;
  options.shards = 1;
  options.byte_budget = 1;  // below any single entry's cost
  SynthCache cache(options);
  cache.insert(7, toy_circuit(4, 7));
  // The freshest entry is exempt from eviction, so the cache still serves.
  EXPECT_TRUE(cache.lookup(7).has_value());
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(SynthCache, ReinsertUpdatesInPlace) {
  SynthCache cache(SynthCacheOptions{});
  cache.insert(5, toy_circuit(4, 1));
  const Circuit replacement = toy_circuit(4, 2);
  cache.insert(5, replacement);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(*cache.lookup(5), replacement);
}

TEST(SynthCache, DiskStoreSurvivesRestart) {
  const std::string dir = fresh_dir("synth_cache_disk");
  const Circuit c = toy_circuit(5, 9);
  {
    SynthCacheOptions options;
    options.dir = dir;
    SynthCache cache(options);
    cache.insert(0xabcdef, c);
  }
  // A cold cache over the same directory revives the entry from disk and
  // the revived circuit is gate-for-gate identical (.tfc round-trip).
  SynthCacheOptions options;
  options.dir = dir;
  SynthCache cache(options);
  const auto hit = cache.lookup(0xabcdef);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, c);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  std::filesystem::remove_all(dir);
}

TEST(SynthCache, CorruptDiskEntryDegradesToMiss) {
  const std::string dir = fresh_dir("synth_cache_corrupt");
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(std::filesystem::path(dir) /
                      "00000000000000ff.tfc");
    out << "this is not a tfc file\n";
  }
  SynthCacheOptions options;
  options.dir = dir;
  SynthCache cache(options);
  EXPECT_FALSE(cache.lookup(0xff).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  std::filesystem::remove_all(dir);
}

TEST(SynthCache, ConcurrentWritersNeverTearDiskEntries) {
  // Many caches (think: many rmrls-serve daemons or batch runs) sharing
  // one --cache-dir, all publishing the same keys at once. The tmp+rename
  // protocol (unique `<hex>.tmp<pid>.<serial>` staging name, atomic
  // rename) must guarantee a reader only ever sees a complete file —
  // never a torn one — whichever writer wins each race.
  const std::string dir = fresh_dir("synth_cache_racing_writers");
  constexpr int kWriters = 8;
  constexpr int kKeys = 16;
  constexpr int kRounds = 8;
  std::vector<Circuit> variants;
  for (int w = 0; w < kWriters; ++w) variants.push_back(toy_circuit(5, w));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn_reads{0};
  // A reader hammering the same keys through its own cold cache. Because
  // rename is atomic and nothing ever unlinks a published key, the moment
  // a key's file exists every open must see a complete circuit; a miss on
  // an existing file means the reader caught a torn write.
  std::thread reader([&] {
    SynthCacheOptions options;
    options.dir = dir;
    options.byte_budget = 1;  // keep nothing in memory: every hit is disk
    while (!stop.load(std::memory_order_relaxed)) {
      SynthCache probe(options);
      for (int k = 0; k < kKeys; ++k) {
        std::ostringstream name;
        name << std::hex << std::setw(16) << std::setfill('0') << k
             << ".tfc";
        const bool published =
            std::filesystem::exists(std::filesystem::path(dir) / name.str());
        const auto hit = probe.lookup(static_cast<std::uint64_t>(k));
        if (published && !hit.has_value()) ++torn_reads;
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      SynthCacheOptions options;
      options.dir = dir;
      SynthCache mine(options);
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < kKeys; ++k) {
          mine.insert(static_cast<std::uint64_t>(k), variants[w]);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(torn_reads.load(), 0u);

  // Afterwards: every key revives as one of the written variants, and no
  // staging file leaked past its rename.
  SynthCacheOptions options;
  options.dir = dir;
  SynthCache cold(options);
  for (int k = 0; k < kKeys; ++k) {
    const auto hit = cold.lookup(static_cast<std::uint64_t>(k));
    ASSERT_TRUE(hit.has_value()) << "key " << k << " lost in the race";
    bool known = false;
    for (const Circuit& v : variants) known = known || (*hit == v);
    EXPECT_TRUE(known) << "key " << k << " revived a circuit no writer wrote";
  }
  std::uint64_t leftovers = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().find(".tmp") != std::string::npos) {
      ++leftovers;
    }
  }
  EXPECT_EQ(leftovers, 0u) << "tmp staging files leaked past rename";
  std::filesystem::remove_all(dir);
}

TEST(SynthCache, WriterRacingCorruptFileStillServes) {
  // A half-written or garbage file under a key being actively republished
  // must degrade to a miss (never an exception) and then heal once a
  // writer's rename lands.
  const std::string dir = fresh_dir("synth_cache_corrupt_race");
  std::filesystem::create_directories(dir);
  const std::uint64_t key = 0x2a;
  const auto path = std::filesystem::path(dir) / "000000000000002a.tfc";
  {
    std::ofstream out(path);
    out << ".v a,b\n.i a\ntruncated";
  }
  SynthCacheOptions options;
  options.dir = dir;
  options.byte_budget = 1;  // force every lookup back to disk
  SynthCache cache(options);
  EXPECT_FALSE(cache.lookup(key).has_value());
  const Circuit good = toy_circuit(5, 3);
  cache.insert(key, good);
  const auto healed = cache.lookup(key);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(*healed, good);
  std::filesystem::remove_all(dir);
}

TEST(SynthCache, SingleFlightElectsOneLeader) {
  SynthCache cache(SynthCacheOptions{});
  const Circuit c = toy_circuit(4, 3);
  constexpr int kThreads = 8;
  std::atomic<int> leaders{0};
  std::atomic<int> followers_with_result{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      SynthCache::Acquisition acq = cache.acquire(99);
      if (acq.outcome == SynthCache::Outcome::kLead) {
        leaders.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        cache.publish(99, &c);
      } else if (acq.circuit.has_value() && *acq.circuit == c) {
        followers_with_result.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(leaders.load(), 1);
  EXPECT_EQ(followers_with_result.load(), kThreads - 1);
  EXPECT_TRUE(cache.lookup(99).has_value());
}

TEST(SynthCache, FailedLeaderReleasesFollowersEmptyHanded) {
  SynthCache cache(SynthCacheOptions{});
  SynthCache::Acquisition lead = cache.acquire(7);
  ASSERT_EQ(lead.outcome, SynthCache::Outcome::kLead);
  std::thread follower([&] {
    SynthCache::Acquisition acq = cache.acquire(7);
    EXPECT_EQ(acq.outcome, SynthCache::Outcome::kFollow);
    EXPECT_FALSE(acq.circuit.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  cache.publish(7, nullptr);  // synthesis failed; nothing stored
  follower.join();
  // The key is cold again: the next acquire leads.
  EXPECT_EQ(cache.acquire(7).outcome, SynthCache::Outcome::kLead);
  cache.publish(7, nullptr);
}

std::vector<BatchJob> orbit_heavy_jobs(int n, int unique, int copies,
                                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<BatchJob> jobs;
  std::vector<TruthTable> bases;
  for (int u = 0; u < unique; ++u) {
    bases.push_back(random_reversible_function(n, rng));
  }
  for (int c = 0; c < copies; ++c) {
    for (int u = 0; u < unique; ++u) {
      TruthTable t = bases[static_cast<std::size_t>(u)];
      if (c > 0) {
        std::vector<int> sigma(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) sigma[static_cast<std::size_t>(i)] = i;
        std::shuffle(sigma.begin(), sigma.end(), rng);
        t = conjugate(t, sigma);
        if (rng() & 1u) t = t.inverse();
      }
      jobs.push_back(BatchJob{
          "job" + std::to_string(jobs.size()), std::move(t), ""});
    }
  }
  return jobs;
}

TEST(Batch, EveryOutcomeIsVerifiedAgainstItsOwnSpec) {
  const std::vector<BatchJob> jobs = orbit_heavy_jobs(3, 4, 3, 11);
  SynthCache cache(SynthCacheOptions{});
  BatchOptions options;
  options.total_threads = 4;
  options.cache = &cache;
  const BatchResult result = run_batch(jobs, options);
  EXPECT_TRUE(result.status.ok());
  ASSERT_EQ(result.outcomes.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const BatchJobOutcome& out = result.outcomes[i];
    EXPECT_TRUE(out.status.ok()) << out.name;
    EXPECT_TRUE(out.verified);
    EXPECT_EQ(out.result.circuit.to_truth_table(), jobs[i].spec) << out.name;
  }
}

TEST(Batch, CountersRespectTheirInvariants) {
  const std::vector<BatchJob> jobs = orbit_heavy_jobs(3, 3, 4, 12);
  SynthCache cache(SynthCacheOptions{});
  BatchOptions options;
  options.total_threads = 4;
  options.cache = &cache;
  const BatchResult result = run_batch(jobs, options);
  const BatchStats& s = result.stats;
  EXPECT_EQ(s.jobs, jobs.size());
  EXPECT_EQ(s.completed + s.failed, s.jobs);
  EXPECT_LE(s.cache_orbit_hits, s.cache_hits);
  EXPECT_LE(s.cache_hits + s.cache_misses + s.batch_dedup, s.jobs);
  // 3 orbits, 12 jobs: at most one synthesis per orbit plus collisions.
  EXPECT_GE(s.cache_hits + s.batch_dedup, s.jobs - 3 * 2);
  EXPECT_GT(s.cache_hits, 0u);
}

// Jobs are not passes of one search. Orbit hits carry no search (a
// sparse default record) and misses run dense, yet the summary sums each
// job's own switch count, which is 0 for every one of them.
TEST(Batch, DenseSummaryReportsNoRepresentationSwitch) {
  const std::vector<BatchJob> jobs = orbit_heavy_jobs(3, 3, 3, 14);
  SynthCache cache(SynthCacheOptions{});
  BatchOptions options;
  options.cache = &cache;
  const BatchResult result = run_batch(jobs, options);
  ASSERT_TRUE(result.status.ok());
  ASSERT_GT(result.stats.cache_hits, 0u);
  for (const BatchJobOutcome& out : result.outcomes) {
    EXPECT_EQ(out.result.stats.representation_switches, 0u) << out.name;
  }
  EXPECT_TRUE(result.search_stats.dense_kernel);
  EXPECT_EQ(result.search_stats.representation_switches, 0u);
}

TEST(Batch, CachelessRunMatchesSingleShotSynthesis) {
  // Without a cache the driver must behave like per-job
  // synthesize_resilient on the original spec (the --cache-mb 0
  // bit-identity guarantee), whatever the thread count: 8 threads over 3
  // jobs runs every job on its own thread.
  std::mt19937_64 rng(13);
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(BatchJob{"j" + std::to_string(i),
                            random_reversible_function(3, rng), ""});
  }
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    BatchOptions options;
    options.total_threads = threads;
    const BatchResult result = run_batch(jobs, options);
    EXPECT_TRUE(result.status.ok());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const ResilientResult single = synthesize_resilient(jobs[i].spec, {});
      EXPECT_EQ(result.outcomes[i].result.circuit, single.result.circuit);
    }
    EXPECT_EQ(result.stats.cache_hits, 0u);
    EXPECT_EQ(result.stats.cache_misses, jobs.size());
  }
}

TEST(Batch, SharedDeadlineCancelsUnstartedJobs) {
  // A pre-fired token (as the SIGINT handler would leave it) fails every
  // job with kCancelled without running any engine.
  std::mt19937_64 rng(14);
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(BatchJob{"j" + std::to_string(i),
                            random_reversible_function(4, rng), ""});
  }
  CancelToken token;
  token.cancel(CancelReason::kUser);
  BatchOptions options;
  options.cancel_token = &token;
  const BatchResult result = run_batch(jobs, options);
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(result.stats.failed, jobs.size());
  for (const BatchJobOutcome& out : result.outcomes) {
    EXPECT_EQ(out.status.code(), StatusCode::kCancelled);
  }
}

TEST(Batch, EmptyBatchSucceedsWithZeroStats) {
  // A shard that owns no specs (docs/fleet.md) — or an empty corpus — is
  // a valid zero-job batch, not caller misuse.
  const BatchResult result = run_batch({}, {});
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.stats.jobs, 0u);
  EXPECT_EQ(result.stats.completed, 0u);
  EXPECT_EQ(result.stats.failed, 0u);
  EXPECT_TRUE(result.outcomes.empty());
}

TEST(Batch, WarmDiskCacheServesASecondBatch) {
  const std::string dir = fresh_dir("batch_disk");
  const std::vector<BatchJob> jobs = orbit_heavy_jobs(3, 3, 2, 15);
  SynthCacheOptions copts;
  copts.dir = dir;
  BatchStats first;
  {
    SynthCache cache(copts);
    BatchOptions options;
    options.cache = &cache;
    first = run_batch(jobs, options).stats;
  }
  ASSERT_GT(first.cache_misses, 0u);
  // A cold in-memory cache over the same directory: every orbit is served
  // from disk, so nothing synthesizes again.
  SynthCache cache(copts);
  BatchOptions options;
  options.cache = &cache;
  const BatchResult second = run_batch(jobs, options);
  EXPECT_TRUE(second.status.ok());
  EXPECT_EQ(second.stats.cache_misses, 0u);
  EXPECT_EQ(second.stats.cache_hits, jobs.size());
  EXPECT_GT(cache.stats().disk_hits, 0u);
  std::filesystem::remove_all(dir);
}

TEST(Batch, CachedCircuitOfTheWrongWidthIsAMiss) {
  // A store entry holding a circuit of another width (a corrupt file, or a
  // key collision across widths) must degrade to a miss like any entry
  // that fails verification, not throw out of the reconstruction.
  const TruthTable spec(
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 14});
  SynthCache cache(SynthCacheOptions{});
  cache.insert(canonicalize(spec).key, toy_circuit(3, 1));
  BatchOptions options;
  options.cache = &cache;
  const BatchResult result = run_batch({BatchJob{"tof4", spec, ""}}, options);
  ASSERT_EQ(result.outcomes.size(), 1u);
  const BatchJobOutcome& out = result.outcomes[0];
  EXPECT_TRUE(out.status.ok());
  EXPECT_FALSE(out.cache_hit);
  EXPECT_TRUE(out.verified);
  EXPECT_EQ(out.result.circuit.to_truth_table(), spec);
}

}  // namespace
}  // namespace rmrls
