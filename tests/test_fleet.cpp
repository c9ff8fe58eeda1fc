// Tests for the fleet scale-out layer (docs/fleet.md): the frozen stable
// spec key, deterministic shard assignment and its exactly-once union
// property, the crash-safe checkpoint ledger and batch resume semantics,
// the cross-process lease protocol and disk GC of the shared store, and —
// through the real CLI binary — SIGKILL-resume with no job synthesized
// twice.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/corpus.hpp"
#include "core/batch.hpp"
#include "core/checkpoint.hpp"
#include "core/synth_cache.hpp"
#include "obs/json.hpp"
#include "rev/canonical.hpp"
#include "rev/random.hpp"

namespace rmrls {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const char* name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TruthTable identity(int n) {
  std::vector<std::uint64_t> image(std::size_t{1} << n);
  for (std::size_t i = 0; i < image.size(); ++i) image[i] = i;
  return TruthTable(std::move(image));
}

std::vector<BatchJob> corpus_jobs(int size, double repeat_rate,
                                  std::uint64_t seed) {
  suite::CorpusOptions options;
  options.size = size;
  options.repeat_rate = repeat_rate;
  options.min_vars = 3;
  options.max_vars = 4;
  options.seed = seed;
  Result<std::vector<suite::CorpusEntry>> corpus =
      suite::generate_corpus(options);
  EXPECT_TRUE(corpus.ok());
  std::vector<BatchJob> jobs;
  for (suite::CorpusEntry& e : corpus.value()) {
    jobs.push_back(BatchJob{std::move(e.label), std::move(e.spec), ""});
  }
  return jobs;
}

// ---------------------------------------------------------------------------
// Stable spec key: frozen wire format.

TEST(StableSpecKey, GoldenValueIsFrozen) {
  // FNV-1a over (num_vars byte, 8 LE bytes per image word). This constant
  // is load-bearing: checkpoint files and shard membership persist it, so
  // a hash change silently reshards every fleet. If this test fails, the
  // change is wrong — do not update the constant.
  EXPECT_EQ(stable_spec_key(identity(3)), 0x9034c268bba96492ULL);
}

TEST(StableSpecKey, DistinguishesSpecsButNotInstances) {
  const TruthTable a = identity(3);
  TruthTable b = identity(3);
  EXPECT_EQ(stable_spec_key(a), stable_spec_key(b));
  std::mt19937_64 rng(7);
  for (int i = 0; i < 16; ++i) {
    const TruthTable r = random_reversible_function(3, rng);
    if (r == a) continue;
    EXPECT_NE(stable_spec_key(r), stable_spec_key(a));
  }
}

// ---------------------------------------------------------------------------
// Sharding: exactly-once union, stable ids.

TEST(Sharding, EverySpecOwnedByExactlyOneShard) {
  std::mt19937_64 rng(11);
  for (int n = 1; n <= 8; ++n) {
    for (int s = 0; s < 32; ++s) {
      const TruthTable spec = random_reversible_function(3 + (s & 1), rng);
      int owners = 0;
      for (int i = 0; i < n; ++i) owners += shard_owns(spec, i, n) ? 1 : 0;
      EXPECT_EQ(owners, 1) << "shard_count " << n;
    }
  }
}

TEST(Sharding, SingleShardOwnsEverything) {
  std::mt19937_64 rng(13);
  const TruthTable spec = random_reversible_function(4, rng);
  EXPECT_TRUE(shard_owns(spec, 0, 1));
  EXPECT_TRUE(shard_owns(spec, 0, 0));  // degenerate count behaves as 1
}

TEST(Sharding, FilterUnionCoversCorpusExactlyOnce) {
  std::vector<BatchJob> jobs = corpus_jobs(40, 0.5, 3);
  assign_job_ids(jobs);
  std::multiset<std::string> all;
  for (const BatchJob& j : jobs) {
    ASSERT_FALSE(j.id.empty());
    all.insert(j.id);
  }
  // Duplicate corpus lines get distinct occurrence suffixes, so the 40
  // ids are 40 distinct strings.
  EXPECT_EQ(std::set<std::string>(all.begin(), all.end()).size(),
            all.size());
  for (const int n : {1, 2, 3, 4, 8}) {
    std::multiset<std::string> seen;
    for (int i = 0; i < n; ++i) {
      for (const BatchJob& j : filter_shard(jobs, i, n)) {
        seen.insert(j.id);
      }
    }
    EXPECT_EQ(seen, all) << "shard_count " << n;
  }
}

TEST(Sharding, JobIdsIndependentOfShardCount) {
  // The id is assigned over the full corpus before filtering, so the same
  // (name, id) pairing survives any shard count. Names alone are not
  // unique — the corpus generator legitimately re-emits a family label —
  // so the pairs are compared as multisets.
  std::vector<BatchJob> jobs = corpus_jobs(24, 0.5, 5);
  assign_job_ids(jobs);
  std::multiset<std::string> expected;
  for (const BatchJob& j : jobs) expected.insert(j.name + "\t" + j.id);
  for (const int n : {2, 4, 8}) {
    std::multiset<std::string> seen;
    for (int i = 0; i < n; ++i) {
      for (const BatchJob& j : filter_shard(jobs, i, n)) {
        seen.insert(j.name + "\t" + j.id);
      }
    }
    EXPECT_EQ(seen, expected) << "shard_count " << n;
  }
}

TEST(Sharding, OutOfRangeShardIndexOwnsNothing) {
  std::vector<BatchJob> jobs = corpus_jobs(8, 0.0, 9);
  assign_job_ids(jobs);
  EXPECT_TRUE(filter_shard(jobs, 5, 4).empty());
  EXPECT_TRUE(filter_shard(jobs, -1, 4).empty());
}

// ---------------------------------------------------------------------------
// Checkpoint ledger.

TEST(Checkpoint, MissingFileIsEmptyAndRoundTrips) {
  const fs::path dir = fresh_dir("ck_roundtrip");
  const std::string path = (dir / "ck").string();
  Result<BatchCheckpoint> first = BatchCheckpoint::open(path);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().completed_count(), 0u);
  first.value().mark("00000000000000aa.0");
  first.value().mark("00000000000000aa.1");
  first.value().mark("00000000000000aa.1");  // idempotent
  EXPECT_TRUE(first.value().flush());

  Result<BatchCheckpoint> second = BatchCheckpoint::open(path);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().completed_count(), 2u);
  EXPECT_TRUE(second.value().completed("00000000000000aa.0"));
  EXPECT_TRUE(second.value().completed("00000000000000aa.1"));
  EXPECT_FALSE(second.value().completed("00000000000000aa.2"));
  // No torn tmp files left behind by the atomic rewrite.
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string(), "ck");
  }
}

TEST(Checkpoint, RejectsForeignHeaderAndGarbledIds) {
  const fs::path dir = fresh_dir("ck_malformed");
  {
    std::ofstream out(dir / "bad_header");
    out << "not a checkpoint\n00000000000000aa.0\n";
  }
  EXPECT_EQ(BatchCheckpoint::open((dir / "bad_header").string())
                .status()
                .code(),
            StatusCode::kParseError);
  {
    std::ofstream out(dir / "bad_id");
    out << "# rmrls-checkpoint-v1\nzz00000000000000.0\n";
  }
  EXPECT_EQ(
      BatchCheckpoint::open((dir / "bad_id").string()).status().code(),
      StatusCode::kParseError);
}

TEST(Checkpoint, BatchSkipsCompletedJobsAndMarksTheRest) {
  const fs::path dir = fresh_dir("ck_batch");
  const std::string path = (dir / "ck").string();
  std::vector<BatchJob> jobs = corpus_jobs(6, 0.0, 21);
  assign_job_ids(jobs);

  Result<BatchCheckpoint> cp = BatchCheckpoint::open(path);
  ASSERT_TRUE(cp.ok());
  cp.value().mark(jobs[1].id);
  cp.value().mark(jobs[4].id);

  BatchOptions options;
  options.resilience.search.max_nodes = 200000;
  options.checkpoint = &cp.value();
  const BatchResult br = run_batch(jobs, options);
  ASSERT_TRUE(br.status.ok());
  EXPECT_EQ(br.stats.skipped, 2u);
  EXPECT_EQ(br.stats.completed, 4u);
  EXPECT_TRUE(br.outcomes[1].skipped);
  EXPECT_TRUE(br.outcomes[4].skipped);
  EXPECT_EQ(br.outcomes[1].result.circuit.gate_count(), 0);
  for (const std::size_t i : {0u, 2u, 3u, 5u}) {
    EXPECT_FALSE(br.outcomes[i].skipped);
    EXPECT_TRUE(br.outcomes[i].status.ok());
  }
  // Every job is now in the ledger; a rerun synthesizes nothing.
  Result<BatchCheckpoint> resumed = BatchCheckpoint::open(path);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.value().completed_count(), jobs.size());
  BatchOptions rerun = options;
  rerun.checkpoint = &resumed.value();
  const BatchResult again = run_batch(jobs, rerun);
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(again.stats.skipped, jobs.size());
  EXPECT_EQ(again.stats.completed, 0u);
  EXPECT_EQ(again.stats.cache_misses, 0u);
}

// ---------------------------------------------------------------------------
// Cross-process lease protocol (two cache instances = two "processes").

SynthCacheOptions dir_options(const fs::path& dir) {
  SynthCacheOptions options;
  options.dir = dir.string();
  return options;
}

TEST(Lease, SecondInstanceWaitsAndAdoptsPublishedCircuit) {
  const fs::path dir = fresh_dir("lease_adopt");
  const SynthCacheOptions options = dir_options(dir);
  SynthCache a(options);
  SynthCache b(options);
  const std::uint64_t key = 0x2a;

  const SynthCache::Acquisition lead = a.acquire(key);
  ASSERT_EQ(lead.outcome, SynthCache::Outcome::kLead);
  EXPECT_TRUE(fs::exists(dir / "000000000000002a.lease"));
  EXPECT_EQ(a.stats().lease_acquired, 1u);

  std::mt19937_64 rng(3);
  const Circuit circuit = random_circuit(4, 4, GateLibrary::kGT, rng);
  SynthCache::Acquisition adopted;
  std::thread waiter([&] { adopted = b.acquire(key); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  a.publish(key, &circuit);
  waiter.join();

  ASSERT_EQ(adopted.outcome, SynthCache::Outcome::kHit);
  ASSERT_TRUE(adopted.circuit.has_value());
  EXPECT_EQ(*adopted.circuit, circuit);
  EXPECT_GE(b.stats().lease_waits, 1u);
  EXPECT_EQ(b.stats().lease_timeouts, 0u);
  // The winner's lease is gone; the store holds exactly the one orbit.
  EXPECT_FALSE(fs::exists(dir / "000000000000002a.lease"));
  EXPECT_TRUE(fs::exists(dir / "000000000000002a.tfc"));
}

TEST(Lease, TimeoutFallsThroughToLeaselessLead) {
  const fs::path dir = fresh_dir("lease_timeout");
  // A lease held by a process that is alive (fresh mtime) but slow: the
  // waiter gives up after the 3 s lease wait and synthesizes anyway —
  // duplicate work, never a wedge.
  { std::ofstream(dir / "0000000000000007.lease") << "999999"; }
  SynthCache cache(dir_options(dir));
  const SynthCache::Acquisition acq = cache.acquire(7);
  EXPECT_EQ(acq.outcome, SynthCache::Outcome::kLead);
  EXPECT_EQ(cache.stats().lease_timeouts, 1u);
  cache.publish(7, nullptr);  // release the in-process flight
}

TEST(Lease, StaleLeaseFromDeadProcessIsStolen) {
  const fs::path dir = fresh_dir("lease_stale");
  // Plant the lease after construction, whose gc_disk() would sweep a
  // stale one first: this test wants the acquire path itself to steal it.
  SynthCache cache(dir_options(dir));
  const fs::path lease = dir / "0000000000000009.lease";
  { std::ofstream(lease) << "999999"; }
  // Backdate the lease past the 120 s staleness threshold.
  fs::last_write_time(lease,
                      fs::last_write_time(lease) - std::chrono::hours(2));
  const SynthCache::Acquisition acq = cache.acquire(9);
  EXPECT_EQ(acq.outcome, SynthCache::Outcome::kLead);
  EXPECT_GE(cache.stats().lease_waits, 1u);
  EXPECT_EQ(cache.stats().lease_acquired, 1u);
  EXPECT_EQ(cache.stats().lease_timeouts, 0u);
  cache.publish(9, nullptr);
  EXPECT_FALSE(fs::exists(lease));
}

// ---------------------------------------------------------------------------
// Disk GC of the shared store.

TEST(DiskGc, EnforcesByteBudgetOldestFirst) {
  const fs::path dir = fresh_dir("gc_budget");
  SynthCache writer(dir_options(dir));
  std::mt19937_64 rng(5);
  for (std::uint64_t key = 1; key <= 6; ++key) {
    const SynthCache::Acquisition acq = writer.acquire(key);
    ASSERT_EQ(acq.outcome, SynthCache::Outcome::kLead);
    const Circuit c = random_circuit(4, 6, GateLibrary::kGT, rng);
    writer.publish(key, &c);
  }
  std::uintmax_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    total += fs::file_size(entry.path());
  }
  ASSERT_GT(total, 0u);

  SynthCacheOptions bounded = dir_options(dir);
  bounded.disk_byte_budget = total / 3;
  SynthCache collector(bounded);  // construction runs gc_disk()
  EXPECT_GE(collector.stats().disk_evictions, 1u);
  std::uintmax_t after = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    after += fs::file_size(entry.path());
  }
  EXPECT_LE(after, bounded.disk_byte_budget);
  EXPECT_LT(after, total);
}

TEST(DiskGc, SweepsStaleLeaseAndTmpLitter) {
  const fs::path dir = fresh_dir("gc_litter");
  const fs::path lease = dir / "00000000000000ab.lease";
  const fs::path tmp = dir / "00000000000000ab.tmp12345.0";
  { std::ofstream(lease) << "1"; }
  { std::ofstream(tmp) << "half a circuit"; }
  const auto old =
      fs::last_write_time(lease) - std::chrono::hours(2);
  fs::last_write_time(lease, old);
  fs::last_write_time(tmp, old);
  SynthCache cache(dir_options(dir));  // construction runs gc_disk()
  EXPECT_FALSE(fs::exists(lease));
  EXPECT_FALSE(fs::exists(tmp));
}

// ---------------------------------------------------------------------------
// Two instances racing over one store (the in-process stand-in for two
// shard processes; the real-process version is FleetCli below).

TEST(Lease, TwoInstancesRacingOverSharedDirStayConsistent) {
  const fs::path dir = fresh_dir("lease_race");
  std::vector<BatchJob> jobs = corpus_jobs(10, 0.5, 17);
  assign_job_ids(jobs);
  const SynthCacheOptions options = dir_options(dir);

  BatchResult results[2];
  std::thread shards[2];
  SynthCache cache_a(options);
  SynthCache cache_b(options);
  SynthCache* caches[2] = {&cache_a, &cache_b};
  for (int i = 0; i < 2; ++i) {
    shards[i] = std::thread([&, i] {
      BatchOptions bopts;
      bopts.resilience.search.max_nodes = 200000;
      bopts.total_threads = 2;
      bopts.cache = caches[i];
      results[i] = run_batch(jobs, bopts);
    });
  }
  for (std::thread& t : shards) t.join();
  for (const BatchResult& br : results) {
    ASSERT_TRUE(br.status.ok());
    EXPECT_EQ(br.stats.completed, jobs.size());
    EXPECT_EQ(br.stats.failed, 0u);
  }
  // Both instances served the same corpus, so their outcome circuits must
  // realize the same specs; spot-check sizes agree per job.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(results[0].outcomes[j].result.circuit.gate_count(),
              results[1].outcomes[j].result.circuit.gate_count())
        << jobs[j].name;
  }
}

// ---------------------------------------------------------------------------
// The real CLI under SIGKILL: resume must cover the corpus exactly once.

#ifdef RMRLS_CLI_PATH

struct CliRun {
  int exit_code = -1;
  bool signalled = false;
};

pid_t spawn_cli(const std::vector<std::string>& args,
                const std::string& stdout_path) {
  std::vector<std::string> cmd = {RMRLS_CLI_PATH};
  cmd.insert(cmd.end(), args.begin(), args.end());
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int fd = ::open(stdout_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    ::dup2(fd, 1);
    ::close(fd);
  }
  const int devnull = ::open("/dev/null", O_WRONLY);
  if (devnull >= 0) {
    ::dup2(devnull, 2);
    ::close(devnull);
  }
  std::vector<char*> argv;
  for (const std::string& s : cmd) {
    argv.push_back(const_cast<char*>(s.c_str()));
  }
  argv.push_back(nullptr);
  ::execv(argv[0], argv.data());
  _exit(127);
}

CliRun wait_cli(pid_t pid) {
  CliRun run;
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return run;
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  run.signalled = WIFSIGNALED(status);
  return run;
}

std::set<std::string> checkpoint_ids(const fs::path& path) {
  std::set<std::string> ids;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    ids.insert(line);
  }
  return ids;
}

std::vector<std::string> result_lines(const fs::path& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(FleetCli, SigkillThenResumeCoversCorpusExactlyOnce) {
  const fs::path dir = fresh_dir("cli_sigkill");
  // Moderately hard corpus: wide enough that a full pass takes long
  // enough to observe mid-run checkpoint state on most machines. Both
  // race outcomes (killed mid-run, or finished before the kill) are
  // valid; the exactly-once property must hold either way.
  suite::CorpusOptions copts;
  copts.size = 8;
  copts.repeat_rate = 0.3;
  copts.min_vars = 4;
  copts.max_vars = 5;
  copts.seed = 29;
  Result<std::vector<suite::CorpusEntry>> corpus =
      suite::generate_corpus(copts);
  ASSERT_TRUE(corpus.ok());
  const fs::path specs = dir / "corpus.specs";
  {
    std::ofstream out(specs);
    out << suite::write_corpus(corpus.value());
  }
  std::vector<BatchJob> jobs;
  for (suite::CorpusEntry& e : corpus.value()) {
    jobs.push_back(BatchJob{std::move(e.label), std::move(e.spec), ""});
  }
  assign_job_ids(jobs);
  std::set<std::string> expected_ids;
  for (const BatchJob& j : jobs) expected_ids.insert(j.id);
  ASSERT_EQ(expected_ids.size(), jobs.size());

  const fs::path ck = dir / "ck";
  const std::vector<std::string> batch_args = {
      "--batch",         specs.string(),
      "--checkpoint",    ck.string(),
      "--cache-dir",     (dir / "cache").string(),
      "--max-nodes",     "800000",
  };

  // Run 1: kill as soon as the checkpoint records any progress.
  std::vector<std::string> run1 = batch_args;
  run1.push_back("--metrics-out");
  run1.push_back((dir / "m1.jsonl").string());
  const pid_t pid = spawn_cli(run1, (dir / "out1.txt").string());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (std::chrono::steady_clock::now() < deadline) {
    if (!checkpoint_ids(ck).empty()) break;
    if (::waitpid(pid, nullptr, WNOHANG) != 0) break;  // finished early
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(pid, SIGKILL);
  wait_cli(pid);
  const std::set<std::string> done_before = checkpoint_ids(ck);
  for (const std::string& id : done_before) {
    EXPECT_TRUE(expected_ids.count(id)) << "foreign id " << id;
  }

  // Run 2: same checkpoint, same store; must finish cleanly and skip
  // exactly what run 1 completed.
  std::vector<std::string> run2 = batch_args;
  run2.push_back("--metrics-out");
  run2.push_back((dir / "m2.jsonl").string());
  const pid_t pid2 = spawn_cli(run2, (dir / "out2.txt").string());
  const CliRun second = wait_cli(pid2);
  ASSERT_EQ(second.exit_code, 0);

  EXPECT_EQ(checkpoint_ids(ck), expected_ids);
  std::ifstream metrics(dir / "m2.jsonl");
  std::string line;
  bool saw_summary = false;
  while (std::getline(metrics, line)) {
    const std::optional<JsonValue> v = json_parse(line);
    if (!v || v->find("batch_jobs") == nullptr) continue;
    saw_summary = true;
    EXPECT_EQ(v->find("batch_jobs")->number,
              static_cast<double>(jobs.size()));
    EXPECT_EQ(v->find("batch_skipped")->number,
              static_cast<double>(done_before.size()));
    EXPECT_EQ(v->find("batch_completed")->number,
              static_cast<double>(jobs.size() - done_before.size()));
    EXPECT_EQ(v->find("batch_failed")->number, 0.0);
  }
  EXPECT_TRUE(saw_summary);

  // Exactly once, bit for bit: a clean reference run over a fresh store
  // prints every job; the resumed run must print exactly the jobs run 1
  // did not complete, with byte-identical circuit lines.
  std::vector<std::string> ref = {
      "--batch",         specs.string(),
      "--cache-dir",     (dir / "cache_ref").string(),
      "--max-nodes",     "800000",
  };
  const pid_t pid3 = spawn_cli(ref, (dir / "out_ref.txt").string());
  const CliRun reference = wait_cli(pid3);
  ASSERT_EQ(reference.exit_code, 0);
  const std::vector<std::string> ref_lines =
      result_lines(dir / "out_ref.txt");
  EXPECT_EQ(ref_lines.size(), jobs.size());
  const std::vector<std::string> resumed_lines =
      result_lines(dir / "out2.txt");
  EXPECT_EQ(resumed_lines.size(), jobs.size() - done_before.size());
  const std::set<std::string> ref_set(ref_lines.begin(), ref_lines.end());
  for (const std::string& printed : resumed_lines) {
    EXPECT_TRUE(ref_set.count(printed))
        << "resumed output diverges from the clean run: " << printed;
  }
}

#endif  // RMRLS_CLI_PATH

}  // namespace
}  // namespace rmrls
