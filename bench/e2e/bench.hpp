/// \file bench.hpp
/// \brief Shared types of rmrls_bench, the end-to-end + per-layer benchmark
/// (bench/e2e/README.md).
///
/// Each workload runs in a forked child process and reports one
/// WorkloadResult back to the parent, which adds the child's resource usage
/// (peak RSS, CPU, page faults) and prints the metrics. Every timing below is
/// taken from outside the library, by timing calls into public functions.

#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace rmrls::e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One named measurement with its unit, in the order it was added.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Resource usage of one process, as wait4() reports it.
struct Usage {
  double max_rss_mib = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  double minor_faults = 0.0;
};

[[nodiscard]] inline Usage usage_of(const rusage& ru) {
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return Usage{static_cast<double>(ru.ru_maxrss) / 1024.0,
               secs(ru.ru_utime), secs(ru.ru_stime),
               static_cast<double>(ru.ru_minflt)};
}

/// What one workload child hands back to the parent.
struct WorkloadResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;  ///< jobs / requests in the measured phase
  std::uint64_t failed = 0;     ///< of those: no verified circuit, or shed
  /// Oracle violations; any entry makes the run invalid (exit code 1).
  std::vector<std::string> violations;
  /// serve_mixed: the daemon's usage, which the parent reports instead of
  /// the workload process's own.
  bool has_usage = false;
  Usage usage;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void violation(std::string what) { violations.push_back(std::move(what)); }
};

/// One invocation's settings (see --help in main.cpp).
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured-phase length at the seed's speed
  bool traced = false;
  bool quick = false;  ///< tiny sizes and a 2-rung serve ladder
  std::string serve_bin;
  std::string work_dir;   ///< scratch space: disk stores, socket
  std::string trace_out;  ///< spans JSONL (traced runs); empty = none
};

/// Set-ups per run; setup_s is their median, so a single slow one (a cold
/// page cache, a descheduled process) does not move it.
inline constexpr int kSetupRepeats = 3;

/// Linear-interpolation quantile (numpy's default) of `v`, q in [0, 1].
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// A percentile needs at least ten samples beyond it to be reported.
[[nodiscard]] inline bool percentile_supported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

/// Reports setup_s, the median of a run's set-ups, and prints them all.
void add_setup(const std::vector<double>& setups, WorkloadResult& res);

WorkloadResult run_cold_small(const Config& cfg);
WorkloadResult run_cold_search(const Config& cfg);
WorkloadResult run_orbit_warm(const Config& cfg);
WorkloadResult run_serve_mixed(const Config& cfg);

}  // namespace rmrls::e2e
