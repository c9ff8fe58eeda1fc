// Thread-count probe for the tests that pin how many threads a timed call
// runs on (test_resilience, test_synth_cache): a timed call must start no
// thread of its own, so the process count at the search's first pass
// equals the count before the call.

#pragma once

#include <fstream>
#include <string>

#include "obs/trace.hpp"

namespace rmrls {

/// The `Threads:` line of /proc/self/status; -1 where it cannot be read.
inline int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int threads = -1;
      status >> threads;
      return threads;
    }
  }
  return -1;
}

/// Records the process thread count when the first search pass begins.
class ThreadsAtRunBegin final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override {
    if (event.kind == TraceEventKind::kRunBegin && threads < 0) {
      threads = process_threads();
    }
  }
  int threads = -1;
};

}  // namespace rmrls
