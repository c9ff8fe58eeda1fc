#include "core/checkpoint.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

namespace rmrls {

namespace {

constexpr const char* kHeader = "# rmrls-checkpoint-v1";

}  // namespace

Result<BatchCheckpoint> BatchCheckpoint::open(const std::string& path) {
  BatchCheckpoint cp(path);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return cp;  // first run
  std::ifstream in(path);
  if (!in) {
    return Status(StatusCode::kParseError,
                  "checkpoint file exists but cannot be read", path, 0);
  }
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    // Refuse rather than restart from scratch: a header mismatch means
    // this is not (or no longer) a checkpoint we understand, and quietly
    // re-synthesizing a whole corpus is the expensive failure mode.
    return Status(StatusCode::kParseError,
                  std::string("checkpoint header is not \"") + kHeader + "\"",
                  path, 1);
  }
  int lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    // Ids are `<16 hex>.<decimal occurrence>` (core/batch.hpp); validate
    // the shape so a truncated rename-less editor save fails loudly.
    const std::size_t dot = line.find('.');
    if (dot != 16 || line.size() < 18 ||
        line.find_first_not_of("0123456789abcdef") != 16 ||
        line.find_first_not_of("0123456789", 17) != std::string::npos) {
      return Status(StatusCode::kParseError,
                    "malformed checkpoint job id: " + line, path, lineno);
    }
    cp.done_.insert(line);
  }
  return cp;
}

bool BatchCheckpoint::completed(const std::string& id) const {
  std::lock_guard<std::mutex> lock(*m_);
  return done_.count(id) != 0;
}

std::size_t BatchCheckpoint::completed_count() const {
  std::lock_guard<std::mutex> lock(*m_);
  return done_.size();
}

void BatchCheckpoint::mark(const std::string& id) {
  {
    std::lock_guard<std::mutex> lock(*m_);
    if (!done_.insert(id).second) return;
  }
  flush();
}

bool BatchCheckpoint::flush() {
  // Snapshot under the lock, write outside it: marks from other workers
  // land in the next flush instead of blocking on file I/O.
  std::vector<std::string> ids;
  {
    std::lock_guard<std::mutex> lock(*m_);
    ids.assign(done_.begin(), done_.end());
  }
  // Same tmp+rename discipline as the TFC store (core/synth_cache.cpp):
  // the tmp name carries pid + serial so two processes pointed at one
  // checkpoint file by mistake cannot tear each other's writes.
  static std::atomic<std::uint64_t> tmp_serial{0};
  const std::string tmp =
      path_ + ".tmp" + std::to_string(::getpid()) + "." +
      std::to_string(tmp_serial.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp);
    if (!out) return false;
    out << kHeader << "\n";
    for (const std::string& id : ids) out << id << "\n";
    out.flush();
    if (!out) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path_, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace rmrls
