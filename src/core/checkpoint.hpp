/// \file checkpoint.hpp
/// \brief Crash-safe record of completed batch job ids (docs/fleet.md).
///
/// A fleet shard that dies mid-corpus (OOM kill, node preemption, plain
/// SIGKILL) must resume instead of restarting: the batch driver marks each
/// job id here the moment its outcome is final, and a restarted run skips
/// every marked job before its workers ever see it. The file is rewritten
/// whole via the same tmp+rename protocol as the TFC store, so a reader —
/// including the restarted process itself — only ever observes a complete
/// checkpoint, never a torn one, no matter when the writer was killed.
///
/// Job ids are `<16-hex stable_spec_key>.<occurrence>` (rev/canonical.hpp,
/// core/batch.hpp assign_job_ids): content-derived and therefore stable
/// across restarts, reorderings of unrelated corpus lines, and changes of
/// the shard count. The format is one id per line under a `#
/// rmrls-checkpoint-v1` header.

#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>

#include "core/status.hpp"

namespace rmrls {

class BatchCheckpoint {
 public:
  /// Loads `path` if it exists; a missing file is an empty checkpoint (the
  /// common first run). An existing file that cannot be read or lacks the
  /// v1 header is an error — silently restarting from scratch would
  /// re-synthesize everything the dead run paid for.
  [[nodiscard]] static Result<BatchCheckpoint> open(const std::string& path);

  BatchCheckpoint(BatchCheckpoint&&) = default;
  BatchCheckpoint& operator=(BatchCheckpoint&&) = default;

  /// True when `id` was marked complete by this or a previous run.
  [[nodiscard]] bool completed(const std::string& id) const;

  [[nodiscard]] std::size_t completed_count() const;

  /// Records one completed job and, when it is new, flushes the file.
  /// Thread-safe (the batch workers call it concurrently). The rewrite is
  /// a few KiB of text at realistic corpus sizes, so every job is
  /// crash-safe the moment it is marked.
  void mark(const std::string& id);

  /// Atomically rewrites the file (tmp+rename) with every id marked so
  /// far. Returns false when the write failed; the in-memory set is
  /// unaffected either way, so a later flush retries the full state.
  bool flush();

 private:
  explicit BatchCheckpoint(std::string path) : path_(std::move(path)) {}

  std::string path_;
  // Behind unique_ptr so the class stays movable (Result<BatchCheckpoint>).
  std::unique_ptr<std::mutex> m_ = std::make_unique<std::mutex>();
  std::unordered_set<std::string> done_;
};

}  // namespace rmrls
