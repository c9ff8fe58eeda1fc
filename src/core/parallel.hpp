/// \file parallel.hpp
/// \brief The lazy-SMP parallel best-first search engine
///        (docs/parallelism.md).
///
/// The engine borrows the coordination model of modern chess searchers:
/// phase 1 expands the root sequentially and harvests the first-level
/// subtrees; phase 2 gives EVERY worker the full set of subtrees — not a
/// static partition — with a diversified ordering per worker (rotated
/// root order plus a deterministic per-worker priority jitter,
/// SynthesisOptions::order_jitter). Workers coordinate implicitly through
/// exactly three shared structures:
///
///   * SharedBound        — atomic best solution depth; one worker's
///                          circuit immediately tightens every worker's
///                          `bestDepth - 1` pruning.
///   * TranspositionTable — the bounded bucketized table of
///                          core/transposition.hpp. The first worker to
///                          reach a state claims it; every peer re-reaching
///                          it at the same or a deeper depth prunes and
///                          diverges to unexplored lines. This is what
///                          turns N copies of the same root into N
///                          complementary searches (lazy SMP).
///   * the node budget + stop flag — SynthesisOptions::max_nodes is a
///                          global budget drawn from atomically; the stop
///                          flag ends every worker when stop-at-first
///                          fires.
///
/// Compared to the static round-robin partition this replaces, no worker
/// can strand a subtree by going idle (everyone holds every entry point),
/// and the busiest lines are deduplicated through the TT instead of
/// pre-assigned.
///
/// `SynthesisOptions::num_threads == 1` never enters this file — the
/// sequential engine runs unchanged and bit-identically.

#pragma once

#include <atomic>
#include <cstdint>

#include "core/options.hpp"
#include "rev/pprm.hpp"

namespace rmrls {

struct SynthesisResult;  // core/search.hpp

namespace detail {

/// Atomic best solution depth shared by all search workers. -1 = none.
class SharedBound {
 public:
  [[nodiscard]] int get() const {
    return best_.load(std::memory_order_relaxed);
  }

  /// Atomically tightens the bound to `depth` if that improves it.
  /// Returns whether this caller won the race — the winner (and only the
  /// winner) owns a circuit of that depth, so exactly one worker records
  /// each strictly improving solution.
  bool try_improve(int depth) {
    int cur = best_.load(std::memory_order_relaxed);
    while (cur < 0 || depth < cur) {
      if (best_.compare_exchange_weak(cur, depth,
                                      std::memory_order_acq_rel)) {
        return true;
      }
    }
    return false;
  }

 private:
  std::atomic<int> best_{-1};
};

/// What the workers of one parallel search pass share besides the
/// driver's tables, which they reach through SynthesisOptions::tt and
/// SynthesisOptions::history.
struct SharedSearchContext {
  explicit SharedSearchContext(std::uint64_t node_limit_in)
      : node_limit(node_limit_in) {}

  SharedBound bound;
  /// Global node budget (0 = unlimited): every worker pop draws one token.
  std::atomic<std::uint64_t> nodes_spent{0};
  std::uint64_t node_limit = 0;
  /// Raised by the worker that fires stop-at-first; every worker checks it
  /// once per pop.
  std::atomic<bool> stop{false};

  /// Claims one node-expansion token; false when the budget is exhausted.
  bool try_consume_node() {
    if (node_limit == 0) return true;
    return nodes_spent.fetch_add(1, std::memory_order_relaxed) < node_limit;
  }
};

}  // namespace detail

/// Runs one search pass over `start` with the parallel engine
/// (`options.num_threads` workers; 0 = one per hardware thread; <= 1 falls
/// back to the sequential engine). Same contract as Search::run(); see the
/// file comment for the coordination model.
[[nodiscard]] SynthesisResult run_parallel_search(
    const Pprm& start, const SynthesisOptions& options);

/// Dense-kernel overload: identical engine over DensePprm states. The
/// kernel choice is made once per pass by the synthesizer and inherited by
/// every worker — the shared transposition table is keyed by the
/// representation-independent state hash, but mixing representations
/// within one pass would still duplicate per-worker pools for no benefit
/// (docs/parallelism.md).
class DensePprm;
[[nodiscard]] SynthesisResult run_parallel_search(
    const DensePprm& start, const SynthesisOptions& options);

}  // namespace rmrls
