/// \file cancel.hpp
/// \brief Cooperative cancellation and wall-clock deadlines
/// (docs/robustness.md).
///
/// A CancelToken is a one-shot flag the engines poll from their expansion
/// and substitution loops (SynthesisOptions::cancel_token); checking it is
/// a relaxed atomic load, cheap enough for per-candidate polling at large
/// widths. A token can also carry a deadline, which is a time and not a
/// thread: the search and greedy engines fold it into their own time
/// limit when a run starts, so their polls read the clock no more often
/// than a time limit alone makes them, and an engine with no time limit
/// of its own (the transformation-based stage) polls expired().

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace rmrls {

/// Why a CancelToken fired. The first cancel() wins; later calls are
/// ignored, so the reason is stable once set.
enum class CancelReason : std::uint8_t {
  kNone = 0,  ///< not cancelled
  kUser,      ///< explicit caller cancellation (e.g. SIGINT)
  kDeadline,  ///< a wall-clock budget expired (e.g. the serve drain)
};

/// One-shot cooperative cancellation flag, safe to fire from any thread or
/// from a signal handler (cancel() is a single atomic CAS), plus an
/// optional deadline that any thread may read.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Fires the token; the first reason to arrive sticks.
  void cancel(CancelReason reason = CancelReason::kUser) {
    std::uint8_t expected = 0;
    reason_.compare_exchange_strong(expected,
                                    static_cast<std::uint8_t>(reason),
                                    std::memory_order_acq_rel,
                                    std::memory_order_relaxed);
  }

  [[nodiscard]] bool cancelled() const {
    return reason_.load(std::memory_order_relaxed) != 0;
  }

  [[nodiscard]] CancelReason reason() const {
    return static_cast<CancelReason>(reason_.load(std::memory_order_acquire));
  }

  /// Returns the token to its initial state, deadline disarmed (between
  /// independent runs; not thread-safe against concurrent cancel()).
  void reset() {
    reason_.store(0, std::memory_order_release);
    disarm_deadline();
  }

  /// Arms the deadline `at`, replacing any armed one. A run reads it when
  /// it starts, so arm before the run. A passed deadline does not fire
  /// the token: reason() stays kNone, and the polls report kTimeLimit.
  void arm_deadline(Clock::time_point at) {
    deadline_.store(at.time_since_epoch().count(), std::memory_order_relaxed);
  }

  void disarm_deadline() {
    deadline_.store(kNoDeadline, std::memory_order_relaxed);
  }

  /// The armed deadline; Clock::time_point::max() when none is armed.
  [[nodiscard]] Clock::time_point deadline() const {
    return Clock::time_point(
        Clock::duration(deadline_.load(std::memory_order_relaxed)));
  }

  /// True once the armed deadline has passed. Reads the clock only while
  /// a deadline is armed.
  [[nodiscard]] bool deadline_passed() const {
    const Clock::rep at = deadline_.load(std::memory_order_relaxed);
    return at != kNoDeadline &&
           Clock::now().time_since_epoch().count() >= at;
  }

  /// The stop poll of an engine with no time limit of its own: the token
  /// fired, or its armed deadline has passed.
  [[nodiscard]] bool expired() const {
    return cancelled() || deadline_passed();
  }

 private:
  static constexpr Clock::rep kNoDeadline =
      std::numeric_limits<Clock::rep>::max();

  std::atomic<std::uint8_t> reason_{0};
  std::atomic<Clock::rep> deadline_{kNoDeadline};
};

/// Arms a token's deadline for one call and disarms it on every way out
/// of that call (synthesize_resilient, run_batch).
class ScopedDeadline {
 public:
  ScopedDeadline(CancelToken& token, CancelToken::Clock::time_point at)
      : token_(token) {
    token_.arm_deadline(at);
  }
  ~ScopedDeadline() { token_.disarm_deadline(); }
  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  CancelToken& token_;
};

/// The deadline of a run that starts at `start`: the earlier of
/// `start + limit` (zero = no limit) and the armed deadline of `token`
/// (null = none); Clock::time_point::max() when neither applies. The
/// search and greedy engines take it once per run, so a poll reads the
/// clock only when some deadline applies, and then once.
[[nodiscard]] inline CancelToken::Clock::time_point run_deadline(
    const CancelToken* token, CancelToken::Clock::time_point start,
    std::chrono::milliseconds limit) {
  CancelToken::Clock::time_point at =
      token != nullptr ? token->deadline()
                       : CancelToken::Clock::time_point::max();
  if (limit.count() > 0) at = std::min(at, start + limit);
  return at;
}

}  // namespace rmrls
