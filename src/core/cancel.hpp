/// \file cancel.hpp
/// \brief Cooperative cancellation and wall-clock deadlines
/// (docs/robustness.md).
///
/// A CancelToken is a one-shot flag the engines poll from their expansion
/// and substitution loops (SynthesisOptions::cancel_token); checking it is
/// a relaxed atomic load, cheap enough for per-candidate polling at large
/// widths. A token can also carry a deadline, which is a time and not a
/// thread. The search and greedy engines fold it into their own time
/// limit when a run starts and poll both through one StopPoll, which
/// reads the clock by accumulated work rather than on every poll; an
/// engine with no time limit of its own (the transformation-based stage)
/// polls expired().

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "core/options.hpp"

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

/// The stop poll of one search or greedy run. Every poll loads the
/// token's flag. The clock is read only when a deadline applies, and then
/// by work: each poll (per pop, per greedy step, per candidate) is charged
/// the term count of the system it is about to expand or substitute into,
/// and the clock is read on the first poll and then once kClockWork terms
/// have accumulated since the last read. The first reason seen is latched.
class StopPoll {
 public:
  using Clock = CancelToken::Clock;

  /// Terms of substitution work between two clock reads. A substitution
  /// costs about its parent's term count and a system has at least n
  /// terms, so the clock is read at least every kClockWork / n
  /// candidates, and on every candidate of a parent with kClockWork terms
  /// or more, where one candidate is the expensive step.
  static constexpr std::int64_t kClockWork = 512;

  /// A poll that never stops (no token, no deadline).
  StopPoll() = default;

  /// The poll of a run that starts at `start` under `token` (null = none)
  /// and its own `limit` (zero = none). The run's deadline is the earlier
  /// of `start + limit` and the token's armed deadline, read here once, so
  /// a run reads the clock only when one of the two applies.
  StopPoll(const CancelToken* token, Clock::time_point start,
           std::chrono::milliseconds limit)
      : token_(token) {
    if (token != nullptr) deadline_ = token->deadline();
    if (limit.count() > 0) deadline_ = std::min(deadline_, start + limit);
  }

  /// True once the run must stop; charges `terms` of work and reads the
  /// clock if a deadline applies and kClockWork terms have accumulated.
  [[nodiscard]] bool stop(std::int64_t terms) {
    if (stopped_) return true;
    if (token_ != nullptr && token_->cancelled()) return latch_cancel();
    if (deadline_ == Clock::time_point::max()) return false;
    work_ += terms;
    return work_ >= kClockWork && read_clock();
  }

  [[nodiscard]] bool stopped() const { return stopped_; }

  /// Why the run stopped: kTimeLimit for a passed deadline or a
  /// deadline-reason cancel, kCancelled for a user cancel. Meaningful once
  /// stopped().
  [[nodiscard]] TerminationReason reason() const { return reason_; }

 private:
  // The rare paths stay out of line so that the poll inlines into every
  // expansion loop of the search, where an untimed poll must cost no more
  // than two flag tests and a compare.
  [[gnu::noinline]] bool latch_cancel() {
    return latch(token_->reason() == CancelReason::kDeadline
                     ? TerminationReason::kTimeLimit
                     : TerminationReason::kCancelled);
  }

  [[gnu::noinline]] bool read_clock() {
    work_ = 0;
    return Clock::now() >= deadline_ && latch(TerminationReason::kTimeLimit);
  }

  bool latch(TerminationReason reason) {
    stopped_ = true;
    reason_ = reason;
    return true;
  }

  const CancelToken* token_ = nullptr;
  Clock::time_point deadline_ = Clock::time_point::max();
  bool stopped_ = false;
  TerminationReason reason_ = TerminationReason::kTimeLimit;
  // Starts full, so a run's first poll reads the clock: a run that starts
  // past its deadline stops before it expands anything.
  std::int64_t work_ = kClockWork;
};

}  // namespace rmrls
