/// \file phase_profile.hpp
/// \brief Scoped phase timers and the per-run PhaseProfile aggregate.
///
/// The engine's hot phases — PPRM transform, factor enumeration,
/// substitution/apply, heap operations, template simplification — are
/// bracketed by ScopedPhaseTimer. Timing is an opt-in observer: when no
/// PhaseProfile is installed (SynthesisOptions::phase_profile == nullptr)
/// a timer is two inlined null checks and zero clock reads, so the search
/// hot path stays clean. When installed, each scope costs two
/// steady_clock reads. The engine brackets each expansion's enumeration
/// and pricing loops, but also each materialized child and each heap push
/// and pop, so an attached profile slows a search measurably
/// (docs/observability.md gives the figure).

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace rmrls {

/// The instrumented phases. kCount is the array size, not a phase.
enum class Phase : std::uint8_t {
  kPprmTransform,     ///< truth table -> PPRM extraction
  kFactorEnum,        ///< candidate substitution enumeration
  kSubstitute,        ///< substitute_delta pricing + substitute apply
  kHeapOps,           ///< priority-queue push/pop
  kTemplateSimplify,  ///< post-synthesis template pass
  kCount,
};

inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::kCount);

[[nodiscard]] const char* to_string(Phase phase);

/// Wall time and call counts per phase, accumulated over one synthesis run
/// (including every refinement rerun — the drivers share one profile).
struct PhaseProfile {
  struct Entry {
    std::uint64_t calls = 0;
    std::uint64_t nanos = 0;
  };
  std::array<Entry, kPhaseCount> entries{};

  void add(Phase phase, std::uint64_t nanos) {
    Entry& e = entries[static_cast<std::size_t>(phase)];
    ++e.calls;
    e.nanos += nanos;
  }

  [[nodiscard]] const Entry& operator[](Phase phase) const {
    return entries[static_cast<std::size_t>(phase)];
  }

  void merge(const PhaseProfile& other) {
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      entries[i].calls += other.entries[i].calls;
      entries[i].nanos += other.entries[i].nanos;
    }
  }

  [[nodiscard]] std::uint64_t total_nanos() const {
    std::uint64_t sum = 0;
    for (const Entry& e : entries) sum += e.nanos;
    return sum;
  }

  /// Multi-line human-readable rendering (phase, calls, ms, share).
  [[nodiscard]] std::string to_string() const;
};

/// RAII stopwatch: adds the scope's wall time to `profile` under `phase`.
/// A null profile disables it entirely (no clock reads).
class ScopedPhaseTimer {
 public:
  ScopedPhaseTimer(PhaseProfile* profile, Phase phase)
      : profile_(profile), phase_(phase) {
    if (profile_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedPhaseTimer() {
    if (profile_) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      profile_->add(phase_, static_cast<std::uint64_t>(
                                std::chrono::duration_cast<
                                    std::chrono::nanoseconds>(elapsed)
                                    .count()));
    }
  }
  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  PhaseProfile* profile_;
  Phase phase_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace rmrls
