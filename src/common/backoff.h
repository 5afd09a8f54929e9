// Deterministic retry/backoff policy and an injectable monotonic clock.
//
// Degraded-mode monitoring (engine/quarantine.h, engine/retrain_pool.h)
// needs two primitives that must behave identically in production, in
// the differential tests and under fault injection:
//
//  * BackoffPolicy — a pure function from "how many times has this
//    failed" to "how long to wait before the next attempt", with a cap
//    and a hard retry budget. No randomness, no wall clock: callers
//    count in whatever unit they schedule in (the pair quarantine
//    counts samples, so a restored checkpoint resumes the exact same
//    retry schedule).
//  * MonotonicClockFn — a swappable nanosecond clock for the code that
//    does need wall time (the retrain pool's rebuild watchdog). Tests
//    install a fake so "a rebuild has been wedged for ten minutes" is a
//    deterministic statement, not a sleep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace pmcorr {

/// Exponential backoff with a cap and a retry budget. `DelayFor(k)` is
/// the wait before retry k (0-based): base * multiplier^k, saturated at
/// `cap`. All arithmetic is integral-safe: overflow saturates at cap.
struct BackoffPolicy {
  /// Delay before the first retry, in caller units (samples, ms, ...).
  std::size_t base = 16;
  /// Growth factor per failed retry; values < 1 are treated as 1.
  double multiplier = 2.0;
  /// Upper bound on any single delay.
  std::size_t cap = 1024;
  /// Total retries allowed before the caller should give up for good.
  std::size_t budget = 8;

  /// Delay before 0-based retry `retry`, saturated at `cap`.
  std::size_t DelayFor(std::size_t retry) const;

  /// True once `retries_done` attempts have been spent — the caller
  /// should stop scheduling retries (e.g. retire a quarantined pair).
  bool Exhausted(std::size_t retries_done) const {
    return retries_done >= budget;
  }
};

/// Nanoseconds on a monotonic clock. The default reads
/// std::chrono::steady_clock; tests substitute a controllable counter.
using MonotonicClockFn = std::function<std::int64_t()>;

/// The real steady_clock, in nanoseconds since an arbitrary epoch.
std::int64_t MonotonicNowNs();

}  // namespace pmcorr
