// Deterministic retry/backoff policy for the pair quarantine
// (engine/quarantine.h), which must behave identically in production,
// in the differential tests and under fault injection.
//
// BackoffPolicy is a pure function from "how many times has this
// failed" to "how long to wait before the next attempt", with a cap and
// a hard retry budget. No randomness, no wall clock: the caller counts
// in the unit it schedules in (the quarantine counts samples, so a
// restored checkpoint resumes the exact same retry schedule).
#pragma once

#include <cstddef>

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

}  // namespace pmcorr
