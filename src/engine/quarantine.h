// Pair quarantine: a per-pair circuit breaker with exponential backoff.
//
// One misbehaving pair model must not take down the fleet. An exception
// escaping the pair's Step (a CheckFailure from an audit-build
// invariant, or an injected engine fault) trips the breaker; outliers
// never do, since they are a scored, expected part of the paper's model.
//
// A tripped pair is quarantined: its Step is skipped (its snapshot slot
// is disengaged, exactly as if the sample were missing) while every
// other pair keeps running untouched. After a backoff delay counted in
// samples (so a restored checkpoint resumes the same schedule) the pair
// gets a probation step; success re-admits it (with a sequence reset —
// it missed samples), failure re-quarantines it with a doubled delay.
// Once the retry budget is exhausted the pair is retired for good.
//
// Thread-safety contract: state is per-pair and disjoint. The monitor's
// workers call BeginStep/RecordSuccess/RecordFailure only for pair
// indices they own within a parallel region, so no synchronization is
// needed; the aggregate accessors (counts, AnyTripped) scan the state
// vector and must be called from the serial sections between regions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/backoff.h"

namespace pmcorr {

/// Circuit-breaker policy for one monitor's pairs.
struct QuarantineConfig {
  /// Retry schedule, counted in samples.
  BackoffPolicy backoff;
};

/// Per-pair breaker state machine. See file comment for the contract.
class PairQuarantine {
 public:
  /// Lifecycle of one pair.
  enum class State : std::uint8_t {
    kActive = 0,       ///< stepping normally
    kQuarantined = 1,  ///< skipped until its probation sample
    kRetired = 2,      ///< retry budget exhausted; skipped forever
  };

  /// What the owning worker should do with pair `i` at this sample.
  enum class Decision : std::uint8_t {
    kRun = 0,            ///< step normally
    kRunAfterReset = 1,  ///< probation: reset the pair's sequence, then step
    kSkip = 2,           ///< quarantined or retired: leave the slot empty
  };

  PairQuarantine() = default;
  PairQuarantine(std::size_t pair_count, QuarantineConfig config);

  const QuarantineConfig& Config() const { return config_; }

  /// Worker-side: decide pair `i`'s fate at (0-based) sample `sample`.
  Decision BeginStep(std::size_t i, std::size_t sample);

  /// Worker-side: pair `i` stepped without throwing. A probation success
  /// re-admits the pair.
  void RecordSuccess(std::size_t i);

  /// Worker-side: pair `i`'s step threw `what`. Quarantines (or, once
  /// the budget is spent, retires) the pair.
  void RecordFailure(std::size_t i, std::size_t sample,
                     const std::string& what);

  /// Serial-side: grows the state vector for a pair appended to the
  /// graph (dynamic topology); the new pair starts active.
  void AddPair();

  /// Serial-side: administratively retires pair `i` — skipped forever,
  /// exactly like a budget-exhausted trip, but without recording a trip
  /// (the pair did nothing wrong; its machine left the fleet). `why` is
  /// surfaced through LastError.
  void Retire(std::size_t i, const std::string& why);

  State StateOf(std::size_t i) const { return pairs_[i].state; }
  bool IsQuarantined(std::size_t i) const {
    return pairs_[i].state == State::kQuarantined;
  }
  bool IsRetired(std::size_t i) const {
    return pairs_[i].state == State::kRetired;
  }

  /// Failure message from pair `i`'s most recent trip ("" if none).
  const std::string& LastError(std::size_t i) const {
    return pairs_[i].last_error;
  }

  /// Serial-side aggregates (scan the state vector).
  std::size_t QuarantinedCount() const;
  std::size_t RetiredCount() const;
  /// Total trips recorded across all pairs.
  std::size_t TripCount() const;
  /// True once any pair has ever tripped.
  bool AnyTripped() const;

 private:
  struct PairState {
    State state = State::kActive;
    /// First sample at which a quarantined pair may try a probation
    /// step.
    std::size_t retry_at = 0;
    /// Retries consumed against the backoff budget.
    std::size_t retries = 0;
    /// Lifetime trips.
    std::size_t trips = 0;
    /// True while the pair is on the probation step that follows a
    /// backoff delay.
    bool probation = false;
    std::string last_error;
  };

  void Trip(PairState& pair, std::size_t sample, const std::string& why);

  QuarantineConfig config_;
  std::vector<PairState> pairs_;
};

}  // namespace pmcorr
