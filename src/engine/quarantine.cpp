#include "engine/quarantine.h"

namespace pmcorr {

PairQuarantine::PairQuarantine(std::size_t pair_count, QuarantineConfig config)
    : config_(config), pairs_(pair_count) {}

PairQuarantine::Decision PairQuarantine::BeginStep(std::size_t i,
                                                   std::size_t sample) {
  PairState& pair = pairs_[i];
  switch (pair.state) {
    case State::kActive:
      return Decision::kRun;
    case State::kRetired:
      return Decision::kSkip;
    case State::kQuarantined:
      if (sample < pair.retry_at) return Decision::kSkip;
      // Probation: one attempt. The pair missed samples while
      // quarantined, so its previous cell is meaningless — the caller
      // must reset the pair's sequence before stepping.
      pair.probation = true;
      return Decision::kRunAfterReset;
  }
  return Decision::kRun;
}

void PairQuarantine::RecordSuccess(std::size_t i) {
  PairState& pair = pairs_[i];
  if (pair.probation) {
    // Probation survived: re-admit. The retry counter is deliberately
    // not reset — a pair that keeps tripping walks through the whole
    // budget and retires, rather than oscillating forever.
    pair.probation = false;
    pair.state = State::kActive;
  }
}

void PairQuarantine::RecordFailure(std::size_t i, std::size_t sample,
                                   const std::string& what) {
  PairState& pair = pairs_[i];
  pair.probation = false;
  Trip(pair, sample, what);
}

void PairQuarantine::AddPair() { pairs_.emplace_back(); }

void PairQuarantine::Retire(std::size_t i, const std::string& why) {
  PairState& pair = pairs_.at(i);
  pair.state = State::kRetired;
  pair.last_error = why;
  pair.probation = false;
}

void PairQuarantine::Trip(PairState& pair, std::size_t sample,
                          const std::string& why) {
  ++pair.trips;
  pair.last_error = why;
  pair.probation = false;
  if (config_.backoff.Exhausted(pair.retries)) {
    pair.state = State::kRetired;
    return;
  }
  pair.state = State::kQuarantined;
  pair.retry_at = sample + 1 + config_.backoff.DelayFor(pair.retries);
  ++pair.retries;
}

std::size_t PairQuarantine::QuarantinedCount() const {
  std::size_t n = 0;
  for (const PairState& pair : pairs_) {
    if (pair.state == State::kQuarantined) ++n;
  }
  return n;
}

std::size_t PairQuarantine::RetiredCount() const {
  std::size_t n = 0;
  for (const PairState& pair : pairs_) {
    if (pair.state == State::kRetired) ++n;
  }
  return n;
}

std::size_t PairQuarantine::TripCount() const {
  std::size_t n = 0;
  for (const PairState& pair : pairs_) n += pair.trips;
  return n;
}

bool PairQuarantine::AnyTripped() const {
  for (const PairState& pair : pairs_) {
    if (pair.trips > 0) return true;
  }
  return false;
}

}  // namespace pmcorr
