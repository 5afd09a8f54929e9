#include "engine/snapshot.h"

#include <cstring>
#include <stdexcept>
#include <string>

#include "common/check.h"

namespace pmcorr {
namespace {

// Bitwise double equality — delta change detection distinguishes NaN
// payloads and signed zeros, so reconstruction is exact, not within-eps.
bool SameBits(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

// Lists in `changes` every index whose score is engaged in `cur` and was
// disengaged or other bits in `prev`, and in `disengaged` every index
// engaged only in `prev`. A null `prev` is all-disengaged.
void DiffScores(const std::vector<std::optional<double>>* prev,
                const std::vector<std::optional<double>>& cur,
                std::vector<ScoreChange>& changes,
                std::vector<std::uint32_t>& disengaged) {
  changes.clear();
  disengaged.clear();
  for (std::size_t i = 0; i < cur.size(); ++i) {
    const std::optional<double> before =
        prev != nullptr ? (*prev)[i] : std::nullopt;
    if (cur[i]) {
      if (!before || !SameBits(*before, *cur[i])) {
        changes.push_back({static_cast<std::uint32_t>(i), *cur[i]});
      }
    } else if (before) {
      disengaged.push_back(static_cast<std::uint32_t>(i));
    }
  }
}

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error("DeltaReconstructor: " + what);
}

// Ascending-index walk shared by the four sparse lists.
template <typename T, typename Index>
void CheckAscending(const std::vector<T>& entries, Index index_of,
                    std::size_t limit, const char* what) {
  std::size_t prev = 0;
  bool first = true;
  for (const T& entry : entries) {
    const std::size_t index = index_of(entry);
    if (index >= limit) Fail(std::string(what) + " index out of range");
    if (!first && index <= prev) Fail(std::string(what) + " not ascending");
    prev = index;
    first = false;
  }
}

}  // namespace

void DiffSnapshots(const SystemSnapshot* prev, const SystemSnapshot& cur,
                   SystemDelta& delta) {
  PMCORR_DASSERT(prev == nullptr ||
                     (prev->pair_scores.size() == cur.pair_scores.size() &&
                      prev->measurement_scores.size() ==
                          cur.measurement_scores.size() &&
                      prev->measurement_health.size() ==
                          cur.measurement_health.size()),
                 "DiffSnapshots: widths differ");
  delta.sample = cur.sample;
  delta.time = cur.time;
  delta.baseline = prev == nullptr;
  delta.pair_count = static_cast<std::uint32_t>(cur.pair_scores.size());
  delta.measurement_count =
      static_cast<std::uint32_t>(cur.measurement_scores.size());
  delta.system_score = cur.system_score;
  DiffScores(prev != nullptr ? &prev->pair_scores : nullptr, cur.pair_scores,
             delta.pair_changes, delta.pair_disengaged);
  DiffScores(prev != nullptr ? &prev->measurement_scores : nullptr,
             cur.measurement_scores, delta.measurement_changes,
             delta.measurement_disengaged);
  delta.alarmed_pairs.assign(cur.alarmed_pairs.begin(),
                             cur.alarmed_pairs.end());
  delta.outlier_pairs = cur.outlier_pairs;
  delta.extended_pairs = cur.extended_pairs;
  delta.stream_event = cur.stream_event;
  delta.suppressed_values = cur.suppressed_values;
  delta.quarantined_pairs = cur.quarantined_pairs;
  delta.has_health = !cur.measurement_health.empty();
  delta.health_changes.clear();
  for (std::size_t a = 0; a < cur.measurement_health.size(); ++a) {
    const MeasurementHealth before = prev != nullptr
                                         ? prev->measurement_health[a]
                                         : MeasurementHealth::kHealthy;
    if (cur.measurement_health[a] != before) {
      delta.health_changes.push_back(
          {static_cast<std::uint32_t>(a), cur.measurement_health[a]});
    }
  }
}

const SystemSnapshot& DeltaReconstructor::Apply(const SystemDelta& delta) {
  if (!has_state_ && !delta.baseline) {
    Fail("stream does not start with a baseline delta");
  }
  const std::size_t pairs = delta.pair_count;
  const std::size_t m = delta.measurement_count;
  if (delta.baseline) {
    if (!delta.pair_disengaged.empty() ||
        !delta.measurement_disengaged.empty()) {
      Fail("baseline delta carries disengage lists");
    }
    state_.pair_scores.assign(pairs, std::nullopt);
    state_.measurement_scores.assign(m, std::nullopt);
    state_.measurement_health.clear();
    if (delta.has_health) {
      state_.measurement_health.assign(m, MeasurementHealth::kHealthy);
    }
  } else {
    if (state_.pair_scores.size() != pairs ||
        state_.measurement_scores.size() != m) {
      Fail("delta width disagrees with reconstructed state");
    }
    if (delta.has_health != !state_.measurement_health.empty()) {
      Fail("delta health tracking flipped without a baseline");
    }
  }

  CheckAscending(
      delta.pair_changes, [](const ScoreChange& c) { return c.index; }, pairs,
      "pair change");
  CheckAscending(
      delta.pair_disengaged, [](std::uint32_t i) { return i; }, pairs,
      "pair disengage");
  CheckAscending(
      delta.measurement_changes, [](const ScoreChange& c) { return c.index; },
      m, "measurement change");
  CheckAscending(
      delta.measurement_disengaged, [](std::uint32_t i) { return i; }, m,
      "measurement disengage");
  CheckAscending(
      delta.health_changes, [](const HealthChange& c) { return c.index; }, m,
      "health change");
  if (!delta.has_health && !delta.health_changes.empty()) {
    Fail("health changes present but health tracking is off");
  }

  for (const std::uint32_t i : delta.pair_disengaged) {
    state_.pair_scores[i] = std::nullopt;
  }
  for (const ScoreChange& c : delta.pair_changes) {
    state_.pair_scores[c.index] = c.score;
  }
  for (const std::uint32_t i : delta.measurement_disengaged) {
    state_.measurement_scores[i] = std::nullopt;
  }
  for (const ScoreChange& c : delta.measurement_changes) {
    state_.measurement_scores[c.index] = c.score;
  }
  for (const HealthChange& c : delta.health_changes) {
    state_.measurement_health[c.index] = c.health;
  }

  state_.sample = delta.sample;
  state_.time = delta.time;
  state_.system_score = delta.system_score;
  state_.alarmed_pairs = delta.alarmed_pairs;
  state_.outlier_pairs = delta.outlier_pairs;
  state_.extended_pairs = delta.extended_pairs;
  state_.stream_event = delta.stream_event;
  state_.suppressed_values = delta.suppressed_values;
  state_.quarantined_pairs = delta.quarantined_pairs;
  has_state_ = true;
  return state_;
}

std::vector<SystemSnapshot> ReconstructSnapshots(
    std::span<const SystemDelta> deltas) {
  DeltaReconstructor reconstructor;
  std::vector<SystemSnapshot> snapshots;
  snapshots.reserve(deltas.size());
  for (const SystemDelta& delta : deltas) {
    snapshots.push_back(reconstructor.Apply(delta));
  }
  return snapshots;
}

}  // namespace pmcorr
