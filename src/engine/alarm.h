// Alarm extraction over fitness-score streams.
//
// The paper reads problems off the fitness plot as "deep downward
// spikes" (Figure 12). These helpers turn a per-sample score series into
// discrete alarm windows. Pair-level alarms are not logged here: each
// SystemSnapshot lists the pairs that alarmed at its sample.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/time.h"

namespace pmcorr {

/// A maximal run of consecutive samples scoring below a threshold.
struct ScoreWindow {
  std::size_t first_sample = 0;
  std::size_t last_sample = 0;  // inclusive
  TimePoint start = 0;
  TimePoint end = 0;  // half-open: start of the sample after the window
  double min_score = 1.0;

  std::size_t Length() const { return last_sample - first_sample + 1; }
};

/// Finds all maximal windows of scores strictly below `threshold`.
/// Disengaged samples (nullopt) break windows without alarming. Windows
/// shorter than `min_length` samples are dropped (debounce).
std::vector<ScoreWindow> ExtractLowScoreWindows(
    std::span<const std::optional<double>> scores, TimePoint start,
    Duration period, double threshold, std::size_t min_length = 1);

/// Dense-series overload.
std::vector<ScoreWindow> ExtractLowScoreWindows(std::span<const double> scores,
                                                TimePoint start,
                                                Duration period,
                                                double threshold,
                                                std::size_t min_length = 1);

/// True if any window overlaps [from, to) — used by tests to check a
/// detection against a ground-truth fault window.
bool AnyWindowOverlaps(const std::vector<ScoreWindow>& windows,
                       TimePoint from, TimePoint to);

}  // namespace pmcorr
