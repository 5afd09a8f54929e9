// Detection-quality evaluation: scoring alarm windows against
// ground-truth fault windows.
//
// The paper evaluates qualitatively ("the anomalies identified are
// consistent with the ground-truth"); with the simulator's labeled fault
// injections we can quantify: window-level precision/recall/F1 and
// detection latency, plus threshold sweeps for sensitivity analysis.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/time.h"
#include "engine/alarm.h"
#include "engine/monitor.h"

namespace pmcorr {

/// The per-sample system-score (Q) series of a snapshot stream — the
/// shape ExtractLowScoreWindows / SweepThresholds consume. Disengaged
/// samples stay nullopt.
std::vector<std::optional<double>> SystemScoreSeries(
    const std::vector<SystemSnapshot>& snapshots);

/// One ground-truth anomaly interval [start, end).
struct LabeledWindow {
  TimePoint start = 0;
  TimePoint end = 0;
};

/// Window-level detection outcome. A truth window counts as detected
/// when at least one alarm window overlaps it (with `grace` slack on
/// both sides); an alarm window not overlapping any (grace-extended)
/// truth window is a false alarm.
struct DetectionOutcome {
  std::size_t truth_windows = 0;
  std::size_t detected = 0;        // true positives (per truth window)
  std::size_t missed = 0;          // false negatives
  std::size_t alarm_windows = 0;   // total alarm windows raised
  std::size_t false_alarms = 0;    // alarm windows matching no truth

  /// detected / (detected + false_alarms); 1 when nothing was raised
  /// against an empty truth set, 0 when alarms exist but none match.
  double Precision() const;
  /// detected / truth_windows; 1 for an empty truth set.
  double Recall() const;
  /// Harmonic mean of precision and recall (0 when both are 0).
  double F1() const;

  /// Mean delay from each detected truth window's start to the first
  /// overlapping alarm (negative when the alarm began inside the grace
  /// margin before the window). Disengaged when nothing was detected.
  std::optional<double> mean_latency_seconds;

  /// Scorecard convention for the disengaged case: serializers and
  /// degraded-mode runs (quarantined/retired pairs can suppress every
  /// alarm) need a total function, so "no detection" reads as a fixed
  /// `fallback`. The scorecard uses -1: real latencies there are
  /// multiples of the sample period (alarm windows start on the sample
  /// grid), so -1 second is unambiguous. Pick a fallback outside your
  /// own time base when the grid is finer.
  double MeanLatencyOr(double fallback) const {
    return mean_latency_seconds ? *mean_latency_seconds : fallback;
  }
};

/// Matches alarm windows against truth windows.
DetectionOutcome EvaluateDetection(const std::vector<ScoreWindow>& alarms,
                                   const std::vector<LabeledWindow>& truth,
                                   Duration grace = 0);

/// One point of a threshold sensitivity sweep.
struct ThresholdSweepPoint {
  double threshold = 0.0;
  DetectionOutcome outcome;
};

/// Extracts alarm windows at each threshold (scores below threshold =
/// alarming, as in ExtractLowScoreWindows) and evaluates each against
/// the truth. Thresholds are processed in the order given.
std::vector<ThresholdSweepPoint> SweepThresholds(
    std::span<const std::optional<double>> scores, TimePoint start,
    Duration period, const std::vector<LabeledWindow>& truth,
    std::span<const double> thresholds, std::size_t min_length = 1,
    Duration grace = 0);

}  // namespace pmcorr
