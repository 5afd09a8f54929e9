#include "engine/evaluation.h"

#include <algorithm>

namespace pmcorr {
namespace {

bool Overlaps(TimePoint a_start, TimePoint a_end, TimePoint b_start,
              TimePoint b_end) {
  return a_start < b_end && b_start < a_end;
}

}  // namespace

std::vector<std::optional<double>> SystemScoreSeries(
    const std::vector<SystemSnapshot>& snapshots) {
  std::vector<std::optional<double>> scores;
  scores.reserve(snapshots.size());
  for (const SystemSnapshot& snap : snapshots) {
    scores.push_back(snap.system_score);
  }
  return scores;
}

double DetectionOutcome::Precision() const {
  const std::size_t raised = detected + false_alarms;
  if (raised == 0) return alarm_windows == 0 ? 1.0 : 0.0;
  return static_cast<double>(detected) / static_cast<double>(raised);
}

double DetectionOutcome::Recall() const {
  if (truth_windows == 0) return 1.0;
  return static_cast<double>(detected) / static_cast<double>(truth_windows);
}

double DetectionOutcome::F1() const {
  const double p = Precision();
  const double r = Recall();
  if (p + r == 0.0) return 0.0;
  return 2.0 * p * r / (p + r);
}

DetectionOutcome EvaluateDetection(const std::vector<ScoreWindow>& alarms,
                                   const std::vector<LabeledWindow>& truth,
                                   Duration grace) {
  DetectionOutcome outcome;
  outcome.truth_windows = truth.size();
  outcome.alarm_windows = alarms.size();

  double latency_sum = 0.0;
  for (const LabeledWindow& t : truth) {
    const ScoreWindow* first = nullptr;
    for (const ScoreWindow& a : alarms) {
      if (!Overlaps(a.start, a.end, t.start - grace, t.end + grace)) continue;
      if (first == nullptr || a.start < first->start) first = &a;
    }
    if (first != nullptr) {
      ++outcome.detected;
      latency_sum += static_cast<double>(first->start - t.start);
    } else {
      ++outcome.missed;
    }
  }
  if (outcome.detected > 0) {
    outcome.mean_latency_seconds =
        latency_sum / static_cast<double>(outcome.detected);
  }

  for (const ScoreWindow& a : alarms) {
    const bool matches = std::any_of(
        truth.begin(), truth.end(), [&](const LabeledWindow& t) {
          return Overlaps(a.start, a.end, t.start - grace, t.end + grace);
        });
    if (!matches) ++outcome.false_alarms;
  }
  return outcome;
}

std::vector<ThresholdSweepPoint> SweepThresholds(
    std::span<const std::optional<double>> scores, TimePoint start,
    Duration period, const std::vector<LabeledWindow>& truth,
    std::span<const double> thresholds, std::size_t min_length,
    Duration grace) {
  std::vector<ThresholdSweepPoint> sweep;
  sweep.reserve(thresholds.size());
  for (double threshold : thresholds) {
    const auto windows =
        ExtractLowScoreWindows(scores, start, period, threshold, min_length);
    sweep.push_back({threshold, EvaluateDetection(windows, truth, grace)});
  }
  return sweep;
}

}  // namespace pmcorr
