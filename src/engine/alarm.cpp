#include "engine/alarm.h"

#include <algorithm>

namespace pmcorr {
namespace {

template <typename GetScore>
std::vector<ScoreWindow> ExtractImpl(std::size_t count, GetScore get,
                                     TimePoint start, Duration period,
                                     double threshold,
                                     std::size_t min_length) {
  std::vector<ScoreWindow> windows;
  std::optional<ScoreWindow> open;
  auto close = [&] {
    if (open && open->Length() >= min_length) windows.push_back(*open);
    open.reset();
  };
  for (std::size_t i = 0; i < count; ++i) {
    const std::optional<double> score = get(i);
    const bool low = score && *score < threshold;
    if (low) {
      if (!open) {
        open = ScoreWindow{};
        open->first_sample = i;
        open->min_score = *score;
      }
      open->last_sample = i;
      open->min_score = std::min(open->min_score, *score);
      open->start = start + static_cast<Duration>(open->first_sample) * period;
      open->end = start + static_cast<Duration>(i + 1) * period;
    } else {
      close();
    }
  }
  close();
  return windows;
}

}  // namespace

std::vector<ScoreWindow> ExtractLowScoreWindows(
    std::span<const std::optional<double>> scores, TimePoint start,
    Duration period, double threshold, std::size_t min_length) {
  return ExtractImpl(
      scores.size(), [&](std::size_t i) { return scores[i]; }, start, period,
      threshold, min_length);
}

std::vector<ScoreWindow> ExtractLowScoreWindows(std::span<const double> scores,
                                                TimePoint start,
                                                Duration period,
                                                double threshold,
                                                std::size_t min_length) {
  return ExtractImpl(
      scores.size(),
      [&](std::size_t i) { return std::optional<double>(scores[i]); }, start,
      period, threshold, min_length);
}

bool AnyWindowOverlaps(const std::vector<ScoreWindow>& windows,
                       TimePoint from, TimePoint to) {
  return std::any_of(windows.begin(), windows.end(),
                     [&](const ScoreWindow& w) {
                       return w.start < to && from < w.end;
                     });
}

}  // namespace pmcorr
