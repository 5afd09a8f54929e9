#include "engine/localizer.h"

#include <algorithm>
#include <map>

#include "common/stats.h"

namespace pmcorr {

std::vector<MachineScore> ScoreMachines(
    const std::vector<MeasurementInfo>& infos,
    std::span<const std::optional<double>> measurement_scores) {
  std::map<MachineId, MachineScore> by_machine;
  for (std::size_t a = 0; a < infos.size(); ++a) {
    if (a >= measurement_scores.size()) break;
    if (!measurement_scores[a]) continue;
    MachineScore& ms = by_machine[infos[a].machine];
    ms.machine = infos[a].machine;
    ms.score += *measurement_scores[a];
    ++ms.measurements;
  }
  std::vector<MachineScore> out;
  out.reserve(by_machine.size());
  for (auto& [machine, ms] : by_machine) {
    ms.score /= static_cast<double>(ms.measurements);
    out.push_back(ms);
  }
  std::sort(out.begin(), out.end(),
            [](const MachineScore& a, const MachineScore& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.machine < b.machine;
            });
  return out;
}

std::vector<MachineScore> ScoreMachines(
    const std::vector<MeasurementInfo>& infos,
    const std::vector<ScoreAverager>& measurement_averages) {
  std::vector<std::optional<double>> means(measurement_averages.size());
  for (std::size_t a = 0; a < means.size(); ++a) {
    if (measurement_averages[a].Count() > 0) {
      means[a] = measurement_averages[a].Mean();
    }
  }
  return ScoreMachines(infos, means);
}

LocalizationReport Localize(
    const std::vector<MeasurementInfo>& infos,
    const std::vector<ScoreAverager>& measurement_averages,
    const LocalizerConfig& config) {
  LocalizationReport report;
  report.ranking = ScoreMachines(infos, measurement_averages);
  if (report.ranking.empty()) return report;

  RunningStats stats;
  for (const MachineScore& ms : report.ranking) stats.Add(ms.score);

  double threshold = -1.0;
  if (config.deviations > 0.0) {
    threshold = stats.Mean() - config.deviations * stats.StdDev();
  }
  if (config.absolute_floor) {
    threshold = std::max(threshold, *config.absolute_floor);
  }
  report.threshold = threshold;

  for (const MachineScore& ms : report.ranking) {
    if (ms.score < threshold) report.suspects.push_back(ms.machine);
  }
  return report;
}

}  // namespace pmcorr
