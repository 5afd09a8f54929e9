// Problem localization (Figure 14): aggregate per-measurement fitness to
// machines, rank them, and surface suspects.
//
// "We compute the average fitness score among measurements collected from
// the same machine ... The locations with low fitness scores are the
// potential problem sources."
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "core/fitness.h"
#include "timeseries/frame.h"

namespace pmcorr {

/// A machine's aggregate health over the monitored period.
struct MachineScore {
  MachineId machine;
  /// Mean of the machine's measurement-level average fitness scores.
  double score = 0.0;
  /// Measurements contributing to the mean.
  std::size_t measurements = 0;
};

/// Averages per-measurement scores (higher = healthier; indexed like
/// `infos`) up to machines. Measurements without a score are skipped, and
/// machines with no scored measurement are absent. Results are sorted
/// ascending by score — suspects first — with ties toward lower machine
/// ids.
std::vector<MachineScore> ScoreMachines(
    const std::vector<MeasurementInfo>& infos,
    std::span<const std::optional<double>> measurement_scores);

/// The same over lifetime averagers: each scores its mean, and one with
/// no engaged samples is skipped.
std::vector<MachineScore> ScoreMachines(
    const std::vector<MeasurementInfo>& infos,
    const std::vector<ScoreAverager>& measurement_averages);

/// Localization verdict.
struct LocalizationReport {
  /// All machines, ascending by score.
  std::vector<MachineScore> ranking;
  /// Machines flagged as suspects.
  std::vector<MachineId> suspects;
  /// The threshold actually applied.
  double threshold = 0.0;
};

/// Localization policy: a machine is a suspect when its score falls below
/// either the absolute floor or (mean - deviations * stddev) of the fleet
/// (whichever criterion is enabled).
struct LocalizerConfig {
  std::optional<double> absolute_floor;  // e.g. 0.9 as in Figure 14
  double deviations = 3.0;               // relative criterion; <= 0 disables
};

/// Ranks machines and applies the suspect policy.
LocalizationReport Localize(const std::vector<MeasurementInfo>& infos,
                            const std::vector<ScoreAverager>& measurement_averages,
                            const LocalizerConfig& config = {});

}  // namespace pmcorr
