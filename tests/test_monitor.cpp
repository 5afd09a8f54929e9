// Tests for SystemMonitor: multi-pair learning, stepping, aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "engine/monitor.h"

namespace pmcorr {
namespace {

// A small system: 2 machines x 2 metrics, all driven by one load signal.
MeasurementFrame SystemFrame(std::size_t samples, std::uint64_t seed,
                             bool break_m3_correlation_late = false) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(4, std::vector<double>(samples));
  Rng walk_rng = rng.Fork();
  double walk = 50.0;
  for (std::size_t i = 0; i < samples; ++i) {
    const double load =
        60.0 + 35.0 * std::sin(static_cast<double>(i) * 0.03) +
        rng.Normal(0.0, 1.5);
    cols[0][i] = load + rng.Normal(0.0, 0.8);
    cols[1][i] = 100.0 * load / (load + 45.0) + rng.Normal(0.0, 0.4);
    cols[2][i] = 2.5 * load + 20.0 + rng.Normal(0.0, 2.0);
    if (break_m3_correlation_late && i >= samples / 2) {
      // Fast-moving decoupled walk: jumps across grid cells, which is
      // what makes the broken link score poorly (slow drifts would be
      // absorbed by the spatial-closeness prior).
      walk += walk_rng.Normal(0.0, 25.0);
      walk = std::clamp(walk, 20.0, 150.0);
      cols[3][i] = walk;
    } else {
      cols[3][i] = 0.8 * load + 35.0 + rng.Normal(0.0, 1.5);
    }
  }
  MeasurementFrame frame(0, kPaperSamplePeriod);
  for (int c = 0; c < 4; ++c) {
    MeasurementInfo info;
    info.machine = MachineId(c / 2);
    info.name = "m" + std::to_string(c);
    frame.Add(info, TimeSeries(0, kPaperSamplePeriod, std::move(cols[c])));
  }
  return frame;
}

MonitorConfig SmallConfig() {
  MonitorConfig config;
  config.model.partition.units = 40;
  config.model.partition.max_intervals = 10;
  config.threads = 2;
  return config;
}

TEST(SystemMonitor, LearnsOneModelPerPair) {
  const MeasurementFrame history = SystemFrame(1200, 3);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  EXPECT_EQ(monitor.Graph().PairCount(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_GT(monitor.Model(i).Matrix().ObservedCount(), 1000u);
  }
}

TEST(SystemMonitor, RejectsMismatchedInputs) {
  const MeasurementFrame history = SystemFrame(600, 5);
  EXPECT_THROW(SystemMonitor(history, MeasurementGraph::FullMesh(5),
                             SmallConfig()),
               std::invalid_argument);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  const std::vector<double> wrong = {1.0, 2.0};
  EXPECT_THROW(monitor.Step(wrong, 0), std::invalid_argument);
}

TEST(SystemMonitor, FirstSnapshotHasNoScores) {
  const MeasurementFrame history = SystemFrame(800, 7);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  const std::vector<double> v = {60.0, 57.0, 170.0, 83.0};
  const SystemSnapshot snap = monitor.Step(v, 0);
  EXPECT_FALSE(snap.system_score.has_value());
  for (const auto& s : snap.pair_scores) EXPECT_FALSE(s.has_value());
}

TEST(SystemMonitor, NormalTestDataScoresHigh) {
  const MeasurementFrame history = SystemFrame(2400, 9);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  const MeasurementFrame test = SystemFrame(400, 10);
  const auto snapshots = monitor.Run(test);
  ASSERT_EQ(snapshots.size(), 400u);
  EXPECT_GT(monitor.SystemAverage().Mean(), 0.8);
  EXPECT_EQ(monitor.StepCount(), 400u);
}

TEST(SystemMonitor, BrokenCorrelationLowersItsMeasurementScore) {
  const MeasurementFrame history = SystemFrame(2400, 11);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  // Second half of the test set: measurement 3 decouples from the load.
  const MeasurementFrame test = SystemFrame(600, 12, true);
  monitor.Run(test);
  const auto& avgs = monitor.MeasurementAverages();
  ASSERT_EQ(avgs.size(), 4u);
  // The broken measurement must rank worst and average clearly below the
  // healthy ones.
  for (int a = 0; a < 3; ++a) {
    EXPECT_LT(avgs[3].Mean(), avgs[static_cast<std::size_t>(a)].Mean());
  }
  const double healthy =
      (avgs[0].Mean() + avgs[1].Mean() + avgs[2].Mean()) / 3.0;
  EXPECT_LT(avgs[3].Mean(), healthy - 0.03);
}

TEST(SystemMonitor, SnapshotAggregationIsConsistent) {
  const MeasurementFrame history = SystemFrame(1200, 13);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  const MeasurementFrame test = SystemFrame(50, 14);
  const auto snapshots = monitor.Run(test);
  for (const auto& snap : snapshots) {
    if (!snap.system_score) continue;
    // Q is the mean of engaged measurement scores.
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& q : snap.measurement_scores) {
      if (q) {
        sum += *q;
        ++n;
        EXPECT_GE(*q, 0.0);
        EXPECT_LE(*q, 1.0);
      }
    }
    ASSERT_GT(n, 0u);
    EXPECT_NEAR(*snap.system_score, sum / static_cast<double>(n), 1e-12);
  }
}

TEST(SystemMonitor, NeighborhoodGraphAlsoWorks) {
  const MeasurementFrame history = SystemFrame(1000, 15);
  const MeasurementGraph graph =
      MeasurementGraph::Neighborhood(history, 1, 99);
  SystemMonitor monitor(history, graph, SmallConfig());
  const MeasurementFrame test = SystemFrame(100, 16);
  const auto snapshots = monitor.Run(test);
  EXPECT_GT(monitor.SystemAverage().Mean(), 0.6);
}

TEST(SystemMonitor, CalibrateThresholdsArmsPairAlarms) {
  const MeasurementFrame history = SystemFrame(2000, 19);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  // Unarmed: nothing alarms even on broken data.
  const MeasurementFrame broken_probe = SystemFrame(60, 20, true);
  for (const auto& snap : monitor.Run(broken_probe)) {
    EXPECT_TRUE(snap.alarmed_pairs.empty());
  }

  const MeasurementFrame holdout = SystemFrame(600, 21);
  monitor.CalibrateThresholds(holdout, 0.05);
  for (std::size_t i = 0; i < monitor.Graph().PairCount(); ++i) {
    EXPECT_GT(monitor.Model(i).Config().fitness_alarm_threshold, 0.0);
  }

  // Clean data alarms at roughly the target rate per pair.
  const MeasurementFrame clean = SystemFrame(400, 22);
  std::size_t clean_alarms = 0;
  for (const auto& snap : monitor.Run(clean)) {
    clean_alarms += snap.alarmed_pairs.size();
  }
  const double per_pair_rate =
      static_cast<double>(clean_alarms) /
      (400.0 * static_cast<double>(monitor.Graph().PairCount()));
  EXPECT_LT(per_pair_rate, 0.25);

  // Broken data alarms more than clean data.
  monitor.ResetSequences();
  const MeasurementFrame broken = SystemFrame(400, 23, true);
  std::size_t broken_alarms = 0;
  std::vector<std::size_t> per_pair(monitor.Graph().PairCount(), 0);
  for (const auto& snap : monitor.Run(broken)) {
    broken_alarms += snap.alarmed_pairs.size();
    for (const std::size_t i : snap.alarmed_pairs) ++per_pair[i];
  }
  EXPECT_GT(broken_alarms, clean_alarms);

  // The broken run's noisiest pair (the lowest index on a tie) touches
  // the broken measurement (index 3).
  const std::size_t noisiest = static_cast<std::size_t>(
      std::max_element(per_pair.begin(), per_pair.end()) - per_pair.begin());
  ASSERT_GT(per_pair[noisiest], 0u);
  const PairId& pair = monitor.Graph().Pair(noisiest);
  EXPECT_TRUE(pair.a.value == 3 || pair.b.value == 3);
}

TEST(SystemMonitor, ResetSequencesDisengagesNextSample) {
  const MeasurementFrame history = SystemFrame(800, 17);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  const MeasurementFrame test = SystemFrame(10, 18);
  monitor.Run(test);
  monitor.ResetSequences();
  const std::vector<double> v = {60.0, 57.0, 170.0, 83.0};
  const SystemSnapshot snap = monitor.Step(v, 0);
  EXPECT_FALSE(snap.system_score.has_value());
}

}  // namespace
}  // namespace pmcorr
