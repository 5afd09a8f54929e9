// Second batch of parameterized property tests, covering the newer
// modules: queueing vs closed forms, subspace monotonicity, calibration
// monotonicity, incident-tracker invariants and umbrella-header sanity.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "pmcorr.h"  // umbrella header — also verifies it compiles

namespace pmcorr {
namespace {

// ---------------------------------------------------------------------
// Property: the M/M/c simulator matches Erlang closed forms across
// (servers, utilization) combinations (Little's law included).
// ---------------------------------------------------------------------

struct QueueCase {
  std::size_t servers;
  double rho;
};

class QueueProperties : public ::testing::TestWithParam<QueueCase> {};

TEST_P(QueueProperties, MatchesClosedFormsAndLittlesLaw) {
  const auto& param = GetParam();
  const double mu = 10.0;
  const double lambda = param.rho * mu * static_cast<double>(param.servers);

  QueueConfig config;
  config.servers = param.servers;
  config.service_rate = mu;
  MmcQueueSimulator sim(config);
  Rng rng(CombineSeed(99, param.servers * 100 +
                              static_cast<std::uint64_t>(param.rho * 100)));
  sim.Run(lambda, 500.0, rng);  // transient
  const QueueSimStats stats = sim.Run(lambda, 15000.0, rng);

  const double expected = MmcMeanResponse(lambda, mu, param.servers);
  EXPECT_NEAR(stats.mean_response, expected, expected * 0.12);
  EXPECT_NEAR(stats.utilization, param.rho, 0.04);
  EXPECT_NEAR(stats.mean_in_system, lambda * expected,
              lambda * expected * 0.15);
  EXPECT_EQ(stats.dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ServersAndLoads, QueueProperties,
    ::testing::Values(QueueCase{1, 0.3}, QueueCase{1, 0.7},
                      QueueCase{2, 0.5}, QueueCase{2, 0.8},
                      QueueCase{4, 0.6}, QueueCase{8, 0.7},
                      QueueCase{8, 0.85}));

// ---------------------------------------------------------------------
// Property: adding subspace components never increases any sample's SPE,
// and captured variance grows with k.
// ---------------------------------------------------------------------

class SubspaceProperties : public ::testing::TestWithParam<std::size_t> {};

MeasurementFrame SubspaceFrame(std::uint64_t seed) {
  Rng rng(seed);
  MeasurementFrame frame(0, kPaperSamplePeriod);
  std::vector<std::vector<double>> cols(6, std::vector<double>(400));
  for (std::size_t t = 0; t < 400; ++t) {
    const double f1 = std::sin(t * 0.05);
    const double f2 = std::cos(t * 0.013);
    for (std::size_t a = 0; a < 6; ++a) {
      cols[a][t] = 10.0 + static_cast<double>(a) * f1 * 5.0 +
                   static_cast<double>(5 - a) * f2 * 3.0 +
                   rng.Normal(0.0, 0.5);
    }
  }
  for (std::size_t a = 0; a < 6; ++a) {
    MeasurementInfo info;
    info.name = "s" + std::to_string(a);
    frame.Add(info, TimeSeries(0, kPaperSamplePeriod, std::move(cols[a])));
  }
  return frame;
}

TEST_P(SubspaceProperties, MoreComponentsNeverRaiseSpe) {
  const std::uint64_t seed = GetParam();
  const MeasurementFrame frame = SubspaceFrame(seed);

  SubspaceConfig small, large;
  small.components = 1;
  large.components = 3;
  const auto det_small = SubspaceDetector::Fit(frame, small);
  const auto det_large = SubspaceDetector::Fit(frame, large);
  EXPECT_GE(det_large.CapturedVariance(),
            det_small.CapturedVariance() - 1e-9);

  std::vector<double> sample(frame.MeasurementCount());
  for (std::size_t t = 0; t < frame.SampleCount(); t += 23) {
    for (std::size_t a = 0; a < sample.size(); ++a) {
      sample[a] = frame.Value(MeasurementId(static_cast<std::int32_t>(a)), t);
    }
    EXPECT_LE(det_large.Spe(sample), det_small.Spe(sample) + 1e-9);
    EXPECT_GE(det_small.Spe(sample), -1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubspaceProperties,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

// ---------------------------------------------------------------------
// Property: calibrated thresholds are monotone in the target FPR.
// ---------------------------------------------------------------------

class CalibrationProperties : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CalibrationProperties, ThresholdsMonotoneInTarget) {
  Rng rng(GetParam());
  std::vector<double> xs(1200), ys(1200);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double load = 50.0 + 30.0 * std::sin(i * 0.04) +
                        rng.Normal(0.0, 1.5);
    xs[i] = load;
    ys[i] = 2.0 * load + rng.Normal(0.0, 1.0);
  }
  ModelConfig config;
  config.partition.units = 30;
  config.partition.max_intervals = 8;
  const PairModel model = PairModel::Learn(xs, ys, config);

  double prev_fitness = -1.0, prev_delta = -1.0;
  for (double target : {0.01, 0.05, 0.10, 0.25, 0.50}) {
    const auto calibration = CalibrateOnHoldout(model, xs, ys, target);
    EXPECT_GE(calibration.fitness_threshold, prev_fitness);
    EXPECT_GE(calibration.delta, prev_delta);
    prev_fitness = calibration.fitness_threshold;
    prev_delta = calibration.delta;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalibrationProperties,
                         ::testing::Values(11u, 13u, 17u, 19u));

// ---------------------------------------------------------------------
// Property: incident-tracker output is well-formed for random alarm
// streams — incidents are ordered, non-overlapping after closure, and
// account for every alarm.
// ---------------------------------------------------------------------

class IncidentProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncidentProperties, IncidentsOrderedAndAccountAllAlarms) {
  Rng rng(GetParam());
  IncidentConfig config;
  config.merge_gap = 30 * kMinute;
  config.cooldown = 12 * kMinute;
  IncidentTracker tracker(config);

  std::size_t alarms_fed = 0;
  TimePoint tp = 0;
  for (int i = 0; i < 2000; ++i) {
    tp += kPaperSamplePeriod;
    const bool alarming = rng.Bernoulli(0.08);
    if (alarming) ++alarms_fed;
    tracker.Observe(tp, alarming, alarming ? rng.Uniform(0.0, 0.5) : 0.95);
  }
  tracker.Flush(tp + kDay);

  std::size_t alarms_recorded = 0;
  TimePoint prev_end = -1;
  for (const Incident& incident : tracker.Incidents()) {
    EXPECT_FALSE(incident.open);  // flushed
    EXPECT_LE(incident.start, incident.last_alarm);
    EXPECT_LT(incident.start, incident.end);
    EXPECT_GE(incident.min_score, 0.0);
    EXPECT_LT(incident.min_score, 1.0);
    EXPECT_GT(incident.start, prev_end);  // ordered, disjoint
    prev_end = incident.end;
    alarms_recorded += incident.alarm_count;
  }
  EXPECT_EQ(alarms_recorded, alarms_fed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncidentProperties,
                         ::testing::Values(3u, 7u, 21u, 42u, 77u));

}  // namespace
}  // namespace pmcorr
