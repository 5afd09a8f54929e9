// Differential harness for the monitoring engine: proves that pair-major
// batched Run() is observably identical to the sample-major Step() loop.
//
// The batched engine is a correctness-critical rewrite of the hot path,
// so the contract is deliberately brutal: for the same scenario the two
// paths must produce bitwise-identical snapshot streams (every pair
// score, Q^a, Q, alarm list and counter), identical alarm logs,
// identical lifetime aggregates, and byte-identical checkpoints — at
// every thread count and batch size, after calibration, and across
// ResetSequences boundaries.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "engine/monitor.h"
#include "io/monitor_io.h"

namespace pmcorr {
namespace difftest {

/// The pre-batching reference semantics: one Step() per sample, exactly
/// what SystemMonitor::Run did before the pair-major rewrite.
inline std::vector<SystemSnapshot> RunSerial(SystemMonitor& monitor,
                                             const MeasurementFrame& test) {
  std::vector<SystemSnapshot> snapshots;
  snapshots.reserve(test.SampleCount());
  std::vector<double> values(test.MeasurementCount());
  for (std::size_t t = 0; t < test.SampleCount(); ++t) {
    for (std::size_t a = 0; a < values.size(); ++a) {
      values[a] = test.Value(MeasurementId(static_cast<std::int32_t>(a)), t);
    }
    snapshots.push_back(monitor.Step(values, test.TimeAt(t)));
  }
  return snapshots;
}

/// Full monitor checkpoint as a string — a byte-stable fingerprint of
/// every pair model (grid boundaries, matrix entries as IEEE-754 bit
/// patterns) plus the lifetime aggregates.
inline std::string CheckpointString(const SystemMonitor& monitor) {
  std::ostringstream out;
  SaveSystemMonitor(monitor, out);
  return out.str();
}

/// Exact equality of two optional scores (bitwise on the engaged value).
inline void ExpectScoreEqual(const std::optional<double>& a,
                             const std::optional<double>& b,
                             const char* what) {
  ASSERT_EQ(a.has_value(), b.has_value()) << what;
  if (a) {
    EXPECT_EQ(*a, *b) << what;
  }
}

inline void ExpectSnapshotsEqual(const SystemSnapshot& a,
                                 const SystemSnapshot& b) {
  EXPECT_EQ(a.sample, b.sample);
  EXPECT_EQ(a.time, b.time);
  ASSERT_EQ(a.pair_scores.size(), b.pair_scores.size());
  for (std::size_t i = 0; i < a.pair_scores.size(); ++i) {
    SCOPED_TRACE("pair " + std::to_string(i));
    ExpectScoreEqual(a.pair_scores[i], b.pair_scores[i], "pair score");
  }
  ASSERT_EQ(a.measurement_scores.size(), b.measurement_scores.size());
  for (std::size_t m = 0; m < a.measurement_scores.size(); ++m) {
    SCOPED_TRACE("measurement " + std::to_string(m));
    ExpectScoreEqual(a.measurement_scores[m], b.measurement_scores[m], "Q^a");
  }
  ExpectScoreEqual(a.system_score, b.system_score, "system score");
  EXPECT_EQ(a.alarmed_pairs, b.alarmed_pairs);
  EXPECT_EQ(a.outlier_pairs, b.outlier_pairs);
  EXPECT_EQ(a.extended_pairs, b.extended_pairs);
  // Degraded-mode telemetry must match across execution paths too:
  // quarantine trips and guard suppressions land on the same samples
  // whether the engine steps sample-major or sweeps pair-major.
  EXPECT_EQ(static_cast<int>(a.stream_event), static_cast<int>(b.stream_event));
  ASSERT_EQ(a.measurement_health.size(), b.measurement_health.size());
  for (std::size_t m = 0; m < a.measurement_health.size(); ++m) {
    EXPECT_EQ(static_cast<int>(a.measurement_health[m]),
              static_cast<int>(b.measurement_health[m]))
        << "health of measurement " << m;
  }
  EXPECT_EQ(a.suppressed_values, b.suppressed_values);
  EXPECT_EQ(a.quarantined_pairs, b.quarantined_pairs);
}

inline void ExpectStreamsEqual(const std::vector<SystemSnapshot>& a,
                               const std::vector<SystemSnapshot>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    SCOPED_TRACE("sample " + std::to_string(t));
    ExpectSnapshotsEqual(a[t], b[t]);
  }
}

inline void ExpectAlarmLogsEqual(const AlarmLog& a, const AlarmLog& b) {
  ASSERT_EQ(a.Count(), b.Count());
  for (std::size_t i = 0; i < a.Count(); ++i) {
    SCOPED_TRACE("alarm record " + std::to_string(i));
    EXPECT_EQ(a.Records()[i].time, b.Records()[i].time);
    EXPECT_EQ(a.Records()[i].pair_index, b.Records()[i].pair_index);
    EXPECT_EQ(a.Records()[i].fitness, b.Records()[i].fitness);
    EXPECT_EQ(a.Records()[i].outlier, b.Records()[i].outlier);
  }
}

/// Lifetime aggregates: per-measurement and system averagers (bitwise on
/// the running sums) and the step counter.
inline void ExpectAggregatesEqual(const SystemMonitor& a,
                                  const SystemMonitor& b) {
  EXPECT_EQ(a.StepCount(), b.StepCount());
  ASSERT_EQ(a.MeasurementAverages().size(), b.MeasurementAverages().size());
  for (std::size_t m = 0; m < a.MeasurementAverages().size(); ++m) {
    SCOPED_TRACE("measurement averager " + std::to_string(m));
    EXPECT_EQ(a.MeasurementAverages()[m].Sum(),
              b.MeasurementAverages()[m].Sum());
    EXPECT_EQ(a.MeasurementAverages()[m].Count(),
              b.MeasurementAverages()[m].Count());
  }
  EXPECT_EQ(a.SystemAverage().Sum(), b.SystemAverage().Sum());
  EXPECT_EQ(a.SystemAverage().Count(), b.SystemAverage().Count());
}

/// One differential scenario. The harness builds a fresh monitor per
/// execution mode (learning is deterministic, so same inputs give the
/// same models at any thread count), optionally calibrates, feeds the
/// test frame through the serial reference and through batched Run at
/// each thread count, and asserts total equivalence.
struct DifferentialCase {
  MeasurementFrame history;
  MeasurementFrame test;
  /// When present, CalibrateThresholds runs on it before the test frame
  /// (so the alarm path is exercised too).
  std::optional<MeasurementFrame> holdout;
  double target_false_positive_rate = 0.05;
  MeasurementGraph graph;
  MonitorConfig config;
  /// Batch sizes exercised for the batched path, besides the default.
  /// Small odd widths force mid-frame merge boundaries.
  std::vector<std::size_t> batch_sizes = {0, 7};
  /// When true, the test frame is fed in two halves with ResetSequences
  /// between them — in both paths.
  bool reset_mid_stream = false;
};

inline std::vector<SystemSnapshot> FeedSerial(SystemMonitor& monitor,
                                              const DifferentialCase& c) {
  if (!c.reset_mid_stream) return RunSerial(monitor, c.test);
  const std::size_t half = c.test.SampleCount() / 2;
  const TimePoint mid = c.test.TimeAt(half);
  auto snaps = RunSerial(monitor, c.test.SliceByTime(c.test.StartTime(), mid));
  monitor.ResetSequences();
  auto rest = RunSerial(
      monitor, c.test.SliceByTime(mid, c.test.TimeAt(c.test.SampleCount())));
  snaps.insert(snaps.end(), rest.begin(), rest.end());
  return snaps;
}

inline std::vector<SystemSnapshot> FeedBatched(SystemMonitor& monitor,
                                               const DifferentialCase& c) {
  if (!c.reset_mid_stream) return monitor.Run(c.test);
  const std::size_t half = c.test.SampleCount() / 2;
  const TimePoint mid = c.test.TimeAt(half);
  auto snaps = monitor.Run(c.test.SliceByTime(c.test.StartTime(), mid));
  monitor.ResetSequences();
  auto rest =
      monitor.Run(c.test.SliceByTime(mid, c.test.TimeAt(c.test.SampleCount())));
  snaps.insert(snaps.end(), rest.begin(), rest.end());
  return snaps;
}

/// Runs the scenario through (a) the serial Step loop and (b) batched
/// Run at every requested thread count and batch size, asserting the
/// snapshot streams, alarm logs, lifetime aggregates and checkpoints all
/// match the serial reference exactly.
inline void ExpectSerialAndBatchedEquivalent(
    const DifferentialCase& c,
    std::vector<std::size_t> thread_counts = {1, 2, 8}) {
  MonitorConfig serial_config = c.config;
  serial_config.threads = 1;
  SystemMonitor reference(c.history, c.graph, serial_config);
  if (c.holdout) {
    reference.CalibrateThresholds(*c.holdout, c.target_false_positive_rate);
  }
  const auto reference_snaps = FeedSerial(reference, c);
  const std::string reference_checkpoint = CheckpointString(reference);

  // The checkpoint must itself round-trip losslessly, or checkpoint
  // equality below would prove nothing.
  {
    std::istringstream in(reference_checkpoint);
    const auto reloaded = LoadSystemMonitor(in, 1);
    EXPECT_EQ(CheckpointString(*reloaded), reference_checkpoint)
        << "checkpoint round-trip is lossy";
  }

  for (std::size_t threads : thread_counts) {
    for (std::size_t batch : c.batch_sizes) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch=" + std::to_string(batch));
      MonitorConfig batched_config = c.config;
      batched_config.threads = threads;
      batched_config.batch_samples = batch;
      SystemMonitor monitor(c.history, c.graph, batched_config);
      if (c.holdout) {
        monitor.CalibrateThresholds(*c.holdout, c.target_false_positive_rate);
      }
      const auto snaps = FeedBatched(monitor, c);
      ExpectStreamsEqual(reference_snaps, snaps);
      ExpectAlarmLogsEqual(reference.Alarms(), monitor.Alarms());
      ExpectAggregatesEqual(reference, monitor);
      EXPECT_EQ(CheckpointString(monitor), reference_checkpoint)
          << "batched checkpoint diverged from serial reference";
    }
  }
}

}  // namespace difftest
}  // namespace pmcorr
