// Differential harness for the monitoring engine: proves every
// SystemMonitor entry point observably identical to the test-only
// reference stepper (reference_stepper.h).
//
// The engine runs Step and Run through one pair-major core, so the
// contract is deliberately brutal: for the same scenario the
// value-returning Step loop, the out-param Step loop that reuses one
// snapshot, the multi-row Step at several call widths, and Run at every
// thread count and batch width must each produce the reference's
// snapshot stream bitwise (every pair score, Q^a, Q, alarm list,
// counter and health flag), its lifetime aggregates and its checkpoint
// bytes — after calibration, under scripted engine faults, and across
// ResetSequences boundaries.
// After every row the reference fed row by row steps, and on the models
// of a reloaded checkpoint, each pair model must also encode to the
// bytes of the dense reference encoder (dense_reference.h).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "dense_reference.h"
#include "engine/fault_plan.h"
#include "engine/monitor.h"
#include "engine/snapshot.h"
#include "io/monitor_io.h"
#include "reference_stepper.h"

namespace pmcorr {
namespace difftest {

/// Feeds `frame` one row at a time through the value-returning Step of
/// `engine` (a SystemMonitor or a ReferenceStepper).
template <typename Engine>
std::vector<SystemSnapshot> StepLoop(Engine& engine,
                                     const MeasurementFrame& frame) {
  std::vector<SystemSnapshot> snapshots;
  snapshots.reserve(frame.SampleCount());
  std::vector<double> values(frame.MeasurementCount());
  for (std::size_t t = 0; t < frame.SampleCount(); ++t) {
    for (std::size_t a = 0; a < values.size(); ++a) {
      values[a] = frame.Value(MeasurementId(static_cast<std::int32_t>(a)), t);
    }
    snapshots.push_back(engine.Step(values, frame.TimeAt(t)));
  }
  return snapshots;
}

/// Same through the out-param Step, assembling every row into one
/// reused snapshot: a field the engine fails to overwrite shows up as a
/// stale value in the copies.
inline std::vector<SystemSnapshot> StepLoopReusingSnapshot(
    SystemMonitor& monitor, const MeasurementFrame& frame) {
  std::vector<SystemSnapshot> snapshots;
  snapshots.reserve(frame.SampleCount());
  std::vector<double> values(frame.MeasurementCount());
  SystemSnapshot out;
  for (std::size_t t = 0; t < frame.SampleCount(); ++t) {
    for (std::size_t a = 0; a < values.size(); ++a) {
      values[a] = frame.Value(MeasurementId(static_cast<std::int32_t>(a)), t);
    }
    monitor.Step(values, frame.TimeAt(t), out);
    snapshots.push_back(out);
  }
  return snapshots;
}

/// Feeds `frame` through the multi-row Step in calls of `width` rows (0:
/// one call over the whole frame), assembling each call into slots
/// reused across calls, so a field the engine fails to overwrite shows
/// up as a stale value in the copies.
inline std::vector<SystemSnapshot> StepInCalls(SystemMonitor& monitor,
                                               const MeasurementFrame& frame,
                                               std::size_t width) {
  const std::size_t samples = frame.SampleCount();
  if (width == 0) width = std::max<std::size_t>(samples, 1);
  std::vector<SystemSnapshot> snapshots;
  snapshots.reserve(samples);
  std::vector<SystemSnapshot> slots(width);
  std::vector<std::span<const double>> cols(frame.MeasurementCount());
  std::vector<TimePoint> times;
  for (std::size_t t0 = 0; t0 < samples; t0 += width) {
    const std::size_t rows = std::min(width, samples - t0);
    for (std::size_t a = 0; a < cols.size(); ++a) {
      cols[a] = frame.Series(MeasurementId(static_cast<std::int32_t>(a)))
                    .Values()
                    .subspan(t0, rows);
    }
    times.clear();
    for (std::size_t t = t0; t < t0 + rows; ++t) {
      times.push_back(frame.TimeAt(t));
    }
    monitor.Step(cols, times, std::span<SystemSnapshot>(slots.data(), rows));
    snapshots.insert(snapshots.end(), slots.begin(),
                     slots.begin() + static_cast<std::ptrdiff_t>(rows));
  }
  return snapshots;
}

/// Asserts that every pair model of `engine` (a SystemMonitor or a
/// ReferenceStepper) encodes to the dense reference encoder's bytes.
template <typename Engine>
void ExpectModelFramesMatchDense(const Engine& engine, std::size_t pairs) {
  for (std::size_t i = 0; i < pairs; ++i) {
    ASSERT_TRUE(ModelFrames(engine.Model(i)) ==
                DenseReferenceModelFrames(engine.Model(i)))
        << "pair " << i << " encodes unlike the dense reference";
  }
}

/// StepLoop, checking every pair model's encoding against the dense
/// reference encoder after every row.
template <typename Engine>
std::vector<SystemSnapshot> StepLoopCheckingFrames(
    Engine& engine, const MeasurementFrame& frame, std::size_t pairs) {
  std::vector<SystemSnapshot> snapshots;
  std::vector<double> values(frame.MeasurementCount());
  for (std::size_t t = 0; t < frame.SampleCount(); ++t) {
    for (std::size_t a = 0; a < values.size(); ++a) {
      values[a] = frame.Value(MeasurementId(static_cast<std::int32_t>(a)), t);
    }
    snapshots.push_back(engine.Step(values, frame.TimeAt(t)));
    SCOPED_TRACE("after row " + std::to_string(t));
    ExpectModelFramesMatchDense(engine, pairs);
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

/// Lifetime aggregates: per-measurement and system averagers (bitwise on
/// the running sums) and the step counter, of two monitors or of a
/// monitor and a ReferenceStepper.
template <typename A, typename B>
void ExpectAggregatesEqual(const A& a, const B& b) {
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
/// same models at any thread count), optionally calibrates, installs the
/// fault plan, and feeds the test frame.
struct DifferentialCase {
  MeasurementFrame history;
  MeasurementFrame test;
  /// When present, CalibrateThresholds runs on it before the test frame
  /// (so the alarm path is exercised too).
  std::optional<MeasurementFrame> holdout;
  double target_false_positive_rate = 0.05;
  MeasurementGraph graph;
  MonitorConfig config;
  /// Scripted engine faults (non-owning), installed after calibration.
  const EngineFaultPlan* fault_plan = nullptr;
  /// Batch sizes exercised for Run, besides the default.
  /// Small odd widths force mid-frame batch boundaries.
  std::vector<std::size_t> batch_sizes = {0, 7};
  /// When true, the test frame is fed in two halves with ResetSequences
  /// between them — on every path.
  bool reset_mid_stream = false;
};

/// Feeds the case's test frame to `engine` through `feed(engine, frame)`,
/// splitting it at ResetSequences when the case asks for that.
template <typename Engine, typename Feed>
std::vector<SystemSnapshot> FeedCase(Engine& engine, const DifferentialCase& c,
                                     Feed feed) {
  if (!c.reset_mid_stream) return feed(engine, c.test);
  const TimePoint mid = c.test.TimeAt(c.test.SampleCount() / 2);
  auto snaps = feed(engine, c.test.SliceByTime(c.test.StartTime(), mid));
  engine.ResetSequences();
  auto rest = feed(engine, c.test.SliceByTime(
                               mid, c.test.TimeAt(c.test.SampleCount())));
  snaps.insert(snaps.end(), rest.begin(), rest.end());
  return snaps;
}

/// The reference stepper's outputs for one way of feeding the case.
struct ReferenceRun {
  std::vector<SystemSnapshot> snapshots;
  std::string checkpoint;
};

/// Asserts `monitor` ended where `reference` did after producing `want`:
/// snapshots, lifetime aggregates, checkpoint bytes, and each pair's
/// previous cell (the sequence state a checkpoint does not carry).
inline void ExpectMatchesReference(const ReferenceRun& want,
                                   const ReferenceStepper& reference,
                                   const SystemMonitor& monitor,
                                   const std::vector<SystemSnapshot>& got) {
  ExpectStreamsEqual(want.snapshots, got);
  ExpectAggregatesEqual(reference, monitor);
  EXPECT_EQ(CheckpointString(monitor), want.checkpoint)
      << "checkpoint diverged from the reference stepper";
  ASSERT_EQ(reference.PairCount(), monitor.Graph().PairCount());
  for (std::size_t i = 0; i < reference.PairCount(); ++i) {
    EXPECT_EQ(reference.Model(i).PreviousCell(),
              monitor.Model(i).PreviousCell())
        << "sequence state of pair " << i;
  }
}

/// Multi-row Step widths the harness drives, besides one call over the
/// whole case: calls that split the case at many points, at odd offsets,
/// and wider than most of a case's degradations are apart.
inline constexpr std::size_t kStepCallWidths[] = {2, 7, 32, 0};

/// Runs the scenario through the reference stepper and, at every
/// requested thread count, through (a) the value-returning Step loop,
/// (b) the out-param Step loop reusing one snapshot, (c) the multi-row
/// Step in calls of every kStepCallWidths width and (d) Run at every
/// batch width, asserting each matches the reference's snapshot stream,
/// lifetime aggregates and checkpoint bytes exactly. Step, at any width,
/// is held to a reference fed row by row (the guard clock carries across
/// calls), Run to one fed frame by frame — they differ only in where the
/// guard clock resets.
inline void ExpectEngineMatchesReference(
    const DifferentialCase& c,
    std::vector<std::size_t> thread_counts = {1, 2, 8}) {
  const auto make = [&](std::size_t threads, std::size_t batch) {
    MonitorConfig config = c.config;
    config.threads = threads;
    config.batch_samples = batch;
    auto monitor = std::make_unique<SystemMonitor>(c.history, c.graph, config);
    if (c.holdout) {
      monitor->CalibrateThresholds(*c.holdout, c.target_false_positive_rate);
    }
    monitor->SetFaultPlanForTest(c.fault_plan);
    return monitor;
  };

  // The references start from a monitor that has not stepped.
  const auto start = make(1, 0);
  ReferenceStepper step_reference(*start);
  ReferenceStepper run_reference(*start);
  step_reference.SetFaultPlan(c.fault_plan);
  run_reference.SetFaultPlan(c.fault_plan);
  ReferenceRun by_row;
  const std::size_t pairs = start->Graph().PairCount();
  ExpectModelFramesMatchDense(*start, pairs);
  by_row.snapshots =
      FeedCase(step_reference, c, [pairs](auto& e, const auto& f) {
        return StepLoopCheckingFrames(e, f, pairs);
      });
  by_row.checkpoint = step_reference.CheckpointString();
  ReferenceRun by_frame;
  by_frame.snapshots = FeedCase(
      run_reference, c, [](auto& e, const auto& f) { return e.Run(f); });
  by_frame.checkpoint = run_reference.CheckpointString();

  // The checkpoint must itself round-trip losslessly, or checkpoint
  // equality below would prove nothing.
  {
    std::istringstream in(by_frame.checkpoint);
    const auto reloaded = LoadSystemMonitor(in, 1);
    EXPECT_EQ(CheckpointString(*reloaded), by_frame.checkpoint)
        << "checkpoint round-trip is lossy";
    ExpectModelFramesMatchDense(*reloaded, pairs);
  }

  for (std::size_t threads : thread_counts) {
    const std::string at = "threads=" + std::to_string(threads);
    {
      SCOPED_TRACE("Step, " + at);
      const auto monitor = make(threads, 0);
      const auto snaps = FeedCase(*monitor, c, [](auto& e, const auto& f) {
        return StepLoop(e, f);
      });
      ExpectMatchesReference(by_row, step_reference, *monitor, snaps);
    }
    {
      SCOPED_TRACE("Step into one reused snapshot, " + at);
      const auto monitor = make(threads, 0);
      const auto snaps = FeedCase(*monitor, c, [](auto& e, const auto& f) {
        return StepLoopReusingSnapshot(e, f);
      });
      ExpectMatchesReference(by_row, step_reference, *monitor, snaps);
    }
    for (std::size_t width : kStepCallWidths) {
      SCOPED_TRACE("multi-row Step, " + at +
                   " width=" + std::to_string(width));
      const auto monitor = make(threads, 0);
      const auto snaps =
          FeedCase(*monitor, c, [width](auto& e, const auto& f) {
            return StepInCalls(e, f, width);
          });
      ExpectMatchesReference(by_row, step_reference, *monitor, snaps);
    }
    for (std::size_t batch : c.batch_sizes) {
      SCOPED_TRACE("Run, " + at + " batch=" + std::to_string(batch));
      const auto monitor = make(threads, batch);
      const auto snaps = FeedCase(
          *monitor, c, [](auto& e, const auto& f) { return e.Run(f); });
      ExpectMatchesReference(by_frame, run_reference, *monitor, snaps);
    }
  }
}

}  // namespace difftest
}  // namespace pmcorr
