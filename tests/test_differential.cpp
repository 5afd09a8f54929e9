// Engine-vs-reference equivalence for the monitoring engine.
//
// Every case runs the same scenario through the test-only reference
// stepper and, at 1, 2 and 8 threads, through every Step overload and
// through Run at several batch widths, asserting bitwise-identical
// snapshot streams, lifetime aggregates and checkpoints — see
// differential_util.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "differential_util.h"
#include "engine/fault_plan.h"
#include "telemetry/generator.h"
#include "telemetry/scenarios.h"

namespace pmcorr {
namespace {

using difftest::DifferentialCase;
using difftest::ExpectEngineMatchesReference;

// Scenario 1: a small correlated system — 2 machines x 2 metrics driven
// by one load signal (optionally decoupling measurement 3 halfway).
MeasurementFrame CorrelatedFrame(std::size_t samples, std::uint64_t seed,
                                 bool break_m3_correlation_late = false) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(4, std::vector<double>(samples));
  Rng walk_rng = rng.Fork();
  double walk = 50.0;
  for (std::size_t i = 0; i < samples; ++i) {
    const double load = 60.0 +
                        35.0 * std::sin(static_cast<double>(i) * 0.03) +
                        rng.Normal(0.0, 1.5);
    cols[0][i] = load + rng.Normal(0.0, 0.8);
    cols[1][i] = 100.0 * load / (load + 45.0) + rng.Normal(0.0, 0.4);
    cols[2][i] = 2.5 * load + 20.0 + rng.Normal(0.0, 2.0);
    if (break_m3_correlation_late && i >= samples / 2) {
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

// One arriving row as a collector delivers it: timestamp verbatim.
struct ArrivingRow {
  TimePoint time = 0;
  std::vector<double> values;
};

// The frame's rows, degraded the four ways a collector misses its
// contract: a duplicate timestamp, a straggler from the past, a lost
// block (a gap) and a frozen feed.
std::vector<ArrivingRow> DegradedRows(const MeasurementFrame& frame) {
  std::vector<ArrivingRow> rows(frame.SampleCount());
  for (std::size_t t = 0; t < rows.size(); ++t) {
    rows[t].time = frame.TimeAt(t);
    for (std::size_t a = 0; a < frame.MeasurementCount(); ++a) {
      rows[t].values.push_back(
          frame.Value(MeasurementId(static_cast<std::int32_t>(a)), t));
    }
  }
  for (std::size_t t = 40; t < 80; ++t) rows[t].values[2] = 123.5;
  rows.erase(rows.begin() + 100, rows.begin() + 105);
  const ArrivingRow straggler = rows[30];
  rows.insert(rows.begin() + 61, straggler);
  ArrivingRow duplicate = rows[20];
  duplicate.values = {50.0, 51.0, 52.0, 53.0};
  rows.insert(rows.begin() + 21, duplicate);
  return rows;
}

MonitorConfig SmallConfig() {
  MonitorConfig config;
  config.model.partition.units = 40;
  config.model.partition.max_intervals = 10;
  return config;
}

TEST(Differential, CleanSyntheticAcrossSeeds) {
  for (std::uint64_t seed : {3u, 17u, 91u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DifferentialCase c;
    c.history = CorrelatedFrame(1200, seed);
    c.test = CorrelatedFrame(300, seed + 1);
    c.graph = MeasurementGraph::FullMesh(4);
    c.config = SmallConfig();
    ExpectEngineMatchesReference(c);
  }
}

TEST(Differential, BrokenCorrelationWithCalibratedAlarms) {
  for (std::uint64_t seed : {5u, 29u, 101u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DifferentialCase c;
    c.history = CorrelatedFrame(1600, seed);
    c.holdout = CorrelatedFrame(400, seed + 1);
    // Decoupled second half: alarms, outliers and grid extensions all
    // flow through the assembly phase.
    c.test = CorrelatedFrame(400, seed + 2, true);
    c.graph = MeasurementGraph::FullMesh(4);
    c.config = SmallConfig();
    ExpectEngineMatchesReference(c);
  }
}

// An uncalibrated monitor arms no alarm bound, so the engine's rank-only
// steps score and update each row in one walk; the reference stepper
// reads in full and takes the two calls. Forgetting and a likelihood
// weight put that walk on the general Eq. (2) update, not the plain add.
TEST(Differential, UncalibratedForgettingAndLikelihoodWeight) {
  DifferentialCase c;
  c.history = CorrelatedFrame(1200, 67);
  // Decoupled second half, as in the calibrated case above.
  c.test = CorrelatedFrame(300, 68, true);
  c.graph = MeasurementGraph::FullMesh(4);
  c.config = SmallConfig();
  c.config.model.forgetting = 0.995;
  c.config.model.likelihood_weight = 0.7;
  c.batch_sizes = {0, 7, 1};
  ExpectEngineMatchesReference(c);
}

TEST(Differential, MissingDataGaps) {
  DifferentialCase c;
  c.history = CorrelatedFrame(1400, 43);
  c.holdout = CorrelatedFrame(400, 44);
  // Knock out collector gaps in two measurements: missing samples break
  // transition sequences, which must re-engage identically on every path
  // (including across batch boundaries — batch width 7 guarantees gaps
  // straddle them).
  MeasurementFrame test = CorrelatedFrame(360, 45, true);
  {
    MeasurementFrame holed(test.StartTime(), test.Period());
    for (std::size_t m = 0; m < test.MeasurementCount(); ++m) {
      const auto id = MeasurementId(static_cast<std::int32_t>(m));
      std::vector<double> values(test.Series(id).Values().begin(),
                                 test.Series(id).Values().end());
      for (std::size_t t = 0; t < values.size(); ++t) {
        const bool gap_a = m == 1 && t % 37 < 3;
        const bool gap_b = m == 3 && t >= 100 && t < 120;
        if (gap_a || gap_b) {
          values[t] = std::numeric_limits<double>::quiet_NaN();
        }
      }
      holed.Add(test.Info(id),
                TimeSeries(test.StartTime(), test.Period(),
                           std::move(values)));
    }
    test = std::move(holed);
  }
  c.test = std::move(test);
  c.graph = MeasurementGraph::FullMesh(4);
  c.config = SmallConfig();
  ExpectEngineMatchesReference(c);
}

TEST(Differential, ResetSequencesMidStream) {
  DifferentialCase c;
  c.history = CorrelatedFrame(1200, 57);
  c.holdout = CorrelatedFrame(300, 58);
  c.test = CorrelatedFrame(300, 59, true);
  c.graph = MeasurementGraph::FullMesh(4);
  c.config = SmallConfig();
  c.reset_mid_stream = true;
  // Batch width 1 degenerates Run to sample-major stepping — the assembly
  // phase must be exact even then.
  c.batch_sizes = {0, 7, 1};
  ExpectEngineMatchesReference(c);
}

// Duplicate, out-of-order and late arrivals reach the engine only
// through Step: a frame's timestamps are a regular grid. A scripted
// fault keeps tripping pair 1, and pair 4 is retired after it
// has stepped, so the sequence breaks that follow land on skipped pairs
// too — every pair's chain resets, skipped ones included.
TEST(Differential, DegradedArrivalsThroughStep) {
  const MeasurementFrame history = CorrelatedFrame(1200, 61);
  const std::vector<ArrivingRow> rows =
      DegradedRows(CorrelatedFrame(160, 62, true));
  EngineFaultPlan plan;
  plan.pair_faults.push_back({1, 10, 1000});
  MonitorConfig config = SmallConfig();
  config.quarantine.backoff.base = 2;
  const auto feed = [&](auto& engine, auto step) {
    std::vector<SystemSnapshot> snaps;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (r == 15) engine.RetirePair(4);
      snaps.push_back(step(engine, rows[r]));
    }
    return snaps;
  };

  config.threads = 1;
  const SystemMonitor start(history, MeasurementGraph::FullMesh(4), config);
  difftest::ReferenceStepper reference(start);
  reference.SetFaultPlan(&plan);
  difftest::ReferenceRun want;
  want.snapshots = feed(reference, [](auto& e, const ArrivingRow& row) {
    return e.Step(row.values, row.time);
  });
  want.checkpoint = reference.CheckpointString();

  for (std::size_t threads : {1u, 2u, 8u}) {
    for (bool reuse : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   (reuse ? " reusing one snapshot" : ""));
      config.threads = threads;
      SystemMonitor monitor(history, MeasurementGraph::FullMesh(4), config);
      monitor.SetFaultPlanForTest(&plan);
      SystemSnapshot out;
      const auto snaps = feed(monitor, [&](auto& e, const ArrivingRow& row) {
        if (!reuse) return e.Step(row.values, row.time);
        e.Step(row.values, row.time, out);
        return out;
      });
      difftest::ExpectMatchesReference(want, reference, monitor, snaps);
      EXPECT_EQ(monitor.Health().DuplicateCount(), 1u);
      EXPECT_EQ(monitor.Health().OutOfOrderCount(), 1u);
      EXPECT_EQ(monitor.Health().GapCount(), 1u);
      EXPECT_GT(monitor.Health().SuppressedTotal(), 8u);
      EXPECT_GT(monitor.Quarantine().TripCount(), 1u);
      EXPECT_NE(monitor.Quarantine().StateOf(1),
                PairQuarantine::State::kActive);
      EXPECT_TRUE(monitor.Quarantine().IsRetired(4));
    }
    // The multi-row Step in calls of `width` rows (0: one call on each
    // side of the retirement at row 15), so the duplicate, straggler, gap
    // and frozen feed fall inside calls at some widths and on call
    // boundaries at others.
    for (const std::size_t width : difftest::kStepCallWidths) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " multi-row Step width=" + std::to_string(width));
      config.threads = threads;
      SystemMonitor monitor(history, MeasurementGraph::FullMesh(4), config);
      monitor.SetFaultPlanForTest(&plan);
      std::vector<SystemSnapshot> snaps;
      std::vector<SystemSnapshot> slots(width == 0 ? rows.size() : width);
      std::vector<double> values(4 * slots.size());
      std::vector<std::span<const double>> cols(4);
      std::vector<TimePoint> times;
      for (std::size_t r = 0; r < rows.size();) {
        if (r == 15) monitor.RetirePair(4);
        const std::size_t stop = r < 15 ? 15 : rows.size();
        const std::size_t n = std::min(slots.size(), stop - r);
        times.clear();
        for (std::size_t k = 0; k < n; ++k) {
          for (std::size_t a = 0; a < 4; ++a) {
            values[a * slots.size() + k] = rows[r + k].values[a];
          }
          times.push_back(rows[r + k].time);
        }
        for (std::size_t a = 0; a < 4; ++a) {
          cols[a] = std::span<const double>(values.data() + a * slots.size(),
                                            n);
        }
        monitor.Step(cols, times, std::span<SystemSnapshot>(slots.data(), n));
        snaps.insert(snaps.end(), slots.begin(),
                     slots.begin() + static_cast<std::ptrdiff_t>(n));
        r += n;
      }
      difftest::ExpectMatchesReference(want, reference, monitor, snaps);
      EXPECT_EQ(monitor.Health().DuplicateCount(), 1u);
      EXPECT_EQ(monitor.Health().OutOfOrderCount(), 1u);
      EXPECT_EQ(monitor.Health().GapCount(), 1u);
    }
  }
}

// Scenario from the paper's Section 6 setup: realistic telemetry with a
// fault injection, scored over a machine-neighborhood graph.
TEST(Differential, PaperScenarioNeighborhoodWithFault) {
  ScenarioConfig scenario_config;
  scenario_config.machine_count = 6;
  scenario_config.trace_days = 9;
  scenario_config.localization_fault = false;
  PaperScenario scenario = MakeGroupScenario('A', scenario_config);

  const TimePoint test_start = PaperTraceStart() + 8 * kDay;
  scenario.spec.faults.clear();
  FaultEvent fault;
  fault.machine = MachineId(2);
  fault.start = test_start + 10 * kHour;
  fault.end = test_start + 12 * kHour;
  fault.type = FaultType::kCorrelationBreak;
  fault.magnitude = 2.0;
  scenario.spec.faults.push_back(fault);

  const MeasurementFrame frame = GenerateTrace(scenario.spec);

  DifferentialCase c;
  c.history = frame.SliceByTime(PaperTraceStart(), test_start - kDay);
  c.holdout = frame.SliceByTime(test_start - kDay, test_start);
  c.test = frame.SliceByTime(test_start, test_start + kDay);
  c.graph = MeasurementGraph::Neighborhood(c.history, 1, 3);
  c.config.model.partition.units = 30;
  c.config.model.partition.max_intervals = 8;
  ExpectEngineMatchesReference(c);
}

// Same telemetry family, association-driven graph, fixed alarm bounds
// instead of calibration (the two alarm-arming routes share nothing).
TEST(Differential, PaperScenarioByAssociationFixedThresholds) {
  ScenarioConfig scenario_config;
  scenario_config.machine_count = 6;
  scenario_config.trace_days = 9;
  scenario_config.localization_fault = false;
  scenario_config.seed = 4242;
  const PaperScenario scenario = MakeGroupScenario('B', scenario_config);
  const MeasurementFrame frame = GenerateTrace(scenario.spec);
  const TimePoint test_start = PaperTraceStart() + 8 * kDay;

  DifferentialCase c;
  c.history = frame.SliceByTime(PaperTraceStart(), test_start);
  c.test = frame.SliceByTime(test_start, test_start + kDay);
  c.graph = MeasurementGraph::ByAssociation(c.history, 0.5, 2);
  c.config.model.partition.units = 30;
  c.config.model.partition.max_intervals = 8;
  c.config.model.fitness_alarm_threshold = 0.3;
  ExpectEngineMatchesReference(c);
}

}  // namespace
}  // namespace pmcorr
