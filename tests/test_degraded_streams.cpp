// End-to-end degraded-collector scenarios: trace CSVs with duplicate,
// out-of-order, gapped and frozen rows read through ReadSampleStreamCsv
// (timestamps verbatim) and fed to a SystemMonitor sample by sample.
// Pins the health flags the snapshots expose and the guard's core
// promise: a degraded stream can only suppress evidence, never mint
// alarms a clean stream would not have raised.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/monitor.h"
#include "io/csv.h"

namespace pmcorr {
namespace {

MeasurementFrame SystemFrame(std::size_t samples, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(4, std::vector<double>(samples));
  for (std::size_t i = 0; i < samples; ++i) {
    const double load =
        60.0 + 35.0 * std::sin(static_cast<double>(i) * 0.03) +
        rng.Normal(0.0, 1.5);
    cols[0][i] = load + rng.Normal(0.0, 0.8);
    cols[1][i] = 100.0 * load / (load + 45.0) + rng.Normal(0.0, 0.4);
    cols[2][i] = 2.5 * load + 20.0 + rng.Normal(0.0, 2.0);
    cols[3][i] = 0.8 * load + 35.0 + rng.Normal(0.0, 1.5);
  }
  MeasurementFrame frame(0, kPaperSamplePeriod);
  for (int c = 0; c < 4; ++c) {
    MeasurementInfo info;
    info.machine = MachineId(c / 2);
    info.kind = MetricKind::kCpuUtilization;
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

struct RawRow {
  TimePoint time = 0;
  std::vector<double> values;
};

// Renders rows as the trace CSV format, timestamps taken from the rows
// themselves (which is exactly what a degraded collector produces).
std::string RenderTrace(const std::vector<RawRow>& rows) {
  std::ostringstream out;
  out << "# pmcorr-trace v1 start=0 period=" << kPaperSamplePeriod << "\n";
  for (int c = 0; c < 4; ++c) {
    out << "# measurement," << c / 2 << ","
        << MetricKindName(MetricKind::kCpuUtilization) << ",m" << c << "\n";
  }
  out << "time,m0,m1,m2,m3\n";
  char buf[40];
  for (const RawRow& row : rows) {
    out << row.time;
    for (const double v : row.values) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out << "," << buf;
    }
    out << "\n";
  }
  return out.str();
}

std::vector<RawRow> RowsOf(const MeasurementFrame& frame) {
  std::vector<RawRow> rows(frame.SampleCount());
  for (std::size_t t = 0; t < rows.size(); ++t) {
    rows[t].time = frame.TimeAt(t);
    rows[t].values.resize(4);
    for (std::size_t a = 0; a < 4; ++a) {
      rows[t].values[a] =
          frame.Value(MeasurementId(static_cast<std::int32_t>(a)), t);
    }
  }
  return rows;
}

std::vector<SystemSnapshot> FeedStream(SystemMonitor& monitor,
                                       const std::string& csv) {
  std::istringstream in(csv);
  const SampleStream stream = ReadSampleStreamCsv(in);
  std::vector<SystemSnapshot> snaps;
  snaps.reserve(stream.rows.size());
  for (const SampleRow& row : stream.rows) {
    snaps.push_back(monitor.Step(row.values, row.time));
  }
  return snaps;
}

TEST(SampleStreamCsv, PreservesTimestampsVerbatim) {
  std::vector<RawRow> rows(4);
  rows[0] = {0, {1.0, 2.0, 3.0, 4.0}};
  rows[1] = {360, {1.1, 2.1, 3.1, 4.1}};
  rows[2] = {360, {1.2, 2.2, 3.2, 4.2}};   // duplicate timestamp
  rows[3] = {5000, {1.3, 2.3, 3.3, 4.3}};  // off-grid gap
  std::istringstream in(RenderTrace(rows));
  const SampleStream stream = ReadSampleStreamCsv(in);
  EXPECT_EQ(stream.start, 0);
  EXPECT_EQ(stream.period, kPaperSamplePeriod);
  ASSERT_EQ(stream.infos.size(), 4u);
  EXPECT_EQ(stream.infos[2].name, "m2");
  ASSERT_EQ(stream.rows.size(), 4u);
  EXPECT_EQ(stream.rows[2].time, 360);   // NOT projected onto the grid
  EXPECT_EQ(stream.rows[3].time, 5000);  // NOT repaired
  EXPECT_EQ(stream.rows[3].values[1], 2.3);
}

TEST(SampleStreamCsv, RejectsMalformedRows) {
  const std::string header = RenderTrace({});
  {
    std::istringstream in(header + "notatime,1,2,3,4\n");
    EXPECT_THROW(ReadSampleStreamCsv(in), std::runtime_error);
  }
  {
    std::istringstream in(header + "0,1,2,3\n");  // row width mismatch
    EXPECT_THROW(ReadSampleStreamCsv(in), std::runtime_error);
  }
  {
    std::istringstream in(header + "0,1,2,3,inf\n");
    EXPECT_THROW(ReadSampleStreamCsv(in), std::runtime_error);
  }
  {
    std::istringstream in(header + "0,1,2,nan,4\n");  // NaN is legal
    const SampleStream stream = ReadSampleStreamCsv(in);
    ASSERT_EQ(stream.rows.size(), 1u);
    EXPECT_TRUE(std::isnan(stream.rows[0].values[2]));
  }
}

TEST(DegradedStreams, CleanStreamReportsNothing) {
  const MeasurementFrame history = SystemFrame(1200, 3);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  const auto snaps = FeedStream(monitor, RenderTrace(RowsOf(
                                             SystemFrame(40, 5))));
  for (const SystemSnapshot& snap : snaps) {
    EXPECT_EQ(snap.stream_event, StreamEvent::kNone);
    EXPECT_EQ(snap.suppressed_values, 0u);
    EXPECT_EQ(snap.quarantined_pairs, 0u);
    ASSERT_EQ(snap.measurement_health.size(), 4u);
    for (const MeasurementHealth h : snap.measurement_health) {
      EXPECT_EQ(h, MeasurementHealth::kHealthy);
    }
  }
  EXPECT_TRUE(monitor.Health().AllHealthy());
  EXPECT_EQ(monitor.Health().SuppressedTotal(), 0u);
}

TEST(DegradedStreams, EventsAndHealthFlagsAreExposedPerSnapshot) {
  const MeasurementFrame history = SystemFrame(1200, 7);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());

  // 60 clean rows, then degrade: a duplicate of row 10 spliced in after
  // it, rows 30-33 lost (a gap), and measurement 2 frozen from row 40 on.
  std::vector<RawRow> rows = RowsOf(SystemFrame(60, 9));
  const double frozen_value = 123.5;
  for (std::size_t t = 40; t < rows.size(); ++t) {
    rows[t].values[2] = frozen_value;
  }
  RawRow duplicate = rows[10];
  duplicate.values = {50.0, 51.0, 52.0, 53.0};  // lies about fresh data
  rows.insert(rows.begin() + 11, duplicate);
  rows.erase(rows.begin() + 31, rows.begin() + 35);

  const auto snaps = FeedStream(monitor, RenderTrace(rows));

  // Row 11 is the duplicate: whole row suppressed, sequence broken.
  EXPECT_EQ(snaps[11].stream_event, StreamEvent::kDuplicate);
  EXPECT_EQ(snaps[11].suppressed_values, 4u);
  // The sample right after the duplicate is a fresh sequence: every pair
  // disengaged, back to normal one sample later.
  for (const auto& score : snaps[12].pair_scores) {
    EXPECT_FALSE(score.has_value());
  }
  EXPECT_TRUE(snaps[13].system_score.has_value());

  // Row 31 (was row 34 of the original grid) lands after the lost block:
  // a gap, values untouched.
  EXPECT_EQ(snaps[31].stream_event, StreamEvent::kGap);
  EXPECT_EQ(snaps[31].suppressed_values, 0u);
  for (const auto& score : snaps[31].pair_scores) {
    EXPECT_FALSE(score.has_value());
  }

  // The frozen feed: 12 bitwise-identical arrivals are tolerated, then
  // suppressed; four consecutive suppressions mark the feed stale. The
  // frozen rows start at grid row 40 = stream row 37 (one duplicate
  // inserted, four rows lost).
  const std::size_t frozen_start = 37;
  const std::size_t suppress_from = frozen_start + 11;  // 12th identical
  for (std::size_t t = frozen_start; t < suppress_from; ++t) {
    EXPECT_EQ(snaps[t].suppressed_values, 0u) << "stream row " << t;
  }
  for (std::size_t t = suppress_from; t < snaps.size(); ++t) {
    EXPECT_EQ(snaps[t].suppressed_values, 1u) << "stream row " << t;
  }
  const std::size_t stale_from = suppress_from + 3;  // 4th missing sample
  for (std::size_t t = frozen_start; t < stale_from; ++t) {
    EXPECT_EQ(snaps[t].measurement_health[2], MeasurementHealth::kHealthy);
  }
  for (std::size_t t = stale_from; t < snaps.size(); ++t) {
    EXPECT_EQ(snaps[t].measurement_health[2], MeasurementHealth::kStale)
        << "stream row " << t;
  }
  // The other feeds never degrade.
  for (const SystemSnapshot& snap : snaps) {
    EXPECT_EQ(snap.measurement_health[0], MeasurementHealth::kHealthy);
    EXPECT_EQ(snap.measurement_health[1], MeasurementHealth::kHealthy);
    EXPECT_EQ(snap.measurement_health[3], MeasurementHealth::kHealthy);
  }
  EXPECT_EQ(monitor.Health().DuplicateCount(), 1u);
  EXPECT_EQ(monitor.Health().GapCount(), 1u);
}

TEST(DegradedStreams, OutOfOrderRowIsSuppressedNotScored) {
  const MeasurementFrame history = SystemFrame(1000, 11);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  std::vector<RawRow> rows = RowsOf(SystemFrame(20, 13));
  // A straggler from the past arrives between rows 8 and 9, carrying
  // values that would otherwise score (and possibly alarm).
  RawRow straggler = rows[3];
  rows.insert(rows.begin() + 9, straggler);
  const auto snaps = FeedStream(monitor, RenderTrace(rows));
  EXPECT_EQ(snaps[9].stream_event, StreamEvent::kOutOfOrder);
  EXPECT_EQ(snaps[9].suppressed_values, 4u);
  for (const auto& score : snaps[9].pair_scores) {
    EXPECT_FALSE(score.has_value());
  }
  // The stream clock held: the next real row is on cadence again.
  EXPECT_EQ(snaps[10].stream_event, StreamEvent::kNone);
  EXPECT_TRUE(snaps[11].system_score.has_value());
}

TEST(DegradedStreams, GuardClockCarriesAcrossStepButRestartsPerRun) {
  // Feed 2 is frozen on rows 4..19: 16 identical arrivals straddling the
  // split at row 12, 8 on each side. Step keeps the guard's stream clock
  // and frozen-value history across calls, so the run reaches
  // frozen_after (12) and arrivals 12..16 are suppressed; each Run call
  // starts a new segment, so neither half ever reaches it.
  const MeasurementFrame history = SystemFrame(1200, 31);
  std::vector<RawRow> rows = RowsOf(SystemFrame(24, 33));
  for (std::size_t t = 4; t < 20; ++t) rows[t].values[2] = 123.5;
  std::istringstream csv(RenderTrace(rows));
  const MeasurementFrame test = ReadFrameCsv(csv);
  ASSERT_EQ(test.SampleCount(), rows.size());
  const TimePoint split = test.TimeAt(12);

  SystemMonitor stepped(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  std::size_t step_suppressed = 0;
  for (const RawRow& row : rows) {
    step_suppressed += stepped.Step(row.values, row.time).suppressed_values;
  }
  EXPECT_EQ(step_suppressed, 5u);

  // The multi-row Step carries the clock too: two calls split where the
  // Run calls below are suppress what the one-row loop suppresses.
  SystemMonitor batched(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  std::size_t batched_suppressed = 0;
  std::vector<SystemSnapshot> slots(rows.size());
  for (const auto& [begin, end] :
       {std::pair<std::size_t, std::size_t>{0, 12}, {12, rows.size()}}) {
    std::vector<std::span<const double>> cols;
    for (std::size_t a = 0; a < test.MeasurementCount(); ++a) {
      cols.push_back(test.Series(MeasurementId(static_cast<std::int32_t>(a)))
                         .Values()
                         .subspan(begin, end - begin));
    }
    std::vector<TimePoint> times;
    for (std::size_t t = begin; t < end; ++t) times.push_back(test.TimeAt(t));
    const std::span<SystemSnapshot> out(slots.data() + begin, end - begin);
    batched.Step(cols, times, out);
    for (const SystemSnapshot& snap : out) {
      batched_suppressed += snap.suppressed_values;
    }
  }
  EXPECT_EQ(batched_suppressed, step_suppressed);
  EXPECT_EQ(batched.StepCount(), stepped.StepCount());

  SystemMonitor framed(history, MeasurementGraph::FullMesh(4),
                       SmallConfig());
  std::size_t run_suppressed = 0;
  for (const MeasurementFrame& half :
       {test.SliceByTime(test.StartTime(), split),
        test.SliceByTime(split, test.TimeAt(test.SampleCount()))}) {
    for (const SystemSnapshot& snap : framed.Run(half)) {
      run_suppressed += snap.suppressed_values;
    }
  }
  EXPECT_EQ(run_suppressed, 0u);
  EXPECT_EQ(framed.StepCount(), stepped.StepCount());
}

TEST(DegradedStreams, DegradationNeverIncreasesAlarms) {
  // Same underlying data; the degraded copy only *inserts* junk rows
  // (duplicates, stragglers) and freezes one feed's tail. Suppression
  // can remove alarm opportunities but must never create alarms the
  // clean stream did not raise.
  const MeasurementFrame history = SystemFrame(2000, 19);
  const MeasurementFrame holdout = SystemFrame(600, 21);
  const MeasurementFrame test = SystemFrame(200, 23);

  SystemMonitor clean_monitor(history, MeasurementGraph::FullMesh(4),
                              SmallConfig());
  clean_monitor.CalibrateThresholds(holdout, 0.05);
  const auto clean_snaps = FeedStream(clean_monitor,
                                      RenderTrace(RowsOf(test)));
  std::size_t clean_alarms = 0;
  for (const auto& snap : clean_snaps) {
    clean_alarms += snap.alarmed_pairs.size();
  }

  std::vector<RawRow> rows = RowsOf(test);
  for (std::size_t t = 150; t < rows.size(); ++t) {
    rows[t].values[1] = 77.75;  // frozen tail
  }
  RawRow dup = rows[50];
  dup.values = {500.0, 500.0, 500.0, 500.0};
  rows.insert(rows.begin() + 51, dup);
  RawRow straggler = rows[20];
  straggler.values = {0.0, 0.0, 0.0, 0.0};
  rows.insert(rows.begin() + 100, straggler);

  SystemMonitor degraded_monitor(history, MeasurementGraph::FullMesh(4),
                                 SmallConfig());
  degraded_monitor.CalibrateThresholds(holdout, 0.05);
  const auto degraded_snaps = FeedStream(degraded_monitor,
                                         RenderTrace(rows));
  std::size_t degraded_alarms = 0;
  for (const auto& snap : degraded_snaps) {
    degraded_alarms += snap.alarmed_pairs.size();
  }
  EXPECT_LE(degraded_alarms, clean_alarms);
  EXPECT_GT(degraded_monitor.Health().SuppressedTotal(), 8u);
}

}  // namespace
}  // namespace pmcorr
