// Tests for src/timeseries: series, frame, summary.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "timeseries/frame.h"
#include "timeseries/series.h"
#include "timeseries/summary.h"

namespace pmcorr {
namespace {

TimeSeries MakeSeries(std::vector<double> values, TimePoint start = 1000,
                      Duration period = 60) {
  return TimeSeries(start, period, std::move(values));
}

TEST(TimeSeries, BasicAccessors) {
  const TimeSeries s = MakeSeries({1.0, 2.0, 3.0});
  EXPECT_EQ(s.Size(), 3u);
  EXPECT_EQ(s.Start(), 1000);
  EXPECT_EQ(s.TimeAt(2), 1120);
  EXPECT_EQ(s.End(), 1180);
  EXPECT_DOUBLE_EQ(s.At(1), 2.0);
  EXPECT_DOUBLE_EQ(s[2], 3.0);
}

TEST(TimeSeries, IndexAtOrAfter) {
  const TimeSeries s = MakeSeries({1, 2, 3, 4});
  EXPECT_EQ(s.IndexAtOrAfter(0), 0u);
  EXPECT_EQ(s.IndexAtOrAfter(1000), 0u);
  EXPECT_EQ(s.IndexAtOrAfter(1001), 1u);
  EXPECT_EQ(s.IndexAtOrAfter(1060), 1u);
  EXPECT_EQ(s.IndexAtOrAfter(99999), 4u);
}

TEST(TimeSeries, SliceByTimeRebasesStart) {
  const TimeSeries s = MakeSeries({1, 2, 3, 4, 5});
  const TimeSeries cut = s.SliceByTime(1060, 1180);
  EXPECT_EQ(cut.Size(), 2u);
  EXPECT_EQ(cut.Start(), 1060);
  EXPECT_DOUBLE_EQ(cut.At(0), 2.0);
  EXPECT_DOUBLE_EQ(cut.At(1), 3.0);
}

TEST(TimeSeries, SliceByIndexClamps) {
  const TimeSeries s = MakeSeries({1, 2, 3});
  EXPECT_EQ(s.SliceByIndex(2, 100).Size(), 1u);
  EXPECT_EQ(s.SliceByIndex(5, 9).Size(), 0u);
  EXPECT_EQ(s.SliceByIndex(2, 1).Size(), 0u);
}

TEST(TimeSeries, AppendKeepsGrid) {
  TimeSeries s = MakeSeries({1.0});
  s.Append(2.0);
  EXPECT_EQ(s.Size(), 2u);
  EXPECT_EQ(s.TimeAt(1), 1060);
}

MeasurementFrame MakeFrame() {
  MeasurementFrame frame(0, 60);
  MeasurementInfo a;
  a.machine = MachineId(0);
  a.kind = MetricKind::kCpuUtilization;
  a.name = "cpu@m0";
  frame.Add(a, TimeSeries(0, 60, {1, 2, 3}));
  MeasurementInfo b;
  b.machine = MachineId(1);
  b.kind = MetricKind::kIfInOctetsRate;
  b.name = "net@m1";
  frame.Add(b, TimeSeries(0, 60, {4, 5, 6}));
  MeasurementInfo c;
  c.machine = MachineId(0);
  c.kind = MetricKind::kMemoryUtilization;
  c.name = "mem@m0";
  frame.Add(c, TimeSeries(0, 60, {7, 8, 9}));
  return frame;
}

TEST(MeasurementFrame, AddAssignsDenseIds) {
  const MeasurementFrame frame = MakeFrame();
  EXPECT_EQ(frame.MeasurementCount(), 3u);
  EXPECT_EQ(frame.SampleCount(), 3u);
  EXPECT_EQ(frame.Info(MeasurementId(1)).name, "net@m1");
  EXPECT_DOUBLE_EQ(frame.Value(MeasurementId(2), 1), 8.0);
}

TEST(MeasurementFrame, RejectsMismatchedSeries) {
  MeasurementFrame frame = MakeFrame();
  MeasurementInfo bad;
  bad.name = "bad";
  EXPECT_THROW(frame.Add(bad, TimeSeries(0, 30, {1, 2, 3})),
               std::invalid_argument);
  EXPECT_THROW(frame.Add(bad, TimeSeries(0, 60, {1, 2})),
               std::invalid_argument);
  EXPECT_THROW(frame.Add(bad, TimeSeries(60, 60, {1, 2, 3})),
               std::invalid_argument);
}

TEST(MeasurementFrame, MachineQueries) {
  const MeasurementFrame frame = MakeFrame();
  const auto machines = frame.Machines();
  ASSERT_EQ(machines.size(), 2u);
  EXPECT_EQ(machines[0], MachineId(0));
  const auto on0 = frame.MeasurementsOn(MachineId(0));
  ASSERT_EQ(on0.size(), 2u);
  EXPECT_EQ(on0[0], MeasurementId(0));
  EXPECT_EQ(on0[1], MeasurementId(2));
}

TEST(MeasurementFrame, FindByName) {
  const MeasurementFrame frame = MakeFrame();
  ASSERT_TRUE(frame.FindByName("mem@m0").has_value());
  EXPECT_EQ(frame.FindByName("mem@m0")->value, 2);
  EXPECT_FALSE(frame.FindByName("nope").has_value());
}

TEST(MeasurementFrame, SliceByTimeKeepsInfos) {
  const MeasurementFrame frame = MakeFrame();
  const MeasurementFrame cut = frame.SliceByTime(60, 180);
  EXPECT_EQ(cut.MeasurementCount(), 3u);
  EXPECT_EQ(cut.SampleCount(), 2u);
  EXPECT_EQ(cut.StartTime(), 60);
  EXPECT_DOUBLE_EQ(cut.Value(MeasurementId(0), 0), 2.0);
}

TEST(MeasurementFrame, SelectMeasurementsReindexes) {
  const MeasurementFrame frame = MakeFrame();
  const MeasurementFrame sel =
      frame.SelectMeasurements({MeasurementId(2), MeasurementId(0)});
  EXPECT_EQ(sel.MeasurementCount(), 2u);
  EXPECT_EQ(sel.Info(MeasurementId(0)).name, "mem@m0");
  EXPECT_EQ(sel.Info(MeasurementId(0)).id.value, 0);
  EXPECT_DOUBLE_EQ(sel.Value(MeasurementId(1), 0), 1.0);
}

MeasurementFrame CorrelatedFrame(std::size_t n = 400) {
  Rng rng(99);
  std::vector<double> load(n), linear(n), nonlinear(n), flat(n);
  for (std::size_t i = 0; i < n; ++i) {
    load[i] = 50.0 + 30.0 * std::sin(i * 0.05) + rng.Normal(0.0, 1.0);
    linear[i] = 3.0 * load[i] + 5.0 + rng.Normal(0.0, 0.5);
    // Non-monotone (parabolic) response: no linear fit can explain it.
    nonlinear[i] =
        (load[i] - 50.0) * (load[i] - 50.0) / 9.0 + rng.Normal(0.0, 0.2);
    flat[i] = 10.0 + rng.Normal(0.0, 0.01);
  }
  MeasurementFrame frame(0, kPaperSamplePeriod);
  auto add = [&](const char* name, std::vector<double> v, int machine) {
    MeasurementInfo info;
    info.machine = MachineId(machine);
    info.name = name;
    frame.Add(info, TimeSeries(0, kPaperSamplePeriod, std::move(v)));
  };
  add("load", std::move(load), 0);
  add("linear", std::move(linear), 0);
  add("nonlinear", std::move(nonlinear), 1);
  add("flat", std::move(flat), 1);
  return frame;
}

TEST(Summary, SummarizeComputesCv) {
  const auto frame = CorrelatedFrame();
  const auto summaries = Summarize(frame);
  ASSERT_EQ(summaries.size(), 4u);
  EXPECT_GT(summaries[0].cv, 0.1);      // load varies a lot
  EXPECT_LT(summaries[3].cv, 0.01);     // flat is nearly constant
  EXPECT_GT(summaries[0].max, summaries[0].min);
}

TEST(Summary, FindLinearRelationsFlagsOnlyLinearPair) {
  const auto frame = CorrelatedFrame();
  const auto relations = FindLinearRelations(frame, 0.95);
  ASSERT_GE(relations.size(), 1u);
  bool found = false;
  for (const auto& rel : relations) {
    if (rel.pair == PairId(MeasurementId(0), MeasurementId(1))) found = true;
    EXPECT_GE(rel.r_squared, 0.95);
  }
  EXPECT_TRUE(found);
}

TEST(Summary, SelectMeasurementsAppliesPaperCriteria) {
  const auto frame = CorrelatedFrame();
  SelectionCriteria criteria;
  criteria.min_cv = 0.05;
  criteria.linear_r2_threshold = 0.95;
  criteria.max_measurements = 10;
  const auto kept = SelectMeasurements(frame, criteria);
  // load & linear are excluded (linear pair), flat fails the variance
  // bar; nonlinear survives unless it is linear with load at this noise.
  for (MeasurementId id : kept) {
    EXPECT_NE(id.value, 3);  // flat never passes
  }
  EXPECT_FALSE(kept.empty());
}

TEST(Summary, SelectRejectsSlowSampling) {
  MeasurementFrame slow(0, kPaperSamplePeriod * 10);
  MeasurementInfo info;
  info.name = "x";
  std::vector<double> v(50);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = std::sin(i * 0.7) * 10 + 20;
  slow.Add(info, TimeSeries(0, kPaperSamplePeriod * 10, std::move(v)));
  EXPECT_TRUE(SelectMeasurements(slow, {}).empty());
}

}  // namespace
}  // namespace pmcorr
