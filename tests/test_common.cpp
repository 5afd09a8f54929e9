// Tests for src/common: rng, stats, strings, time, table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/backoff.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/time.h"
#include "common/types.h"

namespace pmcorr {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Normal());
  EXPECT_NEAR(stats.Mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.StdDev(), 1.0, 0.02);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Exponential(4.0));
  EXPECT_NEAR(stats.Mean(), 0.25, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(15);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(17);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.6, 0.02);
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(21);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() == child.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, CombineSeedSeparatesStreams) {
  EXPECT_NE(CombineSeed(1, 0), CombineSeed(1, 1));
  EXPECT_NE(CombineSeed(1, 0), CombineSeed(2, 0));
  EXPECT_EQ(CombineSeed(5, 9), CombineSeed(5, 9));
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats stats;
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) stats.Add(x);
  EXPECT_EQ(stats.Count(), 8u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.Variance(), 4.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 9.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(3);
  RunningStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(2.0, 3.0);
    all.Add(x);
    (i < 400 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.Count(), all.Count());
  EXPECT_NEAR(left.Mean(), all.Mean(), 1e-10);
  EXPECT_NEAR(left.Variance(), all.Variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.Min(), all.Min());
  EXPECT_DOUBLE_EQ(left.Max(), all.Max());
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(*Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(*Quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(*Quantile(xs, 0.5), 2.5);
  EXPECT_FALSE(Quantile({}, 0.5).has_value());
}

TEST(Stats, PearsonPerfectAndConstant) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(*PearsonCorrelation(xs, ys), 1.0, 1e-12);
  const std::vector<double> anti = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(*PearsonCorrelation(xs, anti), -1.0, 1e-12);
  const std::vector<double> flat = {5.0, 5.0, 5.0, 5.0};
  EXPECT_FALSE(PearsonCorrelation(xs, flat).has_value());
}

TEST(Stats, SpearmanCapturesMonotoneNonlinear) {
  std::vector<double> xs, ys;
  for (int i = 1; i <= 50; ++i) {
    xs.push_back(i);
    ys.push_back(std::exp(0.2 * i));  // monotone but very non-linear
  }
  EXPECT_NEAR(*SpearmanCorrelation(xs, ys), 1.0, 1e-12);
}

TEST(Stats, FitLinearRecoversLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 100; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i - 7.0);
  }
  const auto fit = FitLinear(xs, ys);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->slope, 3.0, 1e-10);
  EXPECT_NEAR(fit->intercept, -7.0, 1e-8);
  EXPECT_NEAR(fit->r_squared, 1.0, 1e-12);
}

TEST(Stats, HistogramBinsAndClamps) {
  Histogram hist(0.0, 10.0, 5);
  hist.Add(-1.0);   // clamps to bin 0
  hist.Add(0.5);
  hist.Add(9.9);
  hist.Add(25.0);   // clamps to last bin
  EXPECT_EQ(hist.CountAt(0), 2u);
  EXPECT_EQ(hist.CountAt(4), 2u);
  EXPECT_EQ(hist.TotalCount(), 4u);
  EXPECT_DOUBLE_EQ(hist.BinWidth(), 2.0);
  EXPECT_EQ(hist.BinOf(4.0), 2u);
}

TEST(Stats, AddAllMatchesPerElementAdd) {
  // The blocked bulk path (quotient block + branchless scatter into four
  // banks) must produce exactly the counts of per-element Add, including
  // at the clamp edges and across block boundaries. 5000 samples spans
  // three 2048-sample blocks, with edge values salted in.
  Rng rng(99);
  std::vector<double> xs;
  for (std::size_t i = 0; i < 5000; ++i) xs.push_back(rng.Uniform(-2.0, 12.0));
  xs[0] = 0.0;     // exactly lo
  xs[1] = 10.0;    // exactly hi
  xs[2] = -50.0;   // below lo
  xs[3] = 50.0;    // above hi
  xs[4] = 10.0 - 1e-12;
  Histogram bulk(0.0, 10.0, 17);
  bulk.AddAll(xs);
  Histogram serial(0.0, 10.0, 17);
  for (double x : xs) serial.Add(x);
  ASSERT_EQ(bulk.BinCount(), serial.BinCount());
  for (std::size_t b = 0; b < bulk.BinCount(); ++b) {
    EXPECT_EQ(bulk.CountAt(b), serial.CountAt(b)) << "bin " << b;
  }
  EXPECT_EQ(bulk.TotalCount(), serial.TotalCount());
}

TEST(Stats, AddAllShortAndRepeatedCalls) {
  // Sub-block inputs and repeated AddAll calls accumulate exactly like
  // per-element Add (the scratch banks must reset between calls).
  Histogram bulk(0.0, 1.0, 4);
  Histogram serial(0.0, 1.0, 4);
  const std::vector<double> a{0.1, 0.6, 0.6, 0.9};
  const std::vector<double> b{0.3};
  bulk.AddAll(a);
  bulk.AddAll(b);
  for (double x : a) serial.Add(x);
  for (double x : b) serial.Add(x);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(bulk.CountAt(i), serial.CountAt(i));
  }
  EXPECT_EQ(bulk.TotalCount(), 5u);
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, TrimAndStartsWith) {
  EXPECT_EQ(Trim("  x \t\n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("he", "hello"));
}

TEST(Strings, FormatPercentMatchesPaperStyle) {
  EXPECT_EQ(FormatPercent(0.2198), "21.98%");
  EXPECT_EQ(FormatPercent(0.1765), "17.65%");
}

TEST(Strings, ParseRoundTrips) {
  double d = 0.0;
  EXPECT_TRUE(ParseDouble(" 3.5 ", &d));
  EXPECT_DOUBLE_EQ(d, 3.5);
  EXPECT_FALSE(ParseDouble("3.5x", &d));
  EXPECT_FALSE(ParseDouble("", &d));
  long long i = 0;
  EXPECT_TRUE(ParseInt64("-12", &i));
  EXPECT_EQ(i, -12);
  EXPECT_FALSE(ParseInt64("12.5", &i));
}

TEST(Time, CivilDateRoundTrip) {
  const CivilDate date{2008, 5, 29};
  const TimePoint tp = ToTimePoint(date);
  EXPECT_EQ(ToCivilDate(tp), date);
  EXPECT_EQ(ToCivilDate(tp + kDay - 1), date);  // same day until midnight
  const CivilDate next = ToCivilDate(tp + kDay);
  EXPECT_EQ(next, (CivilDate{2008, 5, 30}));
}

TEST(Time, LeapYearRules) {
  EXPECT_TRUE(IsLeapYear(2008));
  EXPECT_TRUE(IsLeapYear(2000));
  EXPECT_FALSE(IsLeapYear(1900));
  EXPECT_FALSE(IsLeapYear(2009));
  EXPECT_EQ(DaysInMonth(2008, 2), 29);
  EXPECT_EQ(DaysInMonth(2009, 2), 28);
}

TEST(Time, PaperDatesAndWeekdays) {
  // May 29, 2008 was a Thursday; June 13, 2008 a Friday;
  // June 14/15, 2008 a weekend.
  EXPECT_EQ(DayOfWeek(ToTimePoint({2008, 5, 29})), 4);
  EXPECT_EQ(DayOfWeek(ToTimePoint({2008, 6, 13})), 5);
  EXPECT_TRUE(IsWeekend(ToTimePoint({2008, 6, 14})));
  EXPECT_TRUE(IsWeekend(ToTimePoint({2008, 6, 15})));
  EXPECT_FALSE(IsWeekend(ToTimePoint({2008, 6, 16})));
}

TEST(Time, FormatHelpers) {
  const TimePoint tp = ToTimePoint({2008, 6, 13}) + 14 * kHour + 30 * kMinute;
  EXPECT_EQ(FormatTimePoint(tp), "2008-06-13 14:30");
  EXPECT_EQ(FormatPaperDate({2008, 6, 13}), "6.13");
  EXPECT_EQ(SecondsIntoDay(tp), 14 * kHour + 30 * kMinute);
}

TEST(Table, AlignsColumns) {
  TextTable table;
  table.SetHeader({"name", "value"});
  table.Row().Cell("alpha").Num(1.5, 2).Done();
  table.Row().Cell("b").Int(42).Done();
  const std::string text = table.ToString();
  EXPECT_NE(text.find("alpha  1.50"), std::string::npos);
  EXPECT_NE(text.find("b      42"), std::string::npos);
  EXPECT_EQ(table.RowCount(), 2u);
}

TEST(Types, PairIdNormalizesOrder) {
  const PairId p(MeasurementId(5), MeasurementId(2));
  EXPECT_EQ(p.a.value, 2);
  EXPECT_EQ(p.b.value, 5);
  EXPECT_TRUE(p.valid());
  EXPECT_FALSE(PairId(MeasurementId(3), MeasurementId(3)).valid());
  EXPECT_EQ(p, PairId(MeasurementId(2), MeasurementId(5)));
}

TEST(Backoff, DelayGrowsGeometricallyThenSaturates) {
  const BackoffPolicy policy;  // base 16, x2, cap 1024, budget 8
  EXPECT_EQ(policy.DelayFor(0), 16u);
  EXPECT_EQ(policy.DelayFor(1), 32u);
  EXPECT_EQ(policy.DelayFor(5), 512u);
  // 16 * 2^6 == 1024 lands exactly on the cap, and every later retry
  // stays pinned there — including counts far past any real schedule.
  EXPECT_EQ(policy.DelayFor(6), 1024u);
  EXPECT_EQ(policy.DelayFor(7), 1024u);
  EXPECT_EQ(policy.DelayFor(63), 1024u);
  EXPECT_EQ(policy.DelayFor(100000), 1024u);
}

TEST(Backoff, BaseAtOrAboveCapClampsFromRetryZero) {
  BackoffPolicy policy;
  policy.base = policy.cap;
  EXPECT_EQ(policy.DelayFor(0), policy.cap);
  policy.base = policy.cap * 4;
  EXPECT_EQ(policy.DelayFor(0), policy.cap);
}

TEST(Backoff, ZeroBaseStillWaitsOneUnit) {
  // A zero base must not produce a zero delay: "retry at sample + 0"
  // would re-trip on the same sample that quarantined the pair.
  BackoffPolicy policy;
  policy.base = 0;
  EXPECT_EQ(policy.DelayFor(0), 1u);
  EXPECT_EQ(policy.DelayFor(5), 1u);
}

TEST(Backoff, SubUnitMultiplierIsTreatedAsFlat) {
  BackoffPolicy policy;
  policy.multiplier = 0.25;
  EXPECT_EQ(policy.DelayFor(0), policy.base);
  EXPECT_EQ(policy.DelayFor(3), policy.base);
}

TEST(Backoff, ZeroBudgetIsExhaustedBeforeAnyRetry) {
  BackoffPolicy policy;
  policy.budget = 0;
  EXPECT_TRUE(policy.Exhausted(0));
  EXPECT_TRUE(policy.Exhausted(1));
}

TEST(Backoff, BudgetBoundaryIsExact) {
  const BackoffPolicy policy;  // budget 8
  EXPECT_FALSE(policy.Exhausted(7));
  EXPECT_TRUE(policy.Exhausted(8));
  EXPECT_TRUE(policy.Exhausted(9));
}

TEST(Types, MetricNamesMatchPaper) {
  EXPECT_EQ(MetricKindName(MetricKind::kCurrentUtilizationPort),
            "CurrentUtilization_PORT");
  EXPECT_EQ(MetricKindName(MetricKind::kIfInOctetsRate), "IfInOctetsRate_IF");
}

}  // namespace
}  // namespace pmcorr
