// Tests for alarm-window extraction.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "engine/alarm.h"

namespace pmcorr {
namespace {

TEST(ExtractLowScoreWindows, FindsMaximalRuns) {
  const std::vector<double> scores = {0.9, 0.4, 0.3, 0.95, 0.2, 0.9};
  const auto windows = ExtractLowScoreWindows(scores, 1000, 60, 0.5);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].first_sample, 1u);
  EXPECT_EQ(windows[0].last_sample, 2u);
  EXPECT_EQ(windows[0].start, 1060);
  EXPECT_EQ(windows[0].end, 1180);
  EXPECT_DOUBLE_EQ(windows[0].min_score, 0.3);
  EXPECT_EQ(windows[1].first_sample, 4u);
  EXPECT_EQ(windows[1].Length(), 1u);
}

TEST(ExtractLowScoreWindows, ThresholdIsStrict) {
  const std::vector<double> scores = {0.5, 0.5};
  EXPECT_TRUE(ExtractLowScoreWindows(scores, 0, 60, 0.5).empty());
}

TEST(ExtractLowScoreWindows, MinLengthDebounces) {
  const std::vector<double> scores = {0.1, 0.9, 0.1, 0.1, 0.9};
  const auto windows = ExtractLowScoreWindows(scores, 0, 60, 0.5, 2);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].first_sample, 2u);
}

TEST(ExtractLowScoreWindows, DisengagedSamplesBreakWindows) {
  const std::vector<std::optional<double>> scores = {0.1, std::nullopt, 0.1};
  const auto windows = ExtractLowScoreWindows(
      std::span<const std::optional<double>>(scores), 0, 60, 0.5);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].Length(), 1u);
  EXPECT_EQ(windows[1].Length(), 1u);
}

TEST(ExtractLowScoreWindows, EmptyAndAllHigh) {
  EXPECT_TRUE(
      ExtractLowScoreWindows(std::span<const double>{}, 0, 60, 0.5).empty());
  const std::vector<double> high = {0.9, 1.0, 0.8};
  EXPECT_TRUE(ExtractLowScoreWindows(high, 0, 60, 0.5).empty());
}

TEST(ExtractLowScoreWindows, WindowAtSeriesEndCloses) {
  const std::vector<double> scores = {0.9, 0.1, 0.1};
  const auto windows = ExtractLowScoreWindows(scores, 0, 60, 0.5);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].last_sample, 2u);
  EXPECT_EQ(windows[0].end, 180);
}

TEST(AnyWindowOverlaps, HalfOpenSemantics) {
  ScoreWindow w;
  w.start = 100;
  w.end = 200;
  EXPECT_TRUE(AnyWindowOverlaps({w}, 150, 250));
  EXPECT_TRUE(AnyWindowOverlaps({w}, 0, 101));
  EXPECT_FALSE(AnyWindowOverlaps({w}, 200, 300));  // touching, no overlap
  EXPECT_FALSE(AnyWindowOverlaps({w}, 0, 100));
  EXPECT_FALSE(AnyWindowOverlaps({}, 0, 1000));
}

}  // namespace
}  // namespace pmcorr
