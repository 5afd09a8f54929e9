// Tests for the ingest guard (engine/health.h): stream-event detection
// against the cadence, frozen-value suppression, and the per-measurement
// health state machine.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "engine/health.h"

namespace pmcorr {
namespace {

constexpr Duration kPeriod = 360;  // the paper's 6-minute cadence
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

HealthConfig Seeded() {
  HealthConfig config;
  config.expected_period = kPeriod;
  return config;
}

// A row whose values never repeat bitwise (so frozen detection is inert).
std::vector<double> Row(std::size_t m, int step) {
  std::vector<double> values(m);
  for (std::size_t i = 0; i < m; ++i) {
    values[i] = 10.0 * static_cast<double>(i + 1) +
                0.001 * static_cast<double>(step);
  }
  return values;
}

TEST(IngestGuard, CleanStreamPassesThroughUntouched) {
  IngestGuard guard(3, Seeded());
  for (int t = 0; t < 50; ++t) {
    std::vector<double> values = Row(3, t);
    const std::vector<double> original = values;
    const SampleReport report =
        guard.Filter(values, static_cast<TimePoint>(t) * kPeriod);
    EXPECT_EQ(report.event, StreamEvent::kNone);
    EXPECT_FALSE(report.sequence_break);
    EXPECT_EQ(report.suppressed, 0u);
    EXPECT_EQ(values, original);  // bitwise: exact doubles, no NaN
  }
  EXPECT_TRUE(guard.AllHealthy());
  EXPECT_EQ(guard.SuppressedTotal(), 0u);
  EXPECT_EQ(guard.GapCount(), 0u);
  EXPECT_EQ(guard.DuplicateCount(), 0u);
  EXPECT_EQ(guard.OutOfOrderCount(), 0u);
}

TEST(IngestGuard, LearnsCadenceFromFirstTwoDistinctTimestamps) {
  HealthConfig config;  // expected_period = 0: learn it
  IngestGuard guard(1, config);
  std::vector<double> v = {1.0};
  guard.Filter(v, 1000);
  EXPECT_EQ(guard.ExpectedPeriod(), 0);
  v[0] = 2.0;
  guard.Filter(v, 1000 + kPeriod);
  EXPECT_EQ(guard.ExpectedPeriod(), kPeriod);
  // Now a late arrival is a gap against the learned cadence.
  v[0] = 3.0;
  const SampleReport report = guard.Filter(v, 1000 + 4 * kPeriod);
  EXPECT_EQ(report.event, StreamEvent::kGap);
  EXPECT_TRUE(report.sequence_break);
}

TEST(IngestGuard, GapBreaksSequenceWithoutSuppressingValues) {
  IngestGuard guard(2, Seeded());
  std::vector<double> v = {1.0, 2.0};
  guard.Filter(v, 0);
  v = {1.5, 2.5};
  // Just inside late_factor * period: still on cadence.
  SampleReport report = guard.Filter(v, kPeriod * 3 / 2);
  EXPECT_EQ(report.event, StreamEvent::kNone);
  v = {1.7, 2.7};
  report = guard.Filter(v, kPeriod * 3 / 2 + 2 * kPeriod);
  EXPECT_EQ(report.event, StreamEvent::kGap);
  EXPECT_TRUE(report.sequence_break);
  EXPECT_EQ(report.suppressed, 0u);
  EXPECT_EQ(v[0], 1.7);  // values untouched: a gap loses time, not data
  EXPECT_EQ(guard.GapCount(), 1u);
}

TEST(IngestGuard, DuplicateTimestampSuppressesWholeRow) {
  IngestGuard guard(2, Seeded());
  std::vector<double> v = {1.0, 2.0};
  guard.Filter(v, kPeriod);
  v = {1.1, 2.1};
  const SampleReport report = guard.Filter(v, kPeriod);  // same timestamp
  EXPECT_EQ(report.event, StreamEvent::kDuplicate);
  EXPECT_TRUE(report.sequence_break);
  EXPECT_EQ(report.suppressed, 2u);
  EXPECT_TRUE(std::isnan(v[0]));
  EXPECT_TRUE(std::isnan(v[1]));
  EXPECT_EQ(guard.DuplicateCount(), 1u);
  // The stream clock did not advance: the next on-cadence sample is
  // judged against the original arrival, not the duplicate.
  v = {1.2, 2.2};
  const SampleReport next = guard.Filter(v, 2 * kPeriod);
  EXPECT_EQ(next.event, StreamEvent::kNone);
  EXPECT_EQ(next.suppressed, 0u);
}

TEST(IngestGuard, OutOfOrderSampleSuppressedAndClockHolds) {
  IngestGuard guard(1, Seeded());
  std::vector<double> v = {1.0};
  guard.Filter(v, 2 * kPeriod);
  v[0] = 2.0;
  const SampleReport report = guard.Filter(v, kPeriod);  // earlier
  EXPECT_EQ(report.event, StreamEvent::kOutOfOrder);
  EXPECT_TRUE(report.sequence_break);
  EXPECT_EQ(report.suppressed, 1u);
  EXPECT_TRUE(std::isnan(v[0]));
  EXPECT_EQ(guard.OutOfOrderCount(), 1u);
  v[0] = 3.0;
  const SampleReport next = guard.Filter(v, 3 * kPeriod);
  EXPECT_EQ(next.event, StreamEvent::kNone);
}

TEST(IngestGuard, DuplicateRowCountsOnlyRealValuesAsSuppressed) {
  IngestGuard guard(2, Seeded());
  std::vector<double> v = {1.0, 2.0};
  guard.Filter(v, kPeriod);
  v = {kNan, 2.1};  // one value already missing
  const SampleReport report = guard.Filter(v, kPeriod);
  EXPECT_EQ(report.event, StreamEvent::kDuplicate);
  EXPECT_EQ(report.suppressed, 1u);
}

TEST(IngestGuard, FrozenValueSuppressedAtThresholdAndReleasedOnChange) {
  HealthConfig config = Seeded();
  config.frozen_after = 5;
  IngestGuard guard(2, config);
  const double frozen = 42.25;  // exact in binary: bitwise-stable repeats
  TimePoint tp = 0;
  for (int t = 0; t < 4; ++t) {
    std::vector<double> v = {frozen, Row(1, t)[0]};
    const SampleReport report = guard.Filter(v, tp);
    EXPECT_EQ(report.suppressed, 0u) << "arrival " << t;
    EXPECT_EQ(v[0], frozen);
    tp += kPeriod;
  }
  // Fifth identical arrival: the feed is wedged; suppress from here on.
  for (int t = 4; t < 10; ++t) {
    std::vector<double> v = {frozen, Row(1, t)[0]};
    const SampleReport report = guard.Filter(v, tp);
    EXPECT_EQ(report.suppressed, 1u) << "arrival " << t;
    EXPECT_TRUE(std::isnan(v[0]));
    EXPECT_FALSE(std::isnan(v[1]));  // the healthy feed is untouched
    tp += kPeriod;
  }
  // The value moves again: pass-through resumes immediately.
  std::vector<double> v = {frozen + 0.5, 1.0};
  const SampleReport report = guard.Filter(v, tp);
  EXPECT_EQ(report.suppressed, 0u);
  EXPECT_EQ(v[0], frozen + 0.5);
  EXPECT_EQ(guard.SuppressedTotal(), 6u);
}

TEST(IngestGuard, HealthDegradesToStaleThenDeadThenRecovers) {
  HealthConfig config = Seeded();
  config.stale_after = 4;
  config.dead_after = 8;
  config.recover_after = 3;
  IngestGuard guard(2, config);
  TimePoint tp = 0;
  const auto feed = [&](double first) {
    std::vector<double> v = {first, Row(1, static_cast<int>(tp))[0]};
    guard.Filter(v, tp);
    tp += kPeriod;
  };
  feed(1.0);
  EXPECT_EQ(guard.Health(0), MeasurementHealth::kHealthy);
  for (int t = 0; t < 3; ++t) feed(kNan);
  EXPECT_EQ(guard.Health(0), MeasurementHealth::kHealthy);  // 3 < stale_after
  feed(kNan);
  EXPECT_EQ(guard.Health(0), MeasurementHealth::kStale);
  EXPECT_FALSE(guard.AllHealthy());
  for (int t = 0; t < 3; ++t) feed(kNan);
  EXPECT_EQ(guard.Health(0), MeasurementHealth::kStale);  // 7 < dead_after
  feed(kNan);
  EXPECT_EQ(guard.Health(0), MeasurementHealth::kDead);
  // Recovery takes recover_after consecutive good samples.
  feed(2.0);
  feed(3.0);
  EXPECT_EQ(guard.Health(0), MeasurementHealth::kDead);
  feed(4.0);
  EXPECT_EQ(guard.Health(0), MeasurementHealth::kHealthy);
  EXPECT_TRUE(guard.AllHealthy());
  EXPECT_EQ(guard.HealthStates(),
            std::vector<MeasurementHealth>(2, MeasurementHealth::kHealthy));
}

TEST(IngestGuard, RepeatedDegradesWithinWindowMarkFlapping) {
  HealthConfig config = Seeded();
  config.stale_after = 2;
  config.recover_after = 2;
  config.dead_after = 50;
  config.flap_window = 64;
  config.flap_transitions = 3;
  IngestGuard guard(1, config);
  TimePoint tp = 0;
  const auto feed = [&](double v0) {
    std::vector<double> v = {v0};
    guard.Filter(v, tp);
    tp += kPeriod;
  };
  double fresh = 1.0;
  // Two full degrade/recover cycles (each leaves kHealthy once)...
  for (int cycle = 0; cycle < 2; ++cycle) {
    feed(kNan);
    feed(kNan);
    EXPECT_EQ(guard.Health(0), MeasurementHealth::kStale);
    feed(fresh += 1.0);
    feed(fresh += 1.0);
    EXPECT_EQ(guard.Health(0), MeasurementHealth::kHealthy);
  }
  // ...and the third degrade within the window tips it to flapping.
  feed(kNan);
  feed(kNan);
  EXPECT_EQ(guard.Health(0), MeasurementHealth::kFlapping);
  // A recovery streak still brings it home.
  feed(fresh += 1.0);
  feed(fresh += 1.0);
  EXPECT_EQ(guard.Health(0), MeasurementHealth::kHealthy);
}

TEST(IngestGuard, ResetTimingForgetsClockAndFrozenRuns) {
  HealthConfig config = Seeded();
  config.frozen_after = 3;
  IngestGuard guard(1, config);
  const double frozen = 7.0;
  std::vector<double> v = {frozen};
  for (int t = 0; t < 2; ++t) {
    v[0] = frozen;
    guard.Filter(v, static_cast<TimePoint>(t) * kPeriod);
  }
  guard.ResetTiming();
  // After the segment boundary: an "earlier" timestamp is not
  // out-of-order, and the frozen run restarts from scratch.
  v[0] = frozen;
  const SampleReport report = guard.Filter(v, 0);
  EXPECT_EQ(report.event, StreamEvent::kNone);
  EXPECT_EQ(report.suppressed, 0u);
  v[0] = frozen;
  EXPECT_EQ(guard.Filter(v, kPeriod).suppressed, 0u);
  v[0] = frozen;
  EXPECT_EQ(guard.Filter(v, 2 * kPeriod).suppressed, 1u);  // run hits 3
  // Lifetime counters survived the reset.
  EXPECT_EQ(guard.SuppressedTotal(), 1u);
}

TEST(IngestGuard, RejectsBadConfigAndMismatchedRows) {
  HealthConfig config;
  config.late_factor = 0.5;
  EXPECT_THROW(IngestGuard(2, config), std::invalid_argument);
  IngestGuard guard(2, Seeded());
  std::vector<double> narrow = {1.0};
  EXPECT_THROW(guard.Filter(narrow, 0), std::invalid_argument);
}

TEST(IngestGuard, NamesCoverEveryEnumerator) {
  EXPECT_STREQ(MeasurementHealthName(MeasurementHealth::kHealthy), "healthy");
  EXPECT_STREQ(MeasurementHealthName(MeasurementHealth::kStale), "stale");
  EXPECT_STREQ(MeasurementHealthName(MeasurementHealth::kFlapping),
               "flapping");
  EXPECT_STREQ(MeasurementHealthName(MeasurementHealth::kDead), "dead");
  EXPECT_STREQ(StreamEventName(StreamEvent::kNone), "none");
  EXPECT_STREQ(StreamEventName(StreamEvent::kGap), "gap");
  EXPECT_STREQ(StreamEventName(StreamEvent::kDuplicate), "duplicate");
  EXPECT_STREQ(StreamEventName(StreamEvent::kOutOfOrder), "out-of-order");
}

}  // namespace
}  // namespace pmcorr
