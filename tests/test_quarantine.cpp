// Tests for the per-pair circuit breaker (engine/quarantine.h) and its
// integration with SystemMonitor: a scripted engine fault must be
// contained to the faulty pairs — every healthy pair's scores stay
// bitwise identical to a fault-free run — and Step and Run must agree
// exactly with the reference stepper about when pairs trip, back off,
// and re-admit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "differential_util.h"
#include "engine/fault_plan.h"
#include "engine/monitor.h"
#include "engine/quarantine.h"

namespace pmcorr {
namespace {

QuarantineConfig FastBackoff() {
  QuarantineConfig config;
  config.backoff.base = 4;
  config.backoff.multiplier = 2.0;
  config.backoff.cap = 64;
  config.backoff.budget = 3;
  return config;
}

TEST(PairQuarantine, TripBacksOffThenProbationReadmits) {
  PairQuarantine quarantine(2, FastBackoff());
  EXPECT_EQ(quarantine.BeginStep(0, 10), PairQuarantine::Decision::kRun);
  quarantine.RecordFailure(0, 10, "boom");
  EXPECT_TRUE(quarantine.IsQuarantined(0));
  EXPECT_EQ(quarantine.LastError(0), "boom");
  // retry_at = 10 + 1 + base(4) = 15: skipped until then.
  for (std::size_t s = 11; s < 15; ++s) {
    EXPECT_EQ(quarantine.BeginStep(0, s), PairQuarantine::Decision::kSkip)
        << "sample " << s;
  }
  EXPECT_EQ(quarantine.BeginStep(0, 15),
            PairQuarantine::Decision::kRunAfterReset);
  quarantine.RecordSuccess(0, 15, /*outlier=*/false);
  EXPECT_EQ(quarantine.StateOf(0), PairQuarantine::State::kActive);
  EXPECT_EQ(quarantine.TripCount(), 1u);
  EXPECT_EQ(quarantine.QuarantinedCount(), 0u);
  // The sibling pair never noticed.
  EXPECT_EQ(quarantine.BeginStep(1, 15), PairQuarantine::Decision::kRun);
}

TEST(PairQuarantine, ReadmissionDoesNotRefundTheRetryBudget) {
  PairQuarantine quarantine(1, FastBackoff());
  quarantine.RecordFailure(0, 0, "first");
  EXPECT_EQ(quarantine.BeginStep(0, 5),
            PairQuarantine::Decision::kRunAfterReset);
  quarantine.RecordSuccess(0, 5, false);  // re-admitted
  // The next trip schedules with DelayFor(1) = 8, not base: the budget
  // keeps walking toward retirement across readmissions.
  quarantine.RecordFailure(0, 20, "second");
  EXPECT_EQ(quarantine.BeginStep(0, 28), PairQuarantine::Decision::kSkip);
  EXPECT_EQ(quarantine.BeginStep(0, 29),
            PairQuarantine::Decision::kRunAfterReset);
}

TEST(PairQuarantine, ExhaustedBudgetRetiresForGood) {
  PairQuarantine quarantine(1, FastBackoff());  // budget = 3
  std::size_t sample = 0;
  quarantine.RecordFailure(0, sample, "t0");  // retries -> 1
  for (int round = 0; round < 2; ++round) {
    // Walk to the probation sample and fail it.
    while (quarantine.BeginStep(0, sample) ==
           PairQuarantine::Decision::kSkip) {
      ++sample;
    }
    quarantine.RecordFailure(0, sample, "again");
  }
  EXPECT_TRUE(quarantine.IsQuarantined(0));  // retries = 3, still scheduled
  while (quarantine.BeginStep(0, sample) == PairQuarantine::Decision::kSkip) {
    ++sample;
  }
  quarantine.RecordFailure(0, sample, "final");
  EXPECT_TRUE(quarantine.IsRetired(0));
  EXPECT_EQ(quarantine.TripCount(), 4u);
  // Retired is forever: no probation, ever again.
  for (std::size_t s = sample; s < sample + 500; s += 50) {
    EXPECT_EQ(quarantine.BeginStep(0, s), PairQuarantine::Decision::kSkip);
  }
}

TEST(PairQuarantine, ProbationBoundaryIsExactAndRefailureRearms) {
  PairQuarantine quarantine(1, FastBackoff());
  quarantine.RecordFailure(0, 10, "boom");  // retry_at = 10 + 1 + 4 = 15
  EXPECT_EQ(quarantine.BeginStep(0, 14), PairQuarantine::Decision::kSkip);
  EXPECT_EQ(quarantine.BeginStep(0, 15),
            PairQuarantine::Decision::kRunAfterReset);
  // Re-asking at the same sample (checkpoint replay) grants probation
  // again rather than tripping or skipping.
  EXPECT_EQ(quarantine.BeginStep(0, 15),
            PairQuarantine::Decision::kRunAfterReset);
  // Failing the probation sample itself re-quarantines immediately, and
  // the new window is anchored at the probation sample with the *next*
  // delay: 15 + 1 + DelayFor(1) = 24.
  quarantine.RecordFailure(0, 15, "refail");
  EXPECT_TRUE(quarantine.IsQuarantined(0));
  EXPECT_EQ(quarantine.BeginStep(0, 23), PairQuarantine::Decision::kSkip);
  EXPECT_EQ(quarantine.BeginStep(0, 24),
            PairQuarantine::Decision::kRunAfterReset);
}

TEST(PairQuarantine, LateProbationLongAfterExpiryStillReadmits) {
  // A feed outage can park the whole monitor past retry_at; the first
  // sample that arrives afterwards must still get the one probation
  // attempt instead of skipping forever.
  PairQuarantine quarantine(1, FastBackoff());
  quarantine.RecordFailure(0, 0, "boom");  // retry_at = 5
  EXPECT_EQ(quarantine.BeginStep(0, 500),
            PairQuarantine::Decision::kRunAfterReset);
  quarantine.RecordSuccess(0, 500, /*outlier=*/false);
  EXPECT_EQ(quarantine.StateOf(0), PairQuarantine::State::kActive);
}

TEST(PairQuarantine, ZeroRetryBudgetRetiresOnFirstTrip) {
  QuarantineConfig config = FastBackoff();
  config.backoff.budget = 0;
  PairQuarantine quarantine(1, config);
  quarantine.RecordFailure(0, 3, "boom");
  EXPECT_TRUE(quarantine.IsRetired(0));
  EXPECT_EQ(quarantine.TripCount(), 1u);
  EXPECT_EQ(quarantine.BeginStep(0, 1000), PairQuarantine::Decision::kSkip);
}

TEST(PairQuarantine, OutlierBurstBreakerNeedsConsecutiveOutliers) {
  QuarantineConfig config = FastBackoff();
  config.outlier_burst = 3;
  PairQuarantine quarantine(1, config);
  // Interrupted runs never trip.
  quarantine.RecordSuccess(0, 0, true);
  quarantine.RecordSuccess(0, 1, true);
  quarantine.RecordSuccess(0, 2, false);
  quarantine.RecordSuccess(0, 3, true);
  quarantine.RecordSuccess(0, 4, true);
  EXPECT_EQ(quarantine.StateOf(0), PairQuarantine::State::kActive);
  // The third consecutive outlier trips.
  quarantine.RecordSuccess(0, 5, true);
  EXPECT_TRUE(quarantine.IsQuarantined(0));
  EXPECT_NE(quarantine.LastError(0).find("outlier burst"), std::string::npos);
  EXPECT_TRUE(quarantine.AnyTripped());
}

TEST(PairQuarantine, DisabledIsPassive) {
  QuarantineConfig config;
  config.enabled = false;
  PairQuarantine quarantine(3, config);
  EXPECT_FALSE(quarantine.Enabled());
  quarantine.RecordFailure(0, 0, "ignored");
  EXPECT_EQ(quarantine.BeginStep(0, 1), PairQuarantine::Decision::kRun);
  EXPECT_EQ(quarantine.TripCount(), 0u);
}

// --- Monitor integration -------------------------------------------------

// Same small system as test_monitor.cpp: 2 machines x 2 metrics driven by
// one load signal; measurement 3 optionally decouples in the second half.
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

TEST(MonitorQuarantine, FaultyPairsAreContainedBitwise) {
  const MeasurementFrame history = SystemFrame(1600, 3);
  const MeasurementFrame holdout = SystemFrame(600, 21);
  const MeasurementFrame test = SystemFrame(120, 5, true);

  SystemMonitor baseline(history, MeasurementGraph::FullMesh(4),
                         SmallConfig());
  baseline.CalibrateThresholds(holdout, 0.05);
  const auto clean_snaps = baseline.Run(test);

  // Two of the six pairs turn permanently faulty mid-run.
  EngineFaultPlan plan;
  plan.pair_faults.push_back({1, 10, 100000});
  plan.pair_faults.push_back({4, 25, 100000});
  SystemMonitor faulty(history, MeasurementGraph::FullMesh(4), SmallConfig());
  faulty.CalibrateThresholds(holdout, 0.05);
  faulty.SetFaultPlanForTest(&plan);
  const auto fault_snaps = faulty.Run(test);

  ASSERT_EQ(fault_snaps.size(), clean_snaps.size());
  for (std::size_t t = 0; t < clean_snaps.size(); ++t) {
    SCOPED_TRACE("sample " + std::to_string(t));
    for (std::size_t i = 0; i < 6; ++i) {
      if (i == 1 || i == 4) continue;
      SCOPED_TRACE("pair " + std::to_string(i));
      // The containment property: a healthy pair's score is the same
      // double, bit for bit, whether or not its neighbors are on fire.
      difftest::ExpectScoreEqual(clean_snaps[t].pair_scores[i],
                                 fault_snaps[t].pair_scores[i],
                                 "healthy pair score");
    }
    // The faulty pairs are disengaged from their first fault on (every
    // probation step re-throws, so they never score again).
    if (t >= 10) {
      EXPECT_FALSE(fault_snaps[t].pair_scores[1].has_value());
    }
    if (t >= 25) {
      EXPECT_FALSE(fault_snaps[t].pair_scores[4].has_value());
      EXPECT_GE(fault_snaps[t].quarantined_pairs, 2u);
    }
  }

  // Alarm containment: at every sample the faulty run alarms exactly the
  // baseline's pairs, minus the faulted pairs from their first fault on.
  for (std::size_t t = 0; t < clean_snaps.size(); ++t) {
    SCOPED_TRACE("alarms at sample " + std::to_string(t));
    std::vector<std::size_t> expected;
    for (const std::size_t i : clean_snaps[t].alarmed_pairs) {
      if ((i == 1 && t >= 10) || (i == 4 && t >= 25)) continue;
      expected.push_back(i);
    }
    EXPECT_EQ(fault_snaps[t].alarmed_pairs, expected);
  }

  // Both faulted pairs burned through their retry budgets or are still
  // cycling; neither is active, and nothing else ever tripped.
  EXPECT_NE(faulty.Quarantine().StateOf(1), PairQuarantine::State::kActive);
  EXPECT_NE(faulty.Quarantine().StateOf(4), PairQuarantine::State::kActive);
  for (std::size_t i : {0u, 2u, 3u, 5u}) {
    EXPECT_EQ(faulty.Quarantine().StateOf(i),
              PairQuarantine::State::kActive);
  }
}

TEST(MonitorQuarantine, TransientFaultBacksOffThenReadmits) {
  const MeasurementFrame history = SystemFrame(1200, 7);
  const MeasurementFrame test = SystemFrame(40, 9);

  EngineFaultPlan plan;
  plan.pair_faults.push_back({0, 5, 6});  // throws exactly once, sample 5
  MonitorConfig config = SmallConfig();
  config.quarantine.backoff.base = 4;
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4), config);
  monitor.SetFaultPlanForTest(&plan);
  const auto snaps = monitor.Run(test);

  // Trip at 5, skipped through the backoff window, probation at
  // retry_at = 5 + 1 + 4 = 10 (disengaged: fresh sequence), scoring
  // again from 11.
  for (std::size_t t = 5; t <= 10; ++t) {
    EXPECT_FALSE(snaps[t].pair_scores[0].has_value()) << "sample " << t;
    EXPECT_EQ(snaps[t].quarantined_pairs, t == 10 ? 0u : 1u)
        << "sample " << t;
  }
  for (std::size_t t = 11; t < snaps.size(); ++t) {
    EXPECT_TRUE(snaps[t].pair_scores[0].has_value()) << "sample " << t;
    EXPECT_EQ(snaps[t].quarantined_pairs, 0u);
  }
  EXPECT_EQ(monitor.Quarantine().StateOf(0), PairQuarantine::State::kActive);
  EXPECT_EQ(monitor.Quarantine().TripCount(), 1u);
  // The other five pairs never skipped a beat.
  for (std::size_t i = 1; i < 6; ++i) {
    for (std::size_t t = 1; t < snaps.size(); ++t) {
      EXPECT_TRUE(snaps[t].pair_scores[i].has_value())
          << "pair " << i << " sample " << t;
    }
  }
}

TEST(MonitorQuarantine, StepAndRunAgreeUnderFaults) {
  // The differential contract extends to degraded mode: trips, backoff
  // skips, probations and re-trips land on the same samples bitwise as
  // in the reference stepper, through both Step overloads and through
  // Run across batch boundaries.
  EngineFaultPlan plan;
  plan.pair_faults.push_back({0, 5, 6});    // transient: one throw
  plan.pair_faults.push_back({2, 3, 500});  // permanent from sample 3
  plan.pair_faults.push_back({5, 0, 1});    // throws on the very first step

  difftest::DifferentialCase c;
  c.history = SystemFrame(1200, 11);
  c.holdout = SystemFrame(500, 13);
  c.test = SystemFrame(90, 15, true);
  c.graph = MeasurementGraph::FullMesh(4);
  c.config = SmallConfig();
  c.config.quarantine.backoff.base = 2;
  c.fault_plan = &plan;
  difftest::ExpectEngineMatchesReference(c);
}

TEST(MonitorQuarantine, OutlierBurstTripsOnPoisonedFeed) {
  const MeasurementFrame history = SystemFrame(1200, 17);
  MonitorConfig config = SmallConfig();
  config.quarantine.outlier_burst = 4;
  config.quarantine.backoff.base = 1000;  // stay quarantined for the test
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4), config);

  // Measurement 3 starts spewing garbage far outside any learned grid:
  // every pair touching it sees a run of consecutive outliers.
  EngineFaultPlan plan;
  plan.poison_faults.push_back({3, 10, 30, 1.0e9});
  const MeasurementFrame test = SystemFrame(30, 19);
  std::vector<double> values(4);
  std::vector<SystemSnapshot> snaps;
  for (std::size_t t = 0; t < test.SampleCount(); ++t) {
    for (std::size_t a = 0; a < 4; ++a) {
      values[a] = test.Value(MeasurementId(static_cast<std::int32_t>(a)), t);
    }
    plan.ApplyToRow(values, t);
    snaps.push_back(monitor.Step(values, test.TimeAt(t)));
  }

  // Pairs (0,3), (1,3), (2,3) are pair indices 2, 4, 5 in FullMesh(4).
  for (std::size_t i : {2u, 4u, 5u}) {
    EXPECT_TRUE(monitor.Quarantine().IsQuarantined(i)) << "pair " << i;
    EXPECT_NE(monitor.Quarantine().LastError(i).find("outlier burst"),
              std::string::npos);
  }
  for (std::size_t i : {0u, 1u, 3u}) {
    EXPECT_EQ(monitor.Quarantine().StateOf(i),
              PairQuarantine::State::kActive);
  }
  EXPECT_GE(snaps.back().quarantined_pairs, 3u);
}

TEST(MonitorQuarantine, DisabledQuarantineLetsFaultsPropagate) {
  const MeasurementFrame history = SystemFrame(900, 23);
  MonitorConfig config = SmallConfig();
  config.quarantine.enabled = false;
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4), config);
  EngineFaultPlan plan;
  plan.pair_faults.push_back({3, 0, 100});
  monitor.SetFaultPlanForTest(&plan);
  const std::vector<double> v = {60.0, 57.0, 170.0, 83.0};
  EXPECT_THROW(monitor.Step(v, 0), InjectedFault);
  EXPECT_THROW(monitor.Run(SystemFrame(10, 25)), InjectedFault);
}

}  // namespace
}  // namespace pmcorr
