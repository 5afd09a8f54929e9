// Tests for PairModel: the full observe/score/alarm/update loop.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/model.h"
#include "dense_reference.h"

namespace pmcorr {
namespace {

// Two correlated series: y is a noisy saturating function of x, which
// itself follows a smooth daily-ish cycle. Transitions are gradual, as
// the paper assumes.
void MakeHistory(std::size_t n, std::uint64_t seed, std::vector<double>* xs,
                 std::vector<double>* ys) {
  Rng rng(seed);
  xs->resize(n);
  ys->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double load =
        60.0 + 40.0 * std::sin(static_cast<double>(i) * 0.026) +
        rng.Normal(0.0, 2.0);
    (*xs)[i] = load;
    (*ys)[i] = 100.0 * load / (load + 50.0) + rng.Normal(0.0, 0.5);
  }
}

ModelConfig DefaultConfig() {
  ModelConfig config;
  config.partition.units = 40;
  config.partition.max_intervals = 12;
  return config;
}

TEST(PairModel, LearnBuildsGridCoveringHistory) {
  std::vector<double> xs, ys;
  MakeHistory(1000, 3, &xs, &ys);
  const PairModel model = PairModel::Learn(xs, ys, DefaultConfig());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_TRUE(model.Grid().CellOf({xs[i], ys[i]}).has_value());
  }
  EXPECT_GT(model.Matrix().ObservedCount(), 900u);
}

TEST(PairModel, LearnRejectsBadInput) {
  const std::vector<double> xs = {1.0, 2.0};
  const std::vector<double> ys = {1.0};
  EXPECT_THROW(PairModel::Learn(xs, ys, DefaultConfig()),
               std::invalid_argument);
  EXPECT_THROW(PairModel::Learn({}, {}, DefaultConfig()),
               std::invalid_argument);
}

TEST(PairModel, FirstStepHasNoScore) {
  std::vector<double> xs, ys;
  MakeHistory(500, 5, &xs, &ys);
  PairModel model = PairModel::Learn(xs, ys, DefaultConfig());
  const StepOutcome out = model.Step(xs[0], ys[0]);
  EXPECT_FALSE(out.has_score);
  EXPECT_FALSE(out.outlier);
  ASSERT_TRUE(out.cell.has_value());
}

TEST(PairModel, NormalTransitionsScoreHigh) {
  std::vector<double> xs, ys;
  MakeHistory(2000, 7, &xs, &ys);
  PairModel model = PairModel::Learn(xs, ys, DefaultConfig());

  std::vector<double> tx, ty;
  MakeHistory(400, 8, &tx, &ty);  // same process, fresh noise
  double total = 0.0;
  std::size_t scored = 0;
  for (std::size_t i = 0; i < tx.size(); ++i) {
    const StepOutcome out = model.Step(tx[i], ty[i]);
    if (out.has_score) {
      total += out.fitness;
      ++scored;
    }
  }
  ASSERT_GT(scored, 300u);
  // The paper reports average fitness between 0.8 and 0.98 on normal data.
  EXPECT_GT(total / static_cast<double>(scored), 0.8);
}

TEST(PairModel, AnomalousJumpScoresLowAndOutlierScoresZero) {
  std::vector<double> xs, ys;
  MakeHistory(2000, 9, &xs, &ys);
  PairModel model = PairModel::Learn(xs, ys, DefaultConfig());

  // Establish a normal previous point.
  model.Step(xs[10], ys[10]);
  // A correlation-breaking jump inside the grid: x mid-range, y extreme.
  const double weird_x = xs[10];
  const double weird_y = 99.0;  // saturation zone while load is moderate
  const StepOutcome odd = model.Step(weird_x, weird_y);
  if (odd.has_score && !odd.outlier) {
    EXPECT_LT(odd.fitness, 0.7);
  }

  // A far outlier beyond the extension margin: fitness exactly 0.
  model.Step(xs[11], ys[11]);
  const StepOutcome out = model.Step(1e6, -1e6);
  EXPECT_TRUE(out.outlier);
  EXPECT_TRUE(out.has_score);
  EXPECT_DOUBLE_EQ(out.fitness, 0.0);
  EXPECT_DOUBLE_EQ(out.probability, 0.0);
  EXPECT_FALSE(out.cell.has_value());

  // The sample after an outlier has no source cell -> no score.
  const StepOutcome next = model.Step(xs[12], ys[12]);
  EXPECT_FALSE(next.has_score);
}

TEST(PairModel, AdaptiveExtendsGridUnderDrift) {
  std::vector<double> xs, ys;
  MakeHistory(1500, 11, &xs, &ys);
  ModelConfig config = DefaultConfig();
  config.lambda1 = 3.0;
  config.lambda2 = 3.0;
  PairModel model = PairModel::Learn(xs, ys, config);

  const double old_hi = model.Grid().Dim1().Hi();
  // Drift just past the boundary — within lambda * r_avg.
  const double drift_x = old_hi + 0.4 * model.Grid().InitialAvgWidthDim1();
  model.Step(xs[0], ys[0]);
  const StepOutcome out = model.Step(drift_x, ys[1]);
  EXPECT_TRUE(out.extended_grid);
  EXPECT_FALSE(out.outlier);
  EXPECT_GT(model.Grid().Dim1().Hi(), old_hi);
  EXPECT_EQ(model.Stats().extensions, 1u);
}

TEST(PairModel, OfflineModelNeverChanges) {
  std::vector<double> xs, ys;
  MakeHistory(1500, 13, &xs, &ys);
  ModelConfig config = DefaultConfig();
  config.adaptive = false;
  PairModel model = PairModel::Learn(xs, ys, config);

  const std::size_t cells = model.Matrix().CellCount();
  const auto evidence = difftest::DenseEvidence(model.Matrix());
  model.Step(xs[0], ys[0]);
  model.Step(xs[1], ys[1]);
  model.Step(model.Grid().Dim1().Hi() + 0.1, ys[2]);  // just outside
  EXPECT_EQ(model.Matrix().CellCount(), cells);        // no extension
  EXPECT_TRUE(difftest::SameBits(difftest::DenseEvidence(model.Matrix()),
                                 evidence));          // no updates
  EXPECT_EQ(model.Stats().matrix_updates, 0u);
}

TEST(PairModel, AlarmsFireOnThresholds) {
  std::vector<double> xs, ys;
  MakeHistory(2000, 15, &xs, &ys);
  ModelConfig config = DefaultConfig();
  config.fitness_alarm_threshold = 0.5;
  PairModel model = PairModel::Learn(xs, ys, config);

  model.Step(xs[0], ys[0]);
  const StepOutcome out = model.Step(1e7, 1e7);
  EXPECT_TRUE(out.alarm);
  EXPECT_GE(model.Stats().alarms, 1u);
}

TEST(PairModel, NoAlarmWhenThresholdsDisabled) {
  std::vector<double> xs, ys;
  MakeHistory(800, 17, &xs, &ys);
  PairModel model = PairModel::Learn(xs, ys, DefaultConfig());
  model.Step(xs[0], ys[0]);
  const StepOutcome out = model.Step(1e7, 1e7);  // extreme outlier
  EXPECT_TRUE(out.outlier);
  EXPECT_FALSE(out.alarm);  // both thresholds default to 0 = disabled
}

TEST(PairModel, AlarmedTransitionDoesNotUpdateMatrix) {
  std::vector<double> xs, ys;
  MakeHistory(2000, 19, &xs, &ys);
  ModelConfig config = DefaultConfig();
  config.fitness_alarm_threshold = 0.99;  // nearly everything alarms
  PairModel model = PairModel::Learn(xs, ys, config);
  model.Step(xs[0], ys[0]);
  const auto updates_before = model.Stats().matrix_updates;
  // Pick a destination that is unlikely to be rank 1.
  const StepOutcome out = model.Step(xs[0], ys[300]);
  if (out.alarm) {
    EXPECT_EQ(model.Stats().matrix_updates, updates_before);
  }
}

TEST(PairModel, ResetSequenceSuppressesNextScore) {
  std::vector<double> xs, ys;
  MakeHistory(600, 21, &xs, &ys);
  PairModel model = PairModel::Learn(xs, ys, DefaultConfig());
  model.Step(xs[0], ys[0]);
  model.ResetSequence();
  const StepOutcome out = model.Step(xs[1], ys[1]);
  EXPECT_FALSE(out.has_score);
}

TEST(PairModel, MissingSamplesAreSkippedNotAlarmed) {
  std::vector<double> xs, ys;
  MakeHistory(800, 25, &xs, &ys);
  ModelConfig config = DefaultConfig();
  config.fitness_alarm_threshold = 0.5;  // alarms armed
  PairModel model = PairModel::Learn(xs, ys, config);

  model.Step(xs[0], ys[0]);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const StepOutcome gap = model.Step(nan, ys[1]);
  EXPECT_TRUE(gap.missing);
  EXPECT_FALSE(gap.has_score);
  EXPECT_FALSE(gap.alarm);
  EXPECT_FALSE(gap.outlier);

  // The sample after the gap has no source cell -> unscored, and the one
  // after that scores normally again.
  const StepOutcome after = model.Step(xs[2], ys[2]);
  EXPECT_FALSE(after.has_score);
  const StepOutcome resumed = model.Step(xs[3], ys[3]);
  EXPECT_TRUE(resumed.has_score);

  const StepOutcome inf_gap =
      model.Step(xs[4], std::numeric_limits<double>::infinity());
  EXPECT_TRUE(inf_gap.missing);
}

TEST(PairModel, LearnToleratesGapsInHistory) {
  std::vector<double> xs, ys;
  MakeHistory(1000, 27, &xs, &ys);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 50; i < 80; ++i) xs[i] = nan;  // a collector outage
  ys[500] = nan;
  const PairModel model = PairModel::Learn(xs, ys, DefaultConfig());
  EXPECT_GT(model.Matrix().ObservedCount(), 900u);
  // Grid covers the finite data.
  EXPECT_TRUE(model.Grid().CellOf({xs[100], ys[100]}).has_value());

  std::vector<double> all_nan(10, nan);
  EXPECT_THROW(PairModel::Learn(all_nan, all_nan, DefaultConfig()),
               std::invalid_argument);
}

// A test stream that reaches every Step exit: normal transitions,
// correlation-breaking jumps inside the grid, drift just past the
// boundary (grid extension), far outliers and collector gaps.
void MakeProbeStream(const PairModel& model, std::vector<double>* xs,
                     std::vector<double>* ys) {
  MakeHistory(600, 31, xs, ys);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 40; i < xs->size(); i += 50) (*ys)[i] = 99.0;
  (*xs)[205] =
      model.Grid().Dim1().Hi() + 0.4 * model.Grid().InitialAvgWidthDim1();
  (*xs)[333] = 1e6;
  (*ys)[444] = nan;
}

// Every field of two outcomes except `probability`.
void ExpectSameOutcomeButProbability(const StepOutcome& a,
                                     const StepOutcome& b, std::size_t t) {
  EXPECT_EQ(a.has_score, b.has_score) << "sample " << t;
  EXPECT_EQ(a.fitness, b.fitness) << "sample " << t;
  EXPECT_EQ(a.rank, b.rank) << "sample " << t;
  EXPECT_EQ(a.outlier, b.outlier) << "sample " << t;
  EXPECT_EQ(a.missing, b.missing) << "sample " << t;
  EXPECT_EQ(a.extended_grid, b.extended_grid) << "sample " << t;
  EXPECT_EQ(a.alarm, b.alarm) << "sample " << t;
  EXPECT_EQ(a.cell, b.cell) << "sample " << t;
}

void ExpectSameModelState(const PairModel& a, const PairModel& b) {
  EXPECT_EQ(a.Matrix().CellCount(), b.Matrix().CellCount());
  EXPECT_TRUE(difftest::SameBits(difftest::DenseEvidence(a.Matrix()),
                                 difftest::DenseEvidence(b.Matrix())));
  EXPECT_EQ(difftest::DenseCounts(a.Matrix()),
            difftest::DenseCounts(b.Matrix()));
  EXPECT_EQ(a.Stats().alarms, b.Stats().alarms);
  EXPECT_EQ(a.Stats().matrix_updates, b.Stats().matrix_updates);
}

TEST(PairModel, RankOnlyStepMatchesFullStepButForProbability) {
  std::vector<double> xs, ys;
  MakeHistory(2000, 29, &xs, &ys);
  ModelConfig config = DefaultConfig();
  config.fitness_alarm_threshold = 0.3;  // delta stays 0
  PairModel full = PairModel::Learn(xs, ys, config);
  PairModel rank_only = full;
  std::vector<double> tx, ty;
  MakeProbeStream(full, &tx, &ty);

  std::size_t scored = 0, alarms = 0;
  for (std::size_t t = 0; t < tx.size(); ++t) {
    const StepOutcome want = full.Step(tx[t], ty[t]);
    const StepOutcome got = rank_only.Step(tx[t], ty[t], ScoreMode::kRankOnly);
    ExpectSameOutcomeButProbability(want, got, t);
    EXPECT_EQ(got.probability, 0.0) << "sample " << t;
    if (want.has_score && !want.outlier) {
      ++scored;
      EXPECT_GT(want.probability, 0.0) << "sample " << t;
    }
    if (want.alarm) ++alarms;
  }
  EXPECT_GT(scored, 500u);
  EXPECT_GT(alarms, 0u);
  EXPECT_EQ(full.Stats().extensions, 1u);
  ExpectSameModelState(full, rank_only);
}

// With no alarm bound armed, nothing can veto an update, so a rank-only
// step scores and updates the row in one walk
// (TransitionMatrix::ScoreAndObserve); a full step keeps the two calls.
// Under the plain update and under forgetting with a likelihood weight.
TEST(PairModel, RankOnlyStepWithNoAlarmBoundMatchesFullStep) {
  for (const auto& [weight, forgetting] :
       {std::pair{1.0, 1.0}, std::pair{0.7, 0.995}}) {
    SCOPED_TRACE("weight " + std::to_string(weight) + ", forgetting " +
                 std::to_string(forgetting));
    std::vector<double> xs, ys;
    MakeHistory(2000, 37, &xs, &ys);
    ModelConfig config = DefaultConfig();
    config.likelihood_weight = weight;
    config.forgetting = forgetting;
    PairModel full = PairModel::Learn(xs, ys, config);
    PairModel rank_only = full;
    std::vector<double> tx, ty;
    MakeProbeStream(full, &tx, &ty);

    std::size_t scored = 0, outliers = 0, gaps = 0;
    for (std::size_t t = 0; t < tx.size(); ++t) {
      const StepOutcome want = full.Step(tx[t], ty[t]);
      const StepOutcome got =
          rank_only.Step(tx[t], ty[t], ScoreMode::kRankOnly);
      ExpectSameOutcomeButProbability(want, got, t);
      EXPECT_FALSE(got.alarm) << "sample " << t;
      if (want.has_score && !want.outlier) ++scored;
      if (want.outlier) ++outliers;
      if (want.missing) ++gaps;
    }
    EXPECT_GT(scored, 500u);
    EXPECT_GT(outliers, 0u);
    EXPECT_GT(gaps, 0u);
    EXPECT_EQ(full.Stats().extensions, 1u);
    EXPECT_EQ(rank_only.Stats().matrix_updates, scored);
    ExpectSameModelState(full, rank_only);
    EXPECT_EQ(full.Matrix().ObservedCount(),
              rank_only.Matrix().ObservedCount());
  }
}

TEST(PairModel, RankOnlyStepComputesProbabilityWhenDeltaNeedsIt) {
  std::vector<double> xs, ys;
  MakeHistory(2000, 33, &xs, &ys);
  ModelConfig config = DefaultConfig();
  config.delta = 0.05;  // the probability alarm alone is armed
  PairModel full = PairModel::Learn(xs, ys, config);
  PairModel rank_only = full;
  std::vector<double> tx, ty;
  MakeProbeStream(full, &tx, &ty);

  std::size_t delta_alarms = 0, passed = 0;
  for (std::size_t t = 0; t < tx.size(); ++t) {
    const StepOutcome want = full.Step(tx[t], ty[t]);
    const StepOutcome got = rank_only.Step(tx[t], ty[t], ScoreMode::kRankOnly);
    ExpectSameOutcomeButProbability(want, got, t);
    EXPECT_EQ(got.probability, want.probability) << "sample " << t;
    if (want.has_score && !want.outlier) {
      ++(want.alarm ? delta_alarms : passed);
    }
  }
  // Both sides of the delta test occur: a rank-only step that skipped
  // the probability would alarm on every scored sample.
  EXPECT_GT(delta_alarms, 0u);
  EXPECT_GT(passed, 0u);
  ExpectSameModelState(full, rank_only);
}

TEST(PairModel, StatsCountersConsistent) {
  std::vector<double> xs, ys;
  MakeHistory(1000, 23, &xs, &ys);
  PairModel model = PairModel::Learn(xs, ys, DefaultConfig());
  for (std::size_t i = 0; i < 200; ++i) model.Step(xs[i], ys[i]);
  const PairModelStats& stats = model.Stats();
  EXPECT_EQ(stats.steps, 200u);
  EXPECT_LE(stats.scored, stats.steps);
  EXPECT_LE(stats.matrix_updates, stats.scored);
}

}  // namespace
}  // namespace pmcorr
