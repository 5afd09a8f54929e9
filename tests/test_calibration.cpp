// Tests for alarm-threshold calibration.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "core/calibration.h"
#include "dense_reference.h"

namespace pmcorr {
namespace {

void MakeData(std::size_t n, std::uint64_t seed, std::vector<double>* xs,
              std::vector<double>* ys) {
  Rng rng(seed);
  xs->resize(n);
  ys->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double load =
        55.0 + 35.0 * std::sin(static_cast<double>(i) * 0.03) +
        rng.Normal(0.0, 1.5);
    (*xs)[i] = load;
    (*ys)[i] = 100.0 * load / (load + 45.0) + rng.Normal(0.0, 0.5);
  }
}

PairModel TrainModel(std::uint64_t seed = 3) {
  std::vector<double> xs, ys;
  MakeData(2000, seed, &xs, &ys);
  ModelConfig config;
  config.partition.units = 40;
  config.partition.max_intervals = 10;
  return PairModel::Learn(xs, ys, config);
}

TEST(Calibration, HoldoutFprMatchesTarget) {
  const PairModel model = TrainModel();
  std::vector<double> hx, hy;
  MakeData(1500, 11, &hx, &hy);  // held-out slice, same process
  const auto calibration = CalibrateOnHoldout(model, hx, hy, 0.05);
  ASSERT_GT(calibration.samples, 1000u);
  EXPECT_GT(calibration.fitness_threshold, 0.0);
  EXPECT_LT(calibration.fitness_threshold, 1.0);
  EXPECT_GT(calibration.delta, 0.0);

  // Replaying fresh normal data against the calibrated thresholds must
  // alarm at roughly the target rate.
  ModelConfig armed = WithCalibratedThresholds(model.Config(), calibration);
  PairModel detector = PairModel::FromParts(armed, model.Grid(),
                                            model.Matrix());
  std::vector<double> tx, ty;
  MakeData(1500, 13, &tx, &ty);
  std::size_t scored = 0, alarms = 0;
  for (std::size_t i = 0; i < tx.size(); ++i) {
    const StepOutcome out = detector.Step(tx[i], ty[i]);
    if (out.has_score) {
      ++scored;
      if (out.alarm) ++alarms;
    }
  }
  ASSERT_GT(scored, 1000u);
  const double fpr = static_cast<double>(alarms) / static_cast<double>(scored);
  // Both thresholds fire at ~5% each; their union stays well below ~15%.
  EXPECT_LT(fpr, 0.15);
  EXPECT_GT(fpr, 0.005);
}

TEST(Calibration, DoesNotMutateTheInputModel) {
  const PairModel model = TrainModel(5);
  const auto evidence_before = difftest::DenseEvidence(model.Matrix());
  std::vector<double> hx, hy;
  MakeData(500, 17, &hx, &hy);
  (void)CalibrateOnHoldout(model, hx, hy, 0.02);
  EXPECT_TRUE(difftest::SameBits(difftest::DenseEvidence(model.Matrix()),
                                 evidence_before));
  EXPECT_DOUBLE_EQ(model.Config().delta, 0.0);  // still unarmed
}

TEST(Calibration, ZeroTargetGivesMinimumScores) {
  const PairModel model = TrainModel(7);
  std::vector<double> hx, hy;
  MakeData(800, 19, &hx, &hy);
  const auto tight = CalibrateOnHoldout(model, hx, hy, 0.0);
  const auto loose = CalibrateOnHoldout(model, hx, hy, 0.5);
  EXPECT_LE(tight.fitness_threshold, loose.fitness_threshold);
  EXPECT_LE(tight.delta, loose.delta);
}

TEST(Calibration, EmptyHoldoutIsHarmless) {
  const PairModel model = TrainModel(9);
  const auto calibration = CalibrateOnHoldout(model, {}, {}, 0.05);
  EXPECT_EQ(calibration.samples, 0u);
  EXPECT_DOUBLE_EQ(calibration.fitness_threshold, 0.0);
  EXPECT_DOUBLE_EQ(calibration.delta, 0.0);
}

TEST(Calibration, WithCalibratedThresholdsCopiesBounds) {
  ModelConfig config;
  ThresholdCalibration calibration;
  calibration.fitness_threshold = 0.42;
  calibration.delta = 0.003;
  const ModelConfig armed = WithCalibratedThresholds(config, calibration);
  EXPECT_DOUBLE_EQ(armed.fitness_alarm_threshold, 0.42);
  EXPECT_DOUBLE_EQ(armed.delta, 0.003);
  EXPECT_DOUBLE_EQ(config.fitness_alarm_threshold, 0.0);  // copy, not edit
}

}  // namespace
}  // namespace pmcorr
