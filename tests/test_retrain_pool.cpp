// Tests for the shared bounded rolling-retrain pool: a fixed worker
// count serving many pairs from one FIFO queue. The serving models live
// with the test, as they live in SystemMonitor: each sample goes to
// Observe, and finished rebuilds are taken with TakeAdoptable at a
// sample boundary.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <sstream>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "engine/retrain_pool.h"
#include "io/model_io.h"

namespace pmcorr {
namespace {

// A drifting process: the operating level rises by drift_per_sample per
// sample. A per-pair level offset lets a rebuild's window identify which
// pair it belongs to.
void MakeDrifting(std::size_t n, double drift_per_sample, std::uint64_t seed,
                  std::vector<double>* xs, std::vector<double>* ys,
                  double offset = 0.0) {
  Rng rng(seed);
  xs->resize(n);
  ys->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double level =
        offset + 50.0 + drift_per_sample * static_cast<double>(i);
    const double load =
        level + 20.0 * std::sin(static_cast<double>(i) * 0.05) +
        rng.Normal(0.0, 1.0);
    (*xs)[i] = load;
    (*ys)[i] = 2.0 * load + 10.0 + rng.Normal(0.0, 1.0);
  }
}

ModelConfig SmallModel() {
  ModelConfig config;
  config.partition.units = 30;
  config.partition.max_intervals = 8;
  return config;
}

RetrainPoolConfig FastPool(std::size_t threads = 1) {
  RetrainPoolConfig config;
  config.threads = threads;
  config.window_samples = 400;
  config.interval_samples = 100;
  config.min_samples = 50;
  return config;
}

std::string Serialize(const PairModel& model) {
  std::ostringstream out;
  SavePairModel(model, out);
  return out.str();
}

// Feeds samples [from, to) of (xs, ys) to pair p, wrapping around.
void ObserveRange(RetrainPool& pool, std::size_t p,
                  const std::vector<double>& xs, const std::vector<double>& ys,
                  std::size_t from, std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    pool.Observe(p, xs[i % xs.size()], ys[i % ys.size()]);
  }
}

TEST(RetrainPool, FifoFairnessAcrossPairs) {
  // 6 pairs, one worker. Every rebuild records which pair's window it
  // learned from (pairs are separated by a big level offset), so the
  // dequeue order is observable.
  constexpr std::size_t kPairs = 6;
  Mutex order_mu;
  std::vector<std::size_t> order;
  RetrainPoolConfig config = FastPool(1);
  config.rebuild_override = [&](std::span<const double> x,
                                std::span<const double> y,
                                const ModelConfig& model_config) {
    {
      const MutexLock lock(order_mu);
      order.push_back(static_cast<std::size_t>(x[0] / 1000.0 + 0.5));
    }
    return PairModel::Learn(x, y, model_config);
  };
  RetrainPool pool(SmallModel(), config);

  std::vector<std::vector<double>> xs(kPairs), ys(kPairs);
  for (std::size_t p = 0; p < kPairs; ++p) {
    MakeDrifting(300, 0.0, 3 + p, &xs[p], &ys[p],
                 static_cast<double>(p) * 1000.0);
    ASSERT_EQ(pool.RegisterWindow(xs[p], ys[p]), p);
  }

  // Two full cadence rounds, feeding the pairs round-robin: the queue
  // must serve every pair once before any pair goes twice.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < 100; ++i) {
      for (std::size_t p = 0; p < kPairs; ++p) {
        pool.Observe(p, xs[p][i], ys[p][i]);
      }
    }
    pool.WaitForIdle();
    for (std::size_t p = 0; p < kPairs; ++p) {
      EXPECT_NE(pool.TakeAdoptable(p), nullptr) << "pair " << p;
      EXPECT_EQ(pool.Rebuilds(p), static_cast<std::size_t>(round) + 1);
    }
  }
  EXPECT_EQ(pool.QueueDepth(), 0u);
  EXPECT_EQ(pool.ThreadCount(), 1u);

  ASSERT_EQ(order.size(), 2 * kPairs);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i % kPairs) << "dequeue position " << i;
  }
}

TEST(RetrainPool, ThreadCountIndependentOfPairCount) {
  constexpr std::size_t kPairs = 40;
  RetrainPool pool(SmallModel(), FastPool(2));
  std::vector<double> xs, ys;
  MakeDrifting(300, 0.0, 17, &xs, &ys);
  for (std::size_t p = 0; p < kPairs; ++p) pool.RegisterWindow(xs, ys);
  EXPECT_EQ(pool.ThreadCount(), 2u);

  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t p = 0; p < kPairs; ++p) pool.Observe(p, xs[i], ys[i]);
  }
  // Pairs keep registering while the workers drain those rebuilds, as a
  // monitor's AddPair does mid-stream.
  for (std::size_t p = kPairs; p < 2 * kPairs; ++p) {
    ASSERT_EQ(pool.RegisterWindow(xs, ys), p);
  }
  pool.WaitForIdle();
  EXPECT_EQ(pool.ThreadCount(), 2u);  // never one thread per pair
  EXPECT_EQ(pool.QueueDepth(), 0u);
  for (std::size_t p = 0; p < kPairs; ++p) {
    EXPECT_NE(pool.TakeAdoptable(p), nullptr) << "pair " << p;
    EXPECT_EQ(pool.Rebuilds(p), 1u) << "pair " << p;
  }
  EXPECT_EQ(pool.WindowSize(2 * kPairs - 1), 300u);
}

TEST(RetrainPool, AdoptedModelEqualsLearnOfWindowSnapshot) {
  // The bitwise oracle: a model handed out by TakeAdoptable is exactly
  // PairModel::Learn over the window as of the Observe that fired the
  // cadence — same bytes, no drift, no shortcuts. The first cadence
  // learns from the seed plus the observed samples while the window is
  // still filling; the second from a window that has slid.
  std::vector<double> xs, ys;
  MakeDrifting(900, 0.02, 13, &xs, &ys);
  RetrainPool pool(SmallModel(), FastPool(1));
  const std::span<const double> x(xs);
  const std::span<const double> y(ys);
  ASSERT_EQ(pool.RegisterWindow(x.first(250), y.first(250)), 0u);

  ObserveRange(pool, 0, xs, ys, 250, 350);
  ASSERT_EQ(pool.WindowSize(0), 350u);
  pool.WaitForPair(0);
  EXPECT_EQ(pool.Rebuilds(0), 0u);  // built, not yet adopted
  const std::unique_ptr<PairModel> first = pool.TakeAdoptable(0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(pool.Rebuilds(0), 1u);
  EXPECT_EQ(pool.TakeAdoptable(0), nullptr);  // taken exactly once
  EXPECT_EQ(Serialize(*first),
            Serialize(PairModel::Learn(x.first(350), y.first(350),
                                       SmallModel())));

  ObserveRange(pool, 0, xs, ys, 350, 450);
  ASSERT_EQ(pool.WindowSize(0), 400u);  // bounded by window_samples
  pool.WaitForPair(0);
  const std::unique_ptr<PairModel> second = pool.TakeAdoptable(0);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(pool.Rebuilds(0), 2u);
  EXPECT_EQ(Serialize(*second),
            Serialize(PairModel::Learn(x.subspan(50, 400), y.subspan(50, 400),
                                       SmallModel())));
}

TEST(RetrainPool, TracksDriftBetterThanFrozenModelDespiteMissingSamples) {
  // Strong drift (+120 over the run) with every tenth sample missing:
  // the frozen model's failure mode is *silence* (the tail leaves its
  // grid, so most samples are outliers or unscorable), while the served
  // model the pool keeps rebuilding keeps scoring at high fitness. The
  // NaNs go into the windows the rebuilds learn from.
  std::vector<double> xs, ys;
  MakeDrifting(3000, 0.05, 7, &xs, &ys);
  const std::vector<double> train_x(xs.begin(), xs.begin() + 600);
  const std::vector<double> train_y(ys.begin(), ys.begin() + 600);

  ModelConfig frozen_config = SmallModel();
  frozen_config.adaptive = false;
  PairModel frozen = PairModel::Learn(train_x, train_y, frozen_config);

  PairModel rolling = PairModel::Learn(train_x, train_y, SmallModel());
  RetrainPoolConfig config = FastPool(1);
  config.window_samples = 600;
  config.interval_samples = 200;
  RetrainPool pool(SmallModel(), config);
  pool.RegisterWindow(train_x, train_y);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  double rolling_sum = 0.0;
  std::size_t frozen_n = 0, rolling_n = 0, frozen_outliers = 0;
  for (std::size_t i = 600; i < xs.size(); ++i) {
    const bool missing = i % 10 == 0;
    const double x = missing ? nan : xs[i];
    const StepOutcome f = frozen.Step(x, ys[i]);
    if (f.has_score) ++frozen_n;
    if (f.outlier) ++frozen_outliers;
    if (std::unique_ptr<PairModel> fresh = pool.TakeAdoptable(0)) {
      rolling = std::move(*fresh);
    }
    pool.Observe(0, x, ys[i]);
    const StepOutcome r = rolling.Step(x, ys[i]);
    EXPECT_EQ(r.missing, missing) << "sample " << i;
    if (r.has_score) {
      rolling_sum += r.fitness;
      ++rolling_n;
    }
    pool.WaitForIdle();  // deterministic adoption points
  }
  ASSERT_GT(rolling_n, 1800u);
  EXPECT_LT(frozen_n, rolling_n / 2);
  EXPECT_GT(frozen_outliers, 500u);
  EXPECT_GT(rolling_sum / static_cast<double>(rolling_n), 0.85);
  // 2400 samples at a 200-sample cadence: 12 rebuilds, the last fired by
  // the final sample and never adopted.
  EXPECT_EQ(pool.Rebuilds(0), 11u);
  EXPECT_EQ(pool.FailedRebuilds(0), 0u);
}

TEST(RetrainPool, FailedRebuildRetriesAtNextCadence) {
  // A throwing rebuild is counted, the caller keeps serving its model,
  // and the very next cadence tries again.
  std::vector<double> xs, ys;
  MakeDrifting(300, 0.0, 19, &xs, &ys);
  RetrainPoolConfig config = FastPool(1);
  config.rebuild_override = [](std::span<const double>,
                               std::span<const double>,
                               const ModelConfig&) -> PairModel {
    throw std::runtime_error("kaboom: synthetic rebuild failure");
  };
  RetrainPool pool(SmallModel(), config);
  PairModel serving = PairModel::Learn(xs, ys, SmallModel());
  ASSERT_EQ(pool.RegisterWindow(xs, ys), 0u);

  std::size_t scored = 0;
  std::vector<std::size_t> failed_at;  // samples fed when each failure landed
  for (std::size_t i = 0; i < 250; ++i) {
    EXPECT_EQ(pool.TakeAdoptable(0), nullptr);
    pool.Observe(0, xs[i], ys[i]);
    if (serving.Step(xs[i], ys[i]).has_score) ++scored;
    // Drain each failure before the next sample so the schedule below is
    // deterministic.
    pool.WaitForPair(0);
    if (pool.FailedRebuilds(0) > failed_at.size()) failed_at.push_back(i + 1);
  }
  // Both cadence points (100 and 200) attempted and failed; the serving
  // model never stopped scoring.
  EXPECT_EQ(failed_at, (std::vector<std::size_t>{100, 200}));
  EXPECT_EQ(pool.FailedRebuilds(0), 2u);
  EXPECT_EQ(pool.Rebuilds(0), 0u);
  EXPECT_FALSE(pool.RebuildInFlight(0));
  EXPECT_NE(pool.LastRebuildError(0).find("kaboom"), std::string::npos);
  EXPECT_GT(scored, 200u);
}

}  // namespace
}  // namespace pmcorr
