// Differential tests for the compile-then-replay Learn pipeline: the
// row-bucketed replay path must produce models bitwise identical to the
// sequential reference (LearnSequential / the ObserveTransition loop)
// across kernels, grid sizes, gap patterns, update weights, forgetting
// factors, and serial-vs-threaded replay schedules. The weight != 1 /
// forgetting != 1 cases are load-bearing: they once caught the AVX-512
// clones contracting e * f + w * p into a fused multiply-add (one
// rounding instead of two) before -ffp-contract=off pinned it.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/model.h"
#include "core/transition_matrix.h"
#include "engine/thread_pool.h"
#include "grid/grid.h"
#include "grid/kernels.h"
#include "io/model_io.h"

namespace pmcorr {
namespace {

// Bit-exact comparison via the model file: SavePairModel serializes
// config, both interval lists, evidence and counts with doubles as bit
// patterns, so equal strings mean equal models down to the last ulp.
std::string Serialize(const PairModel& model) {
  std::ostringstream out;
  SavePairModel(model, out);
  return out.str();
}

// A correlated pair with seasonal structure and noise — the shape the
// paper's CPU/load measurements take.
void MakeHistory(std::size_t n, std::uint64_t seed, std::vector<double>* xs,
                 std::vector<double>* ys) {
  Rng rng(seed);
  xs->resize(n);
  ys->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    const double load = 50.0 + 25.0 * std::sin(t * 0.02) +
                        8.0 * std::sin(t * 0.21) + rng.Normal(0.0, 2.0);
    (*xs)[i] = load;
    (*ys)[i] = 1.8 * load + 12.0 + rng.Normal(0.0, 3.0);
  }
}

// Punches collector gaps into a history: every stride-th x sample plus a
// contiguous outage in y. Exercises the filtered (non-gap-free) compile
// path, where transitions must re-break across missing samples.
void PunchGaps(std::vector<double>* xs, std::vector<double>* ys,
               std::size_t stride) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = stride; i < xs->size(); i += stride) (*xs)[i] = nan;
  const std::size_t outage = xs->size() / 3;
  for (std::size_t i = outage; i < outage + 9 && i < ys->size(); ++i) {
    (*ys)[i] = nan;
  }
}

ModelConfig BaseConfig(std::size_t units, std::size_t max_intervals) {
  ModelConfig config;
  config.partition.units = units;
  config.partition.max_intervals = max_intervals;
  return config;
}

TEST(LearnReplay, MatchesSequentialAcrossKernelsAndGrids) {
  std::vector<double> xs, ys;
  MakeHistory(2500, 11, &xs, &ys);
  const struct {
    std::size_t units;
    std::size_t max_intervals;
  } grids[] = {{20, 6}, {50, 12}, {80, 20}};
  for (const auto& grid : grids) {
    for (const auto type :
         {KernelConfig::Type::kTriangular, KernelConfig::Type::kExponential}) {
      ModelConfig config = BaseConfig(grid.units, grid.max_intervals);
      config.kernel.type = type;
      const PairModel replayed = PairModel::Learn(xs, ys, config);
      const PairModel sequential = PairModel::LearnSequential(xs, ys, config);
      EXPECT_EQ(Serialize(replayed), Serialize(sequential))
          << "units=" << grid.units << " max=" << grid.max_intervals
          << " kernel=" << static_cast<int>(type);
    }
  }
}

TEST(LearnReplay, MatchesSequentialWithNaNGaps) {
  for (const std::size_t stride : {5u, 17u}) {
    std::vector<double> xs, ys;
    MakeHistory(1800, 23, &xs, &ys);
    PunchGaps(&xs, &ys, stride);
    for (const auto type :
         {KernelConfig::Type::kTriangular, KernelConfig::Type::kExponential}) {
      ModelConfig config = BaseConfig(40, 10);
      config.kernel.type = type;
      const PairModel replayed = PairModel::Learn(xs, ys, config);
      const PairModel sequential = PairModel::LearnSequential(xs, ys, config);
      EXPECT_EQ(Serialize(replayed), Serialize(sequential))
          << "stride=" << stride << " kernel=" << static_cast<int>(type);
    }
  }
}

TEST(LearnReplay, MatchesSequentialAcrossWeightAndForgetting) {
  std::vector<double> xs, ys;
  MakeHistory(2000, 31, &xs, &ys);
  std::vector<double> gx = xs, gy = ys;
  PunchGaps(&gx, &gy, 13);
  for (const double weight : {1.0, 0.7}) {
    for (const double forgetting : {1.0, 0.95}) {
      ModelConfig config = BaseConfig(50, 12);
      config.likelihood_weight = weight;
      config.forgetting = forgetting;
      EXPECT_EQ(Serialize(PairModel::Learn(xs, ys, config)),
                Serialize(PairModel::LearnSequential(xs, ys, config)))
          << "w=" << weight << " f=" << forgetting;
      EXPECT_EQ(Serialize(PairModel::Learn(gx, gy, config)),
                Serialize(PairModel::LearnSequential(gx, gy, config)))
          << "gaps w=" << weight << " f=" << forgetting;
    }
  }
}

TEST(LearnReplay, ThreadedReplayMatchesSerialReplay) {
  std::vector<double> xs, ys;
  MakeHistory(3000, 41, &xs, &ys);
  ModelConfig config = BaseConfig(60, 14);
  config.likelihood_weight = 0.9;
  ThreadPool pool(4);
  const ParallelRunner runner =
      [&pool](std::size_t count, const std::function<void(std::size_t)>& fn) {
        pool.ParallelFor(count, fn);
      };
  const std::string serial = Serialize(PairModel::Learn(xs, ys, config));
  const std::string threaded =
      Serialize(PairModel::Learn(xs, ys, config, runner));
  const std::string sequential =
      Serialize(PairModel::LearnSequential(xs, ys, config));
  EXPECT_EQ(serial, sequential);
  EXPECT_EQ(threaded, sequential);
}

// ReplayTransitions against the one-at-a-time ObserveTransition loop on
// a synthetic sequence with hot rows (repeated sources) and self-loops —
// the bucketed replay must reproduce the loop's matrices bitwise, with
// and without a parallel schedule.
TEST(LearnReplay, ReplayTransitionsMatchesObserveLoop) {
  const Grid2D grid(IntervalList::Uniform(0.0, 8.0, 8),
                    IntervalList::Uniform(0.0, 6.0, 6));
  KernelConfig kernel_config;
  kernel_config.type = KernelConfig::Type::kExponential;
  const auto kernel = MakeKernel(kernel_config);
  const std::size_t cells = grid.CellCount();

  Rng rng(57);
  std::vector<Transition> seq;
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < 4000; ++i) {
    // Random walk over cells with occasional jumps: adjacent sources
    // repeat (hot rows), and every row gets traffic eventually.
    const std::uint32_t next =
        (i % 11 == 0)
            ? static_cast<std::uint32_t>(
                  rng.UniformInt(0, static_cast<std::int64_t>(cells) - 1))
            : static_cast<std::uint32_t>(
                  (at + cells - 1 +
                   static_cast<std::size_t>(rng.UniformInt(0, 2))) %
                  cells);
    seq.push_back({at, next});
    at = next;
  }

  ThreadPool pool(4);
  const ParallelRunner runner =
      [&pool](std::size_t count, const std::function<void(std::size_t)>& fn) {
        pool.ParallelFor(count, fn);
      };
  for (const double weight : {1.0, 0.7}) {
    for (const double forgetting : {1.0, 0.95}) {
      TransitionMatrix loop = TransitionMatrix::Prior(grid, *kernel);
      for (const Transition& t : seq) {
        loop.ObserveTransition(t.from, t.to, grid, *kernel, weight,
                               forgetting);
      }
      TransitionMatrix replay_serial = TransitionMatrix::Prior(grid, *kernel);
      replay_serial.ReplayTransitions(seq, weight, forgetting);
      TransitionMatrix replay_parallel = TransitionMatrix::Prior(grid, *kernel);
      replay_parallel.ReplayTransitions(seq, weight, forgetting, runner);
      ASSERT_EQ(loop.Evidence().size(), replay_serial.Evidence().size());
      for (std::size_t i = 0; i < loop.Evidence().size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(loop.Evidence()[i]),
                  std::bit_cast<std::uint64_t>(replay_serial.Evidence()[i]))
            << "serial evidence[" << i << "] w=" << weight
            << " f=" << forgetting;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(loop.Evidence()[i]),
                  std::bit_cast<std::uint64_t>(replay_parallel.Evidence()[i]))
            << "parallel evidence[" << i << "] w=" << weight
            << " f=" << forgetting;
      }
      EXPECT_EQ(loop.Counts(), replay_serial.Counts());
      EXPECT_EQ(loop.Counts(), replay_parallel.Counts());
      EXPECT_EQ(loop.ObservedCount(),
                replay_serial.ObservedCount());
      EXPECT_EQ(loop.ObservedCount(),
                replay_parallel.ObservedCount());
    }
  }
}

}  // namespace
}  // namespace pmcorr
