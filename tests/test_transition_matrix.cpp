// Tests for the transition probability matrix, including an exact pin of
// the paper's Figure 5 prior and the Figure 9/10 prior-vs-posterior
// behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/transition_matrix.h"
#include "dense_reference.h"
#include "grid/grid.h"
#include "grid/kernels.h"

namespace pmcorr {
namespace {

Grid2D Grid3x3() {
  return Grid2D(IntervalList::Uniform(0.0, 3.0, 3),
                IntervalList::Uniform(0.0, 3.0, 3));
}

bool BitEqual(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Reference scoring oracle: the pre-stencil scalar arithmetic, operation
// for operation, computed from the matrix's public accessors. The fused
// and cached paths must reproduce it bitwise.
struct OracleScore {
  double probability = 0.0;
  std::size_t rank = 0;
};

// The per-entry rank rule: 1 + the destinations j with w_j > w_to, or
// w_j == w_to and j < to.
std::size_t OracleRank(const TransitionMatrix& m, std::size_t from,
                       std::size_t to) {
  const auto w = [&](std::size_t j) {
    return m.PriorLogW(from, j) + m.EvidenceRow(from)[j];
  };
  const double target = w(to);
  std::size_t rank = 1;
  for (std::size_t j = 0; j < m.CellCount(); ++j) {
    if (w(j) > target || (w(j) == target && j < to)) ++rank;
  }
  return rank;
}

OracleScore Oracle(const TransitionMatrix& m, std::size_t from,
                   std::size_t to) {
  const std::size_t s = m.CellCount();
  const auto w = [&](std::size_t j) {
    return m.PriorLogW(from, j) + m.EvidenceRow(from)[j];
  };
  double max_logw = w(0);
  for (std::size_t j = 1; j < s; ++j) max_logw = std::max(max_logw, w(j));
  double total = 0.0;
  for (std::size_t j = 0; j < s; ++j) total += std::exp(w(j) - max_logw);
  OracleScore out;
  out.probability = std::exp(w(to) - max_logw) / total;
  out.rank = OracleRank(m, from, to);
  return out;
}

// Row `from` after the Eq. (2) update by `to`, entry by entry, in the
// unspecialized form ObserveTransitionStencil applies.
std::vector<double> OracleUpdate(const TransitionMatrix& m, std::size_t from,
                                 std::size_t to, double weight,
                                 double forgetting) {
  const std::span<const double> row = m.EvidenceRow(from);
  std::vector<double> out(row.begin(), row.end());
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = out[j] * forgetting + weight * m.PriorLogW(to, j);
  }
  return out;
}

bool SameRowBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The full 9x9 matrix printed in Figure 5 of the paper (percent).
constexpr double kFigure5[9][9] = {
    {21.98, 14.65, 8.79, 14.65, 10.99, 7.33, 8.79, 7.33, 5.49},
    {13.16, 19.74, 13.16, 9.87, 13.16, 9.87, 6.58, 7.89, 6.58},
    {8.79, 14.65, 21.98, 7.33, 10.99, 14.65, 5.49, 7.33, 8.79},
    {13.16, 9.87, 6.58, 19.74, 13.16, 7.89, 13.16, 9.87, 6.58},
    {8.82, 11.76, 8.82, 11.76, 17.65, 11.76, 8.82, 11.76, 8.82},
    {6.58, 9.87, 13.16, 7.89, 13.16, 19.74, 6.58, 9.87, 13.16},
    {8.79, 7.33, 5.49, 14.65, 10.99, 7.33, 21.98, 14.65, 8.79},
    {6.58, 7.89, 6.58, 9.87, 13.16, 9.87, 13.16, 19.74, 13.16},
    {5.49, 7.33, 8.79, 7.33, 10.99, 14.65, 8.79, 14.65, 21.98},
};

TEST(TransitionMatrix, PriorReproducesFigure5Exactly) {
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  const TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  for (std::size_t i = 0; i < 9; ++i) {
    const auto row = matrix.RowDistribution(i);
    for (std::size_t j = 0; j < 9; ++j) {
      // The paper prints 2 decimals of percent -> tolerance 0.005%.
      EXPECT_NEAR(row[j] * 100.0, kFigure5[i][j], 5e-3)
          << "cell c" << i + 1 << " -> c" << j + 1;
    }
  }
}

TEST(TransitionMatrix, RowsAreDistributions) {
  const Grid2D grid = Grid3x3();
  const ExponentialKernel kernel(2.0, CellMetric::kEuclidean);
  const TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  for (std::size_t i = 0; i < matrix.CellCount(); ++i) {
    const auto row = matrix.RowDistribution(i);
    const double sum = std::accumulate(row.begin(), row.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-12);
    for (double p : row) EXPECT_GT(p, 0.0);
  }
}

TEST(TransitionMatrix, PriorSelfTransitionHighest) {
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  const TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(matrix.ArgMax(i), i);
    EXPECT_EQ(matrix.RankOf(i, i), 1u);
  }
}

TEST(TransitionMatrix, ObservationsShiftTheMode) {
  // Figure 9 -> Figure 10: the prior peaks on the self-transition, but
  // after repeatedly observing c5 -> c1, the posterior mode moves to c1.
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  EXPECT_EQ(matrix.ArgMax(4), 4u);
  for (int k = 0; k < 12; ++k) {
    matrix.ObserveTransition(4, 0, grid, kernel);
  }
  EXPECT_EQ(matrix.ArgMax(4), 0u);
  EXPECT_GT(matrix.Probability(4, 0), matrix.Probability(4, 4));
  // Other rows are untouched.
  EXPECT_EQ(matrix.ArgMax(3), 3u);
}

TEST(TransitionMatrix, ProbabilityMatchesRowDistribution) {
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  matrix.ObserveTransition(2, 7, grid, kernel);
  const auto row = matrix.RowDistribution(2);
  for (std::size_t j = 0; j < 9; ++j) {
    EXPECT_NEAR(matrix.Probability(2, j), row[j], 1e-12);
  }
}

TEST(TransitionMatrix, RanksAreAPermutation) {
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  matrix.ObserveTransition(4, 1, grid, kernel);
  std::vector<bool> seen(9, false);
  for (std::size_t j = 0; j < 9; ++j) {
    const std::size_t rank = matrix.RankOf(4, j);
    ASSERT_GE(rank, 1u);
    ASSERT_LE(rank, 9u);
    EXPECT_FALSE(seen[rank - 1]) << "duplicate rank " << rank;
    seen[rank - 1] = true;
  }
}

TEST(TransitionMatrix, CountsTrackObservations) {
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  matrix.ObserveTransition(0, 0, grid, kernel);
  matrix.ObserveTransition(0, 1, grid, kernel);
  matrix.ObserveTransition(0, 1, grid, kernel);
  EXPECT_EQ(matrix.ObservedCount(), 3u);
  EXPECT_EQ(matrix.CountOf(0, 0), 1u);
  EXPECT_EQ(matrix.CountOf(0, 1), 2u);
  EXPECT_EQ(matrix.CountOf(1, 0), 0u);
}

TEST(TransitionMatrix, ForgettingBoundsEvidence) {
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix sticky = TransitionMatrix::Prior(grid, kernel);
  TransitionMatrix forgetful = TransitionMatrix::Prior(grid, kernel);
  for (int k = 0; k < 500; ++k) {
    sticky.ObserveTransition(4, 0, grid, kernel, 1.0, 1.0);
    forgetful.ObserveTransition(4, 0, grid, kernel, 1.0, 0.9);
  }
  // With forgetting the posterior stays smooth; without, it sharpens
  // towards a point mass.
  EXPECT_GT(sticky.Probability(4, 0), forgetful.Probability(4, 0));
  EXPECT_GT(forgetful.Probability(4, 4), 1e-6);
  // Both still agree on the mode.
  EXPECT_EQ(sticky.ArgMax(4), 0u);
  EXPECT_EQ(forgetful.ArgMax(4), 0u);
}

TEST(TransitionMatrix, ExtensionRemapsEvidenceAndCounts) {
  Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  for (int k = 0; k < 8; ++k) matrix.ObserveTransition(4, 1, grid, kernel);
  EXPECT_EQ(matrix.ArgMax(4), 1u);

  const std::size_t old_cols = grid.Cols();
  const auto ext = grid.ExtendToInclude({-0.5, -0.5}, 2.0, 2.0);
  ASSERT_TRUE(ext.has_value());
  matrix.ApplyExtension(*ext, old_cols, grid, kernel);

  EXPECT_EQ(matrix.CellCount(), grid.CellCount());
  const std::size_t new4 = Grid2D::RemapIndex(4, old_cols, *ext);
  const std::size_t new1 = Grid2D::RemapIndex(1, old_cols, *ext);
  EXPECT_EQ(matrix.ArgMax(new4), new1);
  EXPECT_EQ(matrix.CountOf(new4, new1), 8u);
  EXPECT_EQ(matrix.ObservedCount(), 8u);

  // New cells behave like prior rows: self-transition is the mode.
  const std::size_t new_cell = 0;  // freshly added corner
  EXPECT_EQ(matrix.ArgMax(new_cell), new_cell);
  const auto row = matrix.RowDistribution(new_cell);
  EXPECT_NEAR(std::accumulate(row.begin(), row.end(), 0.0), 1.0, 1e-12);
}

TEST(TransitionMatrix, NewCellsDoNotOutrankObservedDestinations) {
  // Regression: after an extension, an observed row's brand-new columns
  // must not start at zero evidence — accumulated evidence is negative,
  // so a zero entry would make the never-visited cell the row's most
  // probable destination.
  Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  // Heavy history: row 4 almost always stays at 4.
  for (int k = 0; k < 200; ++k) matrix.ObserveTransition(4, 4, grid, kernel);

  const std::size_t old_cols = grid.Cols();
  const auto ext = grid.ExtendToInclude({3.4, 1.5}, 3.0, 3.0);
  ASSERT_TRUE(ext.has_value());
  ASSERT_FALSE(ext->Empty());
  matrix.ApplyExtension(*ext, old_cols, grid, kernel);

  const std::size_t new4 = Grid2D::RemapIndex(4, old_cols, *ext);
  EXPECT_EQ(matrix.ArgMax(new4), new4);
  EXPECT_EQ(matrix.RankOf(new4, new4), 1u);
  // The adjacent brand-new cell ranks below the observed self-transition
  // and its probability is small.
  const std::size_t new_cell = grid.CellCount() - 1;
  EXPECT_GT(matrix.RankOf(new4, new_cell), 1u);
  EXPECT_LT(matrix.Probability(new4, new_cell),
            matrix.Probability(new4, new4));
}

TEST(TransitionMatrix, LikelihoodWeightScalesUpdateStrength) {
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix weak = TransitionMatrix::Prior(grid, kernel);
  TransitionMatrix strong = TransitionMatrix::Prior(grid, kernel);
  weak.ObserveTransition(4, 0, grid, kernel, 0.2);
  strong.ObserveTransition(4, 0, grid, kernel, 5.0);
  EXPECT_GT(strong.Probability(4, 0), weak.Probability(4, 0));
}

TEST(TransitionDistanceHistogram, CountsByChebyshevDistance) {
  const Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  matrix.ObserveTransition(4, 4, grid, kernel);  // d=0
  matrix.ObserveTransition(4, 4, grid, kernel);  // d=0
  matrix.ObserveTransition(4, 1, grid, kernel);  // d=1
  matrix.ObserveTransition(0, 8, grid, kernel);  // d=2
  const auto hist = TransitionDistanceHistogram(matrix, grid);
  ASSERT_GE(hist.size(), 3u);
  EXPECT_EQ(hist[0], 2u);
  EXPECT_EQ(hist[1], 1u);
  EXPECT_EQ(hist[2], 1u);
}

TEST(TransitionMatrix, EmptyMatrixQueriesAreGuarded) {
  // Regression: Probability/RowDistribution/ArgMax/RankOf used to read
  // PosteriorLogW(from, 0) unconditionally — an out-of-bounds read on a
  // default-constructed (cells_ == 0) matrix.
  const TransitionMatrix matrix;
  EXPECT_EQ(matrix.CellCount(), 0u);
  EXPECT_EQ(matrix.Probability(0, 0), 0.0);
  EXPECT_TRUE(matrix.RowDistribution(0).empty());
  EXPECT_EQ(matrix.ArgMax(0), 0u);
  EXPECT_EQ(matrix.RankOf(0, 0), 0u);
  const TransitionScore score = matrix.ScoreTransition(0, 0);
  EXPECT_EQ(score.probability, 0.0);
  EXPECT_EQ(score.rank, 0u);
}

TEST(TransitionMatrix, ScoreTransitionMatchesSeparateQueriesBitwise) {
  // Ties are the normal case: an unwritten row holds zero evidence, so
  // the kernel's equal weights tie, and the Chebyshev kernel ties whole
  // rings of cells. The shapes put ties before and after the target,
  // inside its slice and in other slices, and at slice edges; 1x1 is
  // one cell, 1x7 one slice, 7x1 one cell per slice.
  const TriangularKernel triangular;
  const ExponentialKernel chebyshev(2.0, CellMetric::kChebyshev);
  struct Shape {
    std::size_t rows;
    std::size_t cols;
  };
  for (const DecayKernel* kernel :
       {static_cast<const DecayKernel*>(&triangular),
        static_cast<const DecayKernel*>(&chebyshev)}) {
    for (const Shape shape : {Shape{3, 3}, Shape{1, 1}, Shape{1, 7},
                              Shape{7, 1}, Shape{11, 11}}) {
      SCOPED_TRACE(kernel->Describe() + " " + std::to_string(shape.rows) +
                   "x" + std::to_string(shape.cols));
      const Grid2D grid(
          IntervalList::Uniform(0.0, static_cast<double>(shape.rows),
                                shape.rows),
          IntervalList::Uniform(0.0, static_cast<double>(shape.cols),
                                shape.cols));
      TransitionMatrix matrix = TransitionMatrix::Prior(grid, *kernel);
      const std::size_t s = matrix.CellCount();
      // On 3x3: 4 -> 1, 4 -> 4 and 2 -> 0.
      matrix.ObserveTransition(s / 2, s / 9, grid, *kernel, 0.7, 0.95);
      matrix.ObserveTransition(s / 2, s / 2, grid, *kernel);
      matrix.ObserveTransition(s / 4, 0, grid, *kernel, 1.3, 0.9);
      // Every read of a copy of this matrix is the first read of its row
      // since the last write: a cold scan.
      const TransitionMatrix written = matrix;

      for (std::size_t from = 0; from < s; ++from) {
        for (std::size_t to = 0; to < s; ++to) {
          const OracleScore expect = Oracle(matrix, from, to);
          {
            TransitionMatrix cold = written;
            EXPECT_EQ(cold.ScoreTransition(from, to, ScoreMode::kRankOnly).rank,
                      expect.rank)
                << "cold rank-only " << from << "->" << to;
          }
          {
            TransitionMatrix cold = written;
            const TransitionScore fused = cold.ScoreTransition(from, to);
            EXPECT_TRUE(BitEqual(fused.probability, expect.probability))
                << "cold fused " << from << "->" << to;
            EXPECT_EQ(fused.rank, expect.rank)
                << "cold fused " << from << "->" << to;
          }
          // Repeated scores of one matrix: the memoized normalizer must
          // give the uncached bits.
          for (int repeat = 0; repeat < 3; ++repeat) {
            const TransitionScore warm = matrix.ScoreTransition(from, to);
            EXPECT_TRUE(BitEqual(warm.probability, expect.probability))
                << from << "->" << to << " repeat " << repeat;
            EXPECT_EQ(warm.rank, expect.rank)
                << from << "->" << to << " repeat " << repeat;
          }
          // The unfused queries agree too.
          EXPECT_TRUE(BitEqual(matrix.Probability(from, to),
                               expect.probability));
          EXPECT_EQ(matrix.RankOf(from, to), expect.rank);
        }
      }

      // A write invalidates the row's memo.
      matrix.ObserveTransition(s / 2, 0, grid, *kernel, 0.7, 0.95);
      const OracleScore expect = Oracle(matrix, s / 2, 0);
      const TransitionScore after = matrix.ScoreTransition(s / 2, 0);
      EXPECT_TRUE(BitEqual(after.probability, expect.probability));
      EXPECT_EQ(after.rank, expect.rank);
    }
  }
}

// The row kernel's fixtures. The shapes put the split at `to` and the
// slice tails at the lane positions the 8-lane body masks: 1x1, 1x7 and
// 3x3 are one masked vector per slice, 7x1 one entry per slice, 8x8 and
// 3x16 whole vectors alone, 9x9 and 5x17 a one-entry tail after one and
// two whole vectors, 6x11 and 2x15 a three- and a seven-entry tail, and
// 24x27 a three-entry tail after three whole vectors over 648 cells.
struct WalkShape {
  std::size_t rows;
  std::size_t cols;
};
constexpr WalkShape kWalkShapes[] = {{1, 1}, {1, 7},  {7, 1},  {3, 3},
                                     {8, 8}, {3, 16}, {9, 9},  {5, 17},
                                     {6, 11}, {2, 15}, {24, 27}};

// (weight, forgetting): the plain update and each multiply.
constexpr std::pair<double, double> kWalkSettings[] = {
    {1.0, 1.0}, {1.0, 0.95}, {0.7, 1.0}, {0.7, 0.95}};

Grid2D UniformGrid(WalkShape shape) {
  return Grid2D(
      IntervalList::Uniform(0.0, static_cast<double>(shape.rows), shape.rows),
      IntervalList::Uniform(0.0, static_cast<double>(shape.cols), shape.cols));
}

// The two states the kernel walks: a fresh prior, whose rows all read
// the shared zero row and so tie on the symmetric kernel, and one after
// a random history under every setting, whose upper half of rows stays
// unwritten.
std::vector<TransitionMatrix> WalkStates(const Grid2D& grid,
                                         const DecayKernel& kernel) {
  TransitionMatrix history = TransitionMatrix::Prior(grid, kernel);
  const auto s = static_cast<std::int64_t>(history.CellCount());
  Rng rng(41 + static_cast<std::uint64_t>(s));
  for (std::int64_t k = 0; k < 3 * s; ++k) {
    const auto from = static_cast<std::size_t>(rng.UniformInt(0, (s - 1) / 2));
    const auto to = static_cast<std::size_t>(rng.UniformInt(0, s - 1));
    const auto [weight, forgetting] = kWalkSettings[k % 4];
    history.ObserveTransition(from, to, grid, kernel, weight, forgetting);
  }
  return {TransitionMatrix::Prior(grid, kernel), std::move(history)};
}

// Every destination on grids up to 100 cells; on larger ones the
// neighbours of `from`, both ends of the row and two random cells.
std::vector<std::size_t> WalkDestinations(std::size_t s, std::size_t cols,
                                          std::size_t from, Rng& rng) {
  std::vector<std::size_t> to;
  if (s <= 100) {
    for (std::size_t j = 0; j < s; ++j) to.push_back(j);
    return to;
  }
  for (const std::size_t d : {std::size_t{0}, std::size_t{1}, cols - 1, cols,
                              cols + 1}) {
    if (from >= d) to.push_back(from - d);
    if (from + d < s) to.push_back(from + d);
  }
  to.push_back(0);
  to.push_back(s - 1);
  for (int k = 0; k < 2; ++k) {
    to.push_back(static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(s) - 1)));
  }
  std::sort(to.begin(), to.end());
  to.erase(std::unique(to.begin(), to.end()), to.end());
  return to;
}

using RowWalkBody = std::size_t (*)(const RowWalk&, double*);

// One (from, to) pair through `body`'s three walks — count only, update
// only, and both — under every setting, against the per-entry oracles.
testing::AssertionResult WalksMatchOracles(RowWalkBody body,
                                           const TransitionMatrix& m,
                                           std::size_t from, std::size_t to) {
  const std::size_t cols = m.GridCols();
  const auto prior_row = [&](std::size_t center) {
    return m.Stencil().RowSlice(-static_cast<int>(center / cols),
                                center % cols);
  };
  const std::span<const double> before = m.EvidenceRow(from);
  const std::size_t rank = OracleRank(m, from, to);
  RowWalk count{.rows = m.GridRows(), .cols = cols, .stride = 2 * cols - 1};
  count.score_prior = prior_row(from);
  count.to = to;
  count.target = m.PriorLogW(from, to) + before[to];
  std::vector<double> row(before.begin(), before.end());
  const std::size_t counted = body(count, row.data()) + 1;
  if (counted != rank || !SameRowBits(row, before)) {
    return testing::AssertionFailure()
           << "count-only walk " << from << "->" << to << " ranked "
           << counted << ", oracle " << rank
           << (SameRowBits(row, before) ? "" : "; it wrote the row");
  }
  for (const auto& [weight, forgetting] : kWalkSettings) {
    const std::vector<double> want =
        OracleUpdate(m, from, to, weight, forgetting);
    RowWalk update{.rows = m.GridRows(), .cols = cols, .stride = 2 * cols - 1};
    update.update_prior = prior_row(to);
    update.weight = weight;
    update.forgetting = forgetting;
    row.assign(before.begin(), before.end());
    const std::size_t update_count = body(update, row.data());
    if (update_count != 0 || !SameRowBits(row, want)) {
      return testing::AssertionFailure()
             << "update-only walk " << from << "->" << to << " (weight "
             << weight << ", forgetting " << forgetting << ") counted "
             << update_count << (SameRowBits(row, want) ? "" : "; row differs");
    }
    RowWalk both = update;
    both.score_prior = count.score_prior;
    both.to = to;
    both.target = count.target;
    row.assign(before.begin(), before.end());
    const std::size_t fused = body(both, row.data()) + 1;
    if (fused != rank || !SameRowBits(row, want)) {
      return testing::AssertionFailure()
             << "fused walk " << from << "->" << to << " (weight " << weight
             << ", forgetting " << forgetting << ") ranked " << fused
             << ", oracle " << rank
             << (SameRowBits(row, want) ? "" : "; row differs");
    }
  }
  return testing::AssertionSuccess();
}

void ExpectBodyMatchesOracles(RowWalkBody body) {
  const TriangularKernel triangular;
  const ExponentialKernel chebyshev(2.0, CellMetric::kChebyshev);
  for (const DecayKernel* kernel :
       {static_cast<const DecayKernel*>(&triangular),
        static_cast<const DecayKernel*>(&chebyshev)}) {
    for (const WalkShape shape : kWalkShapes) {
      const Grid2D grid = UniformGrid(shape);
      const std::vector<TransitionMatrix> states = WalkStates(grid, *kernel);
      for (std::size_t st = 0; st < states.size(); ++st) {
        SCOPED_TRACE(kernel->Describe() + " " + std::to_string(shape.rows) +
                     "x" + std::to_string(shape.cols) +
                     (st == 0 ? " fresh" : " after a history"));
        const TransitionMatrix& m = states[st];
        Rng rng(3);
        for (std::size_t from = 0; from < m.CellCount(); ++from) {
          for (const std::size_t to :
               WalkDestinations(m.CellCount(), shape.cols, from, rng)) {
            ASSERT_TRUE(WalksMatchOracles(body, m, from, to));
          }
        }
      }
    }
  }
}

// Each body of the row kernel, driven directly: the scalar body on
// every CPU, the AVX-512F body where the probe finds it.
TEST(TransitionMatrix, RowWalkScalarMatchesTheOracles) {
  ExpectBodyMatchesOracles(RowWalkScalar);
}

TEST(TransitionMatrix, RowWalkAvx512MatchesTheOracles) {
  if (!RowWalkAvx512Supported()) GTEST_SKIP() << "no AVX-512F on this CPU";
  ExpectBodyMatchesOracles(RowWalkAvx512);
}

// The fused call, through whichever body the probe picked, against
// ScoreTransition(kRankOnly) then ObserveTransition on a copy: the rank,
// the evidence, the counts, ObservedCount() and the row caches, from a
// cold row and from one a full read left warm. The settings and the
// warm/cold start cycle over the pairs.
TEST(TransitionMatrix, ScoreAndObserveMatchesScoreThenObserve) {
  const TriangularKernel triangular;
  const ExponentialKernel chebyshev(2.0, CellMetric::kChebyshev);
  for (const DecayKernel* kernel :
       {static_cast<const DecayKernel*>(&triangular),
        static_cast<const DecayKernel*>(&chebyshev)}) {
    for (const WalkShape shape : kWalkShapes) {
      const Grid2D grid = UniformGrid(shape);
      const std::vector<TransitionMatrix> states = WalkStates(grid, *kernel);
      for (std::size_t st = 0; st < states.size(); ++st) {
        SCOPED_TRACE(kernel->Describe() + " " + std::to_string(shape.rows) +
                     "x" + std::to_string(shape.cols) +
                     (st == 0 ? " fresh" : " after a history"));
        const TransitionMatrix& m = states[st];
        const std::size_t s = m.CellCount();
        Rng rng(5);
        // Every pair on the small grids; on 24x27, 64 random ones.
        const std::size_t pairs = s <= 100 ? s * s : 64;
        for (std::size_t p = 0; p < pairs; ++p) {
          const std::size_t from =
              s <= 100 ? p / s
                       : static_cast<std::size_t>(rng.UniformInt(
                             0, static_cast<std::int64_t>(s) - 1));
          const std::size_t to =
              s <= 100 ? p % s
                       : static_cast<std::size_t>(rng.UniformInt(
                             0, static_cast<std::int64_t>(s) - 1));
          const auto [weight, forgetting] = kWalkSettings[p % 4];
          const bool warm = (p / 4) % 2 == 1;
          TransitionMatrix fused = m;
          TransitionMatrix twin = m;
          if (warm) {
            fused.ScoreTransition(from, 0);
            twin.ScoreTransition(from, 0);
          }
          const std::size_t rank =
              fused.ScoreAndObserve(from, to, weight, forgetting);
          ASSERT_EQ(rank,
                    twin.ScoreTransition(from, to, ScoreMode::kRankOnly).rank)
              << from << "->" << to << (warm ? " warm" : " cold");
          twin.ObserveTransition(from, to, grid, *kernel, weight, forgetting);
          ASSERT_TRUE(
              SameRowBits(fused.EvidenceRow(from), twin.EvidenceRow(from)))
              << from << "->" << to;
          ASSERT_TRUE(fused.RowWritten(from));
          ASSERT_TRUE(std::ranges::equal(fused.CountRow(from),
                                         twin.CountRow(from)))
              << from << "->" << to;
          ASSERT_EQ(fused.ObservedCount(), twin.ObservedCount());
          // The write invalidated the row's caches: a full read recomputes
          // the stats from the new evidence, as it does on the twin.
          const TransitionScore after = fused.ScoreTransition(from, to);
          const TransitionScore twin_after = twin.ScoreTransition(from, to);
          ASSERT_TRUE(BitEqual(after.probability, twin_after.probability))
              << from << "->" << to << (warm ? " warm" : " cold");
          ASSERT_EQ(after.rank, twin_after.rank);
        }
        // The whole matrix, once per state: every row, written flags and
        // counts alike, and the invariants (cache coherence included).
        TransitionMatrix fused = m;
        TransitionMatrix twin = m;
        for (std::size_t from = 0; from < s; from += 1 + s / 16) {
          const std::size_t to = (from * 7 + 3) % s;
          fused.ScoreAndObserve(from, to, 0.7, 0.95);
          twin.ScoreTransition(from, to, ScoreMode::kRankOnly);
          twin.ObserveTransition(from, to, grid, *kernel, 0.7, 0.95);
        }
        EXPECT_TRUE(difftest::SameBits(difftest::DenseEvidence(fused),
                                       difftest::DenseEvidence(twin)));
        EXPECT_EQ(difftest::DenseCounts(fused), difftest::DenseCounts(twin));
        for (std::size_t row = 0; row < s; ++row) {
          EXPECT_EQ(fused.RowWritten(row), twin.RowWritten(row)) << row;
        }
        EXPECT_NO_THROW(fused.CheckInvariants());
      }
    }
  }
}

TEST(TransitionMatrix, PriorAndStencilTrackGridExtension) {
  // After ExtendToInclude + ApplyExtension the stencil must match the
  // grown shape and every prior entry must equal direct kernel
  // evaluation bitwise — for both kernels and all three metrics.
  KernelConfig configs[4];
  configs[0].type = KernelConfig::Type::kTriangular;
  for (int i = 1; i < 4; ++i) {
    configs[i].type = KernelConfig::Type::kExponential;
    configs[i].w = 2.0;
  }
  configs[1].metric = CellMetric::kChebyshev;
  configs[2].metric = CellMetric::kManhattan;
  configs[3].metric = CellMetric::kEuclidean;

  for (const KernelConfig& config : configs) {
    const auto kernel = MakeKernel(config);
    // Degenerate 1 x 4 start: extensions may grow either dimension.
    Grid2D grid(IntervalList::Uniform(0.0, 1.0, 1),
                IntervalList::Uniform(0.0, 4.0, 4));
    TransitionMatrix matrix = TransitionMatrix::Prior(grid, *kernel);
    matrix.ObserveTransition(1, 2, grid, *kernel);

    const std::size_t old_cols = grid.Cols();
    const auto ext = grid.ExtendToInclude({-0.8, 4.3}, 2.0, 2.0);
    ASSERT_TRUE(ext.has_value());
    ASSERT_FALSE(ext->Empty());
    matrix.ApplyExtension(*ext, old_cols, grid, *kernel);

    ASSERT_TRUE(matrix.Stencil().Matches(grid.Rows(), grid.Cols()));
    ASSERT_EQ(matrix.CellCount(), grid.CellCount());
    for (std::size_t i = 0; i < matrix.CellCount(); ++i) {
      const CellCoord ci = grid.CoordOf(i);
      for (std::size_t j = 0; j < matrix.CellCount(); ++j) {
        const CellCoord cj = grid.CoordOf(j);
        EXPECT_TRUE(BitEqual(matrix.PriorLogW(i, j),
                             kernel->LogWeight(std::abs(ci.i1 - cj.i1),
                                               std::abs(ci.i2 - cj.i2))))
            << kernel->Describe() << " (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(TransitionMatrix, ExtensionBackfillWithForgetting) {
  // The backfill reconstructs a new column's evidence from the row's
  // empirical counts: likelihood_weight * sum(count_d * logw(d, new)),
  // summed in ascending destination order. Pin it bitwise for a
  // forgetting < 1 history (the reconstruction is approximate w.r.t.
  // what Eq. (2) would have accumulated, but exactly defined).
  Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  const double weight = 0.7, forgetting = 0.9;
  matrix.ObserveTransition(4, 1, grid, kernel, weight, forgetting);
  matrix.ObserveTransition(4, 1, grid, kernel, weight, forgetting);
  matrix.ObserveTransition(4, 4, grid, kernel, weight, forgetting);
  matrix.ObserveTransition(2, 0, grid, kernel, weight, forgetting);

  // Old-grid counts per row, before the extension remaps them.
  const std::vector<std::uint32_t> old_counts = difftest::DenseCounts(matrix);
  const std::size_t old_cells = matrix.CellCount();

  const std::size_t old_cols = grid.Cols();
  const auto ext = grid.ExtendToInclude({3.4, 1.5}, 3.0, 3.0);
  ASSERT_TRUE(ext.has_value());
  ASSERT_FALSE(ext->Empty());
  matrix.ApplyExtension(*ext, old_cols, grid, kernel, weight);

  std::vector<bool> is_old(grid.CellCount(), false);
  for (std::size_t i = 0; i < old_cells; ++i) {
    is_old[Grid2D::RemapIndex(i, old_cols, *ext)] = true;
  }
  const std::size_t s = matrix.CellCount();
  for (std::size_t i = 0; i < old_cells; ++i) {
    const std::size_t ni = Grid2D::RemapIndex(i, old_cols, *ext);
    for (std::size_t nj = 0; nj < s; ++nj) {
      if (is_old[nj]) continue;
      // Reference sum in the pinned order: ascending old destination.
      double evidence = 0.0;
      bool any = false;
      for (std::size_t j = 0; j < old_cells; ++j) {
        const std::uint32_t c = old_counts[i * old_cells + j];
        if (c == 0) continue;
        any = true;
        const CellCoord cd =
            grid.CoordOf(Grid2D::RemapIndex(j, old_cols, *ext));
        const CellCoord cn = grid.CoordOf(nj);
        evidence += static_cast<double>(c) *
                    kernel.LogWeight(std::abs(cd.i1 - cn.i1),
                                     std::abs(cd.i2 - cn.i2));
      }
      const double expected = any ? weight * evidence : 0.0;
      EXPECT_TRUE(BitEqual(matrix.EvidenceRow(ni)[nj], expected))
          << "row " << ni << " new col " << nj;
      // And the backfilled column must not outrank real history.
      if (any) {
        EXPECT_GT(matrix.RankOf(ni, nj), 1u);
      }
    }
  }
}

TEST(TransitionMatrix, RowsTakeArenaSlotsOnFirstWriteOnly) {
  Grid2D grid = Grid3x3();
  const TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);
  const MatrixBytes prior = matrix.Bytes();
  // Unwritten rows read the shared zero row: +0.0 bits, no counts.
  for (std::size_t row = 0; row < 9; ++row) {
    EXPECT_FALSE(matrix.RowWritten(row));
    for (const double e : matrix.EvidenceRow(row)) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(e), 0u);
    }
    EXPECT_TRUE(matrix.CountRow(row).empty());
  }

  matrix.ObserveTransition(4, 7, grid, kernel);
  matrix.ObserveTransition(4, 1, grid, kernel);
  matrix.ObserveTransition(4, 7, grid, kernel);
  matrix.ObserveTransition(2, 2, grid, kernel);
  for (std::size_t row = 0; row < 9; ++row) {
    EXPECT_EQ(matrix.RowWritten(row), row == 4 || row == 2) << row;
  }
  EXPECT_GT(matrix.Bytes().evidence, prior.evidence);
  // Counts list the nonzero columns in ascending order.
  const auto counts = matrix.CountRow(4);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], (CountEntry{1, 1}));
  EXPECT_EQ(counts[1], (CountEntry{7, 2}));
  EXPECT_EQ(matrix.CountOf(4, 7), 2u);
  EXPECT_EQ(matrix.CountOf(4, 8), 0u);
  EXPECT_EQ(matrix.ObservedCount(), 4u);

  // An extension moves the written rows and leaves the others unwritten.
  const std::size_t old_cols = grid.Cols();
  const auto ext = grid.ExtendToInclude({3.4, 1.5}, 3.0, 3.0);
  ASSERT_TRUE(ext.has_value());
  matrix.ApplyExtension(*ext, old_cols, grid, kernel);
  std::size_t written = 0;
  for (std::size_t row = 0; row < matrix.CellCount(); ++row) {
    written += matrix.RowWritten(row) ? 1 : 0;
  }
  EXPECT_EQ(written, 2u);
  EXPECT_TRUE(matrix.RowWritten(Grid2D::RemapIndex(4, old_cols, *ext)));
  EXPECT_EQ(matrix.CountOf(Grid2D::RemapIndex(4, old_cols, *ext),
                           Grid2D::RemapIndex(7, old_cols, *ext)),
            2u);
  EXPECT_NO_THROW(matrix.CheckInvariants());
}

}  // namespace
}  // namespace pmcorr
