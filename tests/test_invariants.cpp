// Proves the invariant-audit layer works in both directions: every
// CheckInvariants() accepts freshly built healthy state, and every audit
// clause fires on deliberately corrupted state. Corruption goes through
// InvariantTestPeer — the one friend the audited classes grant — so the
// tests can break exactly the field a clause guards without weakening
// the public API.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/model.h"
#include "core/transition_matrix.h"
#include "engine/measurement_graph.h"
#include "engine/monitor.h"
#include "grid/grid.h"
#include "grid/interval.h"
#include "grid/kernels.h"
#include "timeseries/frame.h"

namespace pmcorr {

// Test-only backdoor into the audited classes' private state.
struct InvariantTestPeer {
  static std::vector<Interval>& Intervals(IntervalList& list) {
    return list.intervals_;
  }
  static double& RAvg1(Grid2D& grid) { return grid.r_avg1_; }
  static double& RAvg2(Grid2D& grid) { return grid.r_avg2_; }
  static std::vector<double>& StencilTable(KernelStencil& stencil) {
    return stencil.table_;
  }
  static KernelStencil& Stencil(TransitionMatrix& m) { return m.stencil_; }
  static std::vector<double>& Evidence(TransitionMatrix& m) {
    return m.evidence_;
  }
  static std::vector<std::uint32_t>& Counts(TransitionMatrix& m) {
    return m.counts_;
  }
  static std::uint64_t& Observed(TransitionMatrix& m) { return m.observed_; }
  static auto& Cache(TransitionMatrix& m) { return m.cache_; }
  static ModelConfig& Config(PairModel& model) { return model.config_; }
  static std::optional<std::size_t>& PrevCell(PairModel& model) {
    return model.prev_cell_;
  }
  static TransitionMatrix& Matrix(PairModel& model) { return model.matrix_; }
  static std::vector<PairModel>& Models(SystemMonitor& monitor) {
    return monitor.models_;
  }
  static std::size_t& Steps(SystemMonitor& monitor) { return monitor.steps_; }
  static ScoreAverager& SystemAvg(SystemMonitor& monitor) {
    return monitor.system_avg_;
  }
};

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::size_t PickIndex(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
}

// ---------------------------------------------------------------------
// The contract macros themselves.

TEST(CheckMacros, AssertPassesWithoutSideEffects) {
  ScopedCheckThrow guard;
  EXPECT_NO_THROW(PMCORR_ASSERT(1 + 1 == 2));
  EXPECT_NO_THROW(PMCORR_ASSERT(true, "never " << "built"));
}

TEST(CheckMacros, AssertFailureCarriesExpressionAndMessage) {
  ScopedCheckThrow guard;
  const int index = 7;
  try {
    PMCORR_ASSERT(index < 5, "index=" << index << " size=" << 5);
    FAIL() << "PMCORR_ASSERT did not fire";
  } catch (const CheckFailure& failure) {
    const std::string what = failure.what();
    EXPECT_NE(what.find("index < 5"), std::string::npos) << what;
    EXPECT_NE(what.find("index=7 size=5"), std::string::npos) << what;
    EXPECT_NE(what.find("test_invariants.cpp"), std::string::npos) << what;
  }
}

TEST(CheckMacros, HandlerRestoredAfterScope) {
  const CheckFailureHandler before = SetCheckFailureHandler(nullptr);
  SetCheckFailureHandler(before);
  {
    ScopedCheckThrow guard;
    EXPECT_EQ(SetCheckFailureHandler(&ThrowingCheckFailureHandler),
              &ThrowingCheckFailureHandler);
  }
  const CheckFailureHandler after = SetCheckFailureHandler(nullptr);
  SetCheckFailureHandler(after);
  EXPECT_EQ(before, after);
}

#if PMCORR_DASSERT_ENABLED
TEST(CheckMacros, DassertFiresWhenEnabled) {
  ScopedCheckThrow guard;
  EXPECT_THROW(PMCORR_DASSERT(false, "debug contract"), CheckFailure);
}
#else
TEST(CheckMacros, DassertCompiledOutInRelease) {
  bool evaluated = false;
  PMCORR_DASSERT((evaluated = true));
  EXPECT_FALSE(evaluated);
}
#endif

// ---------------------------------------------------------------------
// IntervalList.

IntervalList MakeList() { return IntervalList::Uniform(0.0, 10.0, 5); }

TEST(IntervalInvariants, HealthyListPasses) {
  ScopedCheckThrow guard;
  EXPECT_NO_THROW(MakeList().CheckInvariants());
  EXPECT_NO_THROW(IntervalList().CheckInvariants());  // empty is valid
}

TEST(IntervalInvariants, FiresOnCoverageGap) {
  ScopedCheckThrow guard;
  IntervalList list = MakeList();
  InvariantTestPeer::Intervals(list)[2].hi += 0.25;  // gap before [3]
  EXPECT_THROW(list.CheckInvariants(), CheckFailure);
}

TEST(IntervalInvariants, FiresOnNonFiniteEdge) {
  ScopedCheckThrow guard;
  IntervalList list = MakeList();
  InvariantTestPeer::Intervals(list)[0].lo = kNaN;
  EXPECT_THROW(list.CheckInvariants(), CheckFailure);
}

TEST(IntervalInvariants, FiresOnNonPositiveWidth) {
  ScopedCheckThrow guard;
  IntervalList list = MakeList();
  Interval& last = InvariantTestPeer::Intervals(list).back();
  last.hi = last.lo;
  EXPECT_THROW(list.CheckInvariants(), CheckFailure);
}

// ---------------------------------------------------------------------
// Grid2D.

Grid2D MakeGrid() {
  return Grid2D(IntervalList::Uniform(0.0, 8.0, 4),
                IntervalList::Uniform(-2.0, 2.0, 4));
}

TEST(GridInvariants, HealthyGridPasses) {
  ScopedCheckThrow guard;
  EXPECT_NO_THROW(MakeGrid().CheckInvariants());
}

TEST(GridInvariants, FiresOnCorruptAverageWidth) {
  ScopedCheckThrow guard;
  Grid2D grid = MakeGrid();
  InvariantTestPeer::RAvg1(grid) = -1.0;
  EXPECT_THROW(grid.CheckInvariants(), CheckFailure);
  InvariantTestPeer::RAvg1(grid) = 2.0;
  InvariantTestPeer::RAvg2(grid) = kNaN;
  EXPECT_THROW(grid.CheckInvariants(), CheckFailure);
}

TEST(GridInvariants, FiresOnDimensionCorruptedUnderneath) {
  ScopedCheckThrow guard;
  Grid2D grid = MakeGrid();
  // Reach through to a dimension list: Grid's audit must recurse.
  IntervalList& dim = const_cast<IntervalList&>(grid.Dim1());
  InvariantTestPeer::Intervals(dim)[1].lo = kNaN;
  EXPECT_THROW(grid.CheckInvariants(), CheckFailure);
}

// ---------------------------------------------------------------------
// KernelStencil.

TEST(StencilInvariants, HealthyStencilsPass) {
  ScopedCheckThrow guard;
  const TriangularKernel triangular;
  const ExponentialKernel exponential(2.5, CellMetric::kChebyshev);
  KernelStencil a(4, 6, triangular);
  KernelStencil b(3, 3, exponential);
  EXPECT_NO_THROW(a.CheckInvariants(&triangular));
  EXPECT_NO_THROW(b.CheckInvariants(&exponential));
  EXPECT_NO_THROW(KernelStencil().CheckInvariants());
}

TEST(StencilInvariants, FiresOnPositiveLogWeight) {
  ScopedCheckThrow guard;
  const TriangularKernel kernel;
  KernelStencil stencil(4, 4, kernel);
  InvariantTestPeer::StencilTable(stencil)[1] = 0.5;
  EXPECT_THROW(stencil.CheckInvariants(), CheckFailure);
}

TEST(StencilInvariants, FiresOnBrokenCentralSymmetry) {
  ScopedCheckThrow guard;
  const TriangularKernel kernel;
  KernelStencil stencil(4, 4, kernel);
  // Perturb one off-center entry: still finite/negative/decaying-safe
  // at the edge, but its mirror no longer matches bitwise.
  std::vector<double>& table = InvariantTestPeer::StencilTable(stencil);
  table.back() = std::nextafter(table.back(), -1e300);
  EXPECT_THROW(stencil.CheckInvariants(), CheckFailure);
}

TEST(StencilInvariants, FiresOnNonZeroCenter) {
  ScopedCheckThrow guard;
  const TriangularKernel kernel;
  KernelStencil stencil(3, 3, kernel);
  // Center of the (2r-1) x (2c-1) table.
  InvariantTestPeer::StencilTable(stencil)[2 * 5 + 2] = -0.125;
  EXPECT_THROW(stencil.CheckInvariants(), CheckFailure);
}

TEST(StencilInvariants, FiresOnKernelDisagreement) {
  ScopedCheckThrow guard;
  const TriangularKernel triangular;
  const ExponentialKernel exponential(3.0, CellMetric::kManhattan);
  KernelStencil stencil(4, 4, triangular);
  EXPECT_NO_THROW(stencil.CheckInvariants(&triangular));
  EXPECT_THROW(stencil.CheckInvariants(&exponential), CheckFailure);
}

// ---------------------------------------------------------------------
// TransitionMatrix.

struct MatrixFixture {
  Grid2D grid = MakeGrid();
  TriangularKernel kernel;
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);

  MatrixFixture() {
    Rng rng(11);
    std::size_t from = 0;
    for (int i = 0; i < 200; ++i) {
      const std::size_t to = PickIndex(rng, grid.CellCount());
      matrix.ObserveTransition(from, to, grid, kernel, 1.0, 0.99);
      from = to;
    }
  }
};

TEST(MatrixInvariants, HealthyMatrixPasses) {
  ScopedCheckThrow guard;
  MatrixFixture f;
  EXPECT_NO_THROW(f.matrix.CheckInvariants());
  EXPECT_NO_THROW(TransitionMatrix().CheckInvariants());
}

TEST(MatrixInvariants, FiresOnPositiveEvidence) {
  ScopedCheckThrow guard;
  MatrixFixture f;
  InvariantTestPeer::Evidence(f.matrix)[3] = 0.5;
  EXPECT_THROW(f.matrix.CheckInvariants(), CheckFailure);
}

TEST(MatrixInvariants, FiresOnPriorDriftingFromStencil) {
  ScopedCheckThrow guard;
  MatrixFixture f;
  // The matrix's own stencil is the only storage of its prior.
  std::vector<double>& table =
      InvariantTestPeer::StencilTable(InvariantTestPeer::Stencil(f.matrix));
  table[1] = std::nextafter(table[1], -1.0);
  EXPECT_THROW(f.matrix.CheckInvariants(), CheckFailure);
}

TEST(MatrixInvariants, FiresOnCountObservedMismatch) {
  ScopedCheckThrow guard;
  MatrixFixture f;
  ++InvariantTestPeer::Counts(f.matrix)[0];
  EXPECT_THROW(f.matrix.CheckInvariants(), CheckFailure);
}

TEST(MatrixInvariants, FiresOnStaleStatsCache) {
  ScopedCheckThrow guard;
  MatrixFixture f;
  // Fill row 0's (max, sum-exp) cache, then corrupt the cached max the
  // way a missed invalidation would.
  (void)f.matrix.ScoreTransition(0, 1);
  auto& cache = InvariantTestPeer::Cache(f.matrix);
  ASSERT_TRUE(cache[0].stats_valid);
  cache[0].max_logw = std::nextafter(cache[0].max_logw, 1.0);
  EXPECT_THROW(f.matrix.CheckInvariants(), CheckFailure);
}

TEST(MatrixInvariants, RankOnlyReadsBuildTheRankIndexWithoutStats) {
  ScopedCheckThrow guard;
  MatrixFixture f;
  auto& cache = InvariantTestPeer::Cache(f.matrix);
  // Two rank-only reads of an unwritten row build the sorted index, so
  // rescored rows take the O(log s) path, without the normalizer.
  EXPECT_EQ(f.matrix.ScoreTransition(0, 1, ScoreMode::kRankOnly).probability,
            0.0);
  EXPECT_FALSE(cache[0].sorted_valid);
  (void)f.matrix.ScoreTransition(0, 2, ScoreMode::kRankOnly);
  EXPECT_TRUE(cache[0].sorted_valid);
  EXPECT_FALSE(cache[0].stats_valid);
  EXPECT_NO_THROW(f.matrix.CheckInvariants());
  // A full read then fills the normalizer, with the uncached bits.
  const TransitionScore full = f.matrix.ScoreTransition(0, 2);
  EXPECT_TRUE(cache[0].stats_valid);
  EXPECT_EQ(full.probability, f.matrix.Probability(0, 2));
  EXPECT_EQ(full.rank, f.matrix.RankOf(0, 2));
  EXPECT_NO_THROW(f.matrix.CheckInvariants());
}

TEST(MatrixInvariants, FiresOnCorruptSortedRankIndex) {
  ScopedCheckThrow guard;
  MatrixFixture f;
  // Two scores of an unchanged row build the lazy sorted index.
  (void)f.matrix.ScoreTransition(0, 1);
  (void)f.matrix.ScoreTransition(0, 2);
  auto& cache = InvariantTestPeer::Cache(f.matrix);
  ASSERT_TRUE(cache[0].sorted_valid);
  // Duplicate the top entry: keys may still match, but the index is no
  // longer a permutation of [0, s).
  cache[0].sorted[1] = cache[0].sorted[0];
  EXPECT_THROW(f.matrix.CheckInvariants(), CheckFailure);
}

// ---------------------------------------------------------------------
// PairModel.

PairModel TrainedModel() {
  Rng rng(5);
  std::vector<double> xs(600), ys(600);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double load =
        50.0 + 30.0 * std::sin(static_cast<double>(i) * 0.05) +
        rng.Normal(0.0, 1.5);
    xs[i] = load;
    ys[i] = 100.0 * load / (load + 40.0) + rng.Normal(0.0, 0.5);
  }
  ModelConfig config;
  config.partition.units = 30;
  config.partition.max_intervals = 8;
  config.forgetting = 0.995;
  return PairModel::Learn(xs, ys, config);
}

TEST(ModelInvariants, HealthyModelPasses) {
  ScopedCheckThrow guard;
  EXPECT_NO_THROW(TrainedModel().CheckInvariants());
}

TEST(ModelInvariants, FiresOnConfigCorruption) {
  ScopedCheckThrow guard;
  PairModel model = TrainedModel();
  InvariantTestPeer::Config(model).forgetting = 0.0;
  EXPECT_THROW(model.CheckInvariants(), CheckFailure);
}

TEST(ModelInvariants, FiresOnPrevCellOutOfRange) {
  ScopedCheckThrow guard;
  PairModel model = TrainedModel();
  InvariantTestPeer::PrevCell(model) = model.Grid().CellCount();
  EXPECT_THROW(model.CheckInvariants(), CheckFailure);
}

TEST(ModelInvariants, FiresOnMatrixCorruptedUnderneath) {
  ScopedCheckThrow guard;
  PairModel model = TrainedModel();
  InvariantTestPeer::Observed(InvariantTestPeer::Matrix(model)) += 1;
  EXPECT_THROW(model.CheckInvariants(), CheckFailure);
}

// ---------------------------------------------------------------------
// SystemMonitor.

struct MonitorFixture {
  MeasurementFrame history{0, 60};
  std::unique_ptr<SystemMonitor> monitor;

  MonitorFixture() {
    Rng rng(17);
    const std::size_t samples = 400;
    std::vector<std::vector<double>> columns(3,
                                             std::vector<double>(samples));
    for (std::size_t t = 0; t < samples; ++t) {
      const double load =
          50.0 + 25.0 * std::sin(static_cast<double>(t) * 0.06);
      columns[0][t] = load + rng.Normal(0.0, 1.0);
      columns[1][t] = 100.0 * load / (load + 40.0) + rng.Normal(0.0, 0.5);
      columns[2][t] = 0.5 * load + rng.Normal(0.0, 1.0);
    }
    for (std::size_t m = 0; m < columns.size(); ++m) {
      MeasurementInfo info;
      info.machine = MachineId(1);
      info.kind = MetricKind::kCpuUtilization;
      info.name = "m" + std::to_string(m) + "@host";
      history.Add(info, TimeSeries(0, 60, std::move(columns[m])));
    }
    MonitorConfig config;
    config.threads = 1;
    config.model.partition.units = 30;
    config.model.partition.max_intervals = 8;
    monitor = std::make_unique<SystemMonitor>(
        history, MeasurementGraph::FullMesh(history.MeasurementCount()),
        config);
  }
};

TEST(MonitorInvariants, HealthyMonitorPasses) {
  ScopedCheckThrow guard;
  MonitorFixture f;
  EXPECT_NO_THROW(f.monitor->CheckInvariants());
}

TEST(MonitorInvariants, FiresOnModelCountMismatch) {
  ScopedCheckThrow guard;
  MonitorFixture f;
  InvariantTestPeer::Models(*f.monitor).pop_back();
  EXPECT_THROW(f.monitor->CheckInvariants(), CheckFailure);
}

TEST(MonitorInvariants, FiresOnAggregateAheadOfSteps) {
  ScopedCheckThrow guard;
  MonitorFixture f;
  InvariantTestPeer::SystemAvg(*f.monitor).Add(0.5);
  ASSERT_EQ(InvariantTestPeer::Steps(*f.monitor), 0u);
  EXPECT_THROW(f.monitor->CheckInvariants(), CheckFailure);
}

TEST(MonitorInvariants, ShallowSkipsModelSweep) {
  ScopedCheckThrow guard;
  MonitorFixture f;
  PairModel& model = InvariantTestPeer::Models(*f.monitor)[0];
  InvariantTestPeer::Config(model).forgetting = -1.0;
  EXPECT_NO_THROW(f.monitor->CheckInvariants(/*deep=*/false));
  EXPECT_THROW(f.monitor->CheckInvariants(/*deep=*/true), CheckFailure);
}

// ---------------------------------------------------------------------
// Property test: the PR-2/PR-3 row caches stay coherent — and keep
// producing the exact bits of an uncached scan — under randomized
// interleavings of row writes, fused scoring reads, rank queries, and
// grid extensions.

// The probability/rank a cache-free implementation computes, scanning
// in the matrix's canonical row order.
TransitionScore NaiveScore(const TransitionMatrix& m, std::size_t from,
                           std::size_t to) {
  const std::size_t s = m.CellCount();
  const auto posterior = [&](std::size_t j) {
    return m.PriorLogW(from, j) + m.Evidence()[from * s + j];
  };
  double max_logw = -std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < s; ++j) {
    max_logw = std::max(max_logw, posterior(j));
  }
  double sum_exp = 0.0;
  for (std::size_t j = 0; j < s; ++j) {
    sum_exp += std::exp(posterior(j) - max_logw);
  }
  const double target = posterior(to);
  std::size_t rank = 1;
  for (std::size_t j = 0; j < s; ++j) {
    const double w = posterior(j);
    if (w > target || (w == target && j < to)) ++rank;
  }
  return {std::exp(target - max_logw) / sum_exp, rank};
}

// Grid shapes of the sweep. Extensions grow the dimension named here,
// so the degenerate 1 x c and r x 1 shapes stay degenerate.
struct SweepShape {
  std::size_t rows;
  std::size_t cols;
  bool extend_rows;
};

TEST(MatrixInvariants, CacheCoherentUnderRandomInterleavings) {
  ScopedCheckThrow guard;
  for (const SweepShape shape :
       {SweepShape{3, 3, true}, SweepShape{1, 5, false},
        SweepShape{5, 1, true}}) {
    for (const std::uint64_t seed : {101u, 202u, 303u, 404u}) {
      SCOPED_TRACE(::testing::Message() << "grid " << shape.rows << "x"
                                        << shape.cols << " seed " << seed);
      Rng rng(seed);
      const auto rows = static_cast<double>(shape.rows);
      const auto cols = static_cast<double>(shape.cols);
      Grid2D grid(IntervalList::Uniform(0.0, 2.0 * rows, shape.rows),
                  IntervalList::Uniform(0.0, 2.0 * cols, shape.cols));
      const TriangularKernel kernel;
      TransitionMatrix matrix = TransitionMatrix::Prior(grid, kernel);

      // Each extension grows one interval past the top of its dimension.
      double next = 2.0 * (shape.extend_rows ? rows : cols);
      for (int op = 0; op < 400; ++op) {
        const std::size_t s = matrix.CellCount();
        const std::size_t from = PickIndex(rng, s);
        const std::size_t to = PickIndex(rng, s);
        switch (rng.UniformInt(0, 9)) {
          case 0:
          case 1:
          case 2:  // row write
            matrix.ObserveTransition(from, to, grid, kernel, 1.0, 0.97);
            break;
          case 3: {  // grid extension remaps evidence and rebuilds caches
            if (s >= 144) break;  // keep the quadratic audits cheap
            const std::size_t old_cols = grid.Cols();
            const Point2 p = shape.extend_rows ? Point2{next, 1.0}
                                               : Point2{1.0, next};
            const auto ext = grid.ExtendToInclude(p, 100.0, 100.0);
            ASSERT_TRUE(ext.has_value());
            matrix.ApplyExtension(*ext, old_cols, grid, kernel);
            next += 2.0;
            break;
          }
          case 4: {  // rank query (builds the lazy sorted index)
            (void)matrix.ScoreTransition(from, to);
            const std::size_t rank = matrix.RankOf(from, to);
            EXPECT_EQ(rank, NaiveScore(matrix, from, to).rank);
            break;
          }
          case 5:
          case 6: {  // rank-only read, then a full read of the same row
            const TransitionScore want = NaiveScore(matrix, from, to);
            const TransitionScore got =
                matrix.ScoreTransition(from, to, ScoreMode::kRankOnly);
            EXPECT_EQ(got.rank, want.rank) << "op " << op;
            EXPECT_EQ(got.probability, 0.0) << "op " << op;
            const std::size_t other = PickIndex(rng, s);
            const TransitionScore full = matrix.ScoreTransition(from, other);
            const TransitionScore full_want = NaiveScore(matrix, from, other);
            EXPECT_EQ(full.probability, full_want.probability) << "op " << op;
            EXPECT_EQ(full.rank, full_want.rank) << "op " << op;
            break;
          }
          default: {  // fused scoring read
            const TransitionScore got = matrix.ScoreTransition(from, to);
            const TransitionScore want = NaiveScore(matrix, from, to);
            // Bitwise: the cache contract promises the same doubles, not
            // merely close ones.
            EXPECT_EQ(got.probability, want.probability) << "op " << op;
            EXPECT_EQ(got.rank, want.rank) << "op " << op;
            break;
          }
        }
        if (op % 40 == 0) {
          ASSERT_NO_THROW(matrix.CheckInvariants()) << "op " << op;
        }
      }
      EXPECT_NO_THROW(matrix.CheckInvariants());
    }
  }
}

}  // namespace
}  // namespace pmcorr
