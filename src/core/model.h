// PairModel — the paper's correlation model M = (G, V) for one pair of
// measurements, with the full online loop of Figure 6: observe, score,
// alarm, and (when adaptive) update the grid and matrix.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "core/config.h"
#include "core/transition_matrix.h"
#include "grid/grid.h"
#include "grid/kernels.h"

namespace pmcorr {

/// Everything the model reports about one online observation x_{t+1}.
struct StepOutcome {
  /// True when a fitness score applies to this observation. The first
  /// sample of a stream, and any sample following an out-of-grid outlier,
  /// have no incoming transition to score.
  bool has_score = false;

  /// Q^{a,b}_{t+1} in [0, 1]; 0 for outliers.
  double fitness = 0.0;

  /// P(x_t -> x_{t+1}) from the current posterior. Filled only when
  /// asked (Step's ScoreMode::kFull, the default) or when delta > 0
  /// needs it for the alarm; 0 otherwise, and 0 for outliers.
  double probability = 0.0;

  /// 1-based rank of the observed destination cell (0 when not scored).
  std::size_t rank = 0;

  /// The observation fell outside the grid farther than the lambda *
  /// r_avg extension margin.
  bool outlier = false;

  /// The observation was missing (NaN/Inf in either coordinate, e.g. a
  /// collector gap). Missing samples are never scored, never alarmed and
  /// never update the model; they break the transition sequence like a
  /// time gap would.
  bool missing = false;

  /// The grid boundary was grown to admit this observation.
  bool extended_grid = false;

  /// An alarm fired (probability below delta, fitness below the fitness
  /// threshold, or outlier while any alarm threshold is configured).
  bool alarm = false;

  /// Cell containing the observation (after any extension); nullopt for
  /// outliers.
  std::optional<std::size_t> cell;
};

/// Lifetime counters for reports and tests.
struct PairModelStats {
  std::uint64_t steps = 0;
  std::uint64_t scored = 0;
  std::uint64_t alarms = 0;
  std::uint64_t outliers = 0;
  std::uint64_t extensions = 0;
  std::uint64_t matrix_updates = 0;
};

/// The pair-wise transition probability model. Copyable (the kernel is
/// shared, everything else is a value) so engines can store models in
/// plain containers.
class PairModel {
 public:
  PairModel() = default;

  /// Initializes M = (G, V) from history data: builds the adaptive grid
  /// from the two value vectors (equal, non-zero length), sets the
  /// kernel-shaped prior and replays the history transitions through the
  /// Bayesian update. This is the "Learn" box of Figure 6.
  ///
  /// Compile-then-replay pipeline (see docs/model.md "Learn pipeline"):
  /// one pass maps the history to a cell-index transition sequence
  /// (hinted interval lookups exploit the paper's transition locality),
  /// then TransitionMatrix::ReplayTransitions replays the sequence
  /// bucketed by source row — bitwise identical to LearnSequential, and
  /// parallelizable within the pair via `runner` (empty = serial).
  static PairModel Learn(std::span<const double> x, std::span<const double> y,
                         const ModelConfig& config,
                         const ParallelRunner& runner = {});

  /// The pre-pipeline reference implementation: walks the history and
  /// feeds ObserveTransition one sample at a time. Kept as the oracle
  /// for the Learn differential tests and the model-building benchmark
  /// A/B; produces bit-identical models to Learn.
  static PairModel LearnSequential(std::span<const double> x,
                                   std::span<const double> y,
                                   const ModelConfig& config);

  /// Processes one online observation (the "Data -> model" loop of
  /// Figure 6): locates the cell (growing the boundary when the point is
  /// just outside and the model is adaptive), scores the transition,
  /// raises alarms, and — when adaptive and not alarmed — updates V.
  /// ScoreMode::kRankOnly skips the row normalizer unless delta > 0
  /// needs the probability; every other field of the outcome, and the
  /// model state, are the same bits as under kFull.
  StepOutcome Step(double x, double y, ScoreMode mode = ScoreMode::kFull);

  /// Forgets the previous observation so the next Step starts a fresh
  /// transition sequence (use when jumping across a time gap).
  void ResetSequence() { prev_cell_.reset(); }

  /// Arms (or disarms, with zeros) the alarm bounds — used by per-pair
  /// threshold calibration (core/calibration.h).
  void SetAlarmThresholds(double fitness_threshold, double delta) {
    config_.fitness_alarm_threshold = fitness_threshold;
    config_.delta = delta;
  }

  const Grid2D& Grid() const { return grid_; }
  const TransitionMatrix& Matrix() const { return matrix_; }
  const ModelConfig& Config() const { return config_; }
  const DecayKernel& Kernel() const { return *kernel_; }
  const PairModelStats& Stats() const { return stats_; }

  /// Cell of the previous in-grid observation, if any.
  std::optional<std::size_t> PreviousCell() const { return prev_cell_; }

  /// Rebuilds internals from serialized parts (used by io/model_io).
  static PairModel FromParts(ModelConfig config, Grid2D grid,
                             TransitionMatrix matrix);

  /// Audits the whole model M = (G, V): grid and matrix invariants,
  /// grid/matrix shape agreement, the stencil matching this model's
  /// kernel bitwise, a sane configuration (forgetting in (0, 1],
  /// positive likelihood weight, non-negative thresholds and margins),
  /// and prev_cell_ inside the grid. A default-constructed model is
  /// valid. Called automatically post-Learn, post-Step and
  /// post-deserialize in audit builds (-DPMCORR_AUDIT=ON) and directly
  /// by tests in any build.
  void CheckInvariants() const;

 private:
  friend struct InvariantTestPeer;
  /// Shared front half of Learn/LearnSequential: history validation, gap
  /// filtering, grid + kernel + prior construction. Sets `gap_free` when
  /// both inputs were entirely finite — Learn's compile loop then takes
  /// a branch-light path (every adjacent sample pair is a transition,
  /// and no sample can fall outside a grid spanning the history's own
  /// min/max plus padding).
  static PairModel InitFromHistory(std::span<const double> x,
                                   std::span<const double> y,
                                   const ModelConfig& config, bool& gap_free);

  ModelConfig config_;
  std::shared_ptr<const DecayKernel> kernel_;
  Grid2D grid_;
  TransitionMatrix matrix_;
  std::optional<std::size_t> prev_cell_;
  PairModelStats stats_;
};

}  // namespace pmcorr
