#include "core/model.h"

#include <cmath>
#include <stdexcept>

#include "common/check.h"
#include "core/fitness.h"
#include "grid/partitioner.h"

namespace pmcorr {

// Shared front half of Learn/LearnSequential: validates the history,
// drops non-finite samples (collector gaps — NaNs must never reach the
// interval search) and builds M's grid, kernel and prior.
PairModel PairModel::InitFromHistory(std::span<const double> x,
                                     std::span<const double> y,
                                     const ModelConfig& config,
                                     bool& gap_free) {
  if (x.size() != y.size() || x.empty()) {
    throw std::invalid_argument(
        "PairModel::Learn: history vectors must be non-empty and equal size");
  }
  // Gap-free histories (the common case) partition straight from the
  // input spans, reusing the fused scan's extrema so neither history is
  // walked twice; only histories with non-finite samples pay for the
  // filtered copies (and their rescans).
  std::span<const double> fx = x;
  std::span<const double> fy = y;
  std::vector<double> fx_store, fy_store;
  const ValueScan scan_x = ScanValues(x);
  const ValueScan scan_y = ScanValues(y);
  gap_free = scan_x.all_finite && scan_y.all_finite;
  if (!gap_free) {
    fx_store.reserve(x.size());
    fy_store.reserve(y.size());
    for (std::size_t t = 0; t < x.size(); ++t) {
      if (std::isfinite(x[t]) && std::isfinite(y[t])) {
        fx_store.push_back(x[t]);
        fy_store.push_back(y[t]);
      }
    }
    if (fx_store.empty()) {
      throw std::invalid_argument(
          "PairModel::Learn: history contains no finite samples");
    }
    fx = fx_store;
    fy = fy_store;
  }
  PairModel model;
  model.config_ = config;
  model.kernel_ = MakeKernel(config.kernel);
  model.grid_ =
      gap_free
          ? Grid2D(PartitionDimension(fx, config.partition, scan_x.min,
                                      scan_x.max),
                   PartitionDimension(fy, config.partition, scan_y.min,
                                      scan_y.max))
          : Grid2D(PartitionDimension(fx, config.partition),
                   PartitionDimension(fy, config.partition));
  model.matrix_ = TransitionMatrix::Prior(model.grid_, *model.kernel_);
  return model;
}

PairModel PairModel::Learn(std::span<const double> x,
                           std::span<const double> y,
                           const ModelConfig& config) {
  bool gap_free = false;
  PairModel model = InitFromHistory(x, y, config, gap_free);
  // Phase 1 — compile. Map the history to a cell-index transition
  // sequence in one pass. Lookups are hinted with the previous sample's
  // interval indices: the paper's locality study (412 of 701 observed
  // transitions stay in-cell, 280 hit the nearest neighbor) makes the
  // hint resolve most samples without a binary search. The walk follows
  // the *original* sequence so a gap breaks the transition chain instead
  // of stitching its neighbors together, exactly like LearnSequential.
  const IntervalList& dim1 = model.grid_.Dim1();
  const IntervalList& dim2 = model.grid_.Dim2();
  const std::size_t cols = model.grid_.Cols();
  std::vector<Transition> transitions;
  if (gap_free) {
    // Branch-light walk for gap-free histories: the grid was built from
    // this history's min/max plus padding, so every sample locates (the
    // npos arm is dead) and every adjacent pair is a transition.
    transitions.resize(x.size() - 1);
    Transition* out = transitions.data();
    std::size_t h1 = dim1.IndexOf(x[0], 0);
    std::size_t h2 = dim2.IndexOf(y[0], 0);
    PMCORR_DASSERT(h1 != IntervalList::npos && h2 != IntervalList::npos);
    auto prev_cell = static_cast<std::uint32_t>(h1 * cols + h2);
    for (std::size_t t = 1; t < x.size(); ++t) {
      h1 = dim1.IndexOf(x[t], h1);
      h2 = dim2.IndexOf(y[t], h2);
      const auto cell = static_cast<std::uint32_t>(h1 * cols + h2);
      *out++ = {prev_cell, cell};
      prev_cell = cell;
    }
  } else {
    transitions.reserve(x.size());
    bool have_prev = false;
    std::size_t h1 = 0, h2 = 0;  // hints: last located interval per dim
    std::uint32_t prev_cell = 0;
    for (std::size_t t = 0; t < x.size(); ++t) {
      if (!std::isfinite(x[t]) || !std::isfinite(y[t])) {
        have_prev = false;
        continue;
      }
      const std::size_t i1 = dim1.IndexOf(x[t], h1);
      const std::size_t i2 = dim2.IndexOf(y[t], h2);
      if (i1 == IntervalList::npos || i2 == IntervalList::npos) {
        have_prev = false;
        continue;
      }
      h1 = i1;
      h2 = i2;
      const auto cell = static_cast<std::uint32_t>(i1 * cols + i2);
      if (have_prev) transitions.push_back({prev_cell, cell});
      prev_cell = cell;
      have_prev = true;
    }
  }

  // Phase 2 — replay, bucketed by source row (Eq. 1: the posterior
  // after the snapshot is the model's initial V).
  model.matrix_.ReplayTransitions(transitions, config.likelihood_weight,
                                  config.forgetting);
  PMCORR_AUDIT_ONLY(model.CheckInvariants();)
  return model;
}

PairModel PairModel::LearnSequential(std::span<const double> x,
                                     std::span<const double> y,
                                     const ModelConfig& config) {
  bool gap_free = false;
  PairModel model = InitFromHistory(x, y, config, gap_free);
  // Unhinted lookups and the stencil-walk observe: this is the
  // pre-pipeline Learn, preserved as an arithmetically independent path
  // (it shares none of the hinted-lookup or flat prior-row-sweep code)
  // so the differential tests pin Learn against genuinely different
  // machinery, and the model-building benchmark's A side measures it.
  std::optional<std::size_t> prev;
  for (std::size_t t = 0; t < x.size(); ++t) {
    std::optional<std::size_t> cell;
    if (std::isfinite(x[t]) && std::isfinite(y[t])) {
      cell = model.grid_.CellOf({x[t], y[t]});
    }
    if (cell && prev) {
      model.matrix_.ObserveTransitionStencil(*prev, *cell, model.grid_,
                                             *model.kernel_,
                                             config.likelihood_weight,
                                             config.forgetting);
    }
    prev = cell;
  }
  PMCORR_AUDIT_ONLY(model.CheckInvariants();)
  return model;
}

PairModel PairModel::FromParts(ModelConfig config, Grid2D grid,
                               TransitionMatrix matrix) {
  PairModel model;
  model.config_ = config;
  model.kernel_ = MakeKernel(config.kernel);
  model.grid_ = std::move(grid);
  model.matrix_ = std::move(matrix);
  PMCORR_AUDIT_ONLY(model.CheckInvariants();)
  return model;
}

void PairModel::CheckInvariants() const {
  grid_.CheckInvariants();
  matrix_.CheckInvariants();
  if (kernel_ == nullptr) {
    // Default-constructed model: nothing was learned yet.
    PMCORR_ASSERT(grid_.CellCount() == 0 && matrix_.CellCount() == 0,
                  "model has state but no kernel");
    return;
  }
  PMCORR_ASSERT(matrix_.GridRows() == grid_.Rows() &&
                    matrix_.GridCols() == grid_.Cols(),
                "matrix built for " << matrix_.GridRows() << "x"
                                    << matrix_.GridCols() << ", grid is "
                                    << grid_.Rows() << "x" << grid_.Cols());
  PMCORR_ASSERT(matrix_.CellCount() == grid_.CellCount());
  // The stencil must tabulate *this* model's kernel — a mismatch would
  // silently corrupt every row sweep after a grid extension.
  matrix_.Stencil().CheckInvariants(kernel_.get());
  PMCORR_ASSERT(config_.lambda1 >= 0.0 && config_.lambda2 >= 0.0,
                "lambda " << config_.lambda1 << "," << config_.lambda2);
  PMCORR_ASSERT(config_.delta >= 0.0 && config_.delta <= 1.0,
                "delta " << config_.delta);
  PMCORR_ASSERT(config_.fitness_alarm_threshold >= 0.0 &&
                    config_.fitness_alarm_threshold <= 1.0,
                "fitness threshold " << config_.fitness_alarm_threshold);
  PMCORR_ASSERT(config_.forgetting > 0.0 && config_.forgetting <= 1.0,
                "forgetting " << config_.forgetting);
  PMCORR_ASSERT(config_.likelihood_weight > 0.0 &&
                    std::isfinite(config_.likelihood_weight),
                "likelihood weight " << config_.likelihood_weight);
  if (prev_cell_) {
    PMCORR_ASSERT(*prev_cell_ < matrix_.CellCount(),
                  "previous cell " << *prev_cell_ << " outside the "
                                   << grid_.CellCount() << "-cell grid");
  }
}

StepOutcome PairModel::Step(double x, double y, ScoreMode mode) {
  // Audit builds re-verify the full model after every step, on every
  // exit path (missing, outlier, extension, scored). noexcept(false):
  // the test-mode failure handler throws.
  PMCORR_AUDIT_ONLY(struct StepAuditor {
    const PairModel* model;
    ~StepAuditor() noexcept(false) { model->CheckInvariants(); }
  } step_auditor{this};)

  ++stats_.steps;
  StepOutcome out;

  // Collector gaps: a non-finite coordinate cannot be located in the
  // grid and the transition across the gap is unknowable — skip the
  // sample and restart the sequence (the paper's streams are assumed
  // complete; real feeds are not).
  if (!std::isfinite(x) || !std::isfinite(y)) {
    out.missing = true;
    prev_cell_.reset();
    return out;
  }

  const Point2 p{x, y};

  // The previous cell is the best guess for this one (59% of observed
  // transitions stay in-cell): the hinted lookup checks it and its
  // neighbors before binary-searching.
  std::optional<std::size_t> cell =
      prev_cell_ ? grid_.CellOf(p, *prev_cell_) : grid_.CellOf(p);
  if (!cell && config_.adaptive) {
    // Out of boundary but perhaps only just: the paper treats points
    // within lambda * r_avg as evidence of gradual distribution change
    // and grows the grid; anything farther is an outlier.
    const std::size_t old_cols = grid_.Cols();
    if (const auto ext =
            grid_.ExtendToInclude(p, config_.lambda1, config_.lambda2)) {
      matrix_.ApplyExtension(*ext, old_cols, grid_, *kernel_,
                             config_.likelihood_weight);
      if (prev_cell_) {
        prev_cell_ = Grid2D::RemapIndex(*prev_cell_, old_cols, *ext);
      }
      cell = grid_.CellOf(p);
      out.extended_grid = true;
      ++stats_.extensions;
      PMCORR_DASSERT(cell.has_value());
    }
  }

  const bool alarm_armed =
      config_.delta > 0.0 || config_.fitness_alarm_threshold > 0.0;
  if (!cell) {
    // Outlier: transition probability 0, fitness 0, no model update, and
    // the next observation has no valid source cell.
    out.outlier = true;
    ++stats_.outliers;
    if (prev_cell_) {
      out.has_score = true;
      ++stats_.scored;
    }
    out.alarm = alarm_armed;
    if (out.alarm) ++stats_.alarms;
    prev_cell_.reset();
    return out;
  }

  out.cell = cell;
  if (prev_cell_ && config_.adaptive && !alarm_armed &&
      mode == ScoreMode::kRankOnly) {
    // No alarm can veto the update, so the rank is counted and the row
    // updated in one walk: the rank and the model state of the two-call
    // path below.
    out.has_score = true;
    ++stats_.scored;
    out.rank = matrix_.ScoreAndObserve(*prev_cell_, *cell,
                                       config_.likelihood_weight,
                                       config_.forgetting);
    out.fitness = RankFitness(out.rank, matrix_.CellCount());
    ++stats_.matrix_updates;
  } else if (prev_cell_) {
    out.has_score = true;
    ++stats_.scored;
    // One fused row scan (probability + rank together) instead of the
    // separate Probability and RankOf passes; bitwise-identical results.
    // The fitness needs only the rank, so a rank-only caller skips the
    // normalizer unless the delta alarm reads the probability.
    const TransitionScore score = matrix_.ScoreTransition(
        *prev_cell_, *cell,
        config_.delta > 0.0 ? ScoreMode::kFull : mode);
    out.probability = score.probability;
    out.rank = score.rank;
    out.fitness = RankFitness(out.rank, matrix_.CellCount());
    out.alarm = (config_.delta > 0.0 && out.probability < config_.delta) ||
                (config_.fitness_alarm_threshold > 0.0 &&
                 out.fitness < config_.fitness_alarm_threshold);
    if (out.alarm) ++stats_.alarms;

    // "We update the model to incorporate the actual transition made by
    // x_{t+1} if it is normal" — alarmed transitions are left out.
    if (config_.adaptive && !out.alarm) {
      matrix_.ObserveTransition(*prev_cell_, *cell, grid_, *kernel_,
                                config_.likelihood_weight,
                                config_.forgetting);
      ++stats_.matrix_updates;
    }
  }
  prev_cell_ = cell;
  return out;
}

}  // namespace pmcorr
