#include "core/transition_matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.h"

// Arithmetic-order contract (docs/kernels.md): every routine here must
// perform the same floating-point operations, on the same values, in the
// same order as the pre-stencil scalar code — the golden traces in
// tests/golden/ pin the results to 17 digits. The stencil table holds
// bitwise the doubles DecayKernel::LogWeight returns, row sweeps add them
// in ascending destination order, and the caches only memoize values the
// uncached scans would recompute identically.

namespace pmcorr {

TransitionMatrix TransitionMatrix::Prior(const Grid2D& grid,
                                         const DecayKernel& kernel) {
  TransitionMatrix m;
  m.cells_ = grid.CellCount();
  m.rows_ = grid.Rows();
  m.cols_ = grid.Cols();
  m.stencil_ = KernelStencil(m.rows_, m.cols_, kernel);
  m.evidence_.assign(m.cells_ * m.cells_, 0.0);
  m.counts_.assign(m.cells_ * m.cells_, 0);
  m.cache_.assign(m.cells_, RowCache{});
  return m;
}

template <typename Fn>
void TransitionMatrix::ForEachPriorSlice(std::size_t center, Fn&& fn) const {
  const int ci = static_cast<int>(center / cols_);
  const std::size_t cj = center % cols_;
  for (std::size_t r = 0; r < rows_; ++r) {
    fn(stencil_.RowSlice(static_cast<int>(r) - ci, cj), r * cols_);
  }
}

// The row scans below start the max at entry 0 and then visit every
// entry, entry 0 included: std::max(m, m) returns m, so the result is
// the bits of the scan that starts at entry 1.

const TransitionMatrix::RowCache& TransitionMatrix::RowStats(
    std::size_t from) const {
  RowCache& rc = cache_[from];
  if (!rc.stats_valid) {
    const double* ev = evidence_.data() + from * cells_;
    const std::size_t cols = cols_;
    double max_logw = PosteriorLogW(from, 0);
    ForEachPriorSlice(from, [&](const double* lw, std::size_t j0) {
      for (std::size_t c = 0; c < cols; ++c) {
        max_logw = std::max(max_logw, lw[c] + ev[j0 + c]);
      }
    });
    double total = 0.0;
    ForEachPriorSlice(from, [&](const double* lw, std::size_t j0) {
      for (std::size_t c = 0; c < cols; ++c) {
        total += std::exp(lw[c] + ev[j0 + c] - max_logw);
      }
    });
    rc.max_logw = max_logw;
    rc.sum_exp = total;
    rc.stats_valid = true;
  }
  return rc;
}

void TransitionMatrix::BuildSorted(std::size_t from) const {
  RowCache& rc = cache_[from];
  const double* ev = evidence_.data() + from * cells_;
  const std::size_t cols = cols_;
  rc.sorted.resize(cells_);
  ForEachPriorSlice(from, [&](const double* lw, std::size_t j0) {
    for (std::size_t c = 0; c < cols; ++c) {
      rc.sorted[j0 + c] = {lw[c] + ev[j0 + c],
                           static_cast<std::uint32_t>(j0 + c)};
    }
  });
  std::sort(rc.sorted.begin(), rc.sorted.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  rc.sorted_valid = true;
}

std::size_t TransitionMatrix::RankInRow(std::size_t from, std::size_t to,
                                        double target) const {
  const RowCache& rc = cache_[from];
  if (rc.sorted_valid) {
    // Entries strictly above `target` precede the partition point; ties
    // break toward the lower cell index, exactly like the linear scan.
    const auto it = std::lower_bound(
        rc.sorted.begin(), rc.sorted.end(), target,
        [](const std::pair<double, std::uint32_t>& entry, double t) {
          return entry.first > t;
        });
    std::size_t rank =
        1 + static_cast<std::size_t>(it - rc.sorted.begin());
    for (auto eq = it; eq != rc.sorted.end() && eq->first == target; ++eq) {
      if (eq->second < to) ++rank;
    }
    return rank;
  }
  const double* ev = evidence_.data() + from * cells_;
  const std::size_t cols = cols_;
  std::size_t rank = 1;
  ForEachPriorSlice(from, [&](const double* lw, std::size_t j0) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double w = lw[c] + ev[j0 + c];
      rank += static_cast<std::size_t>((w > target) |
                                       ((w == target) & (j0 + c < to)));
    }
  });
  return rank;
}

double TransitionMatrix::Probability(std::size_t from, std::size_t to) const {
  if (cells_ == 0) return 0.0;
  PMCORR_DASSERT(from < cells_ && to < cells_);
  const RowCache& rc = RowStats(from);
  return std::exp(PosteriorLogW(from, to) - rc.max_logw) / rc.sum_exp;
}

TransitionScore TransitionMatrix::ScoreTransition(std::size_t from,
                                                  std::size_t to,
                                                  ScoreMode mode) const {
  TransitionScore out;
  if (cells_ == 0) return out;
  PMCORR_DASSERT(from < cells_ && to < cells_);
  RowCache& rc = cache_[from];
  const double target = PosteriorLogW(from, to);
  if (rc.scored || rc.stats_valid) {
    // Warm row (read again without a write in between — e.g. alarmed
    // transitions, frozen calibration replays, non-adaptive monitors):
    // rank goes through the sorted cache, built on this second touch
    // and O(log s) afterwards.
    if (!rc.sorted_valid) BuildSorted(from);
    out.rank = RankInRow(from, to, target);
  } else if (mode == ScoreMode::kRankOnly) {
    // Cold row (just written), rank only: one comparison pass.
    out.rank = RankInRow(from, to, target);
  } else {
    // Cold row, full read: one fused pass for max + rank, one for the
    // exponential sum — versus the three passes of the unfused
    // Probability + RankOf sequence.
    const double* ev = evidence_.data() + from * cells_;
    const std::size_t cols = cols_;
    double max_logw = PosteriorLogW(from, 0);
    std::size_t rank = 1;
    ForEachPriorSlice(from, [&](const double* lw, std::size_t j0) {
      for (std::size_t c = 0; c < cols; ++c) {
        const double w = lw[c] + ev[j0 + c];
        max_logw = std::max(max_logw, w);
        if (w > target || (w == target && j0 + c < to)) ++rank;
      }
    });
    double total = 0.0;
    ForEachPriorSlice(from, [&](const double* lw, std::size_t j0) {
      for (std::size_t c = 0; c < cols; ++c) {
        total += std::exp(lw[c] + ev[j0 + c] - max_logw);
      }
    });
    rc.max_logw = max_logw;
    rc.sum_exp = total;
    rc.stats_valid = true;
    out.rank = rank;
  }
  rc.scored = true;
  if (mode == ScoreMode::kFull) {
    const RowCache& stats = RowStats(from);
    out.probability = std::exp(target - stats.max_logw) / stats.sum_exp;
  }
  return out;
}

std::vector<double> TransitionMatrix::RowDistribution(std::size_t from) const {
  if (cells_ == 0) return {};
  PMCORR_DASSERT(from < cells_);
  const RowCache& rc = RowStats(from);
  std::vector<double> row(cells_);
  const double* ev = evidence_.data() + from * cells_;
  const std::size_t cols = cols_;
  ForEachPriorSlice(from, [&](const double* lw, std::size_t j0) {
    for (std::size_t c = 0; c < cols; ++c) {
      row[j0 + c] = std::exp(lw[c] + ev[j0 + c] - rc.max_logw);
    }
  });
  for (double& p : row) p /= rc.sum_exp;
  return row;
}

// The Eq. (2) update of one evidence row by the kernel centered at
// `observed`, read slice by slice. The weight/forgetting == 1.0
// specializations drop the respective multiply; x * 1.0 == x and
// 1.0 * y == y exactly in IEEE arithmetic, so every branch produces
// identical bits (the golden traces pin that).
void TransitionMatrix::UpdateRowEvidence(std::size_t from,
                                         std::size_t observed, double weight,
                                         double forgetting) {
  double* e = evidence_.data() + from * cells_;
  const std::size_t cols = cols_;
  if (forgetting == 1.0 && weight == 1.0) {
    ForEachPriorSlice(observed, [&](const double* lw, std::size_t j0) {
      double* ej = e + j0;
      for (std::size_t c = 0; c < cols; ++c) ej[c] += lw[c];
    });
  } else if (forgetting == 1.0) {
    ForEachPriorSlice(observed, [&](const double* lw, std::size_t j0) {
      double* ej = e + j0;
      for (std::size_t c = 0; c < cols; ++c) ej[c] += weight * lw[c];
    });
  } else {
    ForEachPriorSlice(observed, [&](const double* lw, std::size_t j0) {
      double* ej = e + j0;
      for (std::size_t c = 0; c < cols; ++c) {
        ej[c] = ej[c] * forgetting + weight * lw[c];
      }
    });
  }
  ++counts_[from * cells_ + observed];
}

void TransitionMatrix::ObserveTransition(std::size_t from,
                                         std::size_t observed,
                                         const Grid2D& grid,
                                         const DecayKernel& kernel,
                                         double weight, double forgetting) {
  PMCORR_DASSERT(from < cells_ && observed < cells_);
  PMCORR_DASSERT(grid.CellCount() == cells_);
  PMCORR_DASSERT(stencil_.Matches(grid.Rows(), grid.Cols()));
  (void)grid;
  (void)kernel;  // the stencil tabulated this kernel at Prior() time
  UpdateRowEvidence(from, observed, weight, forgetting);
  ++observed_;
  InvalidateRow(from);
}

void TransitionMatrix::ObserveTransitionStencil(std::size_t from,
                                                std::size_t observed,
                                                const Grid2D& grid,
                                                const DecayKernel& kernel,
                                                double weight,
                                                double forgetting) {
  PMCORR_DASSERT(from < cells_ && observed < cells_);
  PMCORR_DASSERT(grid.CellCount() == cells_);
  PMCORR_DASSERT(stencil_.Matches(grid.Rows(), grid.Cols()));
  (void)grid;
  (void)kernel;  // the stencil tabulated this kernel at Prior() time
  const int oi = static_cast<int>(observed / cols_);
  const std::size_t oj = observed % cols_;
  double* e = evidence_.data() + from * cells_;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* lw = stencil_.RowSlice(static_cast<int>(r) - oi, oj);
    for (std::size_t c = 0; c < cols_; ++c) {
      e[c] = e[c] * forgetting + weight * lw[c];
    }
    e += cols_;
  }
  ++counts_[from * cells_ + observed];
  ++observed_;
  InvalidateRow(from);
}

namespace {

// One bucket of the replay: applies every transition in `slots` to
// evidence row `e` in arrival order, with the same weight/forgetting
// specializations as UpdateRowEvidence (hoisted out of the transition
// loop — they are constant across a replay). slots[k] indexes the
// destination's prior row in `prior`, the replay's gathered table.
// The bucket loop consumes four transitions per sweep: applying four
// updates to element c as one parenthesized left-to-right chain performs
// exactly the roundings of four single-transition sweeps (the compiler
// may not reassociate FP without fast-math), while storing the evidence
// row once instead of four times and keeping four prior-row streams in
// flight — the sweep is memory-bound on the prior rows, not on FP adds.
__attribute__((always_inline)) inline void ReplayRowBody(
    double* e, const double* prior, std::size_t cells,
    const std::uint32_t* slots, std::size_t n, double weight,
    double forgetting) {
  std::size_t k = 0;
  if (forgetting == 1.0 && weight == 1.0) {
    for (; k + 4 <= n; k += 4) {
      const double* p0 = prior + slots[k] * cells;
      const double* p1 = prior + slots[k + 1] * cells;
      const double* p2 = prior + slots[k + 2] * cells;
      const double* p3 = prior + slots[k + 3] * cells;
      for (std::size_t c = 0; c < cells; ++c) {
        e[c] = (((e[c] + p0[c]) + p1[c]) + p2[c]) + p3[c];
      }
    }
    for (; k < n; ++k) {
      const double* p = prior + slots[k] * cells;
      for (std::size_t c = 0; c < cells; ++c) e[c] += p[c];
    }
  } else if (forgetting == 1.0) {
    for (; k + 4 <= n; k += 4) {
      const double* p0 = prior + slots[k] * cells;
      const double* p1 = prior + slots[k + 1] * cells;
      const double* p2 = prior + slots[k + 2] * cells;
      const double* p3 = prior + slots[k + 3] * cells;
      for (std::size_t c = 0; c < cells; ++c) {
        e[c] = (((e[c] + weight * p0[c]) + weight * p1[c]) + weight * p2[c]) +
               weight * p3[c];
      }
    }
    for (; k < n; ++k) {
      const double* p = prior + slots[k] * cells;
      for (std::size_t c = 0; c < cells; ++c) e[c] += weight * p[c];
    }
  } else {
    for (; k + 4 <= n; k += 4) {
      const double* p0 = prior + slots[k] * cells;
      const double* p1 = prior + slots[k + 1] * cells;
      const double* p2 = prior + slots[k + 2] * cells;
      const double* p3 = prior + slots[k + 3] * cells;
      for (std::size_t c = 0; c < cells; ++c) {
        double v = e[c] * forgetting + weight * p0[c];
        v = v * forgetting + weight * p1[c];
        v = v * forgetting + weight * p2[c];
        e[c] = v * forgetting + weight * p3[c];
      }
    }
    for (; k < n; ++k) {
      const double* p = prior + slots[k] * cells;
      for (std::size_t c = 0; c < cells; ++c) {
        e[c] = e[c] * forgetting + weight * p[c];
      }
    }
  }
}

using ReplayRowFn = void (*)(double*, const double*, std::size_t,
                             const std::uint32_t*, std::size_t, double,
                             double);

void ReplayRowDefault(double* e, const double* prior, std::size_t cells,
                      const std::uint32_t* slots, std::size_t n,
                      double weight, double forgetting) {
  ReplayRowBody(e, prior, cells, slots, n, weight, forgetting);
}

#if defined(__x86_64__) && defined(__GNUC__)
// Wider-vector clones of the same body. The sweeps are element-wise, so
// each e[c] sees exactly the same operations in the same order at any
// vector width; and this translation unit builds with -ffp-contract=off
// (see CMakeLists.txt) so the AVX-512 embedded-FMA forms cannot fuse
// e*f + w*p into a single rounding — results are bitwise identical to
// the baseline build, per the docs/kernels.md arithmetic-order
// contract. Selected once per process by CPU probe.
__attribute__((target("avx"))) void ReplayRowAvx(
    double* e, const double* prior, std::size_t cells,
    const std::uint32_t* slots, std::size_t n, double weight,
    double forgetting) {
  ReplayRowBody(e, prior, cells, slots, n, weight, forgetting);
}

__attribute__((target("avx512f"))) void ReplayRowAvx512(
    double* e, const double* prior, std::size_t cells,
    const std::uint32_t* slots, std::size_t n, double weight,
    double forgetting) {
  ReplayRowBody(e, prior, cells, slots, n, weight, forgetting);
}

ReplayRowFn SelectReplayRowFn() {
  if (__builtin_cpu_supports("avx512f")) return ReplayRowAvx512;
  if (__builtin_cpu_supports("avx")) return ReplayRowAvx;
  return ReplayRowDefault;
}
#else
ReplayRowFn SelectReplayRowFn() { return ReplayRowDefault; }
#endif

const ReplayRowFn kReplayRowFn = SelectReplayRowFn();

}  // namespace

void TransitionMatrix::ReplayTransitions(
    std::span<const Transition> transitions, double weight, double forgetting,
    const ParallelRunner& runner) {
  if (transitions.empty()) return;
  const std::size_t n = transitions.size();
#if PMCORR_DASSERT_ENABLED
  for (const Transition& t : transitions) {
    PMCORR_DASSERT(t.from < cells_ && t.to < cells_);
  }
#endif

  // Gather the prior rows of the destinations this replay visits into a
  // scratch table, in ascending destination order: slot[d] is row d's
  // position in `prior`. Each row is the stencil slices centered at d,
  // so the bucket sweeps below read bitwise the doubles ObserveTransition
  // reads, as flat s-element rows.
  constexpr std::uint32_t kUnvisited = ~std::uint32_t{0};
  std::vector<std::uint32_t> slot(cells_, kUnvisited);
  for (const Transition& t : transitions) slot[t.to] = 0;
  std::size_t visited = 0;
  for (std::uint32_t& sl : slot) {
    if (sl != kUnvisited) sl = static_cast<std::uint32_t>(visited++);
  }
  std::vector<double> prior(visited * cells_);
  for (std::size_t d = 0; d < cells_; ++d) {
    if (slot[d] == kUnvisited) continue;
    double* row = prior.data() + slot[d] * cells_;
    ForEachPriorSlice(d, [&](const double* lw, std::size_t j0) {
      std::copy(lw, lw + cols_, row + j0);
    });
  }

  // Counting-sort the destination slots into per-source-row buckets,
  // keeping each bucket in original arrival order. offsets[row] ..
  // offsets[row + 1) indexes the row's slots in `slots`. Counts are
  // integers, so they are bumped here rather than in the sweeps.
  std::vector<std::size_t> offsets(cells_ + 1, 0);
  for (const Transition& t : transitions) ++offsets[t.from + 1];
  for (std::size_t i = 1; i <= cells_; ++i) offsets[i] += offsets[i - 1];
  std::vector<std::uint32_t> slots(n);
  {
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const Transition& t : transitions) {
      slots[cursor[t.from]++] = slot[t.to];
      ++counts_[t.from * cells_ + t.to];
    }
  }
  std::vector<std::uint32_t> active;
  active.reserve(cells_);
  for (std::size_t row = 0; row < cells_; ++row) {
    if (offsets[row] != offsets[row + 1]) {
      active.push_back(static_cast<std::uint32_t>(row));
    }
  }

  // Replay each bucket in order. Buckets touch disjoint evidence rows,
  // so any schedule over `active` — including a parallel one — produces
  // the exact bits of the sequential ObserveTransition loop.
  const auto replay_row = [&](std::size_t a) {
    const std::size_t row = active[a];
    kReplayRowFn(evidence_.data() + row * cells_, prior.data(), cells_,
                 slots.data() + offsets[row], offsets[row + 1] - offsets[row],
                 weight, forgetting);
    InvalidateRow(row);
  };
  if (runner) {
    runner(active.size(), replay_row);
  } else {
    for (std::size_t a = 0; a < active.size(); ++a) replay_row(a);
  }
  observed_ += n;
}

std::size_t TransitionMatrix::RankOf(std::size_t from, std::size_t to) const {
  if (cells_ == 0) return 0;
  PMCORR_DASSERT(from < cells_ && to < cells_);
  return RankInRow(from, to, PosteriorLogW(from, to));
}

std::size_t TransitionMatrix::ArgMax(std::size_t from) const {
  if (cells_ == 0) return 0;
  PMCORR_DASSERT(from < cells_);
  const RowCache& rc = cache_[from];
  if (rc.sorted_valid) return rc.sorted.front().second;
  const double* ev = evidence_.data() + from * cells_;
  const std::size_t cols = cols_;
  std::size_t best = 0;
  double best_logw = PosteriorLogW(from, 0);
  ForEachPriorSlice(from, [&](const double* lw, std::size_t j0) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double w = lw[c] + ev[j0 + c];
      if (w > best_logw) {
        best = j0 + c;
        best_logw = w;
      }
    }
  });
  return best;
}

std::uint64_t TransitionMatrix::CountOf(std::size_t from,
                                        std::size_t to) const {
  PMCORR_DASSERT(from < cells_ && to < cells_);
  return counts_[from * cells_ + to];
}

void TransitionMatrix::ApplyExtension(const GridExtension& ext,
                                      std::size_t old_cols,
                                      const Grid2D& new_grid,
                                      const DecayKernel& kernel,
                                      double likelihood_weight) {
  const std::size_t old_cells = cells_;
  TransitionMatrix grown = Prior(new_grid, kernel);
  std::vector<bool> is_old(grown.cells_, false);
  for (std::size_t i = 0; i < old_cells; ++i) {
    const std::size_t ni = Grid2D::RemapIndex(i, old_cols, ext);
    is_old[ni] = true;
    for (std::size_t j = 0; j < old_cells; ++j) {
      const std::size_t nj = Grid2D::RemapIndex(j, old_cols, ext);
      grown.evidence_[ni * grown.cells_ + nj] = evidence_[i * cells_ + j];
      grown.counts_[ni * grown.cells_ + nj] = counts_[i * cells_ + j];
    }
  }
  grown.observed_ = observed_;

  // Coordinates of every new-grid cell, decomposed once (the backfill
  // pairs every new column with every historical destination).
  std::vector<CellCoord> coords(grown.cells_);
  for (std::size_t j = 0; j < grown.cells_; ++j) {
    coords[j] = CellCoord{static_cast<int>(j / grown.cols_),
                          static_cast<int>(j % grown.cols_)};
  }

  // Backfill evidence for the new columns of previously-observed rows.
  struct Dest {
    CellCoord coord;
    double count;
  };
  for (std::size_t i = 0; i < old_cells; ++i) {
    const std::size_t ni = Grid2D::RemapIndex(i, old_cols, ext);
    // Sparse (destination, count) list of this row's history, in
    // ascending old-index order (the summation order is pinned).
    std::vector<Dest> dests;
    for (std::size_t j = 0; j < old_cells; ++j) {
      const std::uint32_t c = counts_[i * cells_ + j];
      if (c > 0) {
        dests.push_back(Dest{coords[Grid2D::RemapIndex(j, old_cols, ext)],
                             static_cast<double>(c)});
      }
    }
    if (dests.empty()) continue;
    for (std::size_t nj = 0; nj < grown.cells_; ++nj) {
      if (is_old[nj]) continue;
      const CellCoord nc = coords[nj];
      double evidence = 0.0;
      for (const Dest& d : dests) {
        evidence += d.count * grown.stencil_.LogWeight(d.coord.i1 - nc.i1,
                                                       d.coord.i2 - nc.i2);
      }
      grown.evidence_[ni * grown.cells_ + nj] =
          likelihood_weight * evidence;
    }
  }
  *this = std::move(grown);
}

void TransitionMatrix::CheckInvariants() const {
  if (cells_ == 0) {
    PMCORR_ASSERT(rows_ == 0 && cols_ == 0, "empty matrix with grid shape "
                                                << rows_ << "x" << cols_);
    PMCORR_ASSERT(stencil_.Empty() && evidence_.empty() && counts_.empty() &&
                      cache_.empty(),
                  "empty matrix with live arrays");
    PMCORR_ASSERT(observed_ == 0, "empty matrix observed " << observed_);
    return;
  }
  PMCORR_ASSERT(rows_ * cols_ == cells_, "grid shape " << rows_ << "x"
                                                       << cols_ << " != "
                                                       << cells_ << " cells");
  const std::size_t entries = cells_ * cells_;
  PMCORR_ASSERT(evidence_.size() == entries,
                "evidence size " << evidence_.size());
  PMCORR_ASSERT(counts_.size() == entries, "counts size " << counts_.size());
  PMCORR_ASSERT(cache_.size() == cells_, "cache size " << cache_.size());
  // The stencil is the prior: a drifted entry fails its symmetry,
  // center or decay clauses here.
  stencil_.CheckInvariants();
  PMCORR_ASSERT(stencil_.Matches(rows_, cols_),
                "stencil built for " << stencil_.GridRows() << "x"
                                     << stencil_.GridCols() << ", grid is "
                                     << rows_ << "x" << cols_);

  std::uint64_t count_total = 0;
  std::vector<std::uint8_t> seen(cells_, 0);
  // Row i of the posterior, read entry by entry through PriorLogW — a
  // path independent of the slice walks the kernels use.
  std::vector<double> post(cells_);
  for (std::size_t i = 0; i < cells_; ++i) {
    const double* ev = evidence_.data() + i * cells_;
    for (std::size_t j = 0; j < cells_; ++j) {
      PMCORR_ASSERT(std::isfinite(ev[j]) && ev[j] <= 0.0,
                    "evidence (" << i << "," << j << ") = " << ev[j]);
      count_total += counts_[i * cells_ + j];
      post[j] = PosteriorLogW(i, j);
    }

    // Row i of the posterior stays a probability distribution: the
    // normalized row sums to 1. Recomputed here without touching the
    // row cache, in the cache's scan order.
    double max_logw = post[0];
    for (std::size_t j = 1; j < cells_; ++j) {
      max_logw = std::max(max_logw, post[j]);
    }
    double sum_exp = 0.0;
    for (std::size_t j = 0; j < cells_; ++j) {
      sum_exp += std::exp(post[j] - max_logw);
    }
    PMCORR_ASSERT(std::isfinite(sum_exp) && sum_exp >= 1.0,
                  "row " << i << " normalizer " << sum_exp);
    double prob_sum = 0.0;
    for (std::size_t j = 0; j < cells_; ++j) {
      const double p = std::exp(post[j] - max_logw) / sum_exp;
      PMCORR_ASSERT(p >= 0.0 && p <= 1.0,
                    "P(" << i << "->" << j << ") = " << p);
      prob_sum += p;
    }
    PMCORR_ASSERT(std::abs(prob_sum - 1.0) <= 1e-9,
                  "row " << i << " sums to " << prob_sum);

    // Cache coherence: memoized values must be exactly what the scans
    // above produce — a stale-but-valid cache is silent corruption.
    const RowCache& rc = cache_[i];
    if (rc.stats_valid) {
      PMCORR_ASSERT(rc.max_logw == max_logw,
                    "row " << i << " cached max " << rc.max_logw
                           << " != " << max_logw);
      PMCORR_ASSERT(rc.sum_exp == sum_exp, "row " << i << " cached sum-exp "
                                                  << rc.sum_exp
                                                  << " != " << sum_exp);
    }
    if (rc.sorted_valid) {
      PMCORR_ASSERT(rc.sorted.size() == cells_,
                    "row " << i << " rank index size " << rc.sorted.size());
      std::fill(seen.begin(), seen.end(), 0);
      for (std::size_t k = 0; k < rc.sorted.size(); ++k) {
        const auto& [w, j] = rc.sorted[k];
        PMCORR_ASSERT(j < cells_ && !seen[j],
                      "row " << i << " rank index entry " << k
                             << " is not a permutation");
        seen[j] = 1;
        PMCORR_ASSERT(w == post[j], "row " << i
                                           << " rank index weight for cell "
                                           << j << " is stale");
        if (k > 0) {
          const auto& [pw_prev, pj] = rc.sorted[k - 1];
          PMCORR_ASSERT(pw_prev > w || (pw_prev == w && pj < j),
                        "row " << i << " rank index misordered at " << k);
        }
      }
    }
  }
  PMCORR_ASSERT(count_total == observed_, "counts sum to "
                                              << count_total << ", observed "
                                              << observed_);
}

void TransitionMatrix::RestoreState(std::vector<double> evidence,
                                    std::vector<std::uint32_t> counts,
                                    std::uint64_t observed) {
  if (evidence.size() != cells_ * cells_ || counts.size() != cells_ * cells_) {
    throw std::invalid_argument(
        "TransitionMatrix::RestoreState: size mismatch with current grid");
  }
  evidence_ = std::move(evidence);
  counts_ = std::move(counts);
  observed_ = observed;
  cache_.assign(cells_, RowCache{});
  PMCORR_AUDIT_ONLY(CheckInvariants();)
}

std::vector<std::uint64_t> TransitionDistanceHistogram(
    const TransitionMatrix& matrix, const Grid2D& grid) {
  const std::size_t cells = matrix.CellCount();
  const std::size_t max_d =
      std::max(grid.Rows(), grid.Cols());
  std::vector<std::uint64_t> hist(max_d, 0);
  // Decompose the s cell coordinates once instead of twice per nonzero
  // (i, j) pair.
  std::vector<CellCoord> coords(cells);
  for (std::size_t i = 0; i < cells; ++i) coords[i] = grid.CoordOf(i);
  for (std::size_t i = 0; i < cells; ++i) {
    for (std::size_t j = 0; j < cells; ++j) {
      const std::uint64_t c = matrix.CountOf(i, j);
      if (c == 0) continue;
      const CellCoord ca = coords[i];
      const CellCoord cb = coords[j];
      const auto d = static_cast<std::size_t>(
          std::max(std::abs(ca.i1 - cb.i1), std::abs(ca.i2 - cb.i2)));
      if (d >= hist.size()) hist.resize(d + 1, 0);
      hist[d] += c;
    }
  }
  return hist;
}

}  // namespace pmcorr
