#include "core/transition_matrix.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "common/check.h"

// Arithmetic-order contract (docs/kernels.md): every routine here must
// perform the same floating-point operations, on the same values, in the
// same order as the pre-stencil scalar code — the golden traces in
// tests/golden/ pin the results to 17 digits. The stencil table holds
// bitwise the doubles DecayKernel::LogWeight returns, row sweeps add them
// in ascending destination order, and the normalizer memo only holds
// values the uncached scans would recompute identically.

namespace pmcorr {

TransitionMatrix TransitionMatrix::Prior(const Grid2D& grid,
                                         const DecayKernel& kernel) {
  TransitionMatrix m;
  m.cells_ = grid.CellCount();
  m.rows_ = grid.Rows();
  m.cols_ = grid.Cols();
  m.stencil_ = KernelStencil(m.rows_, m.cols_, kernel);
  m.arena_.assign(m.cells_, 0.0);  // slot 0: the shared zero row
  m.evidence_slot_.assign(m.cells_, 0);
  m.count_begin_.assign(m.cells_ + 1, 0);
  m.cache_.assign(m.cells_, RowCache{});
  return m;
}

namespace {

// Room the arena and the count pool keep beyond what they hold after
// they grow: an eighth, so n first writes or inserts reallocate
// O(log n) times while the slack stays within 12.5% of the live bytes.
std::size_t Headroom(std::size_t n) { return std::max<std::size_t>(n / 8, 1); }

}  // namespace

void TransitionMatrix::ReserveRows(std::size_t rows) {
  const std::size_t need = arena_.size() / cells_ + rows;
  if (arena_.capacity() < need * cells_) {
    arena_.reserve((need + Headroom(need)) * cells_);
  }
}

void TransitionMatrix::ReserveCounts(std::size_t entries) {
  const std::size_t need = count_pool_.size() + entries;
  if (count_pool_.capacity() < need) {
    count_pool_.reserve(need + Headroom(need));
  }
}

double* TransitionMatrix::WritableRow(std::size_t row) {
  std::uint32_t& slot = evidence_slot_[row];
  if (slot == 0) {
    if (arena_.capacity() - arena_.size() < cells_) {
      ReserveRows(1);  // alloc-ok: geometric growth, O(log n) times for n first writes
    }
    slot = static_cast<std::uint32_t>(arena_.size() / cells_);
    arena_.resize(arena_.size() + cells_, 0.0);
  }
  return arena_.data() + std::size_t{slot} * cells_;
}

void TransitionMatrix::BumpCount(std::size_t from, std::size_t to) {
  const auto column = static_cast<std::uint32_t>(to);
  const auto last = count_pool_.begin() + count_begin_[from + 1];
  auto at = count_pool_.begin() + count_begin_[from];
  while (at != last && at->column < column) ++at;
  if (at != last && at->column == column) {
    ++at->count;
    return;
  }
  const std::size_t pos = static_cast<std::size_t>(at - count_pool_.begin());
  if (count_pool_.size() == count_pool_.capacity()) {
    ReserveCounts(1);  // alloc-ok: geometric growth, O(log n) times for n new entries
  }
  count_pool_.insert(count_pool_.begin() + static_cast<std::ptrdiff_t>(pos),
                     CountEntry{column, 1});
  for (std::size_t r = from + 1; r <= cells_; ++r) ++count_begin_[r];
}

template <typename Fn>
void TransitionMatrix::ForEachPriorSlice(std::size_t center, Fn&& fn) const {
  const int ci = static_cast<int>(center / cols_);
  const std::size_t cj = center % cols_;
  for (std::size_t r = 0; r < rows_; ++r) {
    fn(stencil_.RowSlice(static_cast<int>(r) - ci, cj), r * cols_);
  }
}

namespace {

// The row kernel (RowWalk). Each body is one template instantiated per
// kind of walk — count only (RankInRow), update only
// (ObserveTransition), or both (ScoreAndObserve) — and per update form,
// so no walk pays a branch per entry for work it does not do. Every
// entry sees the scalar code's operations on the same doubles: the
// count's one add and one exact comparison, the update's multiplies and
// add, so the bodies give the same bits at any vector width (this
// translation unit builds with -ffp-contract=off, see CMakeLists.txt).

// Picks the walk's instantiation of Body::WalkRow once, at its top.
template <typename Body>
std::size_t DispatchWalk(const RowWalk& w, double* e) {
  PMCORR_DASSERT(w.score_prior != nullptr || w.update_prior != nullptr);
  if (w.update_prior == nullptr) {
    return Body::template WalkRow<true, false, true>(w, e);
  }
  const bool plain = w.weight == 1.0 && w.forgetting == 1.0;
  if (w.score_prior == nullptr) {
    return plain ? Body::template WalkRow<false, true, true>(w, e)
                 : Body::template WalkRow<false, true, false>(w, e);
  }
  return plain ? Body::template WalkRow<true, true, true>(w, e)
               : Body::template WalkRow<true, true, false>(w, e);
}

struct ScalarBody {
  // The count splits its tie rule at `to`: `>=` over the entries before
  // it, `>` from it on. The comparisons are exact and NaN fails both
  // forms, so the count is the per-entry rule's (w > target, or
  // w == target before `to`) without its per-entry branch logic.
  template <bool kCount, bool kUpdate, bool kPlain>
  static std::size_t WalkRow(const RowWalk& w, double* e) {
    std::size_t count = 0;
    const double* sp = w.score_prior;
    const double* up = w.update_prior;
    const auto update = [&](std::size_t c) {
      if constexpr (kPlain) {
        e[c] += up[c];
      } else {
        e[c] = e[c] * w.forgetting + w.weight * up[c];
      }
    };
    for (std::size_t r = 0; r < w.rows; ++r) {
      if constexpr (kCount) {
        const std::size_t j0 = r * w.cols;
        const std::size_t split = std::clamp(w.to, j0, j0 + w.cols) - j0;
        for (std::size_t c = 0; c < split; ++c) {
          count += static_cast<std::size_t>(sp[c] + e[c] >= w.target);
          if constexpr (kUpdate) update(c);
        }
        for (std::size_t c = split; c < w.cols; ++c) {
          count += static_cast<std::size_t>(sp[c] + e[c] > w.target);
          if constexpr (kUpdate) update(c);
        }
        sp += w.stride;
      } else {
        for (std::size_t c = 0; c < w.cols; ++c) update(c);
      }
      if constexpr (kUpdate) up += w.stride;
      e += w.cols;
    }
    return count;
  }
};

#if defined(__x86_64__) && defined(__GNUC__)
// Lanes [0, n) of an 8-lane mask.
inline __mmask8 FirstLanes(std::size_t n) {
  return static_cast<__mmask8>(n >= 8 ? 0xFFu : (1u << n) - 1u);
}

struct Avx512Body {
  // The scalar walk, eight entries at a time. A slice is walked in whole
  // 8-lane vectors; when its width is not a multiple of 8 it ends in a
  // tail vector anchored at the slice's end, whose lanes shared with the
  // last whole vector are masked off on load and store. So no store
  // reaches past its slice, and the last whole vector and the tail are
  // both loaded before either is stored: no load of the walk overlaps an
  // earlier store. A slice narrower than 8 is one masked vector. The
  // count's lanes before `to` compare `>=` and the rest `>`, and a
  // per-lane counter adds one for each hit; its lanes are summed once,
  // after the row.
  template <bool kCount, bool kUpdate, bool kPlain>
  __attribute__((target("avx512f"))) static std::size_t WalkRow(
      const RowWalk& w, double* e) {
    const std::size_t cols = w.cols;
    const std::size_t whole = cols / 8 * 8;
    const auto tail = static_cast<__mmask8>(~FirstLanes(8 - (cols - whole)));
    __m512i count = _mm512_setzero_si512();
    const double* sp = w.score_prior;
    const double* up = w.update_prior;
    for (std::size_t r = 0; r < w.rows; ++r) {
      const std::size_t j0 = r * cols;
      if (cols < 8) {
        const __mmask8 valid = FirstLanes(cols);
        Lanes<kCount, kUpdate, kPlain>(w, _mm512_maskz_loadu_pd(valid, e), e,
                                       sp, up, 0, valid, j0, count);
      } else {
        // The whole vectors walked alone: all of them, or all but the
        // last when a tail shares its lanes.
        const std::size_t alone = whole == cols ? whole : whole - 8;
        for (std::size_t c = 0; c < alone; c += 8) {
          Lanes<kCount, kUpdate, kPlain>(w, _mm512_loadu_pd(e + c), e, sp, up,
                                         c, 0xFF, j0, count);
        }
        if (alone != whole) {
          const std::size_t t = cols - 8;  // the tail's first column
          const __m512d last_ev = _mm512_loadu_pd(e + alone);
          const __m512d tail_ev = _mm512_maskz_loadu_pd(tail, e + t);
          Lanes<kCount, kUpdate, kPlain>(w, last_ev, e, sp, up, alone, 0xFF,
                                         j0, count);
          Lanes<kCount, kUpdate, kPlain>(w, tail_ev, e, sp, up, t, tail, j0,
                                         count);
        }
      }
      if constexpr (kCount) sp += w.stride;
      if constexpr (kUpdate) up += w.stride;
      e += cols;
    }
    std::uint64_t lanes[8];
    _mm512_storeu_si512(lanes, count);
    std::uint64_t total = 0;
    for (const std::uint64_t lane : lanes) total += lane;
    return static_cast<std::size_t>(total);
  }

  // Lanes `valid` of the vector at column c of a slice whose evidence
  // starts at `e` (row entry j0) and whose prior slices start at `sp` and
  // `up`; `ev` holds its evidence, already loaded. Counts the lanes' hits
  // and stores their Eq. (2) update.
  template <bool kCount, bool kUpdate, bool kPlain>
  __attribute__((target("avx512f"), always_inline)) static inline void Lanes(
      const RowWalk& w, __m512d ev, double* e, const double* sp,
      const double* up, std::size_t c, __mmask8 valid, std::size_t j0,
      __m512i& count) {
    if constexpr (kCount) {
      const __m512d target = _mm512_set1_pd(w.target);
      const std::size_t j = j0 + c;
      const __mmask8 below = FirstLanes(w.to > j ? w.to - j : 0);
      const __m512d wv =
          _mm512_add_pd(_mm512_maskz_loadu_pd(valid, sp + c), ev);
      const __mmask8 hit = static_cast<__mmask8>(
          _mm512_mask_cmp_pd_mask(static_cast<__mmask8>(valid & below), wv,
                                  target, _CMP_GE_OQ) |
          _mm512_mask_cmp_pd_mask(static_cast<__mmask8>(valid & ~below), wv,
                                  target, _CMP_GT_OQ));
      count = _mm512_mask_add_epi64(count, hit, count, _mm512_set1_epi64(1));
    }
    if constexpr (kUpdate) {
      const __m512d lw = _mm512_maskz_loadu_pd(valid, up + c);
      __m512d next;
      if constexpr (kPlain) {
        next = _mm512_add_pd(ev, lw);
      } else {
        next = _mm512_add_pd(_mm512_mul_pd(ev, _mm512_set1_pd(w.forgetting)),
                             _mm512_mul_pd(_mm512_set1_pd(w.weight), lw));
      }
      _mm512_mask_storeu_pd(e + c, valid, next);
    }
  }
};

bool ProbeAvx512() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
}
#else
bool ProbeAvx512() { return false; }
#endif

}  // namespace

std::size_t RowWalkScalar(const RowWalk& walk, double* evidence) {
  return DispatchWalk<ScalarBody>(walk, evidence);
}

std::size_t RowWalkAvx512(const RowWalk& walk, double* evidence) {
#if defined(__x86_64__) && defined(__GNUC__)
  return DispatchWalk<Avx512Body>(walk, evidence);
#else
  return RowWalkScalar(walk, evidence);
#endif
}

bool RowWalkAvx512Supported() {
  static const bool supported = ProbeAvx512();
  return supported;
}

namespace {

using RowWalkFn = std::size_t (*)(const RowWalk&, double*);

const RowWalkFn kRowWalkFn =
    RowWalkAvx512Supported() ? RowWalkAvx512 : RowWalkScalar;

}  // namespace

// The row scans below start the max at entry 0 and then visit every
// entry, entry 0 included: std::max(m, m) returns m, so the result is
// the bits of the scan that starts at entry 1.

std::size_t TransitionMatrix::FillStats(std::size_t from, std::size_t to,
                                        double target) const {
  const double* ev = Row(from);
  const std::size_t cols = cols_;
  double max_logw = PosteriorLogW(from, 0);
  std::size_t rank = 1;
  ForEachPriorSlice(from, [&](const double* lw, std::size_t j0) {
    const double* e = ev + j0;
    const std::size_t split = std::clamp(to, j0, j0 + cols) - j0;
    for (std::size_t c = 0; c < split; ++c) {
      const double w = lw[c] + e[c];
      max_logw = std::max(max_logw, w);
      rank += static_cast<std::size_t>(w >= target);
    }
    for (std::size_t c = split; c < cols; ++c) {
      const double w = lw[c] + e[c];
      max_logw = std::max(max_logw, w);
      rank += static_cast<std::size_t>(w > target);
    }
  });
  double total = 0.0;
  ForEachPriorSlice(from, [&](const double* lw, std::size_t j0) {
    for (std::size_t c = 0; c < cols; ++c) {
      total += std::exp(lw[c] + ev[j0 + c] - max_logw);
    }
  });
  RowCache& rc = cache_[from];
  rc.max_logw = max_logw;
  rc.sum_exp = total;
  rc.stats_valid = true;
  return rank;
}

const TransitionMatrix::RowCache& TransitionMatrix::RowStats(
    std::size_t from) const {
  // The rank FillStats counts on the way is not needed here.
  if (!cache_[from].stats_valid) (void)FillStats(from, 0, 0.0);
  return cache_[from];
}

std::size_t TransitionMatrix::RankInRow(std::size_t from, std::size_t to,
                                        double target) const {
  // The kernel's count-only walk, which only reads the row.
  RowWalk walk = ShapeWalk();
  walk.score_prior = PriorRow(from);
  walk.to = to;
  walk.target = target;
  return 1 + kRowWalkFn(walk, const_cast<double*>(Row(from)));
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
  const double target = PosteriorLogW(from, to);
  const RowCache& rc = cache_[from];
  if (mode == ScoreMode::kFull && !rc.stats_valid) {
    // The memo's max pass counts the rank too: one pass fewer than the
    // count walk followed by the memo's two.
    out.rank = FillStats(from, to, target);
  } else {
    out.rank = RankInRow(from, to, target);
  }
  if (mode == ScoreMode::kFull) {
    out.probability = std::exp(target - rc.max_logw) / rc.sum_exp;
  }
  return out;
}

std::vector<double> TransitionMatrix::RowDistribution(std::size_t from) const {
  if (cells_ == 0) return {};
  PMCORR_DASSERT(from < cells_);
  const RowCache& rc = RowStats(from);
  std::vector<double> row(cells_);
  const double* ev = Row(from);
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
// `observed`: the row kernel's update-only walk.
void TransitionMatrix::UpdateRowEvidence(std::size_t from,
                                         std::size_t observed, double weight,
                                         double forgetting) {
  RowWalk walk = ShapeWalk();
  walk.update_prior = PriorRow(observed);
  walk.weight = weight;
  walk.forgetting = forgetting;
  kRowWalkFn(walk, WritableRow(from));
  BumpCount(from, observed);
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

std::size_t TransitionMatrix::ScoreAndObserve(std::size_t from,
                                              std::size_t to, double weight,
                                              double forgetting) {
  PMCORR_DASSERT(from < cells_ && to < cells_);
  RowWalk walk = ShapeWalk();
  walk.score_prior = PriorRow(from);
  walk.to = to;
  walk.target = PosteriorLogW(from, to);
  walk.update_prior = PriorRow(to);
  walk.weight = weight;
  walk.forgetting = forgetting;
  const std::size_t rank = 1 + kRowWalkFn(walk, WritableRow(from));
  BumpCount(from, to);
  ++observed_;
  InvalidateRow(from);
  // Row `to` is the source row of the pair's next step.
  const auto* next = reinterpret_cast<const char*>(Row(to));
  for (std::size_t b = 0; b < cells_ * sizeof(double); b += 64) {
    __builtin_prefetch(next + b);
  }
  return rank;
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
  double* e = WritableRow(from);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* lw = stencil_.RowSlice(static_cast<int>(r) - oi, oj);
    for (std::size_t c = 0; c < cols_; ++c) {
      e[c] = e[c] * forgetting + weight * lw[c];
    }
    e += cols_;
  }
  BumpCount(from, observed);
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
    std::span<const Transition> transitions, double weight,
    double forgetting) {
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
  // offsets[row + 1) indexes the row's slots in `slots`.
  std::vector<std::size_t> offsets(cells_ + 1, 0);
  for (const Transition& t : transitions) ++offsets[t.from + 1];
  for (std::size_t i = 1; i <= cells_; ++i) offsets[i] += offsets[i - 1];
  std::vector<std::uint32_t> slots(n);
  {
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const Transition& t : transitions) {
      slots[cursor[t.from]++] = slot[t.to];
    }
  }

  // Counts are integers, so they are tallied here rather than in the
  // sweeps: each row's bucket is tallied by prior slot, and the slots,
  // which ascend with their destinations, are read back in order over
  // the bucket's slot range (transitions are local, so the range is
  // narrow) and merged with the row's list into a new pool, in row
  // order.
  std::vector<std::uint32_t> dest_of(visited);
  for (std::size_t d = 0; d < cells_; ++d) {
    if (slot[d] != kUnvisited) dest_of[slot[d]] = static_cast<std::uint32_t>(d);
  }
  std::vector<CountEntry> pool;
  pool.reserve(count_pool_.size() + n);  // old entries, one per transition
  std::vector<std::uint32_t> begin(cells_ + 1);
  std::vector<std::uint32_t> tally(visited, 0);
  for (std::size_t row = 0; row < cells_; ++row) {
    begin[row] = static_cast<std::uint32_t>(pool.size());
    const std::span<const CountEntry> old = CountRow(row);
    auto o = old.begin();
    if (offsets[row] != offsets[row + 1]) {
      std::uint32_t lo = slots[offsets[row]];
      std::uint32_t hi = lo;
      for (std::size_t k = offsets[row]; k < offsets[row + 1]; ++k) {
        ++tally[slots[k]];
        lo = std::min(lo, slots[k]);
        hi = std::max(hi, slots[k]);
      }
      for (std::size_t sl = lo; sl <= hi; ++sl) {
        if (tally[sl] == 0) continue;
        const std::uint32_t column = dest_of[sl];
        for (; o != old.end() && o->column < column; ++o) pool.push_back(*o);
        std::uint32_t count = std::exchange(tally[sl], 0);
        if (o != old.end() && o->column == column) count += (o++)->count;
        pool.push_back(CountEntry{column, count});
      }
    }
    pool.insert(pool.end(), o, old.end());
  }
  begin[cells_] = static_cast<std::uint32_t>(pool.size());
  count_pool_ = {};
  ReserveCounts(pool.size());  // the merged size plus the usual headroom
  count_pool_.assign(pool.begin(), pool.end());
  count_begin_ = std::move(begin);

  std::size_t first_writes = 0;
  for (std::size_t row = 0; row < cells_; ++row) {
    if (offsets[row] != offsets[row + 1] && evidence_slot_[row] == 0) {
      ++first_writes;
    }
  }
  // One resize makes room for every row this replay writes first, so
  // the sweeps below take their slots from an arena that never grows.
  ReserveRows(first_writes);
  auto next_slot = static_cast<std::uint32_t>(arena_.size() / cells_);
  arena_.resize(arena_.size() + first_writes * cells_, 0.0);

  // Replay each bucket in order. Buckets touch disjoint evidence rows,
  // so replaying row by row produces the exact bits of the sequential
  // ObserveTransition loop.
  for (std::size_t row = 0; row < cells_; ++row) {
    if (offsets[row] == offsets[row + 1]) continue;
    if (evidence_slot_[row] == 0) evidence_slot_[row] = next_slot++;
    kReplayRowFn(arena_.data() + std::size_t{evidence_slot_[row]} * cells_,
                 prior.data(), cells_,
                 slots.data() + offsets[row], offsets[row + 1] - offsets[row],
                 weight, forgetting);
    InvalidateRow(row);
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
  const double* ev = Row(from);
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
  const std::span<const CountEntry> row = CountRow(from);
  const auto at = std::lower_bound(
      row.begin(), row.end(), to,
      [](const CountEntry& e, std::size_t c) { return e.column < c; });
  return at != row.end() && at->column == to ? at->count : 0;
}

void TransitionMatrix::ApplyExtension(const GridExtension& ext,
                                      std::size_t old_cols,
                                      const Grid2D& new_grid,
                                      const DecayKernel& kernel,
                                      double likelihood_weight) {
  const std::size_t old_cells = cells_;
  TransitionMatrix grown = Prior(new_grid, kernel);
  std::vector<std::uint32_t> remap(old_cells);
  std::vector<bool> is_old(grown.cells_, false);
  std::size_t rows = 0;
  for (std::size_t i = 0; i < old_cells; ++i) {
    remap[i] = static_cast<std::uint32_t>(Grid2D::RemapIndex(i, old_cols, ext));
    is_old[remap[i]] = true;
    rows += RowWritten(i) || !CountRow(i).empty() ? 1 : 0;
  }
  grown.ReserveRows(rows);
  grown.ReserveCounts(count_pool_.size());
  grown.observed_ = observed_;

  // Coordinates of every new-grid cell, decomposed once (the backfill
  // pairs every new column with every historical destination).
  std::vector<CellCoord> coords(grown.cells_);
  for (std::size_t j = 0; j < grown.cells_; ++j) {
    coords[j] = CellCoord{static_cast<int>(j / grown.cols_),
                          static_cast<int>(j % grown.cols_)};
  }

  // A row with evidence or counts moves to its remapped index; a row
  // with neither stays unwritten. Remapping keeps row-major order, so
  // the rows' count lists land in the new pool in row order, each still
  // ascending; `next` is the first new row whose offset is unset.
  struct Dest {
    CellCoord coord;
    double count;
  };
  std::vector<Dest> dests;
  std::size_t next = 0;
  for (std::size_t i = 0; i < old_cells; ++i) {
    const std::span<const CountEntry> counts = CountRow(i);
    if (!RowWritten(i) && counts.empty()) continue;
    const std::size_t ni = remap[i];
    double* row = grown.WritableRow(ni);
    const double* old_row = Row(i);
    for (std::size_t j = 0; j < old_cells; ++j) row[remap[j]] = old_row[j];
    for (; next <= ni; ++next) {
      grown.count_begin_[next] =
          static_cast<std::uint32_t>(grown.count_pool_.size());
    }
    dests.clear();
    for (const CountEntry& e : counts) {
      grown.count_pool_.push_back(CountEntry{remap[e.column], e.count});
      dests.push_back(Dest{coords[remap[e.column]],
                           static_cast<double>(e.count)});
    }
    if (dests.empty()) continue;
    // Backfill evidence for the new columns of a previously-observed row
    // from its (destination, count) history, in ascending old-index
    // order (the summation order is pinned).
    for (std::size_t nj = 0; nj < grown.cells_; ++nj) {
      if (is_old[nj]) continue;
      const CellCoord nc = coords[nj];
      double evidence = 0.0;
      for (const Dest& d : dests) {
        evidence += d.count * grown.stencil_.LogWeight(d.coord.i1 - nc.i1,
                                                       d.coord.i2 - nc.i2);
      }
      row[nj] = likelihood_weight * evidence;
    }
  }
  for (; next <= grown.cells_; ++next) {
    grown.count_begin_[next] =
        static_cast<std::uint32_t>(grown.count_pool_.size());
  }
  *this = std::move(grown);
}

void TransitionMatrix::CheckInvariants() const {
  if (cells_ == 0) {
    PMCORR_ASSERT(rows_ == 0 && cols_ == 0, "empty matrix with grid shape "
                                                << rows_ << "x" << cols_);
    PMCORR_ASSERT(stencil_.Empty() && arena_.empty() &&
                      evidence_slot_.empty() && count_pool_.empty() &&
                      count_begin_.empty() && cache_.empty(),
                  "empty matrix with live arrays");
    PMCORR_ASSERT(observed_ == 0, "empty matrix observed " << observed_);
    return;
  }
  PMCORR_ASSERT(rows_ * cols_ == cells_, "grid shape " << rows_ << "x"
                                                       << cols_ << " != "
                                                       << cells_ << " cells");
  PMCORR_ASSERT(evidence_slot_.size() == cells_,
                "evidence slot table size " << evidence_slot_.size());
  PMCORR_ASSERT(count_begin_.size() == cells_ + 1 && count_begin_[0] == 0 &&
                    count_begin_[cells_] == count_pool_.size(),
                "count offsets of size " << count_begin_.size()
                                         << " for a pool of "
                                         << count_pool_.size());
  PMCORR_ASSERT(cache_.size() == cells_, "cache size " << cache_.size());
  PMCORR_ASSERT(!arena_.empty() && arena_.size() % cells_ == 0,
                "arena of " << arena_.size() << " doubles for " << cells_
                            << " cells");
  // The stencil is the prior: a drifted entry fails its symmetry,
  // center or decay clauses here.
  stencil_.CheckInvariants();
  PMCORR_ASSERT(stencil_.Matches(rows_, cols_),
                "stencil built for " << stencil_.GridRows() << "x"
                                     << stencil_.GridCols() << ", grid is "
                                     << rows_ << "x" << cols_);

  // Per-thread scratch, grown and never shrunk, so an audited Step stays
  // allocation-free.
  thread_local std::vector<std::uint8_t> seen;
  // Row i of the posterior, read entry by entry through PriorLogW — a
  // path independent of the slice walks the kernels use.
  thread_local std::vector<double> post;
  const std::size_t slots = arena_.size() / cells_;
  if (seen.size() < slots) seen.resize(slots);
  if (post.size() < cells_) post.resize(cells_);

  // Sparse storage: slot 0 is the shared zero row, bitwise +0.0, and
  // every other slot belongs to exactly one row.
  for (std::size_t j = 0; j < cells_; ++j) {
    PMCORR_ASSERT(std::bit_cast<std::uint64_t>(arena_[j]) == 0,
                  "shared zero row entry " << j << " = " << arena_[j]);
  }
  std::fill_n(seen.begin(), slots, 0);
  for (std::size_t i = 0; i < cells_; ++i) {
    const std::uint32_t slot = evidence_slot_[i];
    if (slot == 0) continue;
    PMCORR_ASSERT(slot < slots && !seen[slot],
                  "row " << i << " holds arena slot " << slot << " of "
                         << slots);
    seen[slot] = 1;
  }
  for (std::size_t slot = 1; slot < slots; ++slot) {
    PMCORR_ASSERT(seen[slot], "arena slot " << slot << " has no row");
  }
  // Count lists: strictly ascending columns inside the grid, nonzero
  // counts.
  std::uint64_t count_total = 0;
  for (std::size_t i = 0; i < cells_; ++i) {
    PMCORR_ASSERT(count_begin_[i] <= count_begin_[i + 1],
                  "row " << i << " count offsets descend");
    const std::span<const CountEntry> counts = CountRow(i);
    for (std::size_t k = 0; k < counts.size(); ++k) {
      PMCORR_ASSERT(counts[k].column < cells_ && counts[k].count > 0 &&
                        (k == 0 || counts[k - 1].column < counts[k].column),
                    "row " << i << " count entry " << k << " ("
                           << counts[k].column << ", " << counts[k].count
                           << ")");
      count_total += counts[k].count;
    }
  }

  for (std::size_t i = 0; i < cells_; ++i) {
    const double* ev = Row(i);
    for (std::size_t j = 0; j < cells_; ++j) {
      PMCORR_ASSERT(std::isfinite(ev[j]) && ev[j] <= 0.0,
                    "evidence (" << i << "," << j << ") = " << ev[j]);
      post[j] = PosteriorLogW(i, j);
    }

    // Row i of the posterior stays a probability distribution: the
    // normalized row sums to 1. Recomputed here without touching the
    // normalizer memo, in the memo's scan order.
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

    // Memo coherence: memoized values must be exactly what the scans
    // above produce — a stale-but-valid memo is silent corruption.
    const RowCache& rc = cache_[i];
    if (rc.stats_valid) {
      PMCORR_ASSERT(rc.max_logw == max_logw,
                    "row " << i << " cached max " << rc.max_logw
                           << " != " << max_logw);
      PMCORR_ASSERT(rc.sum_exp == sum_exp, "row " << i << " cached sum-exp "
                                                  << rc.sum_exp
                                                  << " != " << sum_exp);
    }
  }
  PMCORR_ASSERT(count_total == observed_, "counts sum to "
                                              << count_total << ", observed "
                                              << observed_);
}

std::span<double> TransitionMatrix::RestoreEvidenceRow(std::size_t row) {
  PMCORR_DASSERT(row < cells_ && evidence_slot_[row] == 0);
  return {WritableRow(row), cells_};
}

void TransitionMatrix::RestoreCountRow(std::size_t row,
                                       std::span<const CountEntry> entries) {
  PMCORR_DASSERT(row < cells_ && count_begin_[row] == count_pool_.size());
  ReserveCounts(entries.size());
  count_pool_.insert(count_pool_.end(), entries.begin(), entries.end());
  for (std::size_t r = row + 1; r <= cells_; ++r) {
    count_begin_[r] = static_cast<std::uint32_t>(count_pool_.size());
  }
  for (const CountEntry& e : entries) observed_ += e.count;
}

MatrixBytes TransitionMatrix::Bytes() const {
  MatrixBytes bytes;
  if (cells_ != 0) {
    bytes.stencil = (2 * rows_ - 1) * (2 * cols_ - 1) * sizeof(double);
  }
  bytes.evidence = arena_.capacity() * sizeof(double) +
                   evidence_slot_.capacity() * sizeof(std::uint32_t);
  bytes.counts = count_pool_.capacity() * sizeof(CountEntry) +
                 count_begin_.capacity() * sizeof(std::uint32_t);
  bytes.caches = cache_.capacity() * sizeof(RowCache);
  return bytes;
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
    for (const CountEntry& e : matrix.CountRow(i)) {
      const CellCoord ca = coords[i];
      const CellCoord cb = coords[e.column];
      const auto d = static_cast<std::size_t>(
          std::max(std::abs(ca.i1 - cb.i1), std::abs(ca.i2 - cb.i2)));
      if (d >= hist.size()) hist.resize(d + 1, 0);
      hist[d] += e.count;
    }
  }
  return hist;
}

}  // namespace pmcorr
