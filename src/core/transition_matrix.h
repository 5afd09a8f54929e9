// The transition probability matrix V (Sections 3 and 4.2).
//
// Row i of V is a discrete distribution P(c_i -> c_j) over all s cells.
// The posterior of Eq. (1) factors as prior x likelihood; we store the
// two factors separately in log space:
//
//   log V_ij  ∝  K(c_j - c_i) + evidence[i][j]
//
// where K is the kernel-shaped prior (Section 4.2 "Prior Distribution"),
// a log weight of the coordinate delta between the two cells, and
// evidence accumulates the Eq. (2) likelihood terms — the additive
// log-space updates the paper describes. Keeping the factors apart has
// two benefits: exponential forgetting shrinks *evidence* toward zero
// (i.e. the posterior decays toward the prior, not toward a uniform
// distribution), and grid extensions can rebuild the prior for the grown
// grid while merely remapping the evidence.
//
// Alongside the posterior we keep raw empirical transition counts; they
// power the locality statistics (Section 4.2's 701/412/280 analysis) and
// the Figure 9/10 prior-vs-posterior demonstration.
//
// Hot-path layout (see docs/kernels.md for the full contract):
//  * The prior is never materialized. K takes only (2r-1) x (2c-1)
//    distinct values, tabulated once per grid shape in a KernelStencil,
//    and prior row i — the kernel centered at cell i — is r contiguous
//    c-element stencil slices, one per grid row of destinations. Every
//    row scan walks those slices in ascending destination order, so it
//    sees the same doubles in the same order a materialized s x s copy
//    would give it. The stencil is about 4s doubles.
//  * Evidence is stored only for rows that were written. A row takes an
//    s-double slot from a per-matrix arena on its first write; every
//    unwritten row reads one shared all-zero row (slot 0), so the row
//    kernels stay branch-free and add the same +0.0 bits a dense s x s
//    array would hold. The arena grows geometrically, by an eighth.
//  * Counts are per-row (column, count) lists in ascending column order,
//    nonzero entries only, stored back to back in row order in one pool
//    with s + 1 row offsets. A new entry is inserted in place, shifting
//    the pool's tail; only a transition never seen before pays that.
//    The sparsity is the paper's locality finding: most transitions stay
//    in-cell or go to a neighbouring cell.
//  * The Eq. (2) likelihood vector for an observed destination d is the
//    kernel centered at d, i.e. prior row d. The batch ReplayTransitions
//    gathers the prior rows of the destinations it replays into a
//    per-call scratch table once, then updates each source row with
//    flat s-element sweeps.
//  * One row kernel (RowWalk) serves the online step: a walk over one
//    evidence row and the stencil slices of two prior rows that counts
//    the rank of a destination, applies the Eq. (2) update, or both in
//    the same pass. ScoreAndObserve is the fused form the engine's
//    unalarmable step takes; RankInRow and ObserveTransition are its
//    count-only and update-only forms. The
//    kernel has a portable scalar body and an AVX-512F body whose slice
//    tails are masked loads and stores, picked once per process by a CPU
//    probe; both give the same bits.
//  * A full read's normalizer (row max, sum of exponentials) is memoized
//    per row and invalidated whenever the row's evidence changes; the
//    read that fills it counts the rank in its max pass. The memo holds
//    the *same* doubles the uncached scans produce, in the same order,
//    so results are bitwise identical with or without it. A rank-only
//    read (ScoreMode::kRankOnly, the paper's Q score) is the count walk
//    alone and never computes the normalizer.
//  * The memo makes const query methods non-reentrant: a
//    TransitionMatrix must be confined to one thread at a time. The
//    pair-sharded engine guarantees this (each pair model, and
//    therefore each matrix, is owned by exactly one shard).
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

#include "common/check.h"
#include "grid/grid.h"
#include "grid/kernels.h"

namespace pmcorr {

/// One observed cell-to-cell transition in a compiled history sequence
/// (see PairModel::Learn and TransitionMatrix::ReplayTransitions).
struct Transition {
  std::uint32_t from = 0;
  std::uint32_t to = 0;

  friend constexpr bool operator==(Transition, Transition) = default;
};

/// Result of scoring one transition against its matrix row: the
/// normalized transition probability and the paper's 1-based rank.
struct TransitionScore {
  double probability = 0.0;
  std::size_t rank = 0;
};

/// One nonzero empirical count of a matrix row: `count` transitions to
/// cell `column`.
struct CountEntry {
  std::uint32_t column = 0;
  std::uint32_t count = 0;

  friend constexpr bool operator==(CountEntry, CountEntry) = default;
};

/// Heap bytes a TransitionMatrix holds, by component (capacities, not
/// sizes).
struct MatrixBytes {
  std::size_t stencil = 0;   // the prior's (2r-1) x (2c-1) log weights
  std::size_t evidence = 0;  // the arena (zero row, written rows), slot table
  std::size_t counts = 0;    // the count pool and its row offsets
  std::size_t caches = 0;    // the per-row normalizer memo

  std::size_t Total() const { return stencil + evidence + counts + caches; }
};

/// One walk of the row kernel under ScoreAndObserve, RankInRow and
/// ObserveTransition (docs/kernels.md "The row kernel"). The
/// walked evidence row holds rows * cols entries; a prior row is read as
/// `rows` stencil slices of `cols` log weights, `stride` doubles apart
/// (a KernelStencil's width, 2 * cols - 1). Entry j of the row lives at
/// slice j / cols, column j % cols. The walk does either or both of:
///  * count, when `score_prior` is set: the entries j with
///    w_j = score_prior(j) + evidence[j] >= target for j < to, and
///    w_j > target for j >= to, read before any update. With target the
///    posterior log weight of `to` itself, that count is its rank minus
///    one under the (desc weight, asc index) tie rule;
///  * update, when `update_prior` is set: Eq. (2),
///    evidence[j] = evidence[j] * forgetting + weight * update_prior(j).
///    With weight and forgetting both 1 the multiplies are dropped,
///    which changes no bits (x * 1.0 == x exactly).
struct RowWalk {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t stride = 0;
  const double* score_prior = nullptr;  // first slice; null: no count
  std::size_t to = 0;
  double target = 0.0;
  const double* update_prior = nullptr;  // first slice; null: no update
  double weight = 1.0;
  double forgetting = 1.0;
};

/// The bodies of the row kernel, callable directly so tests cover both
/// on a CPU with AVX-512F and the fallback everywhere. RowWalkScalar is
/// the portable body: the fallback, and the reference the tests hold the
/// other to. RowWalkAvx512 walks each slice in 8-lane vectors and ends
/// it in a tail vector anchored at the slice's end, masked on load and
/// store; call it only when RowWalkAvx512Supported(). Both return the
/// count (0 when the walk does not count) and leave the same bits in
/// `evidence`, which a walk without `update_prior` only reads.
std::size_t RowWalkScalar(const RowWalk& walk, double* evidence);
std::size_t RowWalkAvx512(const RowWalk& walk, double* evidence);
bool RowWalkAvx512Supported();

/// What a scoring read computes. kFull fills both fields of
/// TransitionScore. kRankOnly fills only the rank — all the paper's
/// fitness score Q = 1 - (rank - 1) / s needs — and leaves probability
/// at 0: it is the count walk alone, without the max pass and the s
/// exp() calls of a normalizer the row has not memoized. The rank is
/// the same either way.
enum class ScoreMode { kFull, kRankOnly };

class TransitionMatrix {
 public:
  TransitionMatrix() = default;

  /// Builds the prior V for `grid`: row i is the normalized kernel
  /// centered at cell i; evidence starts at zero. Tabulates the kernel
  /// into the (2r-1) x (2c-1) stencil; no s x s table is built.
  static TransitionMatrix Prior(const Grid2D& grid, const DecayKernel& kernel);

  std::size_t CellCount() const { return cells_; }

  /// Normalized P(c_from -> c_to) under the current posterior.
  /// Returns 0 on an empty (default-constructed) matrix.
  double Probability(std::size_t from, std::size_t to) const;

  /// Probability and rank of (from, to). The probability is read off
  /// the row's normalizer memo. The rank is the row kernel's count walk,
  /// except on the first full read after a write, whose memo fill counts
  /// it in the max pass. Bitwise identical to calling Probability() and
  /// RankOf() back-to-back. With ScoreMode::kRankOnly the probability is
  /// not computed (left 0) and the memo is not filled; a later full read
  /// of the row still returns the same bits. Returns {0, 0} on an empty
  /// matrix.
  TransitionScore ScoreTransition(std::size_t from, std::size_t to,
                                  ScoreMode mode = ScoreMode::kFull) const;

  /// The full normalized row distribution of `from`; empty on an empty
  /// matrix.
  std::vector<double> RowDistribution(std::size_t from) const;

  /// Applies one observed transition from `from` into `observed` (Eq. 2):
  /// first scales row `from`'s accumulated evidence by `forgetting`, then
  /// adds weight * LogWeight(d(observed, c_j)) to every entry, reading
  /// the kernel centered at `observed` as r stencil slices.
  void ObserveTransition(std::size_t from, std::size_t observed,
                         const Grid2D& grid, const DecayKernel& kernel,
                         double weight = 1.0, double forgetting = 1.0);

  /// ScoreTransition(from, to, ScoreMode::kRankOnly).rank followed by
  /// ObserveTransition(from, to, ..., weight, forgetting), as one walk
  /// over row `from`: the rank counts the row as it stands before the
  /// update, and every evidence entry is read and written once. Returns
  /// that rank; the evidence, counts, ObservedCount() and normalizer memo
  /// end exactly as the two calls leave them. For callers whose update
  /// no score can veto (PairModel::Step with no alarm bound armed).
  std::size_t ScoreAndObserve(std::size_t from, std::size_t to,
                              double weight = 1.0, double forgetting = 1.0);

  /// The pre-replay-pipeline form of ObserveTransition, retained
  /// verbatim: walks the kernel stencil one grid-row slice at a time and
  /// applies the unspecialized Eq. (2) update e = e * forgetting +
  /// weight * lw to every entry (ObserveTransition drops the multiplies
  /// by 1.0, which changes no bits). It shares no code with the gathered
  /// flat sweeps of ReplayTransitions — which is exactly why it stays:
  /// it is the oracle the Learn differential tests pin ReplayTransitions
  /// against, and the faithful "A" side of the model-building benchmark.
  void ObserveTransitionStencil(std::size_t from, std::size_t observed,
                                const Grid2D& grid, const DecayKernel& kernel,
                                double weight = 1.0, double forgetting = 1.0);

  /// Batch form of ObserveTransition for history replay: bitwise
  /// identical to calling ObserveTransition(t.from, t.to, ...) for every
  /// element of `transitions` in order, but bucketed by source row
  /// first. Row updates touch disjoint evidence/count memory, so
  /// replaying each bucket in its original arrival order reproduces the
  /// sequential result exactly (the docs/kernels.md arithmetic-order
  /// contract) while keeping each row cache-resident. The prior rows of
  /// the replayed destinations are gathered from the stencil into a
  /// scratch table that lives for this call only.
  void ReplayTransitions(std::span<const Transition> transitions,
                         double weight = 1.0, double forgetting = 1.0);

  /// The paper's ranking function π over row `from`: rank 1 is the most
  /// probable destination. Ties break toward the lower cell index, making
  /// ranks deterministic. Returns a 1-based rank in [1, s], or 0 on an
  /// empty matrix.
  std::size_t RankOf(std::size_t from, std::size_t to) const;

  /// Cell index with the highest probability in row `from` (0 on an
  /// empty matrix).
  std::size_t ArgMax(std::size_t from) const;

  /// Total observed (empirical) transitions recorded.
  std::uint64_t ObservedCount() const { return observed_; }

  /// Raw empirical count for (from, to).
  std::uint64_t CountOf(std::size_t from, std::size_t to) const;

  /// Grows the matrix after a grid extension: the stencil is rebuilt for
  /// `new_grid`, and evidence/counts move to their remapped indices. For
  /// an existing row, a brand-new column cannot start at zero evidence —
  /// accumulated evidence is negative, so a zero entry would instantly
  /// make the new (never-visited) cell the row's most probable
  /// destination. Instead the new column's evidence is reconstructed
  /// from the row's empirical counts, i.e. what Eq. (2) would have
  /// accumulated had the cell existed all along (exact for
  /// forgetting == 1, a close approximation otherwise).
  /// `new_grid` is the grid *after* the extension, `old_cols` the column
  /// count before it and `likelihood_weight` the Eq. (2) scale in use.
  void ApplyExtension(const GridExtension& ext, std::size_t old_cols,
                      const Grid2D& new_grid, const DecayKernel& kernel,
                      double likelihood_weight = 1.0);

  /// Row `row`'s accumulated evidence, s entries: its arena slot once
  /// written, else the shared all-zero row. Valid until the next write
  /// or restore of any row (the arena may move when it grows).
  std::span<const double> EvidenceRow(std::size_t row) const {
    PMCORR_DASSERT(row < cells_);
    return {Row(row), cells_};
  }

  /// True once row `row` holds an arena slot: it was written by an
  /// observe, a replay, an extension's remap or a restore.
  bool RowWritten(std::size_t row) const {
    PMCORR_DASSERT(row < cells_);
    return evidence_slot_[row] != 0;
  }

  /// Row `row`'s nonzero empirical counts in ascending column order.
  /// Valid until the next write or restore.
  std::span<const CountEntry> CountRow(std::size_t row) const {
    PMCORR_DASSERT(row < cells_);
    return {count_pool_.data() + count_begin_[row],
            count_pool_.data() + count_begin_[row + 1]};
  }

  /// Makes arena room for `rows` more written rows, so the next `rows`
  /// first writes or restores take no allocation; when it must grow, it
  /// adds an eighth as headroom. ReplayTransitions calls it before its
  /// sweeps; the model decoder before restoring.
  void ReserveRows(std::size_t rows);

  /// The decoder's path into the sparse form, on a matrix fresh from
  /// Prior(): takes row `row`'s arena slot and returns it, all +0.0, for
  /// the caller to fill. Each row is restored at most once.
  std::span<double> RestoreEvidenceRow(std::size_t row);

  /// Sets row `row`'s counts to `entries` — nonzero counts in strictly
  /// ascending column order inside the grid — and adds them to
  /// ObservedCount(). Rows are restored in ascending order, each at most
  /// once.
  void RestoreCountRow(std::size_t row, std::span<const CountEntry> entries);

  /// Heap bytes held, by component.
  MatrixBytes Bytes() const;

  /// Grid shape the matrix was built for (rows * cols == CellCount()).
  std::size_t GridRows() const { return rows_; }
  std::size_t GridCols() const { return cols_; }

  /// The prior's kernel log weight for (from, to): the stencil entry at
  /// their coordinate delta — exposed for tests and serialization
  /// round-trip checks.
  double PriorLogW(std::size_t from, std::size_t to) const {
    return stencil_.LogWeight(
        static_cast<int>(to / cols_) - static_cast<int>(from / cols_),
        static_cast<int>(to % cols_) - static_cast<int>(from % cols_));
  }

  /// The precomputed log-weight table in use — the only storage of the
  /// prior (empty on a default-constructed matrix).
  const KernelStencil& Stencil() const { return stencil_; }

  /// Audits the matrix invariants the paper's math and the normalizer
  /// memo rely on:
  ///  * shape agreement — rows * cols == cells, one evidence slot and one
  ///    memo per row, s + 1 count offsets, stencil built for exactly
  ///    this shape and internally valid (it is the prior, so a drifted
  ///    entry fires here);
  ///  * sparse storage — the shared zero row holds only +0.0 bits, every
  ///    other arena slot belongs to exactly one row, and the row offsets
  ///    partition the count pool into lists with strictly ascending
  ///    columns inside the grid and nonzero counts;
  ///  * evidence stays finite and non-positive (Eq. 2 accumulates
  ///    weight * log-weights <= 0 under forgetting in (0, 1]);
  ///  * every row is a probability distribution — the normalized row
  ///    sums to 1 within 1e-9;
  ///  * memo coherence — a memoized (max, sum-exp) equals a
  ///    recomputation in the original scan order bitwise;
  ///  * the counts sum to ObservedCount().
  /// O(s^2) — called from audit-build boundaries and tests, not from
  /// production hot paths.
  void CheckInvariants() const;

 private:
  friend struct InvariantTestPeer;
  // Per-row normalizer memo: `max_logw`/`sum_exp` are the two scans of
  // the normalization, filled by the first full read after a row write.
  struct RowCache {
    bool stats_valid = false;
    double max_logw = 0.0;
    double sum_exp = 0.0;
  };

  /// Row `row`'s evidence: its arena slot, or the shared zero row.
  const double* Row(std::size_t row) const {
    return arena_.data() + std::size_t{evidence_slot_[row]} * cells_;
  }

  double PosteriorLogW(std::size_t from, std::size_t to) const {
    return PriorLogW(from, to) + Row(from)[to];
  }

  /// Row `row`'s evidence for writing: takes the next arena slot on the
  /// row's first write, growing the arena geometrically when it is full.
  double* WritableRow(std::size_t row);

  /// Adds one to the count of (from, to): bumps the entry in place, or
  /// inserts it in column order.
  void BumpCount(std::size_t from, std::size_t to);

  /// The count pool's ReserveRows: room for `entries` more, plus an
  /// eighth when it must grow.
  void ReserveCounts(std::size_t entries);

  /// Calls fn(lw, j0) once per grid row of destinations, in ascending
  /// order: lw[c] is prior row `center`'s log weight for destination
  /// j0 + c, c in [0, cols_) — one contiguous stencil slice. The scans
  /// the row kernel does not serve read the prior through this walk.
  template <typename Fn>
  void ForEachPriorSlice(std::size_t center, Fn&& fn) const;

  /// A RowWalk over this matrix's shape that neither counts nor updates
  /// until its caller sets score_prior or update_prior to PriorRow().
  RowWalk ShapeWalk() const {
    return RowWalk{.rows = rows_, .cols = cols_, .stride = 2 * cols_ - 1};
  }

  /// The first stencil slice of prior row `center`, as a RowWalk reads
  /// it: slice r of the row is `stride` doubles further on.
  const double* PriorRow(std::size_t center) const {
    return stencil_.RowSlice(-static_cast<int>(center / cols_),
                             center % cols_);
  }

  /// The shared Eq. (2) row update (the kernel's update-only walk + count
  /// bump) of ObserveTransition; does not touch observed_ or the
  /// normalizer memo.
  void UpdateRowEvidence(std::size_t from, std::size_t observed,
                         double weight, double forgetting);

  /// Fills row `from`'s (max, sum-exp) memo, scanning in exactly the
  /// order the uncached code used: the max pass, which also counts the
  /// rank of `to` against `target` under RowWalk's tie rule, then the
  /// exponential sum. Returns that rank.
  std::size_t FillStats(std::size_t from, std::size_t to,
                        double target) const;

  /// Fills (if stale) and returns row `from`'s (max, sum-exp) memo.
  const RowCache& RowStats(std::size_t from) const;

  /// Rank of `to` in row `from` given the target log weight: the
  /// kernel's count-only walk.
  std::size_t RankInRow(std::size_t from, std::size_t to,
                        double target) const;

  void InvalidateRow(std::size_t from) { cache_[from].stats_valid = false; }

  std::size_t cells_ = 0;
  std::size_t rows_ = 0;               // grid rows (r)
  std::size_t cols_ = 0;               // grid cols (c)
  KernelStencil stencil_;              // (2r-1) x (2c-1) prior log weights
  // Accumulated log likelihood: s-double slots, slot 0 the shared zero
  // row; evidence_slot_[i] is row i's slot (0 until its first write).
  std::vector<double> arena_;
  std::vector<std::uint32_t> evidence_slot_;
  // Empirical transition counts: row i's list is
  // count_pool_[count_begin_[i], count_begin_[i + 1]).
  std::vector<CountEntry> count_pool_;
  std::vector<std::uint32_t> count_begin_;
  std::uint64_t observed_ = 0;
  mutable std::vector<RowCache> cache_;  // one per row, thread-confined
};

/// Locality histogram of observed transitions: entry d is the number of
/// transitions whose source/destination Chebyshev distance equals d
/// (entry 0 = "stayed in the same cell"). Reproduces Section 4.2's
/// 701-transition analysis.
std::vector<std::uint64_t> TransitionDistanceHistogram(
    const TransitionMatrix& matrix, const Grid2D& grid);

}  // namespace pmcorr
