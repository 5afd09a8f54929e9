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
//    would give it. Per entry the matrix stores 12 bytes (evidence and
//    counts); the stencil is about 4s doubles.
//  * The Eq. (2) likelihood vector for an observed destination d is the
//    kernel centered at d, i.e. prior row d: ObserveTransition sweeps it
//    slice by slice. The batch ReplayTransitions gathers the prior rows
//    of the destinations it replays into a per-call scratch table once,
//    then updates each source row with flat s-element sweeps.
//  * Scoring reads are served by per-row caches (row max, sum of
//    exponentials, and lazily a sorted copy for rank queries),
//    invalidated whenever the row's evidence changes. The cached values
//    are the *same* doubles the uncached scans produce, in the same
//    order, so results are bitwise identical with or without the cache.
//    A rank-only read (ScoreMode::kRankOnly, the paper's Q score) counts
//    the rank in one pass and never computes the normalizer.
//  * The caches make const query methods non-reentrant: a
//    TransitionMatrix must be confined to one thread at a time. The
//    pair-sharded engine guarantees this (each pair model, and
//    therefore each matrix, is owned by exactly one shard).
#pragma once

#include <cstdint>
#include <cstddef>
#include <functional>
#include <span>
#include <utility>
#include <vector>

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

/// Optional fork/join hook for batch operations that decompose into
/// independent tasks: invoked as runner(count, fn), it must call fn(i)
/// exactly once for every i in [0, count) and return only after all
/// calls completed (any schedule, any threads). An empty runner means a
/// plain serial loop. ThreadPool::ParallelFor satisfies this contract —
/// the engine wraps it in a lambda so core stays free of a thread-pool
/// dependency.
using ParallelRunner =
    std::function<void(std::size_t, const std::function<void(std::size_t)>&)>;

/// Result of the fused scoring scan over one matrix row: the normalized
/// transition probability and the paper's 1-based rank, computed in a
/// single pass (plus cache reuse on repeated reads of an unchanged row).
struct TransitionScore {
  double probability = 0.0;
  std::size_t rank = 0;
};

/// What a scoring read computes. kFull fills both fields of
/// TransitionScore. kRankOnly fills only the rank — all the paper's
/// fitness score Q = 1 - (rank - 1) / s needs — and leaves probability
/// at 0: on a freshly written row it is one comparison pass instead of
/// a max pass, a rank pass and s exp() calls for the normalizer. The
/// rank is the same either way.
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

  /// Probability and rank of (from, to) computed together — one fused
  /// row scan instead of the separate Probability + RankOf passes, and
  /// O(log s) from the second read of a row that has not been written
  /// since (alarmed transitions never update the model, so hot rows are
  /// rescored often). Bitwise identical to calling Probability() and
  /// RankOf() back-to-back. With ScoreMode::kRankOnly the probability is
  /// not computed (left 0) and the row normalizer cache is not filled; a
  /// later full read of the row still returns the same bits. Returns
  /// {0, 0} on an empty matrix.
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
  /// contract) while keeping each row cache-resident — and making the
  /// buckets independently schedulable: pass `runner` (e.g. a
  /// ThreadPool::ParallelFor wrapper) to replay rows in parallel. The
  /// prior rows of the replayed destinations are gathered from the
  /// stencil into a scratch table that lives for this call only.
  void ReplayTransitions(std::span<const Transition> transitions,
                         double weight = 1.0, double forgetting = 1.0,
                         const ParallelRunner& runner = {});

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

  /// Accumulated evidence (row-major, s*s) — exposed for serialization.
  const std::vector<double>& Evidence() const { return evidence_; }
  /// Empirical counts (row-major, s*s) — exposed for serialization.
  const std::vector<std::uint32_t>& Counts() const { return counts_; }
  /// Restores evidence/counts saved earlier; the stencil must already
  /// have been built via Prior() on the same grid.
  void RestoreState(std::vector<double> evidence,
                    std::vector<std::uint32_t> counts,
                    std::uint64_t observed);

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

  /// Audits the matrix invariants the paper's math and the row caches
  /// rely on:
  ///  * shape agreement — rows * cols == cells, evidence and counts
  ///    sized s*s, stencil built for exactly this shape and internally
  ///    valid (it is the prior, so a drifted entry fires here);
  ///  * evidence stays finite and non-positive (Eq. 2 accumulates
  ///    weight * log-weights <= 0 under forgetting in (0, 1]);
  ///  * every row is a probability distribution — the normalized row
  ///    sums to 1 within 1e-9;
  ///  * cache coherence — cached (max, sum-exp) row stats equal a
  ///    recomputation in the original scan order bitwise; a sorted rank
  ///    index (which a rank-only read may build without the stats) is a
  ///    permutation of [0, s), ordered (desc weight, asc index), whose
  ///    keys match the live posterior bitwise;
  ///  * counts_ sums to ObservedCount().
  /// O(s^2) — called from audit-build boundaries and tests, not from
  /// production hot paths.
  void CheckInvariants() const;

 private:
  friend struct InvariantTestPeer;
  // Per-row scoring cache. `max_logw`/`sum_exp` mirror the two scans of
  // the normalization (filled by the first full read after a row write);
  // `sorted` is the row's posterior log weights ordered (desc weight,
  // asc index) for O(log s) rank queries, built lazily on the second
  // score of an unchanged row — rows that are written every step never
  // pay for the sort. `scored` marks that first score, full or
  // rank-only.
  struct RowCache {
    bool stats_valid = false;
    bool sorted_valid = false;
    bool scored = false;
    double max_logw = 0.0;
    double sum_exp = 0.0;
    std::vector<std::pair<double, std::uint32_t>> sorted;
  };

  double PosteriorLogW(std::size_t from, std::size_t to) const {
    return PriorLogW(from, to) + evidence_[from * cells_ + to];
  }

  /// Calls fn(lw, j0) once per grid row of destinations, in ascending
  /// order: lw[c] is prior row `center`'s log weight for destination
  /// j0 + c, c in [0, cols_) — one contiguous stencil slice. Every row
  /// kernel reads the prior through this walk.
  template <typename Fn>
  void ForEachPriorSlice(std::size_t center, Fn&& fn) const;

  /// The shared Eq. (2) row update (evidence sweep + count bump) of
  /// ObserveTransition; does not touch observed_ or the row cache.
  void UpdateRowEvidence(std::size_t from, std::size_t observed,
                         double weight, double forgetting);

  /// Fills (if stale) and returns row `from`'s (max, sum-exp) cache,
  /// scanning in exactly the order the uncached code used.
  const RowCache& RowStats(std::size_t from) const;

  /// Builds row `from`'s sorted cache (needs no other cache).
  void BuildSorted(std::size_t from) const;

  /// Rank of `to` in row `from` given the target log weight, via the
  /// sorted cache when valid, else a linear scan.
  std::size_t RankInRow(std::size_t from, std::size_t to,
                        double target) const;

  void InvalidateRow(std::size_t from) {
    RowCache& rc = cache_[from];
    rc.stats_valid = false;
    rc.sorted_valid = false;
    rc.scored = false;
  }

  std::size_t cells_ = 0;
  std::size_t rows_ = 0;               // grid rows (r)
  std::size_t cols_ = 0;               // grid cols (c)
  KernelStencil stencil_;              // (2r-1) x (2c-1) prior log weights
  std::vector<double> evidence_;       // s*s accumulated log likelihood
  std::vector<std::uint32_t> counts_;  // s*s empirical transition counts
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
