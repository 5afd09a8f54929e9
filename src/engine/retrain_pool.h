// Shared bounded rolling-retrain pool.
//
// The paper initializes each pair model "from a snapshot of history
// data, e.g., collected from last month"; the pool keeps that snapshot
// fresh. Every registered pair has a sliding window of its recent
// samples, and on a fixed cadence the window is snapshotted and queued
// for a rebuild (PairModel::Learn over the window). The serving model
// always lives with the caller — SystemMonitor's models_ array, via
// MonitorConfig::retrain — which feeds each sample to Observe and swaps
// in a finished rebuild from TakeAdoptable at a sample boundary, so
// every sample is judged by exactly one model. A failed rebuild is
// counted and leaves the caller serving its current model; the pair
// tries again at its next cadence. One FIFO work queue is drained by a
// fixed number of workers, so the thread count is a deployment
// constant, independent of pair count.
//
// Fairness: the queue is strictly FIFO and a pair occupies at most one
// slot (queued, running, or awaiting adoption) at a time, so every pair
// whose cadence fires gets its rebuild before any pair goes twice.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/time.h"
#include "core/model.h"

namespace pmcorr {

/// Builds a replacement model from a window snapshot — the rebuild seam
/// rebuild_override plugs into.
using RebuildFn = std::function<PairModel(
    std::span<const double> x, std::span<const double> y,
    const ModelConfig& config)>;

/// Pool-wide rebuild policy: the cadence and the worker count.
struct RetrainPoolConfig {
  /// Worker threads draining the rebuild queue. The deployment knob:
  /// fixed, independent of how many pairs the pool serves.
  std::size_t threads = 1;
  /// Sliding-window length each rebuild learns from.
  std::size_t window_samples = 15 * static_cast<std::size_t>(kSamplesPerDay);
  /// Rebuild a pair every this many of its processed samples.
  std::size_t interval_samples = static_cast<std::size_t>(kSamplesPerDay);
  /// Never rebuild from fewer buffered samples than this.
  std::size_t min_samples = static_cast<std::size_t>(kSamplesPerDay) / 2;
  /// Fault/test seam: replaces PairModel::Learn for rebuilds. A throwing
  /// override exercises the failure path.
  RebuildFn rebuild_override;
};

/// The pool. Thread contract: RegisterWindow and WaitFor* are
/// serial-section calls; Observe(i, ...) and TakeAdoptable(i) calls for
/// the *same* pair must be serial, but different pairs may be fed from
/// different threads concurrently (all shared state is behind one mutex;
/// a pair's window and cadence are only touched by that pair's caller).
class RetrainPool {
 public:
  RetrainPool(ModelConfig model_config, RetrainPoolConfig config);

  /// Joins every worker. Queued rebuilds are dropped; a rebuild in
  /// flight is waited for (its result is discarded).
  ~RetrainPool();

  RetrainPool(const RetrainPool&) = delete;
  RetrainPool& operator=(const RetrainPool&) = delete;

  /// Registers a pair whose serving model lives with the caller, seeding
  /// its window with the tail of (x, y), and returns the pair's pool
  /// index. Pass empty spans to start with an empty window (e.g. after a
  /// checkpoint restore; min_samples keeps the pool from rebuilding
  /// until the window refills live).
  std::size_t RegisterWindow(std::span<const double> x,
                             std::span<const double> y) PMCORR_EXCLUDES(mu_);

  /// Buffers one sample into pair i's window and enqueues a rebuild when
  /// the cadence fires and the pair's slot is free. Feed it the same
  /// (possibly guard-filtered) values the serving model scored, so a
  /// rebuild learns from exactly the stream that model saw; missing
  /// (non-finite) samples are buffered too and re-break the sequence on
  /// replay. The cadence is due once interval_samples samples have
  /// passed since the last enqueue and the window holds min_samples; an
  /// occupied slot (queued, running or awaiting adoption) defers it
  /// sample by sample. A failed rebuild frees the slot, so the pair
  /// retries at its next cadence.
  void Observe(std::size_t i, double x, double y) PMCORR_EXCLUDES(mu_);

  /// Returns pair i's finished rebuild, to swap in at a sample boundary,
  /// or nullptr when none is pending. The no-rebuild fast path is a
  /// single atomic load — no lock — so a shard-scale caller can poll
  /// every pair every tick.
  std::unique_ptr<PairModel> TakeAdoptable(std::size_t i)
      PMCORR_EXCLUDES(mu_);

  std::size_t PairCount() const { return pairs_.size(); }

  /// Adoptions for pair i: finished rebuilds TakeAdoptable handed out.
  std::size_t Rebuilds(std::size_t i) const { return pairs_.at(i)->rebuilds; }

  /// Samples currently in pair i's sliding window.
  std::size_t WindowSize(std::size_t i) const {
    return pairs_.at(i)->window_x.size();
  }

  std::size_t FailedRebuilds(std::size_t i) const PMCORR_EXCLUDES(mu_);
  /// Message of pair i's most recent failed rebuild ("" if none).
  std::string LastRebuildError(std::size_t i) const PMCORR_EXCLUDES(mu_);
  /// True while pair i has a rebuild queued or running.
  bool RebuildInFlight(std::size_t i) const PMCORR_EXCLUDES(mu_);

  /// Rebuilds currently waiting in the queue.
  std::size_t QueueDepth() const PMCORR_EXCLUDES(mu_);
  /// Worker threads: config threads (at least one), fixed for the
  /// pool's life.
  std::size_t ThreadCount() const { return workers_.size(); }

  /// Test hook: blocks until pair i's queued or running rebuild has
  /// produced its pending model or failed. The model is still only
  /// handed out by TakeAdoptable.
  void WaitForPair(std::size_t i) PMCORR_EXCLUDES(mu_);

  /// Test hook: blocks until the queue is empty and no rebuild is
  /// running.
  void WaitForIdle() PMCORR_EXCLUDES(mu_);

 private:
  struct PairState {
    // Caller state — touched only by this pair's Observe/TakeAdoptable
    // caller.
    std::deque<double> window_x;
    std::deque<double> window_y;
    std::size_t since_rebuild = 0;
    std::size_t rebuilds = 0;

    // Shared state — guarded by the pool mutex (mu_). Clang's analysis
    // cannot attach a foreign object's capability to these members
    // (GUARDED_BY must name a mutex reachable from the declaration), so
    // the contract is kept one level up instead: every function that
    // touches them holds mu_ while it does.
    bool queued = false;
    bool running = false;
    std::size_t failed = 0;
    std::string last_error;
    std::vector<double> job_x;
    std::vector<double> job_y;
    std::unique_ptr<PairModel> pending;  // finished rebuild awaiting adoption
    /// Mirror of `pending != nullptr`, maintained under mu_ but readable
    /// without it: TakeAdoptable's no-rebuild fast path is one acquire
    /// load, so callers poll lock-free on quiet ticks.
    std::atomic<bool> has_pending{false};
  };

  void WorkerLoop();
  PairModel Rebuild(std::span<const double> x, std::span<const double> y);

  ModelConfig model_config_;
  RetrainPoolConfig config_;
  /// unique_ptr slots so PairState addresses stay stable across
  /// RegisterWindow while workers hold references. RegisterWindow appends
  /// under mu_, because workers index the vector under mu_; Observe and
  /// TakeAdoptable read it without the lock, which the serial-section
  /// contract allows (RegisterWindow never races them). Each slot's
  /// shared block is guarded by mu_ as above.
  std::vector<std::unique_ptr<PairState>> pairs_;

  mutable Mutex mu_;
  CondVar work_cv_;  // wakes workers
  CondVar idle_cv_;  // wakes WaitForPair/WaitForIdle
  /// FIFO of pair indices.
  std::deque<std::size_t> queue_ PMCORR_GUARDED_BY(mu_);
  std::size_t active_builds_ PMCORR_GUARDED_BY(mu_) = 0;
  bool stop_ PMCORR_GUARDED_BY(mu_) = false;
  /// Filled by the constructor and joined by the destructor; nothing
  /// else touches the roster.
  std::vector<std::thread> workers_;
};

}  // namespace pmcorr
