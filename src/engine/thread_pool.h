// A small fixed-size fork/join worker pool: ParallelFor and
// ParallelShardsStatic.
//
// The monitoring engine runs hundreds of independent pair models; both
// model initialization and online scoring parallelize trivially across
// pairs (each model owns disjoint state). Work is handed out in
// contiguous index chunks; results are deterministic because tasks never
// share mutable state and the shard decomposition depends only on
// (count, max_shards, thread count).
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace pmcorr {

/// One contiguous shard of an index range, as handed to a
/// ParallelShardsStatic callback: indices [begin, end).
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t Size() const { return end - begin; }
};

/// Type-erased shard callback: fn(ctx, range) runs one shard. Plain
/// function pointer + context so a dispatch never heap-allocates a
/// closure.
using ShardTaskFn = void (*)(void* ctx, const ShardRange& range);

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = hardware concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t ThreadCount() const { return workers_.size(); }

  /// Runs fn(i) for every i in [0, count), distributing contiguous chunks
  /// across the pool, and returns when all calls completed. Falls back to
  /// inline execution for tiny counts. If any call throws, every index is
  /// still visited (or its chunk abandoned at the throwing index), the
  /// pool stays usable, and the exception of the lowest-indexed failing
  /// chunk is rethrown on the caller.
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& fn)
      PMCORR_EXCLUDES(mutex_);

  /// Shard-major decomposition: splits [0, count) into
  /// min(count, max_shards == 0 ? ThreadCount() : max_shards) contiguous
  /// shards, whose sizes differ by at most one, covering every index
  /// exactly once, and runs fn(ctx, range) once per shard. Unlike
  /// ParallelFor, the callback owns a whole range and sweeps long inner
  /// loops without per-index dispatch. Exceptions propagate as in
  /// ParallelFor (lowest shard index wins). The decomposition is a pure
  /// function of (count, max_shards, ThreadCount()). The region is
  /// dispatched through a preallocated control block, so a steady-state
  /// caller (the monitor's per-tick path) never touches the heap to
  /// fork/join. Shards are claimed dynamically (a shared cursor, not a
  /// fixed assignment), so passing max_shards > ThreadCount() also
  /// yields load balancing. ParallelFor is a thin wrapper over this.
  /// One region runs at a time; concurrent external callers serialize
  /// on the control block.
  void ParallelShardsStatic(std::size_t count, ShardTaskFn fn, void* ctx,
                            std::size_t max_shards = 0)
      PMCORR_EXCLUDES(mutex_);

 private:
  /// Number of shards ParallelShardsStatic(count, fn, ctx, max_shards)
  /// uses; 0 for an empty range.
  std::size_t ShardCountFor(std::size_t count, std::size_t max_shards) const;
  void WorkerLoop();
  /// Claims and runs region shards until the region drains. Entered and
  /// exited with mutex_ held; unlocked only around the user callback.
  void RunRegionShards() PMCORR_REQUIRES(mutex_);
  ShardRange RegionRange(std::size_t shard) const PMCORR_REQUIRES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_;
  bool stop_ PMCORR_GUARDED_BY(mutex_) = false;

  /// Fork/join region control block (all fields guarded by mutex_; the
  /// claim counter hands out shards under the lock too — shard counts
  /// are small, so contention is negligible). `participants` keeps the
  /// block's fields stable: the owner only releases the region once
  /// every thread has left RunRegionShards.
  struct Region {
    ShardTaskFn fn = nullptr;
    void* ctx = nullptr;
    std::size_t shards = 0;
    std::size_t base = 0;   // count / shards
    std::size_t extra = 0;  // count % shards
    std::size_t next = 0;
    std::size_t remaining = 0;
    std::size_t participants = 0;
    bool active = false;
    std::exception_ptr error;
    std::size_t error_begin = 0;
  };
  Region region_ PMCORR_GUARDED_BY(mutex_);
  CondVar region_cv_;  // owner join + slot release
};

}  // namespace pmcorr
