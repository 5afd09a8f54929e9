#include "engine/thread_pool.h"

#include <algorithm>
#include <exception>

namespace pmcorr {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  mutex_.Lock();
  while (true) {
    while (!(stop_ || (region_.active && region_.next < region_.shards))) {
      cv_.Wait(mutex_);
    }
    if (stop_) break;
    RunRegionShards();
  }
  mutex_.Unlock();
}

ShardRange ThreadPool::RegionRange(std::size_t shard) const {
  // Spread count over shards so sizes differ by at most one: the first
  // `count % shards` shards take one extra index.
  ShardRange r;
  r.begin = shard * region_.base + std::min(shard, region_.extra);
  r.end = r.begin + region_.base + (shard < region_.extra ? 1 : 0);
  return r;
}

void ThreadPool::RunRegionShards() {
  ++region_.participants;
  while (region_.active && region_.next < region_.shards) {
    const std::size_t shard = region_.next++;
    const ShardRange range = RegionRange(shard);
    ShardTaskFn fn = region_.fn;
    void* ctx = region_.ctx;
    mutex_.Unlock();
    std::exception_ptr error;
    try {
      fn(ctx, range);
    } catch (...) {
      error = std::current_exception();
    }
    mutex_.Lock();
    if (error && (!region_.error || range.begin < region_.error_begin)) {
      // First failure by range position, so the rethrown exception does
      // not depend on scheduling order.
      region_.error = std::move(error);
      region_.error_begin = range.begin;
    }
    if (--region_.remaining == 0) region_cv_.NotifyAll();
  }
  if (--region_.participants == 0) region_cv_.NotifyAll();
}

void ThreadPool::ParallelShardsStatic(std::size_t count, ShardTaskFn fn,
                                      void* ctx, std::size_t max_shards) {
  const std::size_t shards = ShardCountFor(count, max_shards);
  if (shards == 0) return;
  const std::size_t base = count / shards;
  const std::size_t extra = count % shards;
  if (shards == 1 || workers_.size() <= 1) {
    for (std::size_t s = 0; s < shards; ++s) {
      ShardRange r;
      r.begin = s * base + std::min(s, extra);
      r.end = r.begin + base + (s < extra ? 1 : 0);
      fn(ctx, r);
    }
    return;
  }

  mutex_.Lock();
  // One region at a time; a second external caller waits for the block
  // to be fully released (no thread still inside RunRegionShards).
  while (!(!region_.active && region_.participants == 0)) {
    region_cv_.Wait(mutex_);
  }
  region_.fn = fn;
  region_.ctx = ctx;
  region_.shards = shards;
  region_.base = base;
  region_.extra = extra;
  region_.next = 0;
  region_.remaining = shards;
  region_.error = nullptr;
  region_.error_begin = 0;
  region_.active = true;
  cv_.NotifyAll();
  // The caller participates too — on a saturated pool it would otherwise
  // just block, and on a single-core box it typically runs every shard.
  RunRegionShards();
  while (!(region_.remaining == 0 && region_.participants == 0)) {
    region_cv_.Wait(mutex_);
  }
  region_.active = false;
  std::exception_ptr error = std::move(region_.error);
  mutex_.Unlock();
  region_cv_.NotifyAll();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t threads = workers_.size();
  if (count <= 2 || threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // 4 chunks per thread (claimed dynamically) for load balance; the
  // trampoline keeps the dispatch allocation-free.
  ParallelShardsStatic(
      count,
      [](void* ctx, const ShardRange& r) {
        const auto& f =
            *static_cast<const std::function<void(std::size_t)>*>(ctx);
        for (std::size_t i = r.begin; i < r.end; ++i) f(i);
      },
      const_cast<void*>(static_cast<const void*>(&fn)), threads * 4);
}

std::size_t ThreadPool::ShardCountFor(std::size_t count,
                                      std::size_t max_shards) const {
  if (count == 0) return 0;
  const std::size_t limit = max_shards == 0 ? workers_.size() : max_shards;
  return std::min(count, std::max<std::size_t>(1, limit));
}

}  // namespace pmcorr
