// Tests for the fork/join worker pool: ParallelFor/ParallelShardsStatic
// coverage, exception propagation, and contention stress.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "engine/thread_pool.h"

namespace pmcorr {
namespace {

// Runs fn(range) once per shard through ParallelShardsStatic's
// function-pointer dispatch, the way the monitor's sweeps call it.
template <typename Fn>
void RunShards(ThreadPool& pool, std::size_t count, Fn fn,
               std::size_t max_shards = 0) {
  pool.ParallelShardsStatic(
      count,
      [](void* ctx, const ShardRange& range) {
        (*static_cast<Fn*>(ctx))(range);
      },
      &fn, max_shards);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, TinyCountsRunInline) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  pool.ParallelFor(2, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 1);
}

TEST(ThreadPool, SingleThreadFallback) {
  ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(100, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(50, [&](std::size_t i) {
      total += static_cast<long>(i);
    });
  }
  EXPECT_EQ(total.load(), 20 * (49 * 50 / 2));
}

TEST(ThreadPool, ParallelResultMatchesSerial) {
  ThreadPool pool(8);
  std::vector<double> out(5000, 0.0);
  pool.ParallelFor(out.size(), [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 0.5;
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) * 0.5);
  }
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.ThreadCount(), 1u);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(1000,
                       [](std::size_t i) {
                         if (i == 637) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives a throwing region and stays fully usable.
  std::atomic<int> sum{0};
  pool.ParallelFor(100, [&](std::size_t) { ++sum; });
  EXPECT_EQ(sum.load(), 100);
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexedFailure) {
  ThreadPool pool(8);
  // Several chunks throw; the caller must deterministically see the
  // lowest-indexed chunk's exception, not a scheduling-dependent one.
  for (int round = 0; round < 20; ++round) {
    try {
      pool.ParallelFor(800, [](std::size_t i) {
        if (i % 100 == 0) {
          throw std::runtime_error("chunk " + std::to_string(i));
        }
      });
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk 0");
    }
  }
}

TEST(ThreadPool, ParallelShardsPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(RunShards(pool, 100,
                         [](const ShardRange& r) {
                           if (r.begin > 0) {
                             throw std::runtime_error("shard");
                           }
                         }),
               std::runtime_error);
  std::atomic<int> sum{0};
  RunShards(pool, 100, [&](const ShardRange& r) {
    sum += static_cast<int>(r.Size());
  });
  EXPECT_EQ(sum.load(), 100);
}

TEST(ThreadPool, ShardsCoverEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (std::size_t count : {1u, 2u, 3u, 4u, 5u, 100u, 101u, 4096u}) {
    for (std::size_t max_shards : {0u, 1u, 3u, 7u, 64u}) {
      std::vector<std::atomic<int>> hits(count);
      RunShards(
          pool, count,
          [&](const ShardRange& r) {
            for (std::size_t i = r.begin; i < r.end; ++i) ++hits[i];
          },
          max_shards);
      for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
    }
  }
}

TEST(ThreadPool, ShardDecompositionIsDeterministicAndBalanced) {
  ThreadPool pool(4);
  // min(count, max_shards, or the thread count when it is 0) shards, and
  // none for an empty range.
  const auto shard_count = [&](std::size_t count, std::size_t max_shards) {
    std::atomic<std::size_t> shards{0};
    RunShards(pool, count, [&](const ShardRange&) { ++shards; }, max_shards);
    return shards.load();
  };
  EXPECT_EQ(shard_count(0, 0), 0u);
  EXPECT_EQ(shard_count(3, 0), 3u);
  EXPECT_EQ(shard_count(100, 0), 4u);
  EXPECT_EQ(shard_count(100, 6), 6u);

  Mutex mutex;
  std::vector<ShardRange> shards;
  RunShards(pool, 103, [&](const ShardRange& r) {
    const MutexLock lock(mutex);
    shards.push_back(r);
  });
  ASSERT_EQ(shards.size(), 4u);
  std::sort(shards.begin(), shards.end(),
            [](const ShardRange& a, const ShardRange& b) {
              return a.begin < b.begin;
            });
  std::size_t expected_begin = 0;
  for (const ShardRange& r : shards) {
    EXPECT_EQ(r.begin, expected_begin);
    // Sizes differ by at most one: 103 over 4 shards = {26, 26, 26, 25}.
    EXPECT_GE(r.Size(), 25u);
    EXPECT_LE(r.Size(), 26u);
    expected_begin = r.end;
  }
  EXPECT_EQ(expected_begin, 103u);
}

TEST(ThreadPool, ShardsCoverEveryIndexUnderContention) {
  // Several caller threads hammer one pool concurrently; every caller's
  // range must still be covered exactly once.
  ThreadPool pool(4);
  constexpr std::size_t kCallers = 6;
  constexpr std::size_t kCount = 2000;
  std::vector<std::thread> callers;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kCount);
  }
  for (std::size_t caller = 0; caller < kCallers; ++caller) {
    callers.emplace_back([&, caller] {
      for (int round = 0; round < 10; ++round) {
        RunShards(pool, kCount, [&](const ShardRange& r) {
          for (std::size_t i = r.begin; i < r.end; ++i) ++hits[caller][i];
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& caller_hits : hits) {
    for (const auto& h : caller_hits) ASSERT_EQ(h.load(), 10);
  }
}

TEST(ThreadPool, StressManySmallRegions) {
  ThreadPool pool(8);
  std::atomic<long> total{0};
  for (int round = 0; round < 300; ++round) {
    pool.ParallelFor(97, [&](std::size_t i) {
      total += static_cast<long>(i);
    });
    RunShards(pool, 61, [&](const ShardRange& r) {
      long local = 0;
      for (std::size_t i = r.begin; i < r.end; ++i) {
        local += static_cast<long>(i);
      }
      total += local;
    });
  }
  EXPECT_EQ(total.load(), 300L * (96 * 97 / 2) + 300L * (60 * 61 / 2));
}

}  // namespace
}  // namespace pmcorr
