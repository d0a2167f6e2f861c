// Tests for the shared execution runtime: util::ThreadPool (FIFO
// ordering, exception propagation through futures, nested submission and
// nested ParallelFor without deadlock), DefaultParallelism/
// ResolveParallelism, and the cost-aware LruCache admission policy.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/lru_cache.h"
#include "util/thread_pool.h"

namespace themis::util {
namespace {

TEST(DefaultParallelismTest, PositiveAndEnvOverridable) {
  unsetenv("THEMIS_NUM_THREADS");
  EXPECT_GE(DefaultParallelism(), 1u);

  setenv("THEMIS_NUM_THREADS", "3", 1);
  EXPECT_EQ(DefaultParallelism(), 3u);
  // Garbage and zero fall back to the hardware default.
  setenv("THEMIS_NUM_THREADS", "0", 1);
  EXPECT_GE(DefaultParallelism(), 1u);
  unsetenv("THEMIS_NUM_THREADS");
}

TEST(DefaultParallelismTest, ResolveHonorsExplicitRequest) {
  EXPECT_EQ(ResolveParallelism(7), 7u);
  EXPECT_EQ(ResolveParallelism(0), DefaultParallelism());
}

TEST(ThreadPoolTest, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.Submit([] { return 41 + 1; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, SingleWorkerRunsTasksInFifoOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.Submit([i, &order] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto future = pool.Submit(
      []() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The pool stays usable after a task threw.
  auto ok = pool.Submit([] { return 7; });
  EXPECT_EQ(ok.get(), 7);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (size_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> counts(kN);
    pool.ParallelFor(0, kN, [&](size_t i) { counts[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingletonRanges) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.ParallelFor(5, 6, [&](size_t i) {
    EXPECT_EQ(i, 5u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRethrowsLowestIndexException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.ParallelFor(0, 64, [&](size_t i) {
      if (i % 3 == 1) throw std::invalid_argument(std::to_string(i));
      completed.fetch_add(1);
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "1");  // lowest failing index, deterministic
  }
  // Every non-throwing shard still ran to completion (21 of 64 throw).
  EXPECT_EQ(completed.load(), 64 - 21);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  for (size_t workers : {1u, 2u}) {
    ThreadPool pool(workers);
    std::atomic<int> inner_calls{0};
    pool.ParallelFor(0, 8, [&](size_t) {
      pool.ParallelFor(0, 8, [&](size_t) { inner_calls.fetch_add(1); });
    });
    EXPECT_EQ(inner_calls.load(), 64);
  }
}

TEST(ThreadPoolTest, NestedSubmitWithGetHelpingDoesNotDeadlock) {
  // A task on a saturated 1-worker pool submits a subtask and blocks on
  // it; GetHelping runs queued work while waiting, so this completes.
  ThreadPool pool(1);
  auto outer = pool.Submit([&pool] {
    auto inner = pool.Submit([] { return 13; });
    return pool.GetHelping(inner) + 1;
  });
  EXPECT_EQ(pool.GetHelping(outer), 14);
}

TEST(ThreadPoolTest, DeeplyNestedMixedSubmissionCompletes) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  pool.ParallelFor(0, 4, [&](size_t) {
    auto mid = pool.Submit([&] {
      pool.ParallelFor(0, 4, [&](size_t) { leaves.fetch_add(1); });
    });
    pool.GetHelping(mid);
  });
  EXPECT_EQ(leaves.load(), 16);
}

TEST(LruCacheCostTest, CostAwareEvictionFreesEnoughSpace) {
  LruCache<int, int> cache(100);
  EXPECT_TRUE(cache.Put(1, 10, 60));
  EXPECT_TRUE(cache.Put(2, 20, 30));
  EXPECT_EQ(cache.total_cost(), 90u);
  // Inserting 50 must evict key 1 (LRU, cost 60) to fit.
  EXPECT_TRUE(cache.Put(3, 30, 50));
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_TRUE(cache.Get(2).has_value());
  EXPECT_EQ(cache.total_cost(), 80u);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCacheCostTest, OversizedEntryIsRejectedNotAdmitted) {
  LruCache<int, int> cache(100);
  EXPECT_TRUE(cache.Put(1, 10, 40));
  // Costlier than the whole capacity: rejected, resident entries survive.
  EXPECT_FALSE(cache.Put(2, 20, 101));
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_EQ(cache.rejections(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(LruCacheCostTest, OverwriteReplacesCost) {
  LruCache<int, int> cache(100);
  EXPECT_TRUE(cache.Put(1, 10, 80));
  EXPECT_TRUE(cache.Put(1, 11, 20));  // same key, smaller cost
  EXPECT_EQ(cache.total_cost(), 20u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.Get(1), 11);
}

TEST(LruCacheCostTest, UnitCostsKeepEntryCountSemantics) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(3, 30);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.total_cost(), 2u);
  EXPECT_FALSE(cache.Get(1).has_value());
}

}  // namespace
}  // namespace themis::util
