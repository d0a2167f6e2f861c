#ifndef THEMIS_UTIL_THREAD_POOL_H_
#define THEMIS_UTIL_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace themis::util {

/// Worker count for the shared execution runtime: the THEMIS_NUM_THREADS
/// environment variable when set to a positive integer, otherwise
/// max(1, std::thread::hardware_concurrency()).
size_t DefaultParallelism();

/// `requested` when positive, otherwise DefaultParallelism(). This is how
/// ThemisOptions::num_threads (0 = auto) resolves to a pool size.
size_t ResolveParallelism(size_t requested);

class ThreadPool;

/// The three-way pool choice shared by core::Catalog and
/// core::HybridEvaluator: an explicit `pool` wins; else a positive
/// `num_threads` creates a pool into `owned` (the caller keeps it alive);
/// else the process-wide Default() pool. Never returns null.
ThreadPool* ResolvePool(ThreadPool* pool, size_t num_threads,
                        std::unique_ptr<ThreadPool>& owned);

/// Fixed-size thread pool with a FIFO task queue — the single scheduling
/// substrate shared by every parallel site (cross-query QueryBatch fan-out,
/// per-plan K BN-sample worlds, sharded scans). One pool, nested freely,
/// no oversubscription.
///
/// Nesting never deadlocks: ParallelFor's caller claims shards itself and,
/// while waiting for stragglers, executes other queued tasks; GetHelping
/// does the same while blocking on a future. A task running on a worker can
/// therefore submit (and wait on) subtasks even when every worker is busy.
class ThreadPool {
 public:
  /// `num_threads` = 0 means DefaultParallelism().
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Schedules `fn` and returns its future. Exceptions thrown by `fn`
  /// propagate through the future (std::packaged_task semantics).
  template <typename F, typename R = std::invoke_result_t<std::decay_t<F>>>
  std::future<R> Submit(F&& fn) {
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Enqueue([task] { (*task)(); });
    return future;
  }

  /// Runs fn(i) for every i in [begin, end) exactly once, fanning shards
  /// across free workers while the calling thread participates (and
  /// counts toward the parallelism: a 1-thread pool runs the whole range
  /// inline, genuinely sequentially). Blocks until every shard finished.
  /// Shard *claiming* order is non-deterministic but every shard sees
  /// only its own index, so determinism is the shard function's to keep.
  /// Rethrows the lowest-index shard exception after all shards complete.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn);

  /// Blocks until `future` is ready, executing queued tasks meanwhile so
  /// waiting inside a pool task cannot starve the pool.
  template <typename R>
  R GetHelping(std::future<R>& future) {
    using namespace std::chrono_literals;
    while (future.wait_for(0s) != std::future_status::ready) {
      if (!RunOneTask()) future.wait_for(200us);
    }
    return future.get();
  }

  /// The process-wide pool, created on first use with DefaultParallelism()
  /// workers and intentionally leaked (workers must not be joined during
  /// static destruction).
  static ThreadPool& Default();

 private:
  void Enqueue(std::function<void()> task);

  /// Pops and runs one queued task; false when the queue is empty.
  bool RunOneTask();

  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace themis::util

#endif  // THEMIS_UTIL_THREAD_POOL_H_
