#pragma once
// Work-sharing thread pool and a blocked parallel_for, in the spirit of the
// OpenMP "parallel for" worksharing construct: parallelism is explicit, the
// caller owns the decomposition, and the pool never spawns threads behind
// the caller's back.
//
// Used to parallelize state-vector gate application.

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <optional>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/thread_safety.hpp"

namespace qon {

/// Fixed-size thread pool. submit() accepts any nullary callable and
/// returns a std::future of its result type for value/exception
/// propagation.
///
/// Shutdown contract: once shutdown() begins (explicitly or via the
/// destructor), every task already accepted still runs to completion, and
/// every later submission is rejected deterministically — try_submit()
/// returns nullopt, submit() throws. A submission can never race the worker
/// join into being silently dropped: acceptance and the stop flag are
/// decided under one lock, and workers drain the queue before exiting.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Stops accepting work, runs everything already queued, and joins the
  /// workers. Idempotent and safe to call concurrently with submissions.
  void shutdown() EXCLUDES(mutex_, join_mutex_);

  /// True once shutdown has begun; any subsequent submission is rejected.
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }

  /// Enqueues a task unless the pool is shutting down; nullopt means the
  /// task was rejected and will never run. The future yields the task's
  /// return value and rethrows any task exception.
  template <typename F>
  std::optional<std::future<std::invoke_result_t<std::decay_t<F>>>> try_submit(F&& f)
      EXCLUDES(mutex_) {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      MutexLock lock(mutex_);
      if (stopping_.load(std::memory_order_relaxed)) return std::nullopt;
      tasks_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// try_submit() for call sites that treat a shut-down pool as a logic
  /// error: throws std::logic_error on rejection.
  template <typename F>
  std::future<std::invoke_result_t<std::decay_t<F>>> submit(F&& f) EXCLUDES(mutex_) {
    auto fut = try_submit(std::forward<F>(f));
    if (!fut) throw std::logic_error("ThreadPool::submit after shutdown");
    return std::move(*fut);
  }

 private:
  void worker_loop() EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_{LockRank::kThreadPool, "ThreadPool::mutex_"};
  std::queue<std::function<void()>> tasks_ GUARDED_BY(mutex_);
  CondVar cv_;
  /// Written under mutex_ (ordering vs. task acceptance); atomic so
  /// stopping() can be read without the lock.
  std::atomic<bool> stopping_{false};
  /// Serializes concurrent shutdown() calls.
  Mutex join_mutex_{LockRank::kShutdownJoin, "ThreadPool::join_mutex_"};
  bool joined_ GUARDED_BY(join_mutex_) = false;
};

/// Process-wide default pool (lazily constructed).
ThreadPool& global_thread_pool();

/// Splits [begin, end) into contiguous blocks and runs `body(lo, hi)` for
/// each block on the pool. Blocks on completion; rethrows the first task
/// exception. Runs inline when the range is small or the pool has 1 thread.
void parallel_for_blocked(std::size_t begin, std::size_t end,
                          const std::function<void(std::size_t, std::size_t)>& body,
                          ThreadPool* pool = nullptr, std::size_t min_block = 1024);

}  // namespace qon
