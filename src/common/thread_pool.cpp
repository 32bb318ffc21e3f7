#include "common/thread_pool.hpp"

#include <algorithm>

namespace qon {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    MutexLock lock(mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  MutexLock join_lock(join_mutex_);
  if (joined_) return;
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  joined_ = true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_.load(std::memory_order_relaxed) && tasks_.empty()) {
        cv_.wait(mutex_);
      }
      if (tasks_.empty()) return;  // only reachable when stopping
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

ThreadPool& global_thread_pool() {
  static ThreadPool pool;
  return pool;
}

void parallel_for_blocked(std::size_t begin, std::size_t end,
                          const std::function<void(std::size_t, std::size_t)>& body,
                          ThreadPool* pool, std::size_t min_block) {
  if (begin >= end) return;
  if (pool == nullptr) pool = &global_thread_pool();
  const std::size_t n = end - begin;
  const std::size_t workers = pool->size();
  if (workers <= 1 || n <= min_block) {
    body(begin, end);
    return;
  }
  const std::size_t blocks = std::min(workers, (n + min_block - 1) / min_block);
  const std::size_t block_size = (n + blocks - 1) / blocks;
  std::vector<std::future<void>> futures;
  futures.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = begin + b * block_size;
    const std::size_t hi = std::min(end, lo + block_size);
    if (lo >= hi) break;
    futures.push_back(pool->submit([lo, hi, &body] { body(lo, hi); }));
  }
  for (auto& f : futures) f.get();
}

}  // namespace qon
