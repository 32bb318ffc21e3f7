#include "core/run_engine.hpp"

#include <algorithm>

namespace qon::core {

RunEngine::RunEngine(std::size_t workers, Step step,
                     std::function<void()> on_event)
    : step_(std::move(step)), on_event_(std::move(on_event)) {
  const std::size_t n = std::max<std::size_t>(1, workers);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

RunEngine::~RunEngine() { shutdown(); }

void RunEngine::post(std::shared_ptr<RunContinuation> run) {
  // The notify happens under the lock on purpose: a resume posted by an
  // external settlement callback may be the event that lets the engine
  // drain and be destroyed, and a notify outside the lock could still be
  // touching cv_ when the destructor tears it down. Under the lock, the
  // worker cannot pop the event (and the run cannot finish) until this
  // thread has fully left the engine.
  MutexLock lock(mutex_);
  queue_.push_back(std::move(run));
  wake_idle_locked(1);
}

void RunEngine::wake_idle_locked(std::size_t events) {
  // A busy worker re-checks the queue before it sleeps again, so only
  // sleeping workers need a notify — one per new event, at most.
  for (std::size_t i = 0; i < std::min(events, idle_); ++i) cv_.notify_one();
}

bool RunEngine::submit(std::shared_ptr<RunContinuation> run) {
  std::vector<std::shared_ptr<RunContinuation>> one;
  one.push_back(std::move(run));
  return submit_all(std::move(one));
}

bool RunEngine::submit_all(std::vector<std::shared_ptr<RunContinuation>> runs) {
  MutexLock lock(mutex_);  // see post() on the locked notify
  if (closed_) return false;
  live_ += runs.size();
  peak_live_ = std::max(peak_live_, live_);
  for (auto& run : runs) queue_.push_back(std::move(run));
  wake_idle_locked(runs.size());
  return true;
}

void RunEngine::resume(std::shared_ptr<RunContinuation> run) {
  // Deliberately ignores closed_: a resume always belongs to a live run,
  // and live runs must drain through shutdown, not get stranded by it.
  post(std::move(run));
}

void RunEngine::worker_loop() {
  for (;;) {
    std::shared_ptr<RunContinuation> run;
    {
      MutexLock lock(mutex_);
      // Exit only when no event can ever arrive again: submissions are
      // closed and every live run has finished (all events belong to live
      // runs, so an empty queue then stays empty).
      while (queue_.empty() && !(closed_ && live_ == 0)) {
        ++idle_;
        cv_.wait(mutex_);
        --idle_;
      }
      if (queue_.empty()) return;
      run = std::move(queue_.front());
      queue_.pop_front();
      ++events_;
    }
    // Beat before the step: a wedge inside step_ leaves a stale heartbeat
    // that ages past the stall budget instead of a fresh one masking it.
    if (on_event_) on_event_();
    const StepOutcome outcome = step_(run);
    if (outcome == StepOutcome::kProgress) {
      // Repost to the back of the queue: N runnable runs round-robin over
      // the workers one node at a time instead of running to completion.
      post(std::move(run));
    } else if (outcome == StepOutcome::kFinished) {
      MutexLock lock(mutex_);
      --live_;
      if (closed_ && live_ == 0) {
        cv_.notify_all();       // idle workers may now exit
        drained_cv_.notify_all();
      }
    }
    // kParked: the run's settlement callback will resume() it. Dropping our
    // reference here is the whole point — the worker is free for other runs.
  }
}

void RunEngine::shutdown() {
  {
    MutexLock lock(mutex_);
    closed_ = true;
    cv_.notify_all();
    while (live_ != 0) drained_cv_.wait(mutex_);
  }
  MutexLock join_lock(join_mutex_);
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::size_t RunEngine::live_runs() const {
  MutexLock lock(mutex_);
  return live_;
}

std::size_t RunEngine::peak_live_runs() const {
  MutexLock lock(mutex_);
  return peak_live_;
}

std::uint64_t RunEngine::events_dispatched() const {
  MutexLock lock(mutex_);
  return events_;
}

RunEngine::EngineStats RunEngine::stats() const {
  MutexLock lock(mutex_);
  return EngineStats{live_, peak_live_, events_, queue_.size()};
}

}  // namespace qon::core
