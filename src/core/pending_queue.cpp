#include "core/pending_queue.hpp"

#include <algorithm>

namespace qon::core {

bool PendingQuantumTask::complete(int qpu, double now, double start, double end) {
  std::function<void()> observer;
  {
    MutexLock lock(mutex_);
    if (done_) return false;  // already cancelled/expired: first writer won
    assigned_qpu = qpu;
    dispatched_at = now;
    exec_start = start;
    exec_end = end;
    done_ = true;
    observer = std::move(on_settled_);
  }
  // Outside the lock: the observer typically posts a run-engine resume
  // event, which may step the run on another thread immediately.
  if (observer) observer();
  return true;
}

void PendingQuantumTask::fail(api::Status status, double now) {
  std::function<void()> observer;
  {
    MutexLock lock(mutex_);
    if (done_) return;
    error = std::move(status);
    dispatched_at = now;
    done_ = true;
    observer = std::move(on_settled_);
  }
  if (observer) observer();
}

void PendingQuantumTask::on_settled(std::function<void()> callback) {
  {
    MutexLock lock(mutex_);
    if (!done_) {
      on_settled_ = std::move(callback);
      return;
    }
  }
  // Already settled (e.g. cancel raced the registration): fire immediately
  // so the caller's resume event is never lost.
  callback();
}

bool PendingQuantumTask::settled() const {
  MutexLock lock(mutex_);
  return done_;
}

PendingQueue::PendingQueue(std::size_t capacity) : capacity_(capacity) {}

std::size_t PendingQueue::size_locked() const {
  std::size_t total = 0;
  for (const auto& lane : lanes_) total += lane.size();
  return total;
}

PendingQueue::Offer PendingQueue::offer(Item item) {
  bool queued = false;
  {
    MutexLock lock(mutex_);
    if (closed_) return Offer::kClosed;
    if (capacity_ == 0 || size_locked() < capacity_) {
      lanes_[static_cast<std::size_t>(item->priority)].push_back(
          std::move(item));
      high_watermark_ = std::max(high_watermark_, size_locked());
      queued = true;
    } else {
      // Full: park on the waitlist *while still holding the queue lock* —
      // if we released it first, a racing take_batch() could drain both
      // the queue and the (still-empty) waitlist before this item landed,
      // stranding it forever (an empty queue never fires a cycle).
      MutexLock wl(waitlist_mutex_);
      waitlist_[static_cast<std::size_t>(item->priority)].push_back(
          std::move(item));
      ++waitlist_parks_;
      std::size_t depth = 0;
      for (const auto& lane : waitlist_) depth += lane.size();
      waitlist_high_watermark_ = std::max(waitlist_high_watermark_, depth);
    }
  }
  if (queued) consumer_cv_.notify_one();
  return queued ? Offer::kQueued : Offer::kWaitlisted;
}

void PendingQueue::promote_waitlist_locked(bool ignore_capacity) {
  bool promoted = false;
  {
    MutexLock wl(waitlist_mutex_);
    // Highest class first (kInteractive = last lane index), FIFO within a
    // class — the same drain order take_batch uses for the queue proper.
    for (std::size_t lane = waitlist_.size(); lane-- > 0;) {
      auto& waiters = waitlist_[lane];
      while (!waiters.empty() &&
             (ignore_capacity || capacity_ == 0 ||
              size_locked() < capacity_)) {
        lanes_[lane].push_back(std::move(waiters.front()));
        waiters.pop_front();
        high_watermark_ = std::max(high_watermark_, size_locked());
        promoted = true;
      }
    }
  }
  if (promoted) consumer_cv_.notify_one();
}

std::vector<PendingQueue::Item> PendingQueue::take_batch(std::size_t max, double now,
                                                         double aging_seconds) {
  std::vector<Item> batch;
  {
    MutexLock lock(mutex_);
    const std::size_t n =
        (max == 0) ? size_locked() : std::min(max, size_locked());
    batch.reserve(n);
    // The aged-ranking path below costs a full-queue sort; use it only
    // when some job actually exceeds the budget — the common steady state
    // (aging enabled, nobody starved) stays on the cheap strict path,
    // whose output would be identical.
    bool any_aged = false;
    if (aging_seconds > 0.0) {
      for (std::size_t lane = 0; lane + 1 < lanes_.size() && !any_aged; ++lane) {
        for (const auto& item : lanes_[lane]) {
          if (now - item->enqueued_at > aging_seconds) {
            any_aged = true;
            break;
          }
        }
      }
    }
    if (!any_aged) {
      // Strict priority order: highest class first (kInteractive = last
      // lane index), FIFO within a lane.
      for (std::size_t lane = lanes_.size(); lane-- > 0 && batch.size() < n;) {
        auto& items = lanes_[lane];
        while (!items.empty() && batch.size() < n) {
          batch.push_back(std::move(items.front()));
          items.pop_front();
        }
      }
    } else {
      // Aging on: rank every queued item by (effective lane desc, enqueue
      // time asc). An item whose wait exceeds the aging budget is promoted
      // one lane for this ranking only. The sort is stable over a
      // lane-desc/FIFO collection order, so ties reproduce the no-aging
      // order exactly.
      struct Candidate {
        std::size_t effective;
        std::size_t lane;
        std::size_t index;
        double enqueued_at;  ///< copied so the comparator reads no guarded state
      };
      std::vector<Candidate> candidates;
      candidates.reserve(size_locked());
      for (std::size_t lane = lanes_.size(); lane-- > 0;) {
        for (std::size_t i = 0; i < lanes_[lane].size(); ++i) {
          std::size_t effective = lane;
          if (lane + 1 < lanes_.size() &&
              now - lanes_[lane][i]->enqueued_at > aging_seconds) {
            effective = lane + 1;
          }
          candidates.push_back({effective, lane, i, lanes_[lane][i]->enqueued_at});
        }
      }
      std::stable_sort(candidates.begin(), candidates.end(),
                       [](const Candidate& a, const Candidate& b) {
                         if (a.effective != b.effective) return a.effective > b.effective;
                         return a.enqueued_at < b.enqueued_at;
                       });
      candidates.resize(n);
      for (const auto& c : candidates) batch.push_back(lanes_[c.lane][c.index]);
      // Compact each touched lane in one pass (middle-of-deque erases
      // would make a big cycle quadratic under the queue lock).
      std::array<std::vector<std::size_t>, api::kNumPriorities> taken;
      for (const auto& c : candidates) taken[c.lane].push_back(c.index);
      for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
        if (taken[lane].empty()) continue;
        std::sort(taken[lane].begin(), taken[lane].end());
        std::deque<Item> kept;
        std::size_t next = 0;  // cursor into the sorted taken indices
        for (std::size_t i = 0; i < lanes_[lane].size(); ++i) {
          if (next < taken[lane].size() && taken[lane][next] == i) {
            ++next;
          } else {
            kept.push_back(std::move(lanes_[lane][i]));
          }
        }
        lanes_[lane] = std::move(kept);
      }
    }
    // Refill freed slots from the capacity waitlist.
    promote_waitlist_locked();
  }
  return batch;
}

std::vector<PendingQueue::Item> PendingQueue::take_expired(double now) {
  std::vector<Item> expired;
  MutexLock lock(mutex_);
  for (auto& lane : lanes_) {
    for (auto it = lane.begin(); it != lane.end();) {
      // Inclusive boundary: dispatch exactly at the deadline leaves zero
      // slack, which the at/before contract counts as a miss — matching
      // the submit-time admission check.
      if ((*it)->deadline_seconds && *(*it)->deadline_seconds <= now) {
        expired.push_back(std::move(*it));
        it = lane.erase(it);
      } else {
        ++it;
      }
    }
  }
  {
    // A waitlisted job's deadline keeps ticking while it waits for a
    // capacity slot — sweep the waitlist too so it fails DEADLINE_EXCEEDED
    // this cycle instead of after an arbitrarily long park.
    MutexLock wl(waitlist_mutex_);
    for (auto& lane : waitlist_) {
      for (auto it = lane.begin(); it != lane.end();) {
        if ((*it)->deadline_seconds && *(*it)->deadline_seconds <= now) {
          expired.push_back(std::move(*it));
          it = lane.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  promote_waitlist_locked();
  return expired;
}

bool PendingQueue::remove(const Item& item) {
  MutexLock lock(mutex_);
  auto& lane = lanes_[static_cast<std::size_t>(item->priority)];
  const auto it = std::find(lane.begin(), lane.end(), item);
  if (it != lane.end()) {
    lane.erase(it);
    promote_waitlist_locked();
    return true;
  }
  // Not queued — a cancelled run's task may still be parked on the
  // capacity waitlist. Pulling it from there frees no queue slot, so no
  // promotion follows.
  MutexLock wl(waitlist_mutex_);
  auto& waiters = waitlist_[static_cast<std::size_t>(item->priority)];
  const auto wit = std::find(waiters.begin(), waiters.end(), item);
  if (wit == waiters.end()) return false;
  waiters.erase(wit);
  return true;
}

void PendingQueue::close() {
  {
    MutexLock lock(mutex_);
    closed_ = true;
    // Promote every waitlisted item regardless of capacity so the final
    // shutdown flush drains them — each gets a terminal verdict (dispatch
    // or typed failure) instead of vanishing with the queue.
    promote_waitlist_locked(/*ignore_capacity=*/true);
  }
  consumer_cv_.notify_all();
}

bool PendingQueue::closed() const {
  MutexLock lock(mutex_);
  return closed_;
}

std::size_t PendingQueue::size() const {
  MutexLock lock(mutex_);
  return size_locked();
}

std::size_t PendingQueue::high_watermark() const {
  MutexLock lock(mutex_);
  return high_watermark_;
}

std::size_t PendingQueue::waitlist_depth() const {
  MutexLock wl(waitlist_mutex_);
  std::size_t depth = 0;
  for (const auto& lane : waitlist_) depth += lane.size();
  return depth;
}

std::size_t PendingQueue::waitlist_high_watermark() const {
  MutexLock wl(waitlist_mutex_);
  return waitlist_high_watermark_;
}

std::uint64_t PendingQueue::waitlist_parks() const {
  MutexLock wl(waitlist_mutex_);
  return waitlist_parks_;
}

double PendingQueue::oldest_wait_seconds(double now) const {
  double oldest_enqueue = -1.0;
  MutexLock lock(mutex_);
  for (const auto& lane : lanes_) {
    for (const Item& item : lane) {
      if (oldest_enqueue < 0.0 || item->enqueued_at < oldest_enqueue) {
        oldest_enqueue = item->enqueued_at;
      }
    }
  }
  {
    MutexLock wl(waitlist_mutex_);
    for (const auto& lane : waitlist_) {
      for (const Item& item : lane) {
        if (oldest_enqueue < 0.0 || item->enqueued_at < oldest_enqueue) {
          oldest_enqueue = item->enqueued_at;
        }
      }
    }
  }
  if (oldest_enqueue < 0.0) return 0.0;
  return std::max(0.0, now - oldest_enqueue);
}

PendingQueue::Wake PendingQueue::wait_for_batch(std::size_t threshold,
                                                std::chrono::milliseconds linger) {
  MutexLock lock(mutex_);
  for (;;) {
    // Phase 1: sleep until there is any work at all (or the queue closes).
    // An empty queue never fires a cycle, so there is no deadline here.
    while (size_locked() == 0 && !closed_) consumer_cv_.wait(mutex_);
    if (closed_) return size_locked() > 0 ? Wake::kFlush : Wake::kClosed;
    if (size_locked() >= threshold) return Wake::kThreshold;
    // Phase 2: give the batch `linger` to fill up to the threshold.
    const auto deadline = std::chrono::steady_clock::now() + linger;
    bool timed_out = false;
    while (size_locked() < threshold && !closed_) {
      if (consumer_cv_.wait_until(mutex_, deadline) == std::cv_status::timeout &&
          size_locked() < threshold && !closed_) {
        timed_out = true;
        break;
      }
    }
    if (!timed_out) return closed_ ? Wake::kFlush : Wake::kThreshold;
    // remove() can drain the queue sideways while we linger (a cancelled
    // run's task leaving before dispatch); an empty linger expiry is not a
    // cycle — go back to sleeping for work.
    if (size_locked() > 0) return Wake::kLinger;
  }
}

}  // namespace qon::core
