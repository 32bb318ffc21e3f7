#include "core/pending_queue.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>

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
  for (const std::size_t queued : queued_) total += queued;
  return total;
}

std::size_t PendingQueue::waitlist_depth_locked() const {
  std::size_t depth = 0;
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    depth += lanes_[lane].size() - queued_[lane];
  }
  return depth;
}

PendingQueue::Offer PendingQueue::offer(Item item) {
  bool queued = false;
  bool wake = false;
  {
    MutexLock lock(mutex_);
    if (closed_) return Offer::kClosed;
    // The full-check and the insert are one step under the queue lock, so
    // a racing take_batch() can never drain the queue between them and
    // strand a parked item (an empty queue never fires a cycle).
    const auto lane = static_cast<std::size_t>(item->priority);
    queued = capacity_ == 0 || size_locked() < capacity_;
    lanes_[lane].push_back(std::move(item));
    if (queued) {
      // Not full, so no lane holds a waiter: the item joins the prefix.
      ++queued_[lane];
      high_watermark_ = std::max(high_watermark_, size_locked());
      wake = claim_wake_locked();
    } else {
      ++waitlist_parks_;
      waitlist_high_watermark_ =
          std::max(waitlist_high_watermark_, waitlist_depth_locked());
    }
  }
  if (wake) consumer_cv_.notify_one();
  return queued ? Offer::kQueued : Offer::kWaitlisted;
}

void PendingQueue::promote_waitlist_locked(bool ignore_capacity) {
  bool promoted = false;
  // Highest class first (kInteractive = last lane index), FIFO within a
  // class — the same drain order take_batch uses for the queue proper.
  for (std::size_t lane = lanes_.size(); lane-- > 0;) {
    while (queued_[lane] < lanes_[lane].size() &&
           (ignore_capacity || capacity_ == 0 || size_locked() < capacity_)) {
      ++queued_[lane];
      promoted = true;
    }
  }
  if (!promoted) return;
  high_watermark_ = std::max(high_watermark_, size_locked());
  if (claim_wake_locked()) consumer_cv_.notify_one();
}

bool PendingQueue::claim_wake_locked() {
  if (wake_at_ == 0 || size_locked() < wake_at_) return false;
  // One notify per wait: the consumer re-arms the level if it sleeps again.
  wake_at_ = 0;
  return true;
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
        for (std::size_t i = 0; i < queued_[lane]; ++i) {
          if (now - lanes_[lane][i]->enqueued_at > aging_seconds) {
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
        while (queued_[lane] > 0 && batch.size() < n) {
          batch.push_back(std::move(items.front()));
          items.pop_front();
          --queued_[lane];
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
        for (std::size_t i = 0; i < queued_[lane]; ++i) {
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
      // would make a big cycle quadratic under the queue lock). Only the
      // queued prefix is ever taken; the waitlisted suffix is kept whole.
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
        queued_[lane] -= taken[lane].size();
      }
    }
    // Refill freed slots from the capacity waitlist.
    promote_waitlist_locked();
  }
  return batch;
}

std::vector<PendingQueue::Item> PendingQueue::take_expired(double now) {
  std::vector<Item> expired;
  // A waitlisted job's deadline keeps ticking while it waits for a capacity
  // slot, so the sweep covers whole lanes; waitlisted items are returned
  // after every queued one.
  std::vector<Item> expired_waitlisted;
  MutexLock lock(mutex_);
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    auto& items = lanes_[lane];
    for (std::size_t i = 0; i < items.size();) {
      // Inclusive boundary: dispatch exactly at the deadline leaves zero
      // slack, which the at/before contract counts as a miss — matching
      // the submit-time admission check.
      if (!(items[i]->deadline_seconds && *items[i]->deadline_seconds <= now)) {
        ++i;
        continue;
      }
      if (i < queued_[lane]) {
        expired.push_back(std::move(items[i]));
        --queued_[lane];
      } else {
        expired_waitlisted.push_back(std::move(items[i]));
      }
      items.erase(items.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  expired.insert(expired.end(), std::make_move_iterator(expired_waitlisted.begin()),
                 std::make_move_iterator(expired_waitlisted.end()));
  promote_waitlist_locked();
  return expired;
}

bool PendingQueue::remove(const Item& item) {
  MutexLock lock(mutex_);
  const auto lane = static_cast<std::size_t>(item->priority);
  auto& items = lanes_[lane];
  const auto it = std::find(items.begin(), items.end(), item);
  if (it == items.end()) return false;
  const bool queued = static_cast<std::size_t>(it - items.begin()) < queued_[lane];
  items.erase(it);
  // Pulling a waitlisted item frees no queue slot, so no promotion follows.
  if (queued) {
    --queued_[lane];
    promote_waitlist_locked();
  }
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

std::size_t PendingQueue::size() const {
  MutexLock lock(mutex_);
  return size_locked();
}

std::size_t PendingQueue::high_watermark() const {
  MutexLock lock(mutex_);
  return high_watermark_;
}

std::size_t PendingQueue::waitlist_depth() const {
  MutexLock lock(mutex_);
  return waitlist_depth_locked();
}

std::size_t PendingQueue::waitlist_high_watermark() const {
  MutexLock lock(mutex_);
  return waitlist_high_watermark_;
}

std::uint64_t PendingQueue::waitlist_parks() const {
  MutexLock lock(mutex_);
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
  if (oldest_enqueue < 0.0) return 0.0;
  return std::max(0.0, now - oldest_enqueue);
}

PendingQueue::Wake PendingQueue::wait_for_batch(std::size_t threshold,
                                                std::chrono::milliseconds linger) {
  MutexLock lock(mutex_);
  // wake_at_ is armed only across each wait: awake, this thread re-checks
  // the queue before it sleeps again (a cycle included), so offers made
  // meanwhile need not notify it.
  for (;;) {
    // Phase 1: sleep until there is any work at all (or the queue closes).
    // An empty queue never fires a cycle, so there is no deadline here.
    while (size_locked() == 0 && !closed_) {
      wake_at_ = 1;
      consumer_cv_.wait(mutex_);
      wake_at_ = 0;
    }
    if (closed_) return size_locked() > 0 ? Wake::kFlush : Wake::kClosed;
    if (size_locked() >= threshold) return Wake::kThreshold;
    // Phase 2: give the batch `linger` to fill up to the threshold. Offers
    // below it only grow the batch, so they do not wake us.
    const auto deadline = std::chrono::steady_clock::now() + linger;
    bool timed_out = false;
    while (size_locked() < threshold && !closed_) {
      wake_at_ = threshold;
      const std::cv_status status = consumer_cv_.wait_until(mutex_, deadline);
      wake_at_ = 0;
      if (status == std::cv_status::timeout && size_locked() < threshold && !closed_) {
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
