// Tests for the scheduler service subsystem (§7, Fig. 5): the bounded
// PendingQueue, the SchedulerService driven by fake hooks (threshold and
// timer cycles, shutdown flush, infeasible filtering), config validation
// surfacing as typed INVALID_ARGUMENT, and the batch-scheduling serving
// path end to end — a burst of concurrent invoke()s dispatched in multiple
// hybrid-scheduler cycles, observed through getSchedulerStats and the
// on_task_start observer, and the per-task config (threshold 1, batch cap
// 1, no linger) that gives every job its own single-job cycle.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "circuit/library.hpp"
#include "core/pending_queue.hpp"
#include "core/scheduler_service.hpp"

namespace qon::core {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<PendingQuantumTask> make_task(
    api::RunId run, int qubits, std::size_t num_qpus,
    api::Priority priority = api::Priority::kStandard) {
  auto task = std::make_shared<PendingQuantumTask>();
  task->run = run;
  task->task_name = "task-" + std::to_string(run);
  task->qubits = qubits;
  task->shots = 100;
  task->priority = priority;
  task->est_fidelity.assign(num_qpus, 0.9);
  task->est_exec_seconds.assign(num_qpus, 2.0);
  return task;
}

/// Blocks until `task` settles: a latch over its one on_settled() slot.
/// Returns at once when the task already settled.
void await_settled(PendingQuantumTask& task) {
  auto settled = std::make_shared<std::latch>(1);
  task.on_settled([settled] { settled->count_down(); });
  settled->wait();
}

// ---- PendingQueue ------------------------------------------------------------

TEST(PendingQueue, FifoOrderAndBatchCap) {
  PendingQueue queue;
  for (api::RunId r = 1; r <= 5; ++r) queue.offer(make_task(r, 4, 2));
  EXPECT_EQ(queue.size(), 5u);
  EXPECT_EQ(queue.high_watermark(), 5u);

  auto first = queue.take_batch(3);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0]->run, 1u);
  EXPECT_EQ(first[2]->run, 3u);

  auto rest = queue.take_batch(0);  // 0 = everything
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0]->run, 4u);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.high_watermark(), 5u);  // watermark survives the drain
}

TEST(PendingQueue, BatchesFormInPriorityOrder) {
  PendingQueue queue;
  queue.offer(make_task(1, 4, 2, api::Priority::kBatch));
  queue.offer(make_task(2, 4, 2, api::Priority::kInteractive));
  queue.offer(make_task(3, 4, 2, api::Priority::kStandard));
  queue.offer(make_task(4, 4, 2, api::Priority::kInteractive));

  auto first = queue.take_batch(2);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0]->run, 2u);  // the interactive lane drains first, FIFO within
  EXPECT_EQ(first[1]->run, 4u);
  auto rest = queue.take_batch(0);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0]->run, 3u);  // then standard, then batch
  EXPECT_EQ(rest[1]->run, 1u);
}

// Priority aging: a job whose virtual wait exceeds the budget competes one
// lane above its own, ranked by enqueue time within the effective lane — so
// an aged job beats a fresh stream instead of joining the back of its lane.
TEST(PendingQueue, AgingPromotesLongWaitingJobsExactlyOneLane) {
  PendingQueue queue;
  auto batch_old = make_task(1, 4, 2, api::Priority::kBatch);        // waited 100 s
  auto std_old = make_task(2, 4, 2, api::Priority::kStandard);       // waited 100 s
  auto std_fresh = make_task(3, 4, 2, api::Priority::kStandard);
  std_fresh->enqueued_at = 90.0;                                     // waited 10 s
  auto inter_fresh = make_task(4, 4, 2, api::Priority::kInteractive);
  inter_fresh->enqueued_at = 90.0;
  for (const auto& task : {batch_old, std_old, std_fresh, inter_fresh}) {
    queue.offer(task);
  }

  // At t=100 with a 30 s budget: std_old is promoted to the interactive
  // lane and outranks the fresher native interactive job; batch_old is
  // promoted exactly ONE lane (to standard, never to interactive), so it
  // loses the capped slots despite being the oldest item overall.
  auto first = queue.take_batch(2, /*now=*/100.0, /*aging_seconds=*/30.0);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0]->run, 2u);  // aged standard, effective interactive
  EXPECT_EQ(first[1]->run, 4u);  // native interactive
  auto rest = queue.take_batch(0, 100.0, 30.0);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0]->run, 1u);  // aged batch, effective standard, older
  EXPECT_EQ(rest[1]->run, 3u);  // native standard

  // aging_seconds = 0 disables the rule: strict priority order.
  queue.offer(batch_old);
  queue.offer(inter_fresh);
  auto strict = queue.take_batch(0, 100.0, 0.0);
  ASSERT_EQ(strict.size(), 2u);
  EXPECT_EQ(strict[0]->run, 4u);
  EXPECT_EQ(strict[1]->run, 1u);
}

TEST(PendingQueue, TakeExpiredPullsOnlyOverdueDeadlines) {
  PendingQueue queue;
  auto overdue = make_task(1, 4, 2);
  overdue->deadline_seconds = 5.0;
  auto future = make_task(2, 4, 2);
  future->deadline_seconds = 50.0;
  auto no_deadline = make_task(3, 4, 2);
  queue.offer(overdue);
  queue.offer(future);
  queue.offer(no_deadline);

  auto expired = queue.take_expired(10.0);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0]->run, 1u);
  EXPECT_EQ(queue.size(), 2u);
  // Just before the deadline the job still schedules…
  EXPECT_TRUE(queue.take_expired(49.9).empty());
  // …but the bound is inclusive: a cycle firing exactly at the deadline
  // would dispatch with zero slack, which the at/before contract counts as
  // a miss — the same boundary the submit-time admission check rejects.
  auto boundary = queue.take_expired(50.0);
  ASSERT_EQ(boundary.size(), 1u);
  EXPECT_EQ(boundary[0]->run, 2u);
  EXPECT_EQ(queue.size(), 1u);  // only the no-deadline job remains
}

TEST(PendingQueue, RemoveFreesSlotAndIgnoresUnknownItems) {
  PendingQueue queue(2);
  auto a = make_task(1, 4, 2);
  auto b = make_task(2, 4, 2);
  queue.offer(a);
  queue.offer(b);
  EXPECT_TRUE(queue.remove(a));
  EXPECT_FALSE(queue.remove(a));  // already gone
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.offer(make_task(3, 4, 2)), PendingQueue::Offer::kQueued);  // the capacity slot was freed
  auto batch = queue.take_batch(0);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0]->run, 2u);
}

// All three drain paths — take_batch, take_expired, remove — must free a
// capacity slot for a waitlisted offer, and none may distort the
// high-watermark statistic past the bound.
TEST(PendingQueue, BoundedOfferFreedByTakeExpired) {
  PendingQueue queue(2);
  auto overdue = make_task(1, 4, 2);
  overdue->deadline_seconds = 5.0;
  EXPECT_EQ(queue.offer(overdue), PendingQueue::Offer::kQueued);
  EXPECT_EQ(queue.offer(make_task(2, 4, 2)), PendingQueue::Offer::kQueued);
  EXPECT_EQ(queue.offer(make_task(3, 4, 2)), PendingQueue::Offer::kWaitlisted);
  EXPECT_EQ(queue.waitlist_depth(), 1u);

  auto expired = queue.take_expired(10.0);  // frees the overdue job's slot
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(queue.waitlist_depth(), 0u);  // promoted into the freed slot
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.high_watermark(), 2u);  // never exceeded the bound
  auto batch = queue.take_batch(0);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[1]->run, 3u);
}

TEST(PendingQueue, BoundedOfferFreedByRemove) {
  PendingQueue queue(2);
  auto cancelled = make_task(1, 4, 2);
  EXPECT_EQ(queue.offer(cancelled), PendingQueue::Offer::kQueued);
  EXPECT_EQ(queue.offer(make_task(2, 4, 2)), PendingQueue::Offer::kQueued);
  EXPECT_EQ(queue.offer(make_task(3, 4, 2)), PendingQueue::Offer::kWaitlisted);
  EXPECT_EQ(queue.waitlist_depth(), 1u);

  EXPECT_TRUE(queue.remove(cancelled));  // the cancellation path frees a slot
  EXPECT_EQ(queue.waitlist_depth(), 0u);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.high_watermark(), 2u);
  auto batch = queue.take_batch(0);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[1]->run, 3u);
}

TEST(PendingQueue, HighWatermarkStableAcrossAllDrainPaths) {
  PendingQueue queue(3);
  auto expiring = make_task(1, 4, 2);
  expiring->deadline_seconds = 1.0;
  auto removable = make_task(2, 4, 2);
  queue.offer(expiring);
  queue.offer(removable);
  queue.offer(make_task(3, 4, 2));
  EXPECT_EQ(queue.high_watermark(), 3u);

  EXPECT_EQ(queue.take_expired(2.0).size(), 1u);
  EXPECT_TRUE(queue.remove(removable));
  EXPECT_EQ(queue.take_batch(0).size(), 1u);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.high_watermark(), 3u);  // the drains never reset or inflate it
}

// ---- PendingQueue::offer — the non-blocking capacity waitlist ----------------

TEST(PendingQueue, OfferQueuesWithCapacityAndWaitlistsWhenFull) {
  PendingQueue queue(2);
  EXPECT_EQ(queue.offer(make_task(1, 4, 2)), PendingQueue::Offer::kQueued);
  EXPECT_EQ(queue.offer(make_task(2, 4, 2)), PendingQueue::Offer::kQueued);
  // Full: the third offer returns immediately instead of blocking, parked
  // on the waitlist — it does NOT count toward size().
  EXPECT_EQ(queue.offer(make_task(3, 4, 2)), PendingQueue::Offer::kWaitlisted);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.waitlist_depth(), 1u);
  EXPECT_EQ(queue.waitlist_parks(), 1u);
  EXPECT_EQ(queue.waitlist_high_watermark(), 1u);
  EXPECT_EQ(queue.high_watermark(), 2u);

  // take_batch frees both slots and promotes the waitlisted item into its
  // lane atomically under the queue lock.
  auto batch = queue.take_batch(0);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.waitlist_depth(), 0u);
  auto promoted = queue.take_batch(0);
  ASSERT_EQ(promoted.size(), 1u);
  EXPECT_EQ(promoted[0]->run, 3u);
  // The park statistics survive the promotion (they are cumulative).
  EXPECT_EQ(queue.waitlist_parks(), 1u);
  EXPECT_EQ(queue.waitlist_high_watermark(), 1u);
}

TEST(PendingQueue, WaitlistPromotesFifoByPriority) {
  PendingQueue queue(2);
  queue.offer(make_task(1, 4, 2));
  queue.offer(make_task(2, 4, 2));
  // Waitlisted in arrival order: batch, interactive, interactive, standard.
  EXPECT_EQ(queue.offer(make_task(3, 4, 2, api::Priority::kBatch)),
            PendingQueue::Offer::kWaitlisted);
  EXPECT_EQ(queue.offer(make_task(4, 4, 2, api::Priority::kInteractive)),
            PendingQueue::Offer::kWaitlisted);
  EXPECT_EQ(queue.offer(make_task(5, 4, 2, api::Priority::kInteractive)),
            PendingQueue::Offer::kWaitlisted);
  EXPECT_EQ(queue.offer(make_task(6, 4, 2, api::Priority::kStandard)),
            PendingQueue::Offer::kWaitlisted);
  EXPECT_EQ(queue.waitlist_depth(), 4u);
  EXPECT_EQ(queue.waitlist_high_watermark(), 4u);

  // Draining the queue frees 2 slots: the waitlist promotes its highest
  // class first (both interactive jobs, FIFO within the class) — the
  // earlier-arrived batch job keeps waiting.
  queue.take_batch(0);
  EXPECT_EQ(queue.waitlist_depth(), 2u);
  auto second = queue.take_batch(0);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0]->run, 4u);
  EXPECT_EQ(second[1]->run, 5u);
  // Next drain promotes standard before batch.
  auto third = queue.take_batch(0);
  ASSERT_EQ(third.size(), 2u);
  EXPECT_EQ(third[0]->run, 6u);
  EXPECT_EQ(third[1]->run, 3u);
  EXPECT_EQ(queue.waitlist_depth(), 0u);
}

TEST(PendingQueue, TakeExpiredSweepsTheWaitlistToo) {
  PendingQueue queue(1);
  queue.offer(make_task(1, 4, 2));
  auto waitlisted = make_task(2, 4, 2);
  waitlisted->deadline_seconds = 5.0;
  EXPECT_EQ(queue.offer(waitlisted), PendingQueue::Offer::kWaitlisted);

  // The waitlisted job's deadline passes while it waits for a capacity
  // slot: the expiry sweep must find it there, not only in the queue.
  auto expired = queue.take_expired(5.0);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0]->run, 2u);
  EXPECT_EQ(queue.waitlist_depth(), 0u);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(PendingQueue, RemovePullsWaitlistedItem) {
  PendingQueue queue(1);
  queue.offer(make_task(1, 4, 2));
  auto waitlisted = make_task(2, 4, 2);
  EXPECT_EQ(queue.offer(waitlisted), PendingQueue::Offer::kWaitlisted);

  // A cancelled run's task leaves the waitlist sideways, exactly like a
  // queued task leaves the queue.
  EXPECT_TRUE(queue.remove(waitlisted));
  EXPECT_FALSE(queue.remove(waitlisted));  // already gone
  EXPECT_EQ(queue.waitlist_depth(), 0u);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(PendingQueue, ClosePromotesWaitlistIntoTheFinalFlush) {
  PendingQueue queue(1);
  queue.offer(make_task(1, 4, 2));
  EXPECT_EQ(queue.offer(make_task(2, 4, 2)), PendingQueue::Offer::kWaitlisted);

  queue.close();
  // The flush drain must see BOTH items: a waitlisted task still needs its
  // terminal verdict, so close() promotes past the capacity bound.
  EXPECT_EQ(queue.waitlist_depth(), 0u);
  EXPECT_EQ(queue.wait_for_batch(100, 10s), PendingQueue::Wake::kFlush);
  auto flush = queue.take_batch(0);
  ASSERT_EQ(flush.size(), 2u);
  EXPECT_EQ(queue.wait_for_batch(100, 10s), PendingQueue::Wake::kClosed);

  // And after close, offers are rejected outright.
  EXPECT_EQ(queue.offer(make_task(3, 4, 2)), PendingQueue::Offer::kClosed);
}

TEST(PendingQueue, OldestWaitTracksTheStalestParkedItem) {
  PendingQueue queue(1);
  EXPECT_DOUBLE_EQ(queue.oldest_wait_seconds(100.0), 0.0);  // nothing parked

  auto queued = make_task(1, 4, 2);
  queued->enqueued_at = 10.0;
  queue.offer(queued);
  EXPECT_DOUBLE_EQ(queue.oldest_wait_seconds(100.0), 90.0);

  // The queue-stall SLI must see the capacity waitlist too: a task starved
  // of a slot is exactly the wait the gauge exists to expose.
  auto waitlisted = make_task(2, 4, 2);
  waitlisted->enqueued_at = 4.0;
  EXPECT_EQ(queue.offer(waitlisted), PendingQueue::Offer::kWaitlisted);
  EXPECT_DOUBLE_EQ(queue.oldest_wait_seconds(100.0), 96.0);

  // Draining the queue promotes the waitlisted item; it is now the only —
  // and oldest — parked task.
  auto batch = queue.take_batch(1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0]->run, 1u);
  EXPECT_DOUBLE_EQ(queue.oldest_wait_seconds(100.0), 96.0);
  ASSERT_EQ(queue.take_batch(0).size(), 1u);
  EXPECT_DOUBLE_EQ(queue.oldest_wait_seconds(100.0), 0.0);  // drained
}

TEST(PendingQueue, FirstSettlementWins) {
  auto task = make_task(1, 4, 2);
  task->fail(api::Cancelled("cancelled while parked"), 1.0);
  // A racing cycle completion must be a no-op — and say so, so the cycle
  // does not book a QPU window for a task that will never execute.
  EXPECT_FALSE(task->complete(0, 2.0, 2.0, 4.0));
  await_settled(*task);
  EXPECT_TRUE(task->settled());
  EXPECT_EQ(task->error.code(), api::StatusCode::kCancelled);
  EXPECT_LT(task->assigned_qpu, 0);
  EXPECT_DOUBLE_EQ(task->dispatched_at, 1.0);
}

TEST(PendingQueue, WaitWakesOnThreshold) {
  PendingQueue queue;
  std::thread producer([&] {
    for (api::RunId r = 1; r <= 3; ++r) queue.offer(make_task(r, 4, 2));
  });
  const auto wake = queue.wait_for_batch(3, 10s);
  producer.join();
  EXPECT_EQ(wake, PendingQueue::Wake::kThreshold);
  EXPECT_EQ(queue.size(), 3u);
}

TEST(PendingQueue, WaitWakesOnLingerWithSubThresholdBatch) {
  PendingQueue queue;
  queue.offer(make_task(1, 4, 2));
  const auto wake = queue.wait_for_batch(100, 10ms);
  EXPECT_EQ(wake, PendingQueue::Wake::kLinger);
  EXPECT_EQ(queue.size(), 1u);  // single consumer: nothing vanished
}

TEST(PendingQueue, WaitReportsFlushThenClosed) {
  PendingQueue queue;
  queue.offer(make_task(1, 4, 2));
  queue.close();
  EXPECT_EQ(queue.wait_for_batch(100, 10s), PendingQueue::Wake::kFlush);
  queue.take_batch(0);
  EXPECT_EQ(queue.wait_for_batch(100, 10s), PendingQueue::Wake::kClosed);
}

// ---- lost-wakeup guards ------------------------------------------------------
// Producers notify the consumer only at its wake level (1 item while it
// sleeps for work, the threshold while it lingers). Each test lingers 60 s,
// so a missed notify would show as a wait far past the 1 s bound.

constexpr auto kLongLinger = std::chrono::milliseconds(60'000);
constexpr auto kWakeBound = std::chrono::seconds(1);

TEST(PendingQueue, ConcurrentProducerReachingThresholdWakesLingeringConsumer) {
  constexpr std::size_t kThreshold = 50;
  PendingQueue queue;
  std::thread producer([&] {
    for (api::RunId r = 1; r <= kThreshold; ++r) {
      queue.offer(make_task(r, 4, 2));
      std::this_thread::sleep_for(200us);
    }
  });
  const auto start = std::chrono::steady_clock::now();
  const auto wake = queue.wait_for_batch(kThreshold, kLongLinger);
  const auto waited = std::chrono::steady_clock::now() - start;
  producer.join();
  EXPECT_EQ(wake, PendingQueue::Wake::kThreshold);
  EXPECT_LT(waited, kWakeBound);
  EXPECT_EQ(queue.size(), kThreshold);
}

TEST(PendingQueue, FirstOfferWakesSleepingConsumer) {
  PendingQueue queue;
  std::atomic<bool> woke{false};
  PendingQueue::Wake wake = PendingQueue::Wake::kClosed;
  std::thread consumer([&] {
    wake = queue.wait_for_batch(1, kLongLinger);
    woke = true;
  });
  std::this_thread::sleep_for(50ms);  // let the consumer fall asleep on the empty queue
  EXPECT_FALSE(woke.load());
  queue.offer(make_task(1, 4, 2));
  const auto deadline = std::chrono::steady_clock::now() + kWakeBound;
  while (!woke.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(woke.load()) << "the first offer did not wake the consumer";
  queue.close();  // releases a consumer the offer failed to wake
  consumer.join();
  EXPECT_EQ(wake, PendingQueue::Wake::kThreshold);
}

TEST(PendingQueue, CloseWakesConsumerWhileSleepingForWork) {
  PendingQueue queue;
  std::thread consumer([&] {
    EXPECT_EQ(queue.wait_for_batch(10, kLongLinger), PendingQueue::Wake::kClosed);
  });
  std::this_thread::sleep_for(50ms);
  const auto start = std::chrono::steady_clock::now();
  queue.close();
  consumer.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, kWakeBound);
}

TEST(PendingQueue, CloseWakesConsumerWhileLingering) {
  PendingQueue queue;
  queue.offer(make_task(1, 4, 2));
  std::thread consumer([&] {
    EXPECT_EQ(queue.wait_for_batch(10, kLongLinger), PendingQueue::Wake::kFlush);
  });
  std::this_thread::sleep_for(50ms);  // below threshold: the consumer lingers
  const auto start = std::chrono::steady_clock::now();
  queue.close();
  consumer.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, kWakeBound);
  EXPECT_EQ(queue.size(), 1u);
}

/// Reference model of the pending queue as two containers: queued lanes
/// plus a separate per-priority capacity waitlist, promoted highest lane
/// first (FIFO within a lane) whenever a slot frees. Single-threaded, no
/// locks: MatchesTwoContainerReference holds the real queue to it.
class TwoContainerReference {
 public:
  using Item = PendingQueue::Item;

  explicit TwoContainerReference(std::size_t capacity) : capacity_(capacity) {}

  PendingQueue::Offer offer(Item item) {
    if (closed_) return PendingQueue::Offer::kClosed;
    const auto lane = static_cast<std::size_t>(item->priority);
    if (capacity_ == 0 || size() < capacity_) {
      lanes_[lane].push_back(std::move(item));
      high_watermark_ = std::max(high_watermark_, size());
      return PendingQueue::Offer::kQueued;
    }
    waitlist_[lane].push_back(std::move(item));
    ++waitlist_parks_;
    waitlist_high_watermark_ = std::max(waitlist_high_watermark_, waitlist_depth());
    return PendingQueue::Offer::kWaitlisted;
  }

  std::vector<Item> take_batch(std::size_t max, double now, double aging_seconds) {
    const std::size_t n = max == 0 ? size() : std::min(max, size());
    std::vector<Item> batch;
    bool any_aged = false;
    if (aging_seconds > 0.0) {
      for (std::size_t lane = 0; lane + 1 < lanes_.size(); ++lane) {
        for (const auto& item : lanes_[lane]) {
          any_aged = any_aged || now - item->enqueued_at > aging_seconds;
        }
      }
    }
    if (!any_aged) {
      for (std::size_t lane = lanes_.size(); lane-- > 0;) {
        while (!lanes_[lane].empty() && batch.size() < n) {
          batch.push_back(lanes_[lane].front());
          lanes_[lane].pop_front();
        }
      }
    } else {
      // Rank by (effective lane desc, enqueue time asc), stable over the
      // lane-desc/FIFO collection order; an aged item competes one lane up.
      struct Candidate {
        std::size_t effective;
        std::size_t lane;
        std::size_t index;
      };
      std::vector<Candidate> candidates;
      for (std::size_t lane = lanes_.size(); lane-- > 0;) {
        for (std::size_t i = 0; i < lanes_[lane].size(); ++i) {
          const bool aged = lane + 1 < lanes_.size() &&
                            now - lanes_[lane][i]->enqueued_at > aging_seconds;
          candidates.push_back({aged ? lane + 1 : lane, lane, i});
        }
      }
      std::stable_sort(candidates.begin(), candidates.end(),
                       [this](const Candidate& a, const Candidate& b) {
                         if (a.effective != b.effective) return a.effective > b.effective;
                         return lanes_[a.lane][a.index]->enqueued_at <
                                lanes_[b.lane][b.index]->enqueued_at;
                       });
      candidates.resize(n);
      std::array<std::vector<bool>, api::kNumPriorities> taken;
      for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
        taken[lane].assign(lanes_[lane].size(), false);
      }
      for (const auto& c : candidates) {
        batch.push_back(lanes_[c.lane][c.index]);
        taken[c.lane][c.index] = true;
      }
      for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
        std::deque<Item> kept;
        for (std::size_t i = 0; i < lanes_[lane].size(); ++i) {
          if (!taken[lane][i]) kept.push_back(lanes_[lane][i]);
        }
        lanes_[lane] = std::move(kept);
      }
    }
    promote(/*ignore_capacity=*/false);
    return batch;
  }

  std::vector<Item> take_expired(double now) {
    std::vector<Item> expired;
    for (auto* lanes : {&lanes_, &waitlist_}) {  // queued first, then waitlisted
      for (auto& lane : *lanes) {
        for (auto it = lane.begin(); it != lane.end();) {
          if ((*it)->deadline_seconds && *(*it)->deadline_seconds <= now) {
            expired.push_back(*it);
            it = lane.erase(it);
          } else {
            ++it;
          }
        }
      }
    }
    promote(/*ignore_capacity=*/false);
    return expired;
  }

  bool remove(const Item& item) {
    const auto lane = static_cast<std::size_t>(item->priority);
    if (const auto it = std::find(lanes_[lane].begin(), lanes_[lane].end(), item);
        it != lanes_[lane].end()) {
      lanes_[lane].erase(it);
      promote(/*ignore_capacity=*/false);
      return true;
    }
    const auto it = std::find(waitlist_[lane].begin(), waitlist_[lane].end(), item);
    if (it == waitlist_[lane].end()) return false;
    waitlist_[lane].erase(it);
    return true;
  }

  void close() {
    closed_ = true;
    promote(/*ignore_capacity=*/true);
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& lane : lanes_) total += lane.size();
    return total;
  }
  std::size_t waitlist_depth() const {
    std::size_t total = 0;
    for (const auto& lane : waitlist_) total += lane.size();
    return total;
  }
  std::size_t high_watermark() const { return high_watermark_; }
  std::size_t waitlist_high_watermark() const { return waitlist_high_watermark_; }
  std::uint64_t waitlist_parks() const { return waitlist_parks_; }

  double oldest_wait_seconds(double now) const {
    double oldest_enqueue = -1.0;
    for (const auto* lanes : {&lanes_, &waitlist_}) {
      for (const auto& lane : *lanes) {
        for (const Item& item : lane) {
          if (oldest_enqueue < 0.0 || item->enqueued_at < oldest_enqueue) {
            oldest_enqueue = item->enqueued_at;
          }
        }
      }
    }
    return oldest_enqueue < 0.0 ? 0.0 : std::max(0.0, now - oldest_enqueue);
  }

 private:
  using Lanes = std::array<std::deque<Item>, api::kNumPriorities>;

  void promote(bool ignore_capacity) {
    for (std::size_t lane = waitlist_.size(); lane-- > 0;) {
      while (!waitlist_[lane].empty() &&
             (ignore_capacity || capacity_ == 0 || size() < capacity_)) {
        lanes_[lane].push_back(waitlist_[lane].front());
        waitlist_[lane].pop_front();
        high_watermark_ = std::max(high_watermark_, size());
      }
    }
  }

  const std::size_t capacity_;
  Lanes lanes_;
  Lanes waitlist_;
  bool closed_ = false;
  std::size_t high_watermark_ = 0;
  std::size_t waitlist_high_watermark_ = 0;
  std::uint64_t waitlist_parks_ = 0;
};

std::vector<api::RunId> run_ids(const std::vector<PendingQueue::Item>& items) {
  std::vector<api::RunId> ids;
  for (const auto& item : items) ids.push_back(item->run);
  return ids;
}

// Seeded random offer / take_batch (with and without aging) / take_expired
// / remove / close sequences over capacities 0-8: every return value and
// every counter of the queue must match the two-container reference after
// every operation. Enqueue times are non-negative, as the fleet clock is.
TEST(PendingQueue, MatchesTwoContainerReference) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    std::mt19937_64 rng(seed);
    const auto uniform = [&rng](double lo, double hi) {
      return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    const std::size_t capacity = seed % 9;
    PendingQueue queue(capacity);
    TwoContainerReference reference(capacity);
    std::vector<PendingQueue::Item> offered;  // remove() targets, taken or not
    api::RunId next_run = 1;
    for (int op = 0; op < 300; ++op) {
      const auto dice = rng() % 100;
      if (dice < 45) {
        auto task = make_task(next_run++, 4, 2,
                              static_cast<api::Priority>(rng() % api::kNumPriorities));
        task->enqueued_at = uniform(0.0, 100.0);
        if (rng() % 10 < 3) task->deadline_seconds = uniform(0.0, 150.0);
        offered.push_back(task);
        ASSERT_EQ(queue.offer(task), reference.offer(task))
            << "offer, seed " << seed << " op " << op;
      } else if (dice < 65) {
        const std::size_t max = rng() % 5;
        const double now = uniform(0.0, 150.0);
        const double aging = rng() % 2 == 0 ? uniform(1.0, 60.0) : 0.0;
        ASSERT_EQ(run_ids(queue.take_batch(max, now, aging)),
                  run_ids(reference.take_batch(max, now, aging)))
            << "take_batch, seed " << seed << " op " << op;
      } else if (dice < 75) {
        const double now = uniform(0.0, 150.0);
        ASSERT_EQ(run_ids(queue.take_expired(now)), run_ids(reference.take_expired(now)))
            << "take_expired, seed " << seed << " op " << op;
      } else if (dice < 99) {
        // Mostly an item offered earlier (queued, waitlisted or long gone),
        // sometimes one that was never offered at all.
        const auto target = offered.empty() || rng() % 10 == 0
                                ? make_task(0, 4, 2)
                                : offered[rng() % offered.size()];
        ASSERT_EQ(queue.remove(target), reference.remove(target))
            << "remove, seed " << seed << " op " << op;
      } else if (rng() % 2 == 0) {
        queue.close();
        reference.close();
      }
      ASSERT_EQ(queue.size(), reference.size()) << "seed " << seed << " op " << op;
      ASSERT_EQ(queue.high_watermark(), reference.high_watermark())
          << "seed " << seed << " op " << op;
      ASSERT_EQ(queue.waitlist_depth(), reference.waitlist_depth())
          << "seed " << seed << " op " << op;
      ASSERT_EQ(queue.waitlist_high_watermark(), reference.waitlist_high_watermark())
          << "seed " << seed << " op " << op;
      ASSERT_EQ(queue.waitlist_parks(), reference.waitlist_parks())
          << "seed " << seed << " op " << op;
      const double now = uniform(0.0, 200.0);
      ASSERT_EQ(queue.oldest_wait_seconds(now), reference.oldest_wait_seconds(now))
          << "seed " << seed << " op " << op;
    }
  }
}

// ---- SchedulerService on fake hooks ------------------------------------------

/// Fake engine: an atomic virtual clock plus a uniform fleet of `num_qpus`
/// QPUs of `qpu_size` qubits.
struct FakeEngine {
  explicit FakeEngine(std::size_t num_qpus, int qpu_size = 27)
      : num_qpus(num_qpus), qpu_size(qpu_size) {}

  SchedulerServiceHooks hooks() {
    SchedulerServiceHooks hooks;
    hooks.now = [this] { return clock.load(); };
    hooks.snapshot_qpus = [this](double advance_to) {
      double seen = clock.load();
      while (advance_to > seen && !clock.compare_exchange_weak(seen, advance_to)) {
      }
      std::vector<sched::QpuState> qpus;
      for (std::size_t q = 0; q < num_qpus; ++q) {
        qpus.push_back({"fake" + std::to_string(q), qpu_size, 0.0, true});
      }
      return qpus;
    };
    return hooks;
  }

  std::atomic<double> clock{0.0};
  std::size_t num_qpus;
  int qpu_size;
};

TEST(SchedulerService, ThresholdCycleFiresWithoutTimer) {
  FakeEngine engine(2);
  SchedulerServiceConfig config;
  config.queue_threshold = 2;
  config.linger = 10s;  // only the threshold can fire this fast
  SchedulerService service(config, 7, {}, engine.hooks());

  auto a = make_task(1, 4, 2);
  auto b = make_task(2, 4, 2);
  ASSERT_EQ(service.offer(a), PendingQueue::Offer::kQueued);
  ASSERT_EQ(service.offer(b), PendingQueue::Offer::kQueued);
  await_settled(*a);
  await_settled(*b);

  EXPECT_TRUE(a->error.ok()) << a->error.to_string();
  EXPECT_TRUE(b->error.ok()) << b->error.to_string();
  EXPECT_GE(a->assigned_qpu, 0);
  EXPECT_LT(a->assigned_qpu, 2);
  EXPECT_DOUBLE_EQ(a->dispatched_at, 0.0);  // no timer warp on a threshold fire

  const auto stats = service.stats();
  EXPECT_EQ(stats.cycles, 1u);
  EXPECT_EQ(stats.jobs_scheduled, 2u);
  ASSERT_EQ(stats.recent_cycles.size(), 1u);
  EXPECT_EQ(stats.recent_cycles[0].trigger, api::CycleTrigger::kThreshold);
  EXPECT_EQ(stats.recent_cycles[0].batch_size, 2u);
  service.shutdown();
}

TEST(SchedulerService, DispatchBooksBackToBackWindowsOnTheQpuTimeline) {
  // One QPU, two threshold cycles at the same virtual instant: the cycle
  // books each task's window in batch order, and the second cycle starts
  // where the first one's bookings end.
  FakeEngine engine(1);
  SchedulerServiceConfig config;
  config.queue_threshold = 2;
  config.linger = 10s;
  SchedulerService service(config, 7, {}, engine.hooks());

  std::vector<std::shared_ptr<PendingQuantumTask>> tasks;
  for (api::RunId r = 1; r <= 4; ++r) {
    tasks.push_back(make_task(r, 4, 1));
    ASSERT_EQ(service.offer(tasks.back()), PendingQueue::Offer::kQueued);
    if (r % 2 == 0) {
      await_settled(*tasks[r - 2]);
      await_settled(*tasks[r - 1]);
    }
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    ASSERT_TRUE(tasks[i]->error.ok()) << tasks[i]->error.to_string();
    EXPECT_EQ(tasks[i]->assigned_qpu, 0);
    EXPECT_DOUBLE_EQ(tasks[i]->dispatched_at, 0.0);
    EXPECT_DOUBLE_EQ(tasks[i]->exec_start, 2.0 * static_cast<double>(i));
    EXPECT_DOUBLE_EQ(tasks[i]->exec_end, 2.0 * static_cast<double>(i + 1));
  }
  service.shutdown();
}

TEST(SchedulerService, TimerCycleAdvancesTheVirtualClockToTheDeadline) {
  FakeEngine engine(2);
  SchedulerServiceConfig config;
  config.queue_threshold = 100;  // unreachable: only the timer can fire
  config.interval_seconds = 60.0;
  config.linger = 1ms;
  SchedulerService service(config, 7, {}, engine.hooks());

  auto task = make_task(1, 4, 2);
  ASSERT_EQ(service.offer(task), PendingQueue::Offer::kQueued);
  await_settled(*task);

  EXPECT_TRUE(task->error.ok()) << task->error.to_string();
  // The linger elapsed in real time, so the cycle fired as the virtual
  // timer running out: the fleet clock jumped to the 60 s deadline.
  EXPECT_DOUBLE_EQ(task->dispatched_at, 60.0);
  EXPECT_DOUBLE_EQ(engine.clock.load(), 60.0);

  const auto stats = service.stats();
  ASSERT_EQ(stats.recent_cycles.size(), 1u);
  EXPECT_EQ(stats.recent_cycles[0].trigger, api::CycleTrigger::kTimer);
  EXPECT_DOUBLE_EQ(stats.recent_cycles[0].mean_queue_wait_seconds, 60.0);
  service.shutdown();
}

TEST(SchedulerService, ShutdownFlushesTheFinalCycle) {
  FakeEngine engine(2);
  SchedulerServiceConfig config;
  config.queue_threshold = 100;
  config.linger = 10s;  // neither trigger can fire before the shutdown flush
  SchedulerService service(config, 7, {}, engine.hooks());

  std::vector<std::shared_ptr<PendingQuantumTask>> tasks;
  for (api::RunId r = 1; r <= 3; ++r) {
    tasks.push_back(make_task(r, 4, 2));
    ASSERT_EQ(service.offer(tasks.back()), PendingQueue::Offer::kQueued);
  }
  service.shutdown();  // must drain: close, flush one final cycle, join

  for (const auto& task : tasks) {
    await_settled(*task);  // already complete — returns immediately
    EXPECT_TRUE(task->error.ok()) << task->error.to_string();
    EXPECT_GE(task->assigned_qpu, 0);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.jobs_scheduled, 3u);
  EXPECT_EQ(stats.queue_depth, 0u);
  ASSERT_EQ(stats.recent_cycles.size(), 1u);
  // The drain is reported as a flush, not mislabeled as timer/threshold.
  EXPECT_EQ(stats.recent_cycles[0].trigger, api::CycleTrigger::kFlush);
  EXPECT_EQ(service.offer(make_task(9, 4, 2)), PendingQueue::Offer::kClosed);  // closed for good
}

// The QoS-deadline acceptance scenario at the service level: a job parked
// past its deadline fails DEADLINE_EXCEEDED at cycle start and never
// consumes a batch slot or a QPU; its batch sibling is scheduled normally.
TEST(SchedulerService, DeadlineExpiredParkedJobFailsAtCycleStart) {
  FakeEngine engine(2);
  SchedulerServiceConfig config;
  config.queue_threshold = 100;  // unreachable: the timer fires, at t=60
  config.interval_seconds = 60.0;
  config.linger = 200ms;
  SchedulerService service(config, 7, {}, engine.hooks());

  auto expired = make_task(1, 4, 2);
  expired->deadline_seconds = 10.0;  // passes before the timer cycle
  auto alive = make_task(2, 4, 2);
  alive->deadline_seconds = 120.0;  // still good at t=60
  ASSERT_EQ(service.offer(expired), PendingQueue::Offer::kQueued);
  ASSERT_EQ(service.offer(alive), PendingQueue::Offer::kQueued);
  await_settled(*expired);
  await_settled(*alive);

  EXPECT_EQ(expired->error.code(), api::StatusCode::kDeadlineExceeded);
  EXPECT_LT(expired->assigned_qpu, 0);  // no QPU consumed
  EXPECT_TRUE(alive->error.ok()) << alive->error.to_string();
  EXPECT_GE(alive->assigned_qpu, 0);

  const auto stats = service.stats();
  EXPECT_EQ(stats.jobs_expired, 1u);
  EXPECT_EQ(stats.jobs_scheduled, 1u);
  EXPECT_EQ(stats.jobs_filtered, 0u);
  std::size_t expired_in_cycles = 0;
  for (const auto& cycle : stats.recent_cycles) expired_in_cycles += cycle.expired;
  EXPECT_EQ(expired_in_cycles, 1u);
  service.shutdown();
}

// Priority-ordered batch formation isolates queue waits: with a cycle cap
// of 2, the interactive pair dispatches in the threshold cycle at t=0 and
// the batch-class pair waits for the timer cycle at t=60.
TEST(SchedulerService, PriorityOrderIsolatesQueueWaits) {
  FakeEngine engine(2);
  SchedulerServiceConfig config;
  config.queue_threshold = 4;
  config.max_batch_size = 2;
  config.interval_seconds = 60.0;
  config.linger = 200ms;
  SchedulerService service(config, 7, {}, engine.hooks());

  auto b1 = make_task(1, 4, 2, api::Priority::kBatch);
  auto b2 = make_task(2, 4, 2, api::Priority::kBatch);
  auto i1 = make_task(3, 4, 2, api::Priority::kInteractive);
  auto i2 = make_task(4, 4, 2, api::Priority::kInteractive);
  for (const auto& task : {b1, b2, i1, i2}) ASSERT_EQ(service.offer(task), PendingQueue::Offer::kQueued);
  for (const auto& task : {b1, b2, i1, i2}) await_settled(*task);

  EXPECT_DOUBLE_EQ(i1->dispatched_at, 0.0);
  EXPECT_DOUBLE_EQ(i2->dispatched_at, 0.0);
  EXPECT_DOUBLE_EQ(b1->dispatched_at, 60.0);
  EXPECT_DOUBLE_EQ(b2->dispatched_at, 60.0);
  service.shutdown();
}

// Starvation regression: with strict priority order a capped cycle hands
// every slot to the higher lanes, so a parked batch-class job is passed
// over; with aging_seconds set, its virtual wait promotes it into slot
// competition and it dispatches in the first cycle.
TEST(SchedulerService, AgingRescuesStarvedLowPriorityJob) {
  for (const bool aging_on : {false, true}) {
    FakeEngine engine(2);
    SchedulerServiceConfig config;
    config.queue_threshold = 3;   // fires when the fresh pair joins
    config.max_batch_size = 2;    // the starved job must win a slot to go
    config.interval_seconds = 60.0;
    config.linger = 200ms;
    config.aging_seconds = aging_on ? 30.0 : 0.0;
    SchedulerService service(config, 7, {}, engine.hooks());

    // The batch-class job has been parked since t=0…
    auto starved = make_task(1, 4, 2, api::Priority::kBatch);
    ASSERT_EQ(service.offer(starved), PendingQueue::Offer::kQueued);
    // …and at t=100 a fresh pair of standard jobs trips the threshold.
    engine.clock.store(100.0);
    auto fresh_a = make_task(2, 4, 2, api::Priority::kStandard);
    fresh_a->enqueued_at = 100.0;
    auto fresh_b = make_task(3, 4, 2, api::Priority::kStandard);
    fresh_b->enqueued_at = 100.0;
    ASSERT_EQ(service.offer(fresh_a), PendingQueue::Offer::kQueued);
    ASSERT_EQ(service.offer(fresh_b), PendingQueue::Offer::kQueued);

    await_settled(*starved);
    await_settled(*fresh_a);
    await_settled(*fresh_b);
    service.shutdown();

    if (aging_on) {
      // Aged past the 30 s budget, the batch job competes as standard and
      // its older enqueue time wins the first capped cycle at t=100.
      EXPECT_DOUBLE_EQ(starved->dispatched_at, 100.0);
      EXPECT_GT(std::max(fresh_a->dispatched_at, fresh_b->dispatched_at), 100.0);
    } else {
      // Strict priority: the standard pair takes both slots and the batch
      // job waits for a later cycle — the starvation the knob closes.
      EXPECT_DOUBLE_EQ(fresh_a->dispatched_at, 100.0);
      EXPECT_DOUBLE_EQ(fresh_b->dispatched_at, 100.0);
      EXPECT_GT(starved->dispatched_at, 100.0);
    }
  }
}

TEST(SchedulerService, InfeasibleTaskFailsResourceExhausted) {
  FakeEngine engine(2, /*qpu_size=*/5);
  SchedulerServiceConfig config;
  config.queue_threshold = 2;
  config.linger = 10s;
  SchedulerService service(config, 7, {}, engine.hooks());

  auto fits = make_task(1, 4, 2);
  auto too_big = make_task(2, 20, 2);  // fits no 5-qubit QPU
  ASSERT_EQ(service.offer(fits), PendingQueue::Offer::kQueued);
  ASSERT_EQ(service.offer(too_big), PendingQueue::Offer::kQueued);
  await_settled(*fits);
  await_settled(*too_big);

  EXPECT_TRUE(fits->error.ok());
  EXPECT_GE(fits->assigned_qpu, 0);
  EXPECT_EQ(too_big->error.code(), api::StatusCode::kResourceExhausted);

  const auto stats = service.stats();
  EXPECT_EQ(stats.jobs_scheduled, 1u);
  EXPECT_EQ(stats.jobs_filtered, 1u);
  ASSERT_EQ(stats.recent_cycles.size(), 1u);
  EXPECT_EQ(stats.recent_cycles[0].filtered, 1u);
  service.shutdown();
}

TEST(SchedulerService, ValidatesConfigWithoutThrowing) {
  SchedulerServiceConfig good;
  EXPECT_TRUE(validate_scheduler_config(good).ok());

  SchedulerServiceConfig zero_threshold;
  zero_threshold.queue_threshold = 0;
  EXPECT_EQ(validate_scheduler_config(zero_threshold).code(),
            api::StatusCode::kInvalidArgument);

  SchedulerServiceConfig bad_interval;
  bad_interval.interval_seconds = 0.0;
  EXPECT_EQ(validate_scheduler_config(bad_interval).code(),
            api::StatusCode::kInvalidArgument);
  // An infinite interval would fire the first timer cycle at t = inf.
  SchedulerServiceConfig infinite_interval;
  infinite_interval.interval_seconds = std::numeric_limits<double>::infinity();
  EXPECT_EQ(validate_scheduler_config(infinite_interval).code(),
            api::StatusCode::kInvalidArgument);

  SchedulerServiceConfig negative_linger;
  negative_linger.linger = -1ms;
  EXPECT_EQ(validate_scheduler_config(negative_linger).code(),
            api::StatusCode::kInvalidArgument);

  // A capacity below the threshold could never fire the threshold trigger.
  SchedulerServiceConfig starved;
  starved.queue_capacity = 50;
  starved.queue_threshold = 100;
  EXPECT_EQ(validate_scheduler_config(starved).code(),
            api::StatusCode::kInvalidArgument);
  SchedulerServiceConfig unbounded;
  unbounded.queue_capacity = 0;  // unbounded queue is fine with any threshold
  unbounded.queue_threshold = 100;
  EXPECT_TRUE(validate_scheduler_config(unbounded).ok());

  SchedulerServiceConfig negative_aging;
  negative_aging.aging_seconds = -1.0;
  EXPECT_EQ(validate_scheduler_config(negative_aging).code(),
            api::StatusCode::kInvalidArgument);

  good.aging_seconds = 45.0;
  const auto view = to_config_view(good);
  EXPECT_EQ(view.queue_threshold, good.queue_threshold);
  EXPECT_DOUBLE_EQ(view.interval_seconds, good.interval_seconds);
  EXPECT_EQ(view.queue_capacity, good.queue_capacity);
  EXPECT_DOUBLE_EQ(view.aging_seconds, 45.0);
}

// ---- the batch-scheduling serving path end to end ----------------------------

workflow::ImageId deploy_quantum(api::QonductorClient& client, const std::string& name,
                                 const circuit::Circuit& circ, int shots = 128) {
  api::CreateWorkflowRequest create;
  create.name = name;
  create.tasks.push_back(workflow::HybridTask::quantum("ghz", circ, shots));
  auto created = client.createWorkflow(std::move(create));
  EXPECT_TRUE(created.ok()) << created.status().to_string();
  api::DeployRequest deploy;
  deploy.image = created->image;
  auto deployed = client.deploy(deploy);
  EXPECT_TRUE(deployed.ok()) << deployed.status().to_string();
  return created->image;
}

void take_fleet_offline(api::QonductorClient& client) {
  auto& monitor = client.backend().monitor();
  for (const auto& name : monitor.qpu_names()) {
    ASSERT_TRUE(monitor.set_qpu_online(name, false).has_value());
  }
}

// The acceptance scenario: a burst of 100 concurrent invoke()s is
// dispatched in >= 2 scheduling cycles whose per-cycle batches come from
// the hybrid scheduler, observed through getSchedulerStats and the
// on_task_start observer.
TEST(BatchServing, BurstIsDispatchedInMultipleSchedulerCycles) {
  constexpr std::size_t kRuns = 100;
  QonductorConfig config;
  config.num_qpus = 3;
  config.seed = 77;
  config.trajectory_width_limit = 8;
  config.executor_threads = kRuns;  // every run can park a pending task at once
  config.retention.max_terminal_runs = kRuns + 8;
  config.scheduler_service.queue_threshold = 25;
  config.scheduler_service.max_batch_size = 40;  // forces >= 3 cycles for 100 jobs
  config.scheduler_service.linger = 200ms;
  std::atomic<std::size_t> quantum_starts{0};
  config.on_task_start = [&quantum_starts](RunId, const std::string& name) {
    if (name == "ghz") quantum_starts.fetch_add(1);
  };
  api::QonductorClient client(config);
  const auto image = deploy_quantum(client, "burst", circuit::ghz(3));

  // One warm-up run stores the image's prep, so every burst run must hit
  // the cache. Every count below is taken from this point on.
  api::InvokeRequest warm_up;
  warm_up.image = image;
  auto warm = client.invoke(warm_up);
  ASSERT_TRUE(warm.ok()) << warm.status().to_string();
  ASSERT_EQ(warm->wait(), api::RunStatus::kCompleted);
  const std::size_t starts_before = quantum_starts.load();
  const std::uint64_t hits_before = client.backend().prepCacheHits();
  const std::uint64_t misses_before = client.backend().prepCacheMisses();
  auto before = client.getSchedulerStats();
  ASSERT_TRUE(before.ok()) << before.status().to_string();
  const api::SchedulerStats& warm_stats = before->stats;

  std::vector<api::InvokeRequest> requests(kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) {
    requests[i].image = image;
    // A mixed-tenant burst: priorities cycle through all three classes.
    requests[i].preferences.priority = static_cast<api::Priority>(i % api::kNumPriorities);
  }
  auto handles = client.invokeAll(requests);
  ASSERT_TRUE(handles.ok()) << handles.status().to_string();
  for (const auto& handle : *handles) {
    EXPECT_EQ(handle.wait(), api::RunStatus::kCompleted);
  }
  EXPECT_EQ(quantum_starts.load() - starts_before, kRuns);

  // Every burst run reused the warm-up's prep: no transpile at all.
  EXPECT_EQ(client.backend().prepCacheMisses() - misses_before, 0u);
  EXPECT_EQ(client.backend().prepCacheHits() - hits_before, kRuns);

  auto stats_response = client.getSchedulerStats();
  ASSERT_TRUE(stats_response.ok()) << stats_response.status().to_string();
  const api::SchedulerStats& stats = stats_response->stats;
  // Batched, not one-cycle-per-job and not one mega-cycle.
  EXPECT_GE(stats.cycles - warm_stats.cycles, 2u);
  EXPECT_EQ(stats.jobs_scheduled - warm_stats.jobs_scheduled, kRuns);
  EXPECT_EQ(stats.jobs_filtered - warm_stats.jobs_filtered, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);

  // Every burst job was dispatched through a cycle's hybrid-scheduler
  // decision (the warm-up's single-job cycle is skipped).
  std::size_t batched = 0;
  std::size_t largest = 0;
  for (const auto& cycle : stats.recent_cycles) {
    if (cycle.cycle <= warm_stats.cycles) continue;
    EXPECT_LE(cycle.batch_size, 40u);
    EXPECT_EQ(cycle.scheduled + cycle.filtered, cycle.batch_size);
    EXPECT_GE(cycle.optimize_seconds, 0.0);
    batched += cycle.batch_size;
    largest = std::max(largest, cycle.batch_size);
  }
  EXPECT_EQ(batched, kRuns);
  EXPECT_GT(largest, 1u);
  EXPECT_LE(stats.max_batch_size_seen, 40u);

  // The config view echoes the deployment's knobs.
  EXPECT_EQ(stats_response->config.queue_threshold, 25u);
  EXPECT_EQ(stats_response->config.max_batch_size, 40u);
}

// Regression for the ROADMAP open item: cancelling a run whose quantum
// task is parked pulls the task out of the pending queue immediately — the
// scheduling threshold is never reached, so only the cancel can end it.
TEST(BatchServing, CancelPullsParkedTaskOutOfThePendingQueue) {
  QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 41;
  config.scheduler_service.queue_threshold = 100;  // never reached
  config.scheduler_service.linger = 10s;           // no timer rescue either
  api::QonductorClient client(config);
  const auto image = deploy_quantum(client, "cancel-parked", circuit::ghz(3));

  api::InvokeRequest request;
  request.image = image;
  auto handle = client.invoke(request);
  ASSERT_TRUE(handle.ok()) << handle.status().to_string();
  // Wait until the task is parked in the pending queue.
  for (int i = 0; i < 5000; ++i) {
    auto stats = client.getSchedulerStats();
    ASSERT_TRUE(stats.ok());
    if (stats->stats.queue_depth == 1) break;
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(handle->cancel());
  EXPECT_EQ(handle->wait(), api::RunStatus::kCancelled);

  auto result = handle->result();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->error.code(), api::StatusCode::kCancelled);
  EXPECT_TRUE(result->tasks.empty());  // nothing executed
  auto stats = client.getSchedulerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->stats.queue_depth, 0u);     // the slot was reclaimed
  EXPECT_EQ(stats->stats.jobs_scheduled, 0u);  // no cycle ever dispatched it
}

// §7 reservations as a typed API: a QPU reserved while jobs are already
// parked is honored by the in-flight cycle that dispatches them.
TEST(BatchServing, MidCycleReservationIsHonoredByTheNextCycle) {
  constexpr std::size_t kRuns = 6;
  QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 53;
  config.trajectory_width_limit = 8;
  config.executor_threads = kRuns;
  config.retention.max_terminal_runs = kRuns + 8;
  config.scheduler_service.queue_threshold = kRuns;  // fires on the last invoke
  config.scheduler_service.linger = 10s;             // backstop only
  api::QonductorClient client(config);
  const auto image = deploy_quantum(client, "reserve", circuit::ghz(3));

  // Park all but one job: one short of the threshold, nothing dispatches.
  std::vector<api::InvokeRequest> requests(kRuns - 1);
  for (auto& request : requests) request.image = image;
  auto handles = client.invokeAll(requests);
  ASSERT_TRUE(handles.ok()) << handles.status().to_string();
  for (int i = 0; i < 5000; ++i) {
    auto stats = client.getSchedulerStats();
    ASSERT_TRUE(stats.ok());
    if (stats->stats.queue_depth == kRuns - 1) break;
    std::this_thread::sleep_for(1ms);
  }

  // Reserve one of the two QPUs mid-cycle, while the jobs are parked.
  const auto names = client.backend().monitor().qpu_names();
  ASSERT_EQ(names.size(), 2u);
  api::ReserveQpuRequest reserve;
  reserve.qpu = names[0];
  auto reserved = client.reserveQpu(reserve);
  ASSERT_TRUE(reserved.ok()) << reserved.status().to_string();
  EXPECT_EQ(reserved->qpu, names[0]);
  EXPECT_EQ(client.reserveQpu(reserve).status().code(), api::StatusCode::kAlreadyExists);

  // Trip the threshold: the firing cycle must route every job around the
  // reserved QPU.
  api::InvokeRequest last;
  last.image = image;
  auto last_handle = client.invoke(last);
  ASSERT_TRUE(last_handle.ok()) << last_handle.status().to_string();

  std::vector<api::RunHandle> all = *handles;
  all.push_back(*last_handle);
  for (const auto& handle : all) {
    EXPECT_EQ(handle.wait(), api::RunStatus::kCompleted);
    auto result = handle.result();
    ASSERT_TRUE(result.ok());
    for (const auto& task : result->tasks) {
      if (task.kind == workflow::TaskKind::kQuantum) {
        EXPECT_NE(task.resource, names[0]) << "scheduled onto a reserved QPU";
      }
    }
  }

  // Release returns it to rotation; the error paths are typed.
  api::ReleaseQpuRequest release;
  release.qpu = names[0];
  ASSERT_TRUE(client.releaseQpu(release).ok());
  EXPECT_EQ(client.releaseQpu(release).status().code(),
            api::StatusCode::kFailedPrecondition);
  api::ReserveQpuRequest unknown;
  unknown.qpu = "no-such-qpu";
  EXPECT_EQ(client.reserveQpu(unknown).status().code(), api::StatusCode::kNotFound);
}

// §7 reservation time windows: a reservation with duration_seconds holds
// against every scheduling snapshot mid-window, then auto-releases at the
// first cycle firing at/after the virtual deadline — that very cycle
// already schedules onto the released QPU.
TEST(BatchServing, ReservationWindowAutoReleasesAtVirtualDeadline) {
  QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 83;
  config.trajectory_width_limit = 8;
  config.scheduler_service.queue_threshold = 100;  // timer-only cycles…
  config.scheduler_service.interval_seconds = 60.0;  // …at t=60, 120, …
  config.scheduler_service.linger = 5ms;
  api::QonductorClient client(config);
  const auto image = deploy_quantum(client, "window", circuit::ghz(3));
  const auto names = client.backend().monitor().qpu_names();
  ASSERT_EQ(names.size(), 2u);
  // The window's QPU is the only healthy one: mid-window snapshots see an
  // empty fleet, post-window snapshots see it again.
  ASSERT_TRUE(client.backend().monitor().set_qpu_online(names[1], false).has_value());

  // The duration is validated like every other preference.
  api::ReserveQpuRequest bad;
  bad.qpu = names[0];
  bad.duration_seconds = 0.0;
  EXPECT_EQ(client.reserveQpu(bad).status().code(), api::StatusCode::kInvalidArgument);
  // An infinite window would never expire, yet echo a deadline.
  bad.duration_seconds = std::numeric_limits<double>::infinity();
  EXPECT_EQ(client.reserveQpu(bad).status().code(), api::StatusCode::kInvalidArgument);

  api::ReserveQpuRequest reserve;
  reserve.qpu = names[0];
  reserve.duration_seconds = 100.0;  // release_at t=100, between the cycles
  auto reserved = client.reserveQpu(reserve);
  ASSERT_TRUE(reserved.ok()) << reserved.status().to_string();
  ASSERT_TRUE(reserved->release_at.has_value());
  EXPECT_DOUBLE_EQ(*reserved->release_at, 100.0);

  // Mid-window: the timer cycle at t=60 < 100 still honors the
  // reservation — with the sibling offline, the job is filtered.
  api::InvokeRequest request;
  request.image = image;
  auto mid_window = client.invoke(request);
  ASSERT_TRUE(mid_window.ok()) << mid_window.status().to_string();
  EXPECT_EQ(mid_window->wait(), api::RunStatus::kFailed);
  auto mid_result = mid_window->result();
  ASSERT_TRUE(mid_result.ok());
  EXPECT_EQ(mid_result->error.code(), api::StatusCode::kResourceExhausted);

  // Post-window: the next timer cycle fires at t=120 >= 100, auto-releases
  // the window and schedules this very batch onto the released QPU.
  auto post_window = client.invoke(request);
  ASSERT_TRUE(post_window.ok()) << post_window.status().to_string();
  EXPECT_EQ(post_window->wait(), api::RunStatus::kCompleted);
  auto post_result = post_window->result();
  ASSERT_TRUE(post_result.ok());
  ASSERT_EQ(post_result->tasks.size(), 1u);
  EXPECT_EQ(post_result->tasks[0].resource, names[0]);

  // The flag is gone for good: releasing again is a typed precondition
  // failure, and a fresh open-ended reservation starts from a clean slate.
  api::ReleaseQpuRequest release;
  release.qpu = names[0];
  EXPECT_EQ(client.releaseQpu(release).status().code(),
            api::StatusCode::kFailedPrecondition);
  api::ReserveQpuRequest open_ended;
  open_ended.qpu = names[0];
  auto again = client.reserveQpu(open_ended);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->release_at.has_value());
  ASSERT_TRUE(client.releaseQpu(release).ok());
}

// Reservation (§7) and health are independent bits: reserving a faulted
// QPU is legal, and releasing the reservation must not bring it back into
// rotation.
TEST(BatchServing, ReservationDoesNotMaskQpuHealth) {
  QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 71;
  api::QonductorClient client(config);
  auto& monitor = client.backend().monitor();
  const auto names = monitor.qpu_names();
  ASSERT_EQ(names.size(), 2u);

  // Device manager takes the QPU down for health reasons.
  ASSERT_TRUE(monitor.set_qpu_online(names[0], false).has_value());

  // It is down, not reserved: reserve succeeds (it is not ALREADY_EXISTS).
  api::ReserveQpuRequest reserve;
  reserve.qpu = names[0];
  ASSERT_TRUE(client.reserveQpu(reserve).ok());
  // Releasing the reservation leaves the health flag alone.
  api::ReleaseQpuRequest release;
  release.qpu = names[0];
  ASSERT_TRUE(client.releaseQpu(release).ok());
  const auto after = *monitor.qpu(names[0]);
  EXPECT_FALSE(after.online);    // still faulted
  EXPECT_FALSE(after.reserved);  // no longer reserved
}

// End-to-end QoS deadline: a run whose task is parked past its deadline
// fails with the typed DEADLINE_EXCEEDED and executes nothing.
TEST(BatchServing, DeadlinePreferenceFailsTypedDeadlineExceeded) {
  QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 59;
  config.scheduler_service.queue_threshold = 100;   // only the timer fires…
  config.scheduler_service.interval_seconds = 120.0;  // …at t=120, past the deadline
  config.scheduler_service.linger = 5ms;
  api::QonductorClient client(config);
  const auto image = deploy_quantum(client, "deadline", circuit::ghz(3));

  api::InvokeRequest request;
  request.image = image;
  request.preferences.deadline_seconds = 10.0;
  auto handle = client.invoke(request);
  ASSERT_TRUE(handle.ok()) << handle.status().to_string();
  EXPECT_EQ(handle->wait(), api::RunStatus::kFailed);
  auto result = handle->result();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->error.code(), api::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result->tasks.empty());  // no QPU consumed

  auto stats = client.getSchedulerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->stats.jobs_expired, 1u);
  EXPECT_EQ(stats->stats.jobs_scheduled, 0u);

  // The expiry cycle advanced the fleet clock: a run that missed t=10
  // must not report finishing before t=10.
  auto info = client.getRun(handle->id());
  ASSERT_TRUE(info.ok());
  EXPECT_GE(info->finished_at, 10.0);
}

// ROADMAP open item: a burst of runs of one image transpiles its circuits
// once — every later run hits the (image task, calibration) prep cache.
TEST(BatchServing, BurstHitsThePrepCache) {
  constexpr std::size_t kRuns = 6;
  QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 67;
  config.trajectory_width_limit = 8;
  config.executor_threads = 1;  // sequential executors: deterministic hits
  config.scheduler_service.queue_threshold = 1;  // one cycle per sequential run
  api::QonductorClient client(config);
  const auto image = deploy_quantum(client, "prep-cache", circuit::ghz(3));

  for (std::size_t i = 0; i < kRuns; ++i) {
    api::InvokeRequest request;
    request.image = image;
    auto handle = client.invoke(request);
    ASSERT_TRUE(handle.ok());
    EXPECT_EQ(handle->wait(), api::RunStatus::kCompleted);
  }
  EXPECT_EQ(client.backend().prepCacheMisses(), 1u);
  EXPECT_EQ(client.backend().prepCacheHits(), kRuns - 1);
}

TEST(BatchServing, OfflineFleetFailsRunsResourceExhausted) {
  QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 11;
  config.scheduler_service.linger = 5ms;
  api::QonductorClient client(config);
  const auto image = deploy_quantum(client, "offline", circuit::ghz(3));
  take_fleet_offline(client);

  api::InvokeRequest request;
  request.image = image;
  auto handle = client.invoke(request);
  ASSERT_TRUE(handle.ok()) << handle.status().to_string();
  EXPECT_EQ(handle->wait(), api::RunStatus::kFailed);
  auto result = handle->result();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->error.code(), api::StatusCode::kResourceExhausted);

  auto stats = client.getSchedulerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->stats.jobs_filtered, 1u);
}

TEST(BatchServing, ShutdownDrainsThePendingQueue) {
  constexpr std::size_t kRuns = 8;
  QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 23;
  config.trajectory_width_limit = 8;
  config.executor_threads = kRuns;
  // The threshold is unreachable and the linger long: when shutdown()
  // arrives, the tasks are still parked and only the drain can finish them.
  config.scheduler_service.queue_threshold = 100;
  config.scheduler_service.linger = 150ms;
  api::QonductorClient client(config);
  const auto image = deploy_quantum(client, "drain", circuit::ghz(3));

  std::vector<api::InvokeRequest> requests(kRuns);
  for (auto& request : requests) request.image = image;
  auto handles = client.invokeAll(requests);
  ASSERT_TRUE(handles.ok()) << handles.status().to_string();

  client.backend().shutdown();  // drains the executor AND the pending queue

  for (const auto& handle : *handles) {
    EXPECT_EQ(handle.poll(), api::RunStatus::kCompleted);
  }
  auto stats = client.getSchedulerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->stats.jobs_scheduled, kRuns);
  EXPECT_EQ(stats->stats.queue_depth, 0u);

  api::InvokeRequest late;
  late.image = image;
  auto rejected = client.invoke(late);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), api::StatusCode::kUnavailable);
}

// Per-task dispatch is plain batch config: threshold 1, batch cap 1 and no
// linger give every job its own single-job cycle on the scheduler thread
// (the comparison row of bench_burst and the burst_scheduling example).
TEST(BatchServing, PerTaskCyclesScheduleOneJobEach) {
  constexpr std::size_t kRuns = 16;
  QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 41;
  config.trajectory_width_limit = 0;  // analytic model: fast
  config.scheduler_service.queue_threshold = 1;
  config.scheduler_service.max_batch_size = 1;
  config.scheduler_service.linger = 0ms;
  api::QonductorClient client(config);
  const auto image = deploy_quantum(client, "per-task", circuit::ghz(3));

  std::vector<api::InvokeRequest> requests(kRuns);
  for (auto& request : requests) request.image = image;
  auto handles = client.invokeAll(requests);
  ASSERT_TRUE(handles.ok()) << handles.status().to_string();
  for (const auto& handle : *handles) {
    EXPECT_EQ(handle.wait(), api::RunStatus::kCompleted);
  }

  auto stats = client.getSchedulerStats();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats->stats.cycles, kRuns);
  EXPECT_EQ(stats->stats.jobs_scheduled, kRuns);
  EXPECT_EQ(stats->stats.max_batch_size_seen, 1u);
  ASSERT_EQ(stats->stats.recent_cycles.size(), kRuns);
  for (const auto& cycle : stats->stats.recent_cycles) {
    EXPECT_EQ(cycle.batch_size, 1u);
    EXPECT_EQ(cycle.scheduled, 1u);
    EXPECT_EQ(cycle.trigger, api::CycleTrigger::kThreshold);
  }
}

TEST(BatchServing, BadSchedulerKnobsSurfaceAsInvalidArgument) {
  QonductorConfig config;
  config.num_qpus = 2;
  config.scheduler_service.queue_threshold = 0;  // ScheduleTrigger would throw
  api::QonductorClient client(config);  // must not throw
  const auto image = deploy_quantum(client, "bad-knobs", circuit::ghz(3));

  api::InvokeRequest request;
  request.image = image;
  auto handle = client.invoke(request);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), api::StatusCode::kInvalidArgument);
  auto batch = client.invokeAll({request});
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), api::StatusCode::kInvalidArgument);

  QonductorConfig bad_weight;
  bad_weight.num_qpus = 2;
  bad_weight.fidelity_weight = 1.5;  // schedule_cycle would throw
  api::QonductorClient weight_client(bad_weight);
  const auto weight_image = deploy_quantum(weight_client, "bad-weight", circuit::ghz(3));
  api::InvokeRequest weight_request;
  weight_request.image = weight_image;
  auto weight_handle = weight_client.invoke(weight_request);
  ASSERT_FALSE(weight_handle.ok());
  EXPECT_EQ(weight_handle.status().code(), api::StatusCode::kInvalidArgument);

  // NaN passes a plain range check; it must be rejected just the same.
  QonductorConfig nan_weight;
  nan_weight.num_qpus = 2;
  nan_weight.fidelity_weight = std::numeric_limits<double>::quiet_NaN();
  api::QonductorClient nan_client(nan_weight);
  const auto nan_image = deploy_quantum(nan_client, "nan-weight", circuit::ghz(3));
  api::InvokeRequest nan_request;
  nan_request.image = nan_image;
  auto nan_handle = nan_client.invoke(nan_request);
  ASSERT_FALSE(nan_handle.ok());
  EXPECT_EQ(nan_handle.status().code(), api::StatusCode::kInvalidArgument);

  // Watchdog budgets: NaN would silently disable a watchdog (age > NaN is
  // false) and a budget <= 0 reads as stalled whenever the component is busy.
  for (const double budget : {std::numeric_limits<double>::quiet_NaN(), 0.0, -1.0}) {
    for (const bool queue_budget : {false, true}) {
      QonductorConfig bad_budget;
      bad_budget.num_qpus = 2;
      (queue_budget ? bad_budget.scheduler_service.queue_stall_budget_seconds
                    : bad_budget.scheduler_service.scheduler_stall_budget_seconds) = budget;
      api::QonductorClient budget_client(bad_budget);
      api::InvokeRequest budget_request;
      budget_request.image = deploy_quantum(budget_client, "bad-budget", circuit::ghz(3));
      EXPECT_EQ(budget_client.invoke(budget_request).status().code(),
                api::StatusCode::kInvalidArgument)
          << "budget " << budget << (queue_budget ? " (queue)" : " (scheduler)");
    }
  }
}

// Deadline-boundary regression, site 2 of 3 (the mid-batch filter): the
// fleet frontier can overshoot the cycle's fire time while the snapshot is
// taken, landing exactly on a batched job's deadline. Dispatch at that
// instant has zero slack — the job must fail DEADLINE_EXCEEDED, not
// execute at its deadline (the old strict `<` let it through).
TEST(SchedulerService, MidBatchFilterUsesInclusiveDeadlineBoundary) {
  std::atomic<double> clock{0.0};
  SchedulerServiceHooks hooks;
  hooks.now = [&clock] { return clock.load(); };
  hooks.snapshot_qpus = [&clock](double advance_to) {
    // Overshoot: a concurrent dispatch advanced the frontier to t=70
    // while this threshold cycle (fired at t=0) snapshotted.
    clock.store(std::max(advance_to, 70.0));
    std::vector<sched::QpuState> qpus;
    for (int q = 0; q < 2; ++q) {
      qpus.push_back({"fake" + std::to_string(q), 27, 0.0, true});
    }
    return qpus;
  };
  SchedulerServiceConfig config;
  config.queue_threshold = 2;
  config.linger = 10s;  // only the threshold fires
  SchedulerService service(config, 7, {}, std::move(hooks));

  auto boundary = make_task(1, 4, 2);
  boundary->deadline_seconds = 70.0;  // == the post-snapshot frontier exactly
  auto alive = make_task(2, 4, 2);
  alive->deadline_seconds = 1000.0;
  ASSERT_EQ(service.offer(boundary), PendingQueue::Offer::kQueued);
  ASSERT_EQ(service.offer(alive), PendingQueue::Offer::kQueued);
  await_settled(*boundary);
  await_settled(*alive);

  EXPECT_EQ(boundary->error.code(), api::StatusCode::kDeadlineExceeded);
  EXPECT_LT(boundary->assigned_qpu, 0);  // never reached a QPU
  EXPECT_TRUE(alive->error.ok()) << alive->error.to_string();
  EXPECT_GE(alive->assigned_qpu, 0);

  const auto stats = service.stats();
  EXPECT_EQ(stats.jobs_expired, 1u);
  EXPECT_EQ(stats.jobs_scheduled, 1u);
  service.shutdown();
}

// Satellite regression: offer against a closing queue. The service
// must reject the hand-off — and the orchestrator call site settles the run
// with a typed UNAVAILABLE (covered end to end below in
// BatchServing.ShutdownRacingAnEngineStepFailsTheRunUnavailable).
TEST(SchedulerService, OfferOnceShutDownIsRejectedAsClosed) {
  FakeEngine engine(2);
  SchedulerServiceConfig config;
  SchedulerService service(config, 7, {}, engine.hooks());
  service.shutdown();
  EXPECT_EQ(service.offer(make_task(2, 4, 2)), PendingQueue::Offer::kClosed);
}

// Overload relief at the service level: offers beyond the queue capacity
// waitlist (never block), the waitlist drains into later cycles, and every
// task still gets a verdict.
TEST(SchedulerService, OffersBeyondCapacityWaitlistAndDrainThroughCycles) {
  FakeEngine engine(2);
  SchedulerServiceConfig config;
  config.queue_threshold = 2;
  config.queue_capacity = 2;
  config.max_batch_size = 2;
  config.linger = 50ms;
  SchedulerService service(config, 7, {}, engine.hooks());

  // Six offers against a 2-slot queue, from this one thread: a blocking
  // hand-off would deadlock (no consumer progress until we return); offer
  // must return immediately for all six.
  std::vector<std::shared_ptr<PendingQuantumTask>> tasks;
  for (api::RunId r = 1; r <= 6; ++r) {
    tasks.push_back(make_task(r, 4, 2));
    ASSERT_NE(service.offer(tasks.back()), PendingQueue::Offer::kClosed);
  }
  for (const auto& task : tasks) {
    await_settled(*task);
    EXPECT_TRUE(task->error.ok()) << task->error.to_string();
    EXPECT_GE(task->assigned_qpu, 0);
  }
  EXPECT_GE(service.waitlist_parks(), 1u);
  EXPECT_EQ(service.waitlist_depth(), 0u);  // fully drained
  service.shutdown();
}

// ---- admission control (the front-door gate) ---------------------------------

TEST(AdmissionControl, ValidatesConfigWithoutThrowing) {
  AdmissionConfig off;  // max_live_runs = 0: gate disabled, knobs ignored
  off.shed_batch_at = -3.0;
  EXPECT_TRUE(validate_admission_config(off).ok());

  AdmissionConfig good;
  good.max_live_runs = 100;
  EXPECT_TRUE(validate_admission_config(good).ok());

  AdmissionConfig bad_fraction = good;
  bad_fraction.shed_batch_at = 0.0;
  EXPECT_EQ(validate_admission_config(bad_fraction).code(),
            api::StatusCode::kInvalidArgument);

  AdmissionConfig inverted = good;
  inverted.shed_batch_at = 0.9;
  inverted.shed_standard_at = 0.5;  // batch would outlive standard under load
  EXPECT_EQ(validate_admission_config(inverted).code(),
            api::StatusCode::kInvalidArgument);

  AdmissionConfig bad_retry = good;
  bad_retry.retry_after_seconds = 0.0;
  EXPECT_EQ(validate_admission_config(bad_retry).code(),
            api::StatusCode::kInvalidArgument);

  // A bad admission config surfaces as INVALID_ARGUMENT from invoke(),
  // never as an exception from the constructor.
  QonductorConfig config;
  config.num_qpus = 2;
  config.admission.max_live_runs = 10;
  config.admission.retry_after_seconds = -1.0;
  api::QonductorClient client(config);
  const auto image = deploy_quantum(client, "bad-admission", circuit::ghz(3));
  api::InvokeRequest request;
  request.image = image;
  EXPECT_EQ(client.invoke(request).status().code(), api::StatusCode::kInvalidArgument);
}

// The shedding staircase: with max_live_runs=4, batch sheds at 2 live
// runs, standard at 3, interactive only at the full bound — each shed is a
// typed RESOURCE_EXHAUSTED carrying the configured retry-after hint, and
// the gate reopens as runs leave the system.
TEST(AdmissionControl, ShedsByPriorityClassWithRetryAfter) {
  QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 97;
  config.executor_threads = 8;
  config.scheduler_service.queue_threshold = 100;  // parked runs stay live…
  config.scheduler_service.linger = 10s;           // …for the whole test
  config.admission.max_live_runs = 4;
  config.admission.shed_batch_at = 0.5;     // batch limit: 2
  config.admission.shed_standard_at = 0.75; // standard limit: 3
  config.admission.retry_after_seconds = 2.5;
  api::QonductorClient client(config);
  const auto image = deploy_quantum(client, "shed", circuit::ghz(3));

  const auto invoke_as = [&](api::Priority priority) {
    api::InvokeRequest request;
    request.image = image;
    request.preferences.priority = priority;
    return client.invoke(request);
  };

  // 2 batch runs fill the batch share; the third is shed.
  std::vector<api::RunHandle> live;
  for (int i = 0; i < 2; ++i) {
    auto handle = invoke_as(api::Priority::kBatch);
    ASSERT_TRUE(handle.ok()) << handle.status().to_string();
    live.push_back(*std::move(handle));
  }
  auto shed_batch = invoke_as(api::Priority::kBatch);
  ASSERT_FALSE(shed_batch.ok());
  EXPECT_EQ(shed_batch.status().code(), api::StatusCode::kResourceExhausted);
  ASSERT_TRUE(shed_batch.status().retry_after_seconds().has_value());
  EXPECT_DOUBLE_EQ(*shed_batch.status().retry_after_seconds(), 2.5);

  // Standard still fits (limit 3)… once.
  auto standard = invoke_as(api::Priority::kStandard);
  ASSERT_TRUE(standard.ok()) << standard.status().to_string();
  live.push_back(*std::move(standard));
  auto shed_standard = invoke_as(api::Priority::kStandard);
  ASSERT_FALSE(shed_standard.ok());
  EXPECT_EQ(shed_standard.status().code(), api::StatusCode::kResourceExhausted);

  // Interactive gets the full bound: one more admit, then even it sheds.
  auto interactive = invoke_as(api::Priority::kInteractive);
  ASSERT_TRUE(interactive.ok()) << interactive.status().to_string();
  live.push_back(*std::move(interactive));
  auto shed_interactive = invoke_as(api::Priority::kInteractive);
  ASSERT_FALSE(shed_interactive.ok());
  EXPECT_EQ(shed_interactive.status().code(), api::StatusCode::kResourceExhausted);
  EXPECT_TRUE(shed_interactive.status().retry_after_seconds().has_value());

  auto stats = client.getAdmissionStats();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats->stats.accepted[static_cast<std::size_t>(api::Priority::kBatch)], 2u);
  EXPECT_EQ(stats->stats.accepted[static_cast<std::size_t>(api::Priority::kStandard)], 1u);
  EXPECT_EQ(stats->stats.accepted[static_cast<std::size_t>(api::Priority::kInteractive)], 1u);
  EXPECT_EQ(stats->stats.shed[static_cast<std::size_t>(api::Priority::kBatch)], 1u);
  EXPECT_EQ(stats->stats.shed[static_cast<std::size_t>(api::Priority::kStandard)], 1u);
  EXPECT_EQ(stats->stats.shed[static_cast<std::size_t>(api::Priority::kInteractive)], 1u);
  EXPECT_EQ(stats->stats.live_runs, 4u);
  EXPECT_EQ(stats->stats.max_live_runs, 4u);

  // Runs leaving the system reopen the gate.
  for (auto& handle : live) {
    EXPECT_TRUE(handle.cancel());
    EXPECT_EQ(handle.wait(), api::RunStatus::kCancelled);
  }
  for (int i = 0; i < 5000; ++i) {
    auto drained = client.getAdmissionStats();
    ASSERT_TRUE(drained.ok());
    if (drained->stats.live_runs == 0) break;
    std::this_thread::sleep_for(1ms);
  }
  auto reopened = invoke_as(api::Priority::kBatch);
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  EXPECT_TRUE(reopened->cancel());
}

// invokeAll admits atomically, counting the batch's own entries against
// the bound: one shed rejects the whole batch (nothing started) with the
// index-prefixed message and the retry-after hint intact.
TEST(AdmissionControl, InvokeAllShedsAtomically) {
  QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 89;
  config.scheduler_service.queue_threshold = 100;
  config.scheduler_service.linger = 10s;
  config.admission.max_live_runs = 4;
  config.admission.shed_batch_at = 0.5;  // batch limit: 2
  config.admission.retry_after_seconds = 1.5;
  api::QonductorClient client(config);
  const auto image = deploy_quantum(client, "shed-all", circuit::ghz(3));

  std::vector<api::InvokeRequest> requests(3);
  for (auto& request : requests) {
    request.image = image;
    request.preferences.priority = api::Priority::kBatch;
  }
  auto handles = client.invokeAll(requests);
  ASSERT_FALSE(handles.ok());
  EXPECT_EQ(handles.status().code(), api::StatusCode::kResourceExhausted);
  EXPECT_NE(handles.status().message().find("invokeAll[2]:"), std::string::npos)
      << handles.status().message();
  ASSERT_TRUE(handles.status().retry_after_seconds().has_value());
  EXPECT_DOUBLE_EQ(*handles.status().retry_after_seconds(), 1.5);

  // Atomic: nothing was admitted or started.
  auto stats = client.getAdmissionStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->stats.live_runs, 0u);
  for (const auto accepted : stats->stats.accepted) EXPECT_EQ(accepted, 0u);
}

// ---- more end-to-end serving-path coverage -----------------------------------

// Deadline-boundary regression, site 3 of 3 (end to end through the
// serving path): a classical prep task advances the fleet clock to exactly
// the quantum task's deadline, so the cycle its park fires would dispatch
// AT the deadline with zero slack — the run must fail DEADLINE_EXCEEDED at
// cycle start. (Submit-time admission passes: the deadline lies beyond the
// frontier at invoke.)
TEST(BatchServing, DispatchExactlyAtDeadlineIsAMiss) {
  QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 101;
  config.scheduler_service.queue_threshold = 1;
  api::QonductorClient client(config);

  api::CreateWorkflowRequest create;
  create.name = "boundary";
  // chain_workflow wires prep -> ghz: the quantum task is ready at t=0.25.
  create.tasks.push_back(workflow::HybridTask::classical("prep", 0.25));
  create.tasks.push_back(workflow::HybridTask::quantum("ghz", circuit::ghz(3), 128));
  auto created = client.createWorkflow(std::move(create));
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  api::DeployRequest deploy;
  deploy.image = created->image;
  ASSERT_TRUE(client.deploy(deploy).ok());

  api::InvokeRequest request;
  request.image = created->image;
  request.preferences.deadline_seconds = 0.25;  // == the dispatch instant
  auto handle = client.invoke(request);
  ASSERT_TRUE(handle.ok()) << handle.status().to_string();
  EXPECT_EQ(handle->wait(), api::RunStatus::kFailed);
  auto result = handle->result();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->error.code(), api::StatusCode::kDeadlineExceeded);
}

// Satellite regression: a scheduler-service shutdown racing a late engine
// step. The on_task_start observer fires right before the quantum task
// parks — shutting the service down there forces the offer to hit a closed
// queue, and the run must settle with a typed UNAVAILABLE instead of the
// task being silently dropped (which would leave the run in-flight
// forever).
TEST(BatchServing, ShutdownRacingAnEngineStepFailsTheRunUnavailable) {
  QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 103;
  config.scheduler_service.queue_threshold = 100;
  config.scheduler_service.linger = 10s;
  core::Qonductor* backend = nullptr;
  std::atomic<bool> closed{false};
  config.on_task_start = [&](RunId, const std::string& name) {
    if (name == "ghz" && !closed.exchange(true)) {
      backend->schedulerService()->shutdown();
    }
  };
  api::QonductorClient client(config);
  backend = &client.backend();
  const auto image = deploy_quantum(client, "shutdown-race", circuit::ghz(3));

  api::InvokeRequest request;
  request.image = image;
  auto handle = client.invoke(request);
  ASSERT_TRUE(handle.ok()) << handle.status().to_string();
  EXPECT_EQ(handle->wait(), api::RunStatus::kFailed);
  auto result = handle->result();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->error.code(), api::StatusCode::kUnavailable);
  EXPECT_NE(result->error.message().find("shutting down"), std::string::npos)
      << result->error.message();
  EXPECT_TRUE(closed.load());
}

// The overload acceptance scenario scaled to a test: a flood of runs
// against a tiny queue completes with engine workers never blocking in
// push — the surplus takes the waitlist path (asserted via waitlist_parks)
// and drains FIFO-by-priority through later cycles.
TEST(BatchServing, FloodAgainstTinyQueueRidesTheWaitlist) {
  constexpr std::size_t kRuns = 64;
  QonductorConfig config;
  config.num_qpus = 4;
  config.seed = 107;
  config.trajectory_width_limit = 0;  // analytic model: fast flood
  config.executor_threads = 4;
  config.retention.max_terminal_runs = kRuns + 8;
  config.scheduler_service.queue_threshold = 8;
  config.scheduler_service.queue_capacity = 8;  // 64 runs vs 8 slots
  config.scheduler_service.max_batch_size = 4;
  config.scheduler_service.linger = 50ms;
  api::QonductorClient client(config);
  const auto image = deploy_quantum(client, "flood", circuit::ghz(3));

  std::vector<api::InvokeRequest> requests(kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) {
    requests[i].image = image;
    requests[i].preferences.priority =
        static_cast<api::Priority>(i % api::kNumPriorities);
  }
  auto handles = client.invokeAll(requests);
  ASSERT_TRUE(handles.ok()) << handles.status().to_string();
  for (const auto& handle : *handles) {
    EXPECT_EQ(handle.wait(), api::RunStatus::kCompleted);
  }

  auto admission = client.getAdmissionStats();
  ASSERT_TRUE(admission.ok()) << admission.status().to_string();
  // The flood overran the 8-slot queue: the surplus took the non-blocking
  // waitlist path instead of convoying the 4 engine workers…
  EXPECT_GE(admission->stats.waitlist_parks, 1u);
  EXPECT_GE(admission->stats.waitlist_high_watermark, 1u);
  // …and everything drained: no task is left parked anywhere.
  EXPECT_EQ(admission->stats.waitlist_depth, 0u);
  auto sched_stats = client.getSchedulerStats();
  ASSERT_TRUE(sched_stats.ok());
  EXPECT_EQ(sched_stats->stats.queue_depth, 0u);
  EXPECT_EQ(sched_stats->stats.jobs_scheduled, kRuns);
  // The queue itself never exceeded its bound pre-shutdown.
  EXPECT_LE(sched_stats->stats.queue_high_watermark,
            config.scheduler_service.queue_capacity);
}

}  // namespace
}  // namespace qon::core
