#pragma once
// The pending-job queue of the scheduler service (§7, Fig. 5): quantum
// tasks from in-flight runs park here instead of executing immediately, and
// the scheduler thread drains them in batches when a scheduling cycle
// fires. The queue is bounded, and offer() never blocks: a full queue parks
// the item on a capacity waitlist that drains FIFO-by-priority into freed
// slots, so an engine worker never convoys on a flooded queue. The queue
// owns the wait primitive the scheduler thread sleeps on: wake on reaching
// the queue-size threshold, on a linger timeout with work waiting, or on
// close() for the final shutdown flush.
//
// Batches form in priority order (api::Priority): kInteractive items take
// a cycle's slots before kStandard, which take them before kBatch — FIFO
// within one class. Parked items can also leave the queue sideways:
// remove() pulls a cancelled run's task out before it is dispatched, and
// take_expired() collects items whose QoS deadline passed so the cycle can
// fail them DEADLINE_EXCEEDED instead of scheduling them.
//
// An engine worker offers one PendingQuantumTask per quantum task and
// registers a settlement callback; the scheduler either assigns a QPU or
// fails the task (typed api::Status, e.g. RESOURCE_EXHAUSTED when no online
// QPU fits). There is exactly one consumer — the scheduler thread — so a
// non-empty queue observed by wait_for_batch() stays non-empty until the
// following take_batch()/take_expired().

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/run_handle.hpp"
#include "api/status.hpp"
#include "api/types.hpp"
#include "common/thread_safety.hpp"

namespace qon::core {

/// One quantum task parked between its run's executor and the scheduler
/// service. The executor fills the request half before offer() (the
/// per-backend estimates are precomputed off-lock so scheduling cycles stay
/// cheap), registers on_settled(), and the first of {complete, fail} wins —
/// a late completion of a task that was already cancelled or expired is a
/// no-op.
struct PendingQuantumTask {
  // ---- request half: written by the executor before offer() ------------------
  api::RunId run = 0;
  std::string task_name;
  int qubits = 0;
  int shots = 0;
  double enqueued_at = 0.0; ///< fleet clock at offer (queue-wait accounting)
  // Per-job QoS (resolved by the orchestrator against config defaults).
  double fidelity_weight = 0.5;            ///< MCDM preference for this job
  std::optional<double> deadline_seconds;  ///< fleet-clock deadline, if any
  api::Priority priority = api::Priority::kStandard;
  /// Per-backend estimates, indexed like Fleet::backends — the rows of the
  /// cycle's sched::SchedulingInput.
  std::vector<double> est_fidelity;
  std::vector<double> est_exec_seconds;
  /// The run record whose span ring the cycle records queue_wait / stage
  /// spans into BEFORE settling the task (empty when tracing is off). Part
  /// of the request half — written before the task is offered, so the
  /// scheduler thread reads it under the same happens-before the other
  /// request fields ride (the queue's lock hand-off). Non-owning: the
  /// record owns this task through RunState::unpark, and a run cancelled
  /// while its task sits in a cycle's batch may be freed before the cycle
  /// gets to it — lock() then yields null and the spans are skipped.
  std::weak_ptr<api::RunState> trace;
  /// Wall clock (tracer µs) at offer time — the wall start of the
  /// queue_wait span, paired with the virtual `enqueued_at`.
  double enqueued_wall_us = 0.0;

  // ---- completion half: first writer wins ------------------------------------
  /// Assigns QPU `qpu` at virtual time `now` with the booked execution
  /// window [start, end) and wakes the executor. Returns whether this call
  /// settled the task: false (a no-op) once it already settled, e.g.
  /// cancelled while parked — the caller then must not book the window.
  bool complete(int qpu, double now, double start, double end);
  /// Fails the task with `status` at virtual time `now` and wakes the
  /// executor; the run ends carrying this status. No-op once settled.
  void fail(api::Status status, double now);
  /// Registers an observer invoked exactly once, outside the task's lock,
  /// by whichever of complete()/fail() wins — or immediately in the
  /// caller's thread when the task has already settled. After it fires,
  /// the verdict fields below are stable. The run engine uses this to post
  /// a resume event instead of parking a thread. At most one callback may
  /// be registered per task.
  void on_settled(std::function<void()> callback);
  /// Whether complete()/fail() already happened. A settled item still
  /// physically queued is skipped by the next cycle.
  bool settled() const;

  // The verdict fields are deliberately NOT guarded_by(mutex_): they are
  // written exactly once, under mutex_, before done_ flips, and the
  // on_settled() contract (release on the settling unlock, acquire on the
  // reader's lock/callback) makes them stable afterwards — readers access
  // them lock-free only after settlement. Annotating them would force every
  // post-settlement read through the lock for no added safety.
  int assigned_qpu = -1;      ///< valid iff error.ok()
  double dispatched_at = 0.0; ///< fleet clock when the cycle fired
  /// The QPU timeline window the dispatching cycle booked for this task
  /// (valid iff error.ok()): start = max(QPU free, dispatched_at), end =
  /// start + the task's estimated runtime on assigned_qpu.
  double exec_start = 0.0;
  double exec_end = 0.0;
  api::Status error;

 private:
  mutable Mutex mutex_{LockRank::kPendingTask, "PendingQuantumTask::mutex_"};
  /// Armed until settlement fires it (outside mutex_ — it acquires the
  /// run engine's lock).
  std::function<void()> on_settled_ GUARDED_BY(mutex_);
  bool done_ GUARDED_BY(mutex_) = false;
};

/// Bounded, thread-safe priority queue of pending quantum tasks: one FIFO
/// lane per api::Priority, drained highest class first. Thread-safety: any
/// number of producers, one consumer (the scheduler thread); remove() may
/// be called from any thread.
class PendingQueue {
 public:
  using Item = std::shared_ptr<PendingQuantumTask>;

  /// Why wait_for_batch() woke up.
  enum class Wake {
    kThreshold, ///< the queue reached the caller's threshold
    kLinger,    ///< non-empty, but the linger budget elapsed first
    kFlush,     ///< close() arrived with items still queued: final drain
    kClosed,    ///< closed and empty — no more work will ever arrive
  };

  /// `capacity` bounds the queue; offers beyond it park on the capacity
  /// waitlist. 0 means unbounded.
  explicit PendingQueue(std::size_t capacity = 0);

  /// Outcome of a non-blocking offer().
  enum class Offer {
    kQueued,     ///< enqueued in its priority lane, counts toward size()
    kWaitlisted, ///< queue full: parked on the capacity waitlist
    kClosed,     ///< the queue was close()d — the item was not accepted
  };

  /// Non-blocking enqueue for engine workers: queues when a capacity slot is
  /// free, otherwise parks the item on the capacity waitlist (it does NOT
  /// count toward size()). Waitlisted items promote into the queue
  /// FIFO-by-priority as take_batch()/take_expired()/remove() free slots —
  /// the caller's on_settled observer fires when a later cycle dispatches
  /// the promoted item, exactly as for a directly queued one. The full-check
  /// and the waitlist insert are atomic under the queue lock, so an item can
  /// never be stranded between an emptying queue and a not-yet-parked offer.
  Offer offer(Item item);

  /// Pops up to `max` items (0 = everything queued): kInteractive first,
  /// then kStandard, then kBatch, FIFO within each lane.
  ///
  /// Priority aging (`aging_seconds` > 0): an item whose virtual wait at
  /// `now` exceeds the aging budget competes one lane above its own for
  /// this batch's slots — kBatch as kStandard, kStandard as kInteractive
  /// (its `priority` field, and therefore the per-class stats, keep the
  /// native class). Within one effective lane, older enqueue times win, so
  /// an aged job beats a sustained stream of fresh native jobs instead of
  /// joining the back of their lane. 0 disables aging (the default).
  std::vector<Item> take_batch(std::size_t max = 0, double now = 0.0,
                               double aging_seconds = 0.0);

  /// Removes and returns every item whose deadline_seconds lies at or
  /// before `now`: queued items first, then waitlisted ones, each part
  /// lowest class first and FIFO within a class. Called at cycle start so
  /// expired jobs fail DEADLINE_EXCEEDED instead of consuming batch slots
  /// and QPUs. The boundary is inclusive: a job dispatched exactly at its
  /// deadline has zero slack, which the at/before contract counts as a miss
  /// (matching the submit-time admission check).
  std::vector<Item> take_expired(double now);

  /// Removes this exact item (pointer identity) if it is still queued or
  /// waitlisted; false when it was already taken or never pushed. Frees a
  /// capacity slot. The caller settles the item (fail) — the queue does not.
  bool remove(const Item& item);

  /// Stops accepting offers and wakes the scheduler. Idempotent.
  void close();

  std::size_t size() const;
  bool empty() const { return size() == 0; }
  /// Virtual-clock age of the oldest item parked anywhere in the queue
  /// (queued or waitlisted) at `now`; 0 when nothing is parked. The
  /// queue-stall SLI: a growing oldest-wait with a beating scheduler means
  /// cycles are firing but never draining this job's class.
  double oldest_wait_seconds(double now) const;
  /// Largest size() ever observed — the Fig. 9b stability statistic.
  std::size_t high_watermark() const;

  /// Items currently parked on the capacity waitlist (not in size()).
  std::size_t waitlist_depth() const;
  /// Largest waitlist depth ever observed.
  std::size_t waitlist_high_watermark() const;
  /// Total offers that took the waitlist path since construction — the
  /// "no engine worker ever blocked on a full queue" overload-control
  /// statistic.
  std::uint64_t waitlist_parks() const;

  /// Scheduler-side wait. Blocks until the queue holds at least
  /// `threshold` items (kThreshold), or is non-empty once `linger` has
  /// elapsed from the first item observed (kLinger), or close() happened
  /// (kFlush when items remain, kClosed when the queue is empty for good).
  /// Producers wake the sleeping consumer only when it can act: the first
  /// item while it sleeps for work, the threshold-th while it lingers.
  Wake wait_for_batch(std::size_t threshold, std::chrono::milliseconds linger);

 private:
  std::size_t size_locked() const REQUIRES(mutex_);
  std::size_t waitlist_depth_locked() const REQUIRES(mutex_);

  /// Moves waitlisted items into the queue, highest class first and FIFO
  /// within a class, while capacity allows (`ignore_capacity` lifts the
  /// bound for the close() flush). Runs under the queue lock so a freed
  /// slot and its refill are one atomic step; wakes the scheduler when the
  /// promotion lifts the queue to its wake level.
  void promote_waitlist_locked(bool ignore_capacity = false) REQUIRES(mutex_);

  /// Whether the queue just reached the sleeping consumer's wake level;
  /// if so, disarms the level so the caller sends the one notify.
  bool claim_wake_locked() REQUIRES(mutex_);

  const std::size_t capacity_;
  mutable Mutex mutex_{LockRank::kPendingQueue, "PendingQueue::mutex_"};
  CondVar consumer_cv_; ///< the scheduler thread
  /// The queue size at which the sleeping consumer can act, written by
  /// wait_for_batch under the lock: 1 while it sleeps for work, the
  /// threshold while it lingers, 0 (never wake) while it is awake — it
  /// re-checks the queue before sleeping again — or once a notify is on
  /// its way. offer() and promotions notify only on reaching it, so each
  /// wake of the scheduler thread has work.
  std::size_t wake_at_ GUARDED_BY(mutex_) = 0;
  /// One lane per api::Priority, drained highest first. A lane holds its
  /// queued items first and its waitlisted items after them, each part in
  /// offer order; queued_[lane] counts the queued prefix. An offer
  /// waitlists only while the queue is full, and a full queue admits no
  /// direct offer until the waitlist has drained into it, so within a lane
  /// every queued item was offered before every waitlisted one — promoting
  /// a lane's oldest waiter is one increment of its queued_ count.
  std::array<std::deque<Item>, api::kNumPriorities> lanes_ GUARDED_BY(mutex_);
  std::array<std::size_t, api::kNumPriorities> queued_ GUARDED_BY(mutex_) = {};
  std::size_t high_watermark_ GUARDED_BY(mutex_) = 0;
  std::size_t waitlist_high_watermark_ GUARDED_BY(mutex_) = 0;
  std::uint64_t waitlist_parks_ GUARDED_BY(mutex_) = 0;
  bool closed_ GUARDED_BY(mutex_) = false;
};

}  // namespace qon::core
