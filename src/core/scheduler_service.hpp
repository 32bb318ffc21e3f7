#pragma once
// The scheduler service (§7, Fig. 5): Qonductor's batch-scheduling job
// manager in the serving path. Quantum tasks from in-flight runs are parked
// in a bounded PendingQueue; a dedicated scheduler thread fires *scheduling
// cycles* through sched::ScheduleTrigger — when the queue reaches the size
// threshold OR the timer elapses, both evaluated against the fleet virtual
// clock — batches the queue into one sched::SchedulingInput, runs the
// hybrid scheduler (NSGA-II Pareto optimization + MCDM selection), and
// completes each pending task with its assigned QPU. Jobs the scheduler
// filters as infeasible (no online QPU fits) fail with RESOURCE_EXHAUSTED.
//
// The scheduler thread owns the QPU timeline: per-QPU `available_at`
// instants that only it reads and writes, so they need no lock. A cycle
// derives each QPU's queue wait from them, and at dispatch books every
// assigned task, in batch order, into [max(available_at, now), + estimated
// runtime) — written into the task's verdict, so execution is a pure step
// over a window fixed before any worker runs it.
//
// Per-job QoS (api::JobPreferences) is honored here: batches form in
// priority order (kInteractive > kStandard > kBatch), each job carries its
// own MCDM fidelity weight into the cycle, and a task still parked when a
// cycle fires at or past its deadline fails DEADLINE_EXCEEDED at cycle
// start — it never consumes a batch slot or a QPU.
//
// Virtual-vs-real time: the trigger's threshold and interval live on the
// fleet virtual clock, but the service must make progress in real time even
// when nothing advances that clock. `linger` is the real-time grace a
// sub-threshold batch gets to fill up; when it expires, the service models
// the wait as the virtual timer elapsing — it advances the fleet clock to
// the trigger's deadline and fires a timer cycle.
//
// shutdown() drains: the queue is closed, one final flush cycle dispatches
// everything still parked, and only then is the scheduler thread joined.
// The orchestrator shuts the service down after its run engine, so runs
// draining through the engine can still get their tasks scheduled.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "api/run_handle.hpp"
#include "api/status.hpp"
#include "api/types.hpp"
#include "common/rng.hpp"
#include "common/thread_safety.hpp"
#include "core/pending_queue.hpp"
#include "obs/health.hpp"
#include "obs/telemetry.hpp"
#include "sched/hybrid_scheduler.hpp"
#include "sched/triggers.hpp"

namespace qon::core {

/// Knobs of the batch-scheduling job manager. Validated by
/// validate_scheduler_config() so bad values surface as a typed
/// INVALID_ARGUMENT through the API instead of the ScheduleTrigger
/// constructor's std::invalid_argument crossing the boundary.
struct SchedulerServiceConfig {
  /// ScheduleTrigger: fire when the pending queue reaches this size…
  std::size_t queue_threshold = 100;
  /// …or when this many virtual seconds passed since the last cycle.
  double interval_seconds = 120.0;
  /// Pending-queue bound; offers beyond it park on the capacity waitlist.
  /// 0 = unbounded.
  std::size_t queue_capacity = 4096;
  /// Max jobs per cycle; the surplus stays queued for the next cycle.
  /// 0 = schedule the whole queue at once.
  std::size_t max_batch_size = 0;
  /// Real-time grace for a sub-threshold batch to fill before the virtual
  /// timer fires (see the header comment on virtual-vs-real time).
  std::chrono::milliseconds linger{2};
  /// Priority aging: a parked kBatch/kStandard job whose virtual queue
  /// wait exceeds this many seconds competes one lane above its own for a
  /// capped cycle's batch slots (PendingQueue::take_batch), so a sustained
  /// interactive stream cannot starve the lower lanes indefinitely.
  /// 0 = off (strict priority order, the default).
  double aging_seconds = 0.0;
  /// How many cycle records getSchedulerStats retains (recent_cycles ring;
  /// a trace that refers to an evicted cycle keeps it alive on its own).
  std::size_t stats_cycle_history = 256;
  /// Liveness watchdog budgets (wall seconds; see obs/health.hpp). The
  /// scheduler budget bounds heartbeat silence of the scheduler thread
  /// while work is pending; the queue budget bounds silence of the drain
  /// path (cycles firing without taking a batch). Only consulted when the
  /// service is constructed with a HealthMonitor; both must be > 0.
  double scheduler_stall_budget_seconds = 60.0;
  double queue_stall_budget_seconds = 120.0;
};

/// Rejects out-of-range knobs with kInvalidArgument; kOk otherwise.
api::Status validate_scheduler_config(const SchedulerServiceConfig& config);

/// The effective-config echo getSchedulerStats serves.
api::SchedulerConfigView to_config_view(const SchedulerServiceConfig& config);

/// Callbacks tying the service to the orchestrator, bundled so the service
/// stays unit-testable against fakes.
struct SchedulerServiceHooks {
  /// Advances the fleet virtual clock to at least `advance_to` and returns
  /// the QPU states (names, sizes, online flags) the cycle schedules
  /// against, indexed like the fleet. Their queue waits are ignored: the
  /// service fills them in from its own timeline. Called on the scheduler
  /// thread, holding no service lock.
  std::function<std::vector<sched::QpuState>(double advance_to)> snapshot_qpus;
  /// Lock-free read of the fleet clock frontier.
  std::function<double()> now;
};

/// The job manager: owns the pending queue, the trigger and the scheduler
/// thread. Thread-safe: any number of producers offer; stats() may be
/// called concurrently from query paths.
class SchedulerService {
 public:
  /// Precondition: validate_scheduler_config(config).ok() — the trigger
  /// constructed here throws on bad knobs. `cycle_config` carries the MCDM
  /// preference and NSGA-II parameters; its nsga2.seed is re-rolled from
  /// `seed` every cycle. `telemetry`, when given, must outlive the service
  /// (the orchestrator declares its Telemetry before the service); null
  /// falls back to a private bundle so standalone/unit-test construction
  /// keeps working.
  /// `health`, when given, must outlive the service; the service registers
  /// "scheduler" and "queue" watchdogs over its own heartbeats (the
  /// monitor only dereferences them from check(), and the orchestrator
  /// declares its HealthMonitor before the service).
  SchedulerService(SchedulerServiceConfig config, std::uint64_t seed,
                   sched::SchedulerConfig cycle_config, SchedulerServiceHooks hooks,
                   obs::Telemetry* telemetry = nullptr,
                   obs::HealthMonitor* health = nullptr);
  ~SchedulerService();

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// Hands a prepared task to the scheduler without blocking: a full queue
  /// parks the task on the capacity waitlist (promoted FIFO-by-priority as
  /// cycles free slots). kClosed means the service is shutting down and
  /// the task was not accepted.
  PendingQueue::Offer offer(const std::shared_ptr<PendingQuantumTask>& task);

  /// Capacity-waitlist introspection for getAdmissionStats.
  std::size_t waitlist_depth() const { return queue_.waitlist_depth(); }
  std::size_t waitlist_high_watermark() const {
    return queue_.waitlist_high_watermark();
  }
  std::uint64_t waitlist_parks() const { return queue_.waitlist_parks(); }

  /// Current pending-queue depth. Cheap (one lock, no ring copies) —
  /// the campaign driver's lockstep pacing polls this per admitted run,
  /// where stats() with its bounded-history copies would dominate.
  std::size_t queue_depth() const { return queue_.size(); }

  /// Pulls a parked task out of the pending queue (cancellation path).
  /// The caller is expected to have settled the task already — fail() wins
  /// over any later cycle completion — so this only frees the queue slot.
  /// False when the task was never queued or a cycle already took it.
  bool remove_pending(const std::shared_ptr<PendingQuantumTask>& task);

  /// Closes the queue, lets the scheduler thread flush the final cycle(s),
  /// and joins it. Idempotent and safe to call concurrently.
  void shutdown();

  /// Snapshot of the aggregate counters + the bounded cycle history. The
  /// aggregate totals (cycles / scheduled / filtered / expired, queue depth
  /// and watermark) are views over the metrics-registry instruments; the
  /// recent_cycles entries are copied out of the shared cycle records.
  api::SchedulerStats stats() const;

  const SchedulerServiceConfig& config() const { return config_; }

  /// The registry/tracer this service records into (the orchestrator's
  /// bundle, or the private fallback).
  obs::Telemetry& telemetry() const { return *telemetry_; }

 private:
  void run_loop();
  void run_cycle(double fired_at, api::CycleTrigger fired_by);
  /// Fails every task in `overdue` with DEADLINE_EXCEEDED at virtual time
  /// `now`. Callers must account the cycle in stats_ first — an executor
  /// observing the failure is guaranteed to find it in getSchedulerStats.
  void fail_expired(const std::vector<PendingQueue::Item>& overdue, double now);
  /// Accounts a cycle that dispatched nothing (every taken job expired or
  /// settled sideways): bumps the cycle counter and records the history
  /// entry, without a scheduler call.
  void record_empty_cycle(double fired_at, api::CycleTrigger fired_by,
                          std::size_t expired, double latency_seconds);
  /// Stamps the cycle index into `cycle` and appends it to the bounded
  /// recent_cycles history; `cycle` is immutable from here on. Bumps the
  /// cycle counter — the index IS the counter value (single scheduler
  /// thread, so the read-after-inc is the incremented value).
  void publish_cycle_locked(const std::shared_ptr<api::CycleRecord>& cycle)
      REQUIRES(stats_mutex_);
  /// Records the queue_wait span (enqueue -> verdict, both clocks) of
  /// `item` into its run record `run`, with the deciding `cycle` when one
  /// dispatched or filtered it. Must run BEFORE complete()/fail() — the
  /// settlement edge is what publishes the entry to the resuming run.
  void record_queue_wait(api::RunState& run, const PendingQuantumTask& item, double now,
                         std::string verdict,
                         std::shared_ptr<const api::CycleRecord> cycle = nullptr) const;

  const SchedulerServiceConfig config_;
  const sched::SchedulerConfig cycle_config_;
  const SchedulerServiceHooks hooks_;

  /// Fallback bundle when the constructor got no external telemetry;
  /// telemetry_ is the one every record site uses. Declared before the
  /// instruments and the thread: both reference it.
  const std::unique_ptr<obs::Telemetry> owned_telemetry_;
  obs::Telemetry* const telemetry_;

  // Registry instruments (stable pointers; see obs/metrics.hpp). The
  // counters back stats() and are always maintained; the stage histograms
  // are gated on Telemetry::metrics_enabled().
  obs::Counter* const cycles_total_;
  obs::Counter* const jobs_scheduled_total_;
  obs::Counter* const jobs_filtered_total_;
  obs::Counter* const jobs_expired_total_;
  // No-silent-caps: the bounded recent_cycles ring drops its oldest record
  // once full; this counts every drop so a reader can tell a quiet system
  // from a saturated ring.
  obs::Counter* const stats_cycles_dropped_total_;
  obs::Histogram* const cycle_preprocess_seconds_;
  obs::Histogram* const cycle_optimize_seconds_;
  obs::Histogram* const cycle_select_seconds_;
  obs::Histogram* const cycle_latency_seconds_;

  // Owned by the scheduler thread once it starts: the trigger's last-fire
  // state, the RNG feeding per-cycle NSGA-II seeds, and the QPU timeline —
  // the virtual instant each QPU's last booked task ends, indexed like the
  // snapshot (sized on the first cycle).
  sched::ScheduleTrigger trigger_;
  Rng rng_;
  std::vector<double> available_at_;

  PendingQueue queue_;

  // Liveness: the scheduler thread beats cycle_beat_ once per wake (cycle
  // AND linger wakeup) and drain_beat_ once per batch/expiry drain;
  // in_cycle_ is true from a wake until its cycle returns, so the busy
  // probe reports work-in-progress even after take_batch emptied the queue
  // (a wedge inside the QPU-snapshot hook must not read as "idle").
  obs::Heartbeat cycle_beat_;
  obs::Heartbeat drain_beat_;
  std::atomic<bool> in_cycle_{false};

  mutable Mutex stats_mutex_{LockRank::kSchedulerStats, "SchedulerService::stats_mutex_"};
  std::size_t max_batch_size_seen_ GUARDED_BY(stats_mutex_) = 0;
  /// The last stats_cycle_history published cycles, oldest first. The
  /// records are shared with the trace entries of the jobs they decided.
  std::deque<std::shared_ptr<const api::CycleRecord>> recent_cycles_
      GUARDED_BY(stats_mutex_);

  /// Serializes concurrent shutdown() calls.
  Mutex join_mutex_{LockRank::kShutdownJoin, "SchedulerService::join_mutex_"};
  /// Declared last: no member may be destroyed while the thread still runs
  /// (the destructor shuts down and joins first).
  std::thread thread_;
};

}  // namespace qon::core
