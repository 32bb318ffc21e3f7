#include "core/scheduler_service.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/logging.hpp"
#include "common/stopwatch.hpp"

namespace qon::core {

namespace {

const Logger& scheduler_log() {
  static const Logger log("scheduler");
  return log;
}

/// Stage/latency histogram bounds: scheduling cycles run 0.1 ms – seconds
/// depending on batch size and NSGA-II generations.
std::vector<double> stage_bounds() {
  return {0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0};
}

}  // namespace

api::Status validate_scheduler_config(const SchedulerServiceConfig& config) {
  if (config.queue_threshold == 0) {
    return api::InvalidArgument("scheduler config: queue_threshold must be > 0");
  }
  if (!(config.interval_seconds > 0.0) || !std::isfinite(config.interval_seconds)) {
    // An infinite interval would fire the first timer cycle at t = inf and
    // push the fleet clock there, killing every later deadline.
    return api::InvalidArgument(
        "scheduler config: interval_seconds must be finite and > 0");
  }
  if (config.linger.count() < 0) {
    return api::InvalidArgument("scheduler config: linger must be >= 0");
  }
  if (config.queue_capacity != 0 && config.queue_capacity < config.queue_threshold) {
    // The queue could never reach the threshold: every cycle would silently
    // degrade to a timer fire with a full interval of virtual queue wait.
    return api::InvalidArgument(
        "scheduler config: queue_capacity must be 0 (unbounded) or >= queue_threshold");
  }
  if (!(config.aging_seconds >= 0.0)) {  // the negation also rejects NaN
    return api::InvalidArgument(
        "scheduler config: aging_seconds must be >= 0 (0 disables aging)");
  }
  // A NaN budget would disable its watchdog (age > NaN is false) and a
  // non-positive one reads as stalled whenever the component is busy.
  if (!(config.scheduler_stall_budget_seconds > 0.0)) {
    return api::InvalidArgument(
        "scheduler config: scheduler_stall_budget_seconds must be > 0");
  }
  if (!(config.queue_stall_budget_seconds > 0.0)) {
    return api::InvalidArgument(
        "scheduler config: queue_stall_budget_seconds must be > 0");
  }
  return api::Status::Ok();
}

api::SchedulerConfigView to_config_view(const SchedulerServiceConfig& config) {
  api::SchedulerConfigView view;
  view.queue_threshold = config.queue_threshold;
  view.interval_seconds = config.interval_seconds;
  view.queue_capacity = config.queue_capacity;
  view.max_batch_size = config.max_batch_size;
  view.aging_seconds = config.aging_seconds;
  return view;
}

SchedulerService::SchedulerService(SchedulerServiceConfig config, std::uint64_t seed,
                                   sched::SchedulerConfig cycle_config,
                                   SchedulerServiceHooks hooks, obs::Telemetry* telemetry,
                                   obs::HealthMonitor* health)
    : config_(config),
      cycle_config_(cycle_config),
      hooks_(std::move(hooks)),
      owned_telemetry_(telemetry ? nullptr : std::make_unique<obs::Telemetry>()),
      telemetry_(telemetry ? telemetry : owned_telemetry_.get()),
      cycles_total_(telemetry_->registry().counter(
          "qon_sched_cycles_total", "Scheduling cycles fired (any trigger)")),
      jobs_scheduled_total_(telemetry_->registry().counter(
          "qon_sched_jobs_scheduled_total", "Jobs assigned a QPU by a cycle")),
      jobs_filtered_total_(telemetry_->registry().counter(
          "qon_sched_jobs_filtered_total", "Jobs rejected as fitting no online QPU")),
      jobs_expired_total_(telemetry_->registry().counter(
          "qon_sched_jobs_expired_total", "Jobs failed DEADLINE_EXCEEDED while parked")),
      stats_cycles_dropped_total_(telemetry_->registry().counter(
          "qon_sched_stats_cycles_dropped_total",
          "Cycle records evicted from the bounded recent_cycles ring")),
      cycle_preprocess_seconds_(telemetry_->registry().histogram(
          "qon_sched_cycle_preprocess_seconds",
          "Wall time of the cycle's preprocessing (filter) stage", stage_bounds())),
      cycle_optimize_seconds_(telemetry_->registry().histogram(
          "qon_sched_cycle_optimize_seconds",
          "Wall time of the cycle's NSGA-II optimization stage", stage_bounds())),
      cycle_select_seconds_(telemetry_->registry().histogram(
          "qon_sched_cycle_select_seconds",
          "Wall time of the cycle's MCDM selection stage", stage_bounds())),
      cycle_latency_seconds_(telemetry_->registry().histogram(
          "qon_sched_cycle_latency_seconds",
          "End-to-end wall time of one scheduling cycle", stage_bounds())),
      trigger_(config.queue_threshold, config.interval_seconds),
      rng_(seed),
      queue_(config.queue_capacity) {
  // Callback gauges poll component state behind its own lock at snapshot
  // time; legal because kPendingQueue ranks above kMetrics.
  // `this` outlives the registry only in the owned-bundle case, but the
  // orchestrator destroys its Telemetry after the service either way.
  auto& registry = telemetry_->registry();
  registry.gauge_fn("qon_sched_queue_depth", "Pending-queue depth right now",
                    [this] { return static_cast<double>(queue_.size()); });
  registry.gauge_fn("qon_sched_queue_high_watermark",
                    "Largest pending-queue depth ever observed",
                    [this] { return static_cast<double>(queue_.high_watermark()); });
  registry.gauge_fn("qon_sched_waitlist_depth",
                    "Capacity-waitlist depth right now",
                    [this] { return static_cast<double>(queue_.waitlist_depth()); });
  registry.gauge_fn("qon_sched_waitlist_high_watermark",
                    "Largest capacity-waitlist depth ever observed",
                    [this] { return static_cast<double>(queue_.waitlist_high_watermark()); });
  registry.counter_fn("qon_sched_waitlist_parks_total",
                      "Offers parked on the capacity waitlist",
                      [this] { return static_cast<double>(queue_.waitlist_parks()); });
  registry.gauge_fn("qon_queue_oldest_wait_seconds",
                    "Virtual-clock age of the oldest parked job (0 when empty)",
                    [this] { return queue_.oldest_wait_seconds(hooks_.now()); });
  if (health != nullptr) {
    registry.counter_fn("qon_health_heartbeats_total",
                        "Liveness heartbeats stamped by the scheduler thread",
                        [this] { return static_cast<double>(cycle_beat_.count()); },
                        R"(component="scheduler")");
    registry.counter_fn("qon_health_heartbeats_total",
                        "Liveness heartbeats stamped by the queue drain path",
                        [this] { return static_cast<double>(drain_beat_.count()); },
                        R"(component="queue")");
    obs::HealthMonitor::WatchdogOptions scheduler_dog;
    scheduler_dog.stall_budget_seconds = config_.scheduler_stall_budget_seconds;
    scheduler_dog.busy = [this] {
      return in_cycle_.load(std::memory_order_relaxed) || queue_.size() > 0;
    };
    health->watch("scheduler", &cycle_beat_, std::move(scheduler_dog));
    obs::HealthMonitor::WatchdogOptions queue_dog;
    queue_dog.stall_budget_seconds = config_.queue_stall_budget_seconds;
    queue_dog.busy = [this] {
      return queue_.size() > 0 || queue_.waitlist_depth() > 0;
    };
    health->watch("queue", &drain_beat_, std::move(queue_dog));
  }
  // Thread start stays LAST: every instrument/watchdog registration above
  // must be visible before the first cycle can beat or be polled.
  thread_ = std::thread([this] { run_loop(); });
}

SchedulerService::~SchedulerService() { shutdown(); }

PendingQueue::Offer SchedulerService::offer(
    const std::shared_ptr<PendingQuantumTask>& task) {
  return queue_.offer(task);
}

bool SchedulerService::remove_pending(const std::shared_ptr<PendingQuantumTask>& task) {
  return queue_.remove(task);
}

void SchedulerService::shutdown() {
  queue_.close();
  MutexLock lock(join_mutex_);
  if (thread_.joinable()) thread_.join();
}

api::SchedulerStats SchedulerService::stats() const {
  api::SchedulerStats snapshot;
  {
    MutexLock lock(stats_mutex_);
    snapshot.max_batch_size_seen = max_batch_size_seen_;
    snapshot.recent_cycles.reserve(recent_cycles_.size());
    for (const auto& cycle : recent_cycles_) snapshot.recent_cycles.push_back(cycle->info);
  }
  // The aggregate totals live in the metrics registry now; this surface is
  // a view over the same instruments getMetrics exports. Counters are
  // bumped under stats_mutex_ together with the ring appends, so a reader
  // woken by a settlement still finds the settling cycle here.
  snapshot.cycles = cycles_total_->value();
  snapshot.jobs_scheduled = jobs_scheduled_total_->value();
  snapshot.jobs_filtered = jobs_filtered_total_->value();
  snapshot.jobs_expired = jobs_expired_total_->value();
  snapshot.queue_depth = queue_.size();
  snapshot.queue_high_watermark = queue_.high_watermark();
  return snapshot;
}

void SchedulerService::run_loop() {
  for (;;) {
    const auto wake = queue_.wait_for_batch(trigger_.queue_threshold(), config_.linger);
    // Beat once per wake (threshold, linger AND flush), before the cycle:
    // a wedge inside run_cycle ages this beat past the stall budget while
    // in_cycle_ keeps the busy probe true even after take_batch empties
    // the queue.
    cycle_beat_.beat();
    if (wake == PendingQueue::Wake::kClosed) break;
    in_cycle_.store(true, std::memory_order_relaxed);

    // The wake reason IS the cycle's trigger — re-deriving it from a fresh
    // queue-size read would race late producers.
    double fired_at = hooks_.now();
    api::CycleTrigger fired_by = api::CycleTrigger::kThreshold;
    if (wake == PendingQueue::Wake::kFlush) {
      // Shutdown drain: fire immediately at the current virtual time, no
      // clock warp — the queue must empty, not wait for a deadline.
      fired_by = api::CycleTrigger::kFlush;
    } else if (wake == PendingQueue::Wake::kLinger) {
      fired_by = api::CycleTrigger::kTimer;
      if (!trigger_.should_fire(fired_at, queue_.size())) {
        // Below the threshold and before the deadline on the virtual clock,
        // but the real-time linger elapsed: model the wait as the virtual
        // timer running out (the clock is advanced in run_cycle's snapshot).
        fired_at = std::max(fired_at, trigger_.next_timer_deadline());
      }
    }
    run_cycle(fired_at, fired_by);
    in_cycle_.store(false, std::memory_order_relaxed);
  }
}

void SchedulerService::record_queue_wait(api::RunState& run, const PendingQuantumTask& item,
                                         double now, std::string verdict,
                                         std::shared_ptr<const api::CycleRecord> cycle) const {
  const obs::Tracer& tracer = telemetry_->tracer();
  tracer.record(run,
                tracer.span("queue_wait", item.enqueued_at, now, item.enqueued_wall_us,
                            std::move(verdict)),
                std::move(cycle));
}

void SchedulerService::fail_expired(const std::vector<PendingQueue::Item>& overdue,
                                    double now) {
  // Callers account the cycle in stats_ BEFORE this wakes any executor: a
  // client that observes its run DEADLINE_EXCEEDED must already find the
  // expiry in getSchedulerStats.
  for (const auto& item : overdue) {
    if (const auto run = item->trace.lock()) record_queue_wait(*run, *item, now, "expired");
    item->fail(api::DeadlineExceeded(
                   "scheduling cycle: task '" + item->task_name + "' of run " +
                       std::to_string(item->run) + " missed its deadline (t=" +
                       std::to_string(*item->deadline_seconds) +
                       " s, cycle dispatched at t=" + std::to_string(now) + " s)"),
               now);
  }
}

void SchedulerService::publish_cycle_locked(const std::shared_ptr<api::CycleRecord>& cycle) {
  cycles_total_->inc();
  cycle->info.cycle = cycles_total_->value();
  recent_cycles_.push_back(cycle);
  if (recent_cycles_.size() > config_.stats_cycle_history) {
    recent_cycles_.pop_front();
    stats_cycles_dropped_total_->inc();
  }
}

void SchedulerService::record_empty_cycle(double fired_at, api::CycleTrigger fired_by,
                                          std::size_t expired, double latency_seconds) {
  trigger_.notify_fired(fired_at);
  const auto cycle = std::make_shared<api::CycleRecord>();
  api::SchedulerCycleInfo& info = cycle->info;
  info.fired_at = fired_at;
  info.trigger = fired_by;
  info.expired = expired;
  info.queue_depth_after = queue_.size();
  info.cycle_latency_seconds = latency_seconds;
  if (telemetry_->metrics_enabled()) {
    cycle_latency_seconds_->observe(latency_seconds);
  }
  MutexLock lock(stats_mutex_);
  jobs_expired_total_->inc(expired);
  publish_cycle_locked(cycle);
}

void SchedulerService::run_cycle(double fired_at, api::CycleTrigger fired_by) {
  Stopwatch cycle_clock;
  // QoS deadlines are enforced before batch formation: a job that can no
  // longer meet its deadline must not consume a batch slot or a QPU. The
  // overdue items are only *failed* after the cycle is accounted below.
  auto overdue = queue_.take_expired(fired_at);
  auto batch = queue_.take_batch(config_.max_batch_size, fired_at, config_.aging_seconds);
  // The drain heartbeat: this cycle pulled whatever the queue held.
  drain_beat_.beat();
  // Items settled sideways (a cancelled run's task raced a cycle taking
  // it) are dropped; their runs already carry a terminal status.
  const auto settled = [](const PendingQueue::Item& item) { return item->settled(); };
  batch.erase(std::remove_if(batch.begin(), batch.end(), settled), batch.end());
  overdue.erase(std::remove_if(overdue.begin(), overdue.end(), settled), overdue.end());
  if (batch.empty() && overdue.empty()) return;
  if (batch.empty()) {
    // Nothing to dispatch, but the cycle still happened: advance the
    // fleet clock to the fire time (the snapshot is discarded) so expiry
    // verdicts and later cycles observe a monotonic virtual clock — a run
    // failed for missing t=10 must not finish at t=0.
    hooks_.snapshot_qpus(fired_at);
    record_empty_cycle(fired_at, fired_by, overdue.size(), cycle_clock.seconds());
    fail_expired(overdue, fired_at);
    return;
  }

  // Advance the fleet clock to the fire time and snapshot the QPU flags;
  // the frontier may already be past fired_at, so re-read it as the
  // cycle's dispatch time. Queue waits come from this thread's timeline.
  sched::SchedulingInput input;
  input.qpus = hooks_.snapshot_qpus(fired_at);
  const double now = std::max(fired_at, hooks_.now());
  available_at_.resize(input.qpus.size(), 0.0);
  for (std::size_t q = 0; q < input.qpus.size(); ++q) {
    input.qpus[q].queue_wait_seconds = std::max(0.0, available_at_[q] - now);
  }

  // The fleet frontier may have advanced past fired_at while we
  // snapshotted: a batch member whose deadline fell inside that window
  // must fail now rather than execute past its deadline.
  {
    const auto overdue_begin = std::partition(
        batch.begin(), batch.end(), [now](const PendingQueue::Item& item) {
          // Inclusive boundary, matching take_expired and the submit-time
          // admission check: dispatch exactly at the deadline is a miss.
          return !(item->deadline_seconds && *item->deadline_seconds <= now);
        });
    overdue.insert(overdue.end(), overdue_begin, batch.end());
    batch.erase(overdue_begin, batch.end());
    if (batch.empty()) {
      record_empty_cycle(now, fired_by, overdue.size(), cycle_clock.seconds());
      fail_expired(overdue, now);
      return;
    }
  }
  const std::size_t expired = overdue.size();

  input.jobs.reserve(batch.size());
  for (const auto& item : batch) {
    sched::QuantumJob job;
    job.id = item->run;
    job.qubits = item->qubits;
    job.shots = item->shots;
    job.arrival_time = item->enqueued_at;
    // Already resolved against the deployment default by the orchestrator:
    // MCDM selects this job's Pareto point per its own preference.
    job.fidelity_weight = item->fidelity_weight;
    job.est_fidelity = item->est_fidelity;
    job.est_exec_seconds = item->est_exec_seconds;
    input.jobs.push_back(std::move(job));
  }

  auto cycle_config = cycle_config_;
  cycle_config.nsga2.seed = rng_();
  sched::ScheduleDecision decision;
  api::Status cycle_error;
  try {
    decision = sched::schedule_cycle(input, cycle_config);
  } catch (const std::exception& e) {
    // Defensive: config knobs were validated up front, so a throw here is a
    // scheduler bug — fail the whole batch with a typed status rather than
    // leaving executors parked forever.
    cycle_error = api::Internal(std::string("scheduling cycle failed: ") + e.what());
  }

  // Classify the batch first so the cycle is fully accounted in stats_
  // BEFORE any waiter wakes: an executor observing its task dispatched is
  // guaranteed to find the dispatching cycle in getSchedulerStats.
  std::size_t scheduled = 0;
  std::size_t filtered = 0;
  double wait_sum = 0.0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    wait_sum += std::max(0.0, now - batch[i]->enqueued_at);
    if (cycle_error.ok() && decision.assignment[i] >= 0) {
      ++scheduled;
    } else if (cycle_error.ok()) {
      ++filtered;
    }
  }
  trigger_.notify_fired(now);

  // The cycle's one record: the stats ring and the trace entry of every
  // job it decided share it.
  const auto cycle = std::make_shared<api::CycleRecord>();
  cycle->stages_end_us = telemetry_->tracer().wall_now_us();
  api::SchedulerCycleInfo& info = cycle->info;
  info.fired_at = now;
  info.trigger = fired_by;
  info.batch_size = batch.size();
  info.scheduled = scheduled;
  info.filtered = filtered;
  info.expired = expired;
  info.queue_depth_after = queue_.size();
  info.preprocess_seconds = decision.preprocess_seconds;
  info.optimize_seconds = decision.optimize_seconds;
  info.select_seconds = decision.select_seconds;
  info.cycle_latency_seconds = cycle_clock.seconds();
  info.mean_queue_wait_seconds = wait_sum / static_cast<double>(batch.size());

  {
    MutexLock lock(stats_mutex_);
    jobs_scheduled_total_->inc(scheduled);
    jobs_filtered_total_->inc(filtered);
    jobs_expired_total_->inc(expired);
    max_batch_size_seen_ = std::max(max_batch_size_seen_, batch.size());
    publish_cycle_locked(cycle);
  }

  if (telemetry_->metrics_enabled()) {
    cycle_preprocess_seconds_->observe(decision.preprocess_seconds);
    cycle_optimize_seconds_->observe(decision.optimize_seconds);
    cycle_select_seconds_->observe(decision.select_seconds);
    cycle_latency_seconds_->observe(info.cycle_latency_seconds);
  }
  if (Logger::enabled(LogLevel::kDebug)) {
    scheduler_log().debug("cycle complete",
                          {{"cycle", info.cycle},
                           {"trigger", api::cycle_trigger_name(fired_by)},
                           {"batch", batch.size()},
                           {"scheduled", scheduled},
                           {"filtered", filtered},
                           {"expired", expired}});
  }

  // Now wake the executors: deadline-expired jobs fail DEADLINE_EXCEEDED,
  // assigned tasks proceed to their booked QPU window, filtered jobs fail
  // their run with the typed RESOURCE_EXHAUSTED. Each item's queue_wait
  // entry is recorded BEFORE its settlement — the settlement edge publishes
  // it to the resume step.
  fail_expired(overdue, now);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (const auto run = batch[i]->trace.lock(); run && cycle_error.ok()) {
      const bool dispatched = decision.assignment[i] >= 0;
      record_queue_wait(*run, *batch[i], now,
                        dispatched ? "dispatched qpu=" +
                                         std::to_string(decision.assignment[i])
                                   : "filtered",
                        cycle);
    } else if (run) {
      record_queue_wait(*run, *batch[i], now, "failed: " + cycle_error.message());
    }
    if (!cycle_error.ok()) {
      batch[i]->fail(cycle_error, now);
    } else if (decision.assignment[i] < 0) {
      batch[i]->fail(api::ResourceExhausted("scheduling cycle: task '" +
                                            batch[i]->task_name +
                                            "' fits no online QPU in the fleet"),
                     now);
    } else {
      if (Logger::enabled(LogLevel::kDebug)) {
        scheduler_log().debug("task dispatched", {{"run", batch[i]->run},
                                                  {"task", batch[i]->task_name},
                                                  {"qpu", decision.assignment[i]}});
      }
      // Book the timeline in batch order. Only a winning dispatch holds
      // the slot: a task cancelled in this same instant keeps no window.
      const int q = decision.assignment[i];
      const std::size_t slot = static_cast<std::size_t>(q);
      const double start = std::max(available_at_[slot], now);
      const double end = start + batch[i]->est_exec_seconds[slot];
      if (batch[i]->complete(q, now, start, end)) available_at_[slot] = end;
    }
  }
}

}  // namespace qon::core
