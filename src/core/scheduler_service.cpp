#include "core/scheduler_service.hpp"

#include <algorithm>
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
  if (!(config.interval_seconds > 0.0)) {
    return api::InvalidArgument("scheduler config: interval_seconds must be > 0");
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
  return api::Status::Ok();
}

api::SchedulerConfigView to_config_view(const SchedulerServiceConfig& config) {
  api::SchedulerConfigView view;
  view.mode = config.mode;
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
      stats_waits_dropped_total_(telemetry_->registry().counter(
          "qon_sched_stats_waits_dropped_total",
          "Queue-wait samples evicted from the bounded recent_queue_waits rings")),
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
  // time; legal because kPendingQueue/kQueueWaitlist rank above kMetrics.
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
    snapshot = stats_;
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

void SchedulerService::record_queue_wait(const PendingQueue::Item& item, double now,
                                         std::string verdict) const {
  if (!item->trace) return;
  api::TraceSpan span;
  span.name = "queue_wait";
  span.detail = std::move(verdict);
  span.virtual_start = item->enqueued_at;
  span.virtual_end = now;
  span.wall_start_us = item->enqueued_wall_us;
  span.wall_end_us = telemetry_->tracer().wall_now_us();
  item->trace->record(std::move(span));
}

void SchedulerService::fail_expired(const std::vector<PendingQueue::Item>& overdue,
                                    double now) {
  // Callers account the cycle in stats_ BEFORE this wakes any executor: a
  // client that observes its run DEADLINE_EXCEEDED must already find the
  // expiry in getSchedulerStats.
  for (const auto& item : overdue) {
    record_queue_wait(item, now, "expired");
    item->fail(api::DeadlineExceeded(
                   "scheduling cycle: task '" + item->task_name + "' of run " +
                       std::to_string(item->run) + " missed its deadline (t=" +
                       std::to_string(*item->deadline_seconds) +
                       " s, cycle dispatched at t=" + std::to_string(now) + " s)"),
               now);
  }
}

void SchedulerService::append_cycle_locked(api::SchedulerCycleInfo& info) {
  cycles_total_->inc();
  info.cycle = cycles_total_->value();
  stats_.recent_cycles.push_back(info);
  if (stats_.recent_cycles.size() > config_.stats_cycle_history) {
    stats_.recent_cycles.erase(stats_.recent_cycles.begin());
    stats_cycles_dropped_total_->inc();
  }
}

void SchedulerService::record_empty_cycle(double fired_at, api::CycleTrigger fired_by,
                                          std::size_t expired, double latency_seconds) {
  trigger_.notify_fired(fired_at);
  api::SchedulerCycleInfo info;
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
  append_cycle_locked(info);
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

  // Advance the fleet clock to the fire time and snapshot the QPU states
  // (under the engine lock on the orchestrator side); the frontier may
  // already be past fired_at, so re-read it as the cycle's dispatch time.
  sched::SchedulingInput input;
  input.qpus = hooks_.snapshot_qpus(fired_at);
  const double now = std::max(fired_at, hooks_.now());

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
  std::vector<double> waits;
  std::array<std::vector<double>, api::kNumPriorities> waits_by_priority;
  waits.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const double wait = std::max(0.0, now - batch[i]->enqueued_at);
    wait_sum += wait;
    waits.push_back(wait);
    waits_by_priority[static_cast<std::size_t>(batch[i]->priority)].push_back(wait);
    if (cycle_error.ok() && decision.assignment[i] >= 0) {
      ++scheduled;
    } else if (cycle_error.ok()) {
      ++filtered;
    }
  }
  trigger_.notify_fired(now);

  api::SchedulerCycleInfo info;
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
    stats_.max_batch_size_seen = std::max(stats_.max_batch_size_seen, batch.size());
    append_cycle_locked(info);
    const auto append_bounded = [limit = config_.stats_wait_history,
                                 dropped = stats_waits_dropped_total_](
                                    std::vector<double>& history,
                                    const std::vector<double>& samples) {
      history.insert(history.end(), samples.begin(), samples.end());
      if (history.size() > limit) {
        const std::size_t evicted = history.size() - limit;
        history.erase(history.begin(), history.begin() +
                                           static_cast<std::ptrdiff_t>(evicted));
        dropped->inc(evicted);
      }
    };
    append_bounded(stats_.recent_queue_waits, waits);
    for (std::size_t p = 0; p < api::kNumPriorities; ++p) {
      append_bounded(stats_.recent_queue_waits_by_priority[p], waits_by_priority[p]);
    }
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

  // Cycle-stage wall window, reconstructed backwards from this instant:
  // MCDM selection just ended, NSGA-II before it, preprocessing first. Each
  // batch member gets the stage spans of the cycle that decided it — the
  // stages happened at one virtual instant (`now`), so only the wall clock
  // spreads them out.
  const double stages_end_us = telemetry_->tracer().wall_now_us();
  const double select_us = decision.select_seconds * 1e6;
  const double optimize_us = decision.optimize_seconds * 1e6;
  const double preprocess_us = decision.preprocess_seconds * 1e6;
  const std::string cycle_tag = "cycle=" + std::to_string(info.cycle);
  const auto stage_span = [&](const char* name, double wall_start,
                              double wall_end) {
    api::TraceSpan span;
    span.name = name;
    span.detail = cycle_tag;
    span.virtual_start = now;
    span.virtual_end = now;
    span.wall_start_us = wall_start;
    span.wall_end_us = wall_end;
    return span;
  };

  // Now wake the executors: deadline-expired jobs fail DEADLINE_EXCEEDED,
  // assigned tasks proceed to their QPU, filtered jobs fail their run
  // with the typed RESOURCE_EXHAUSTED. Spans are recorded per item BEFORE
  // its settlement — the settlement edge publishes them to the resume step.
  fail_expired(overdue, now);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i]->trace && cycle_error.ok()) {
      const bool dispatched = decision.assignment[i] >= 0;
      record_queue_wait(batch[i], now,
                        dispatched ? "dispatched qpu=" +
                                         std::to_string(decision.assignment[i])
                                   : "filtered");
      batch[i]->trace->record(stage_span(
          "cycle_preprocess", stages_end_us - select_us - optimize_us - preprocess_us,
          stages_end_us - select_us - optimize_us));
      batch[i]->trace->record(stage_span("cycle_optimize",
                                         stages_end_us - select_us - optimize_us,
                                         stages_end_us - select_us));
      batch[i]->trace->record(
          stage_span("cycle_select", stages_end_us - select_us, stages_end_us));
    } else if (batch[i]->trace) {
      record_queue_wait(batch[i], now, "failed: " + cycle_error.message());
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
      batch[i]->complete(decision.assignment[i], now);
    }
  }
}

}  // namespace qon::core
