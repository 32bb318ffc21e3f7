#include "core/orchestrator.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/logging.hpp"
#include "estimator/execution_model.hpp"
#include "simulator/metrics.hpp"
#include "transpiler/transpiler.hpp"

namespace qon::core {

namespace {

const Logger& orch_log() {
  static const Logger log("orchestrator");
  return log;
}

/// Run end-to-end latency bounds (virtual seconds): runs span sub-second
/// interactive circuits to hour-scale batch workflows.
std::vector<double> run_latency_bounds() {
  return {1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0};
}

std::string priority_label(std::size_t p) {
  return std::string("priority=\"") +
         api::priority_name(static_cast<api::Priority>(p)) + "\"";
}

std::vector<std::string> backend_names(const qpu::Fleet& fleet) {
  std::vector<std::string> names;
  names.reserve(fleet.backends.size());
  for (const auto& backend : fleet.backends) names.push_back(backend->name());
  return names;
}

}  // namespace

api::Status validate_admission_config(const AdmissionConfig& config) {
  if (config.max_live_runs == 0) return api::Status::Ok();  // gate disabled
  // The negated comparisons also reject NaN.
  if (!(config.shed_batch_at > 0.0 && config.shed_batch_at <= 1.0)) {
    return api::InvalidArgument(
        "admission config: shed_batch_at must be in (0, 1]");
  }
  if (!(config.shed_standard_at > 0.0 && config.shed_standard_at <= 1.0)) {
    return api::InvalidArgument(
        "admission config: shed_standard_at must be in (0, 1]");
  }
  if (config.shed_batch_at > config.shed_standard_at) {
    // The shedding order IS the priority order: batch must never outlive
    // standard under load.
    return api::InvalidArgument(
        "admission config: shed_batch_at must be <= shed_standard_at");
  }
  if (!(config.retry_after_seconds > 0.0)) {
    return api::InvalidArgument(
        "admission config: retry_after_seconds must be > 0");
  }
  return api::Status::Ok();
}

Qonductor::Qonductor(QonductorConfig config)
    : config_(config),
      rng_(config.seed),
      hidden_(config.seed ^ 0x9d17ULL, config.hidden_sigma),
      fleet_(qpu::make_ibm_like_fleet(config.num_qpus, config.seed ^ 0xf1ee7ULL)),
      nodes_(sched::make_node_pool(config.classical_standard_nodes,
                                   config.classical_highend_nodes,
                                   config.classical_fpga_nodes)),
      monitor_(backend_names(fleet_), config.replicated_monitor),
      run_table_(config.retention),
      telemetry_(config.telemetry) {
  templates_ = fleet_.template_backends();
  {
    // Construction is single-threaded, but qpu_available_at_ is
    // engine-guarded state: taking the (uncontended) engine lock keeps the
    // guarded_by contract true at every access instead of carving out a
    // trust-me exception for the constructor.
    MutexLock lock(engine_mutex_);
    qpu_available_at_.assign(fleet_.backends.size(), 0.0);
  }

  // Registry instruments, registered family-by-family so the Prometheus
  // renderer emits one HELP/TYPE header per family. The returned pointers
  // are stable for the registry's lifetime; every hot-path update is a
  // single relaxed atomic.
  {
    auto& registry = telemetry_.registry();
    prep_cache_hits_ = registry.counter(
        "qon_prep_cache_hits_total",
        "Prep-cache lookups served from a cached per-backend transpile");
    prep_cache_misses_ = registry.counter(
        "qon_prep_cache_misses_total", "Prep-cache lookups that transpiled fresh");
    for (std::size_t p = 0; p < api::kNumPriorities; ++p) {
      admission_accepted_[p] = registry.counter(
          "qon_admission_accepted_total",
          "Runs admitted through the front-door gate", priority_label(p));
    }
    for (std::size_t p = 0; p < api::kNumPriorities; ++p) {
      admission_shed_[p] = registry.counter(
          "qon_admission_shed_total",
          "Runs shed RESOURCE_EXHAUSTED by the front-door gate", priority_label(p));
    }
    for (std::size_t p = 0; p < api::kNumPriorities; ++p) {
      run_latency_seconds_[p] = registry.histogram(
          "qon_run_latency_seconds",
          "Run end-to-end virtual latency, submit to settle",
          run_latency_bounds(), priority_label(p));
    }
    for (const api::RunStatus status :
         {api::RunStatus::kCompleted, api::RunStatus::kFailed,
          api::RunStatus::kCancelled}) {
      runs_finished_total_[static_cast<std::size_t>(status)] = registry.counter(
          "qon_runs_finished_total", "Settled runs per terminal status",
          std::string("status=\"") + api::run_status_name(status) + "\"");
    }
  }

  // Scheduler knobs are validated here, once, so the ScheduleTrigger's
  // std::invalid_argument never crosses the API boundary: a bad config
  // parks invoke()/invokeAll() on the stored INVALID_ARGUMENT instead.
  init_status_ = validate_scheduler_config(config_.scheduler_service);
  if (init_status_.ok()) {
    init_status_ = validate_admission_config(config_.admission);
  }
  if (init_status_.ok() &&
      (config_.fidelity_weight < 0.0 || config_.fidelity_weight > 1.0)) {
    init_status_ = api::InvalidArgument(
        "QonductorConfig: fidelity_weight must be in [0, 1]");
  }
  if (init_status_.ok() && config_.scheduler_service.mode == SchedulingMode::kBatch) {
    sched::SchedulerConfig cycle_config;
    cycle_config.fidelity_weight = config_.fidelity_weight;
    SchedulerServiceHooks hooks;
    hooks.now = [this] { return fleetNow(); };
    hooks.snapshot_qpus = [this](double advance_to) {
      // The test-only wedge-injection point: BEFORE the engine lock, so a
      // blocked hook wedges only the scheduler thread, not the data plane.
      if (config_.health.scheduler_fault_injection) {
        config_.health.scheduler_fault_injection();
      }
      MutexLock lock(engine_mutex_);
      advance_fleet_clock(advance_to);
      const double now = fleet_clock_.load(std::memory_order_relaxed);
      // Reservation time windows expire at cycle boundaries: release due
      // QPUs before snapshotting so this very cycle schedules onto them.
      expire_reservations(now);
      return snapshot_qpu_states_locked(now);
    };
    scheduler_service_ = std::make_shared<SchedulerService>(
        config_.scheduler_service, config_.seed ^ 0x5c4edULL, cycle_config,
        std::move(hooks), &telemetry_, &health_);
  }

  // Live-health wiring: the SLO monitor (when targets/rules configure one),
  // the engine watchdog, and the probe-backed components. Registered before
  // the engine exists is fine — verdicts are only derived at check() time,
  // and the busy probe handles the (momentary) null engine.
  {
    bool track_slo = !config_.health.alert_rules.empty();
    for (const double target : config_.health.slo_seconds) {
      track_slo = track_slo || target > 0.0;
    }
    if (track_slo) {
      slo_ = std::make_unique<obs::SloMonitor>(config_.health.slo_seconds,
                                               config_.health.alert_rules);
    }
    obs::HealthMonitor::WatchdogOptions engine_dog;
    engine_dog.stall_budget_seconds = config_.health.engine_stall_budget_seconds;
    engine_dog.busy = [this] {
      return engine_ != nullptr && engine_->stats().queue_depth > 0;
    };
    health_.watch("engine", &engine_beat_, std::move(engine_dog));
    health_.probe("admission", [this] {
      api::ComponentHealth verdict;
      if (config_.admission.max_live_runs == 0) {
        verdict.detail = "gate disabled";
        return verdict;
      }
      const std::size_t live = engine_ ? engine_->stats().live_runs : 0;
      const std::size_t limit = config_.admission.max_live_runs;
      verdict.detail = "live " + std::to_string(live) + " / limit " +
                       std::to_string(limit);
      if (live >= limit) verdict.status = api::HealthStatus::kDegraded;
      return verdict;
    });
    health_.probe("fleet", [this] {
      api::ComponentHealth verdict;
      std::size_t schedulable = 0;
      std::size_t reserved = 0;
      std::size_t offline = 0;
      const std::vector<QpuInfo> qpus = monitor_.qpus();
      for (const QpuInfo& qpu : qpus) {
        // Counted independently: an offline QPU is a fault whether or not
        // it is also reserved.
        if (!qpu.online) ++offline;
        if (qpu.reserved) ++reserved;
        if (qpu.online && !qpu.reserved) ++schedulable;
      }
      verdict.detail = std::to_string(schedulable) + "/" +
                       std::to_string(qpus.size()) + " QPUs schedulable (" +
                       std::to_string(reserved) + " reserved, " +
                       std::to_string(offline) + " offline)";
      if (schedulable == 0) {
        verdict.status = api::HealthStatus::kUnhealthy;
        verdict.detail = "fleet has no schedulable QPU: " + verdict.detail;
      } else if (offline > 0) {
        verdict.status = api::HealthStatus::kDegraded;
      }
      return verdict;
    });
    telemetry_.registry().counter_fn(
        "qon_health_heartbeats_total",
        "Liveness heartbeats stamped by the engine workers",
        [this] { return static_cast<double>(engine_beat_.count()); },
        R"(component="engine")");
  }

  // Last: the engine's workers call step_run, which uses every member
  // above (including the scheduler service parked tasks resume through).
  engine_ = std::make_unique<RunEngine>(
      std::max<std::size_t>(1, config_.executor_threads),
      [this](const std::shared_ptr<RunContinuation>& cont) { return step_run(cont); },
      [this] { engine_beat_.beat(); });
  // Engine gauges poll one coherent EngineStats sample each (the engine's
  // lock ranks above kMetrics, so the poll nests legally under snapshot()).
  telemetry_.registry().gauge_fn(
      "qon_engine_live_runs", "In-flight (non-terminal) runs in the engine",
      [this] { return static_cast<double>(engine_->stats().live_runs); });
  telemetry_.registry().gauge_fn(
      "qon_engine_peak_live_runs", "Largest live-run count ever observed",
      [this] { return static_cast<double>(engine_->stats().peak_live_runs); });
  telemetry_.registry().counter_fn(
      "qon_engine_events_total",
      "Step events dispatched (submits + reposts + resumes)",
      [this] { return static_cast<double>(engine_->stats().events_dispatched); });
}

// Default: engine_ is declared last, so it is destroyed first and drains
// every live run while the scheduler service (declared just before it) is
// still firing the cycles their parked tasks resume through; the service
// then flushes and joins.
Qonductor::~Qonductor() = default;

void Qonductor::shutdown() {
  // Order matters: draining the engine first lets live runs keep parking
  // quantum tasks in the (still live) scheduler service and resuming off
  // its cycles; the service then drains its pending queue with a final
  // flush cycle.
  engine_->shutdown();
  if (scheduler_service_) scheduler_service_->shutdown();
}

void Qonductor::advance_fleet_clock(double up_to) {
  // Callers hold engine_mutex_, so a plain read-modify-write is race-free;
  // the atomic store publishes the frontier to lock-free readers.
  if (up_to > fleet_clock_.load(std::memory_order_relaxed)) {
    fleet_clock_.store(up_to, std::memory_order_release);
  }
}

void Qonductor::advanceFleetClock(double up_to) {
  MutexLock lock(engine_mutex_);
  advance_fleet_clock(up_to);
}

void Qonductor::recalibrateFleet() {
  MutexLock lock(engine_mutex_);
  fleet_.recalibrate_all(rng_, fleet_clock_.load(std::memory_order_relaxed));
}

std::vector<sched::QpuState> Qonductor::snapshot_qpu_states_locked(
    double reference) const {
  // The monitor's table is built in fleet order: flags[q] is backend q.
  const std::vector<QpuInfo> flags = monitor_.qpus();
  std::vector<sched::QpuState> states;
  states.reserve(fleet_.backends.size());
  for (std::size_t q = 0; q < fleet_.backends.size(); ++q) {
    sched::QpuState state;
    state.name = fleet_.backends[q]->name();
    state.size = fleet_.backends[q]->num_qubits();
    state.queue_wait_seconds = std::max(0.0, qpu_available_at_[q] - reference);
    // A QPU is schedulable only when healthy AND not reserved (§7).
    state.online = flags[q].online && !flags[q].reserved;
    states.push_back(std::move(state));
  }
  return states;
}

// ---- v1 request/response surface ---------------------------------------------

api::Result<api::CreateWorkflowResponse> Qonductor::createWorkflow(
    api::CreateWorkflowRequest request) {
  if (request.tasks.empty()) {
    return api::InvalidArgument("createWorkflow: workflow has no tasks");
  }
  yaml::Node config;
  if (!request.yaml_config.empty()) {
    try {
      config = yaml::parse(request.yaml_config);
    } catch (const std::exception& e) {
      return api::InvalidArgument(std::string("createWorkflow: bad deployment config: ") +
                                  e.what());
    }
  }
  api::CreateWorkflowResponse response;
  {
    MutexLock lock(registry_mutex_);
    response.image = registry_.register_image(
        std::move(request.name), workflow::chain_workflow(std::move(request.tasks)),
        std::move(config));
  }
  return response;
}

api::Result<api::DeployResponse> Qonductor::deploy(const api::DeployRequest& request) {
  MutexLock lock(registry_mutex_);
  const workflow::WorkflowImage* img = registry_.find(request.image);
  if (img == nullptr) {
    return api::NotFound("deploy: unknown image " + std::to_string(request.image));
  }
  const auto it = deployed_.find(request.image);
  if (it != deployed_.end() && it->second) {
    return api::AlreadyExists("deploy: image " + std::to_string(request.image) +
                              " is already deployed");
  }
  // Validate quantum tasks against the fleet (client QPU-size constraints).
  for (workflow::TaskId t = 0; t < img->dag.size(); ++t) {
    const auto& task = img->dag.task(t);
    if (task.kind != workflow::TaskKind::kQuantum) continue;
    bool fits = false;
    for (const auto& backend : fleet_.backends) {
      if (task.circ.num_qubits() <= backend->num_qubits()) fits = true;
    }
    if (!fits) {
      return api::ResourceExhausted("deploy: task '" + task.name + "' fits no QPU");
    }
  }
  deployed_[request.image] = true;
  api::DeployResponse response;
  response.image = request.image;
  return response;
}

namespace {

api::Status validate_preferences(const api::JobPreferences& preferences) {
  // The negated comparisons also reject NaN.
  if (preferences.fidelity_weight &&
      !(*preferences.fidelity_weight >= 0.0 && *preferences.fidelity_weight <= 1.0)) {
    return api::InvalidArgument(
        "invoke: preferences.fidelity_weight must be in [0, 1]");
  }
  if (preferences.deadline_seconds && !(*preferences.deadline_seconds >= 0.0)) {
    return api::InvalidArgument(
        "invoke: preferences.deadline_seconds must be >= 0 (fleet virtual clock)");
  }
  // The priority later indexes kNumPriorities-sized lanes/stats arrays, so
  // an enum value smuggled in from a wire layer must be rejected here.
  if (static_cast<std::size_t>(preferences.priority) >= api::kNumPriorities) {
    return api::InvalidArgument("invoke: preferences.priority is not a valid Priority");
  }
  return api::Status::Ok();
}

}  // namespace

api::JobPreferences Qonductor::effective_preferences(
    const api::JobPreferences& requested) const {
  api::JobPreferences effective = requested;
  if (!effective.fidelity_weight) effective.fidelity_weight = config_.fidelity_weight;
  return effective;
}

api::Status Qonductor::validate_invoke(const api::InvokeRequest& request,
                                       const workflow::WorkflowImage** image_out) const {
  if (api::Status status = validate_preferences(request.preferences); !status.ok()) {
    return status;
  }
  // Deadline-aware admission: a deadline at/before the fleet-clock
  // frontier is dead on arrival — dispatch happens at or after the
  // frontier, so such a deadline has zero scheduling slack. Every
  // dispatch-time check (take_expired, the mid-batch filter, the immediate
  // path) uses the same inclusive boundary: dispatch exactly at the
  // deadline is a miss. Rejecting at submit beats parking the job until a
  // scheduling cycle discovers the miss.
  // Part of validation, so invokeAll stays atomic: one dead-on-arrival
  // deadline rejects the whole batch.
  if (request.preferences.deadline_seconds) {
    const double frontier = fleetNow();
    if (*request.preferences.deadline_seconds <= frontier) {
      return api::DeadlineExceeded(
          "invoke: deadline t=" + std::to_string(*request.preferences.deadline_seconds) +
          " s lies at/before the fleet clock frontier t=" + std::to_string(frontier) +
          " s — unmeetable at submit time");
    }
  }
  MutexLock lock(registry_mutex_);
  const workflow::WorkflowImage* img = registry_.find(request.image);
  if (img == nullptr) {
    return api::NotFound("invoke: unknown image " + std::to_string(request.image));
  }
  const auto it = deployed_.find(request.image);
  if (it == deployed_.end() || !it->second) {
    return api::FailedPrecondition("invoke: image " + std::to_string(request.image) +
                                   " is not deployed");
  }
  *image_out = img;  // registry is append-only: the pointer stays valid
  return api::Status::Ok();
}

api::Result<api::RunHandle> Qonductor::start_run(const workflow::WorkflowImage* image,
                                                 api::JobPreferences preferences) {
  const api::Priority priority = preferences.priority;
  auto state = std::make_shared<api::RunState>();
  state->image = image->id;
  state->preferences = std::move(preferences);
  const double submitted_at = fleetNow();
  {
    // The record is not shared with any other thread until insert() below,
    // but submitted_at is guarded state: the (uncontended) record lock
    // keeps the guarded_by contract uniform outside the constructor.
    MutexLock lock(state->mutex);
    state->submitted_at = submitted_at;
  }
  const RunId run = run_table_.insert(state);
  auto cont = std::make_shared<RunContinuation>();
  cont->state = state;
  cont->image = image;
  cont->order = image->dag.topological_order();
  cont->finish.assign(image->dag.size(), 0.0);
  cont->result.run = run;
  if (telemetry_.tracing_enabled()) {
    // The trace starts before the engine submit so the submit point is
    // always the first span, even if the first engine step runs instantly.
    cont->trace = telemetry_.tracer().start(run);
    cont->trace->record(telemetry_.tracer().point(
        "submit", submitted_at, "image=" + std::to_string(image->id)));
    cont->trace->record(telemetry_.tracer().point(
        "admitted", submitted_at,
        std::string("priority=") + api::priority_name(priority)));
  }
  if (!engine_->submit(std::move(cont))) {
    // The engine rejected the run (shutdown). Retract the record and fail
    // the state so no waiter can block forever on a run that will never
    // execute.
    run_table_.erase(run);
    {
      MutexLock lock(state->mutex);
      state->status = api::RunStatus::kFailed;
      state->finished_at = fleetNow();
      state->result.run = run;
      state->result.status = api::RunStatus::kFailed;
      state->result.error = api::Unavailable("executor shutting down");
    }
    state->cv.notify_all();
    return api::Unavailable("invoke: run engine is shutting down, run " +
                            std::to_string(run) + " rejected");
  }
  return api::RunHandle(state);
}

std::size_t Qonductor::admission_limit(api::Priority priority) const {
  const std::size_t max = config_.admission.max_live_runs;
  const auto share = [max](double fraction) {
    // Round to nearest, floored at 1: a tiny bound must still admit at
    // least one run of every class when the system is idle.
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(fraction * static_cast<double>(max) + 0.5));
  };
  switch (priority) {
    case api::Priority::kBatch: return share(config_.admission.shed_batch_at);
    case api::Priority::kStandard: return share(config_.admission.shed_standard_at);
    case api::Priority::kInteractive: break;
  }
  return max;  // interactive: only a fully loaded system sheds it
}

api::Status Qonductor::admit_run(api::Priority priority, std::size_t already_admitted) {
  if (config_.admission.max_live_runs == 0) return api::Status::Ok();  // gate off
  // `already_admitted` counts earlier entries of the same invokeAll batch:
  // they are not live in the engine yet, but admitting the batch must not
  // overshoot the bound by its own length.
  const std::size_t live = engine_->live_runs() + already_admitted;
  const std::size_t limit = admission_limit(priority);
  if (live < limit) return api::Status::Ok();
  admission_shed_[static_cast<std::size_t>(priority)]->inc();
  // Rate-limited: during a flash crowd every rejected invoke lands here, and
  // thousands of identical lines would convoy the callers on the logging
  // mutex. One line per 100 sheds, carrying the suppressed count.
  static LogRateLimiter shed_limiter(100);
  if (std::uint64_t suppressed = 0;
      Logger::enabled(LogLevel::kInfo) && shed_limiter.allow(&suppressed)) {
    orch_log().info("admission gate shed run", {{"priority", api::priority_name(priority)},
                                                {"live", live},
                                                {"limit", limit},
                                                {"suppressed", suppressed}});
  }
  return api::ResourceExhausted(
             "invoke: admission gate shed " +
             std::string(api::priority_name(priority)) + "-class run (" +
             std::to_string(live) + " live runs >= class limit " +
             std::to_string(limit) + " of max " +
             std::to_string(config_.admission.max_live_runs) + ")")
      .set_retry_after(config_.admission.retry_after_seconds);
}

api::Result<api::RunHandle> Qonductor::invoke(const api::InvokeRequest& request) {
  if (!init_status_.ok()) return init_status_;
  const workflow::WorkflowImage* img = nullptr;
  if (api::Status status = validate_invoke(request, &img); !status.ok()) return status;
  // Overload shedding after validation: a malformed request stays a
  // validation error even under load, and a shed response always means the
  // request itself was viable.
  if (api::Status status = admit_run(request.preferences.priority, 0); !status.ok()) {
    return status;
  }
  auto handle = start_run(img, effective_preferences(request.preferences));
  if (handle.ok()) {
    admission_accepted_[static_cast<std::size_t>(request.preferences.priority)]->inc();
  }
  return handle;
}

api::Result<std::vector<api::RunHandle>> Qonductor::invokeAll(
    const std::vector<api::InvokeRequest>& requests) {
  if (!init_status_.ok()) return init_status_;
  // Validate the whole batch before starting anything: an invalid entry
  // rejects the batch atomically.
  std::vector<const workflow::WorkflowImage*> images(requests.size(), nullptr);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (api::Status status = validate_invoke(requests[i], &images[i]); !status.ok()) {
      return api::Status(status.code(), "invokeAll[" + std::to_string(i) + "]: " +
                                            status.message());
    }
  }
  // Second pre-flight pass: the batch is admitted atomically too, counting
  // its own earlier entries against the bound so a 1000-run batch cannot
  // blow through a 100-run gate in one call.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (api::Status status = admit_run(requests[i].preferences.priority, i);
        !status.ok()) {
      api::Status prefixed(status.code(), "invokeAll[" + std::to_string(i) +
                                              "]: " + status.message());
      if (status.retry_after_seconds()) {
        prefixed.set_retry_after(*status.retry_after_seconds());
      }
      return prefixed;
    }
  }
  std::vector<api::RunHandle> handles;
  handles.reserve(requests.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    auto handle = start_run(images[i], effective_preferences(requests[i].preferences));
    if (!handle.ok()) {
      // Only reachable when the executor shuts down mid-batch. Runs queued
      // before the failure keep executing and stay queryable by run id; the
      // failed run itself was retracted by start_run.
      return api::Status(handle.status().code(), "invokeAll[" + std::to_string(i) +
                                                     "]: " + handle.status().message());
    }
    admission_accepted_[static_cast<std::size_t>(requests[i].preferences.priority)]->inc();
    handles.push_back(*std::move(handle));
  }
  return handles;
}

api::Result<api::RunHandle> Qonductor::runHandle(RunId run) const {
  auto state = run_table_.find(run);
  if (!state) {
    return api::NotFound("runHandle: unknown run " + std::to_string(run));
  }
  return api::RunHandle(std::move(state));
}

api::Result<api::GetRunResponse> Qonductor::getRun(const api::GetRunRequest& request) const {
  auto state = run_table_.find(request.run);
  if (!state) {
    return api::NotFound("getRun: unknown run " + std::to_string(request.run));
  }
  auto info = api::RunHandle(std::move(state)).info();
  if (!info.ok()) return info.status();
  api::GetRunResponse response;
  response.info = *std::move(info);
  return response;
}

api::Result<api::ListRunsResponse> Qonductor::listRuns(
    const api::ListRunsRequest& request) const {
  if (request.page_size == 0) {
    // Used to be silently clamped to 1 — a caller asking for nothing got
    // one run back. Reject malformed paging instead.
    return api::InvalidArgument("listRuns: page_size must be >= 1 (at most " +
                                std::to_string(api::kMaxListRunsPageSize) + ")");
  }
  const std::size_t page_size = std::min(request.page_size, api::kMaxListRunsPageSize);
  api::ListRunsResponse response;
  // The table is bounded by the retention policy, so snapshotting the tail
  // beyond the page token is cheap; filters apply to the live status.
  for (const auto& state : run_table_.list_after(request.page_token)) {
    auto info = api::RunHandle(state).info();
    if (!info.ok()) continue;  // unreachable: table states are never empty
    if (request.status.has_value() && info->status != *request.status) continue;
    if (request.image != 0 && info->image != request.image) continue;
    if (response.runs.size() == page_size) {
      // One more match exists beyond this page: hand out a resume token.
      response.next_page_token = response.runs.back().run;
      break;
    }
    response.runs.push_back(*std::move(info));
  }
  return response;
}

api::Result<api::GetSchedulerStatsResponse> Qonductor::getSchedulerStats(
    const api::GetSchedulerStatsRequest&) const {
  api::GetSchedulerStatsResponse response;
  response.config = to_config_view(config_.scheduler_service);
  if (scheduler_service_) response.stats = scheduler_service_->stats();
  return response;
}

api::Result<api::GetAdmissionStatsResponse> Qonductor::getAdmissionStats(
    const api::GetAdmissionStatsRequest&) const {
  api::GetAdmissionStatsResponse response;
  // A view over the same registry counters getMetrics exports — shape and
  // semantics unchanged from the pre-registry atomics.
  for (std::size_t p = 0; p < api::kNumPriorities; ++p) {
    response.stats.accepted[p] = admission_accepted_[p]->value();
    response.stats.shed[p] = admission_shed_[p]->value();
  }
  response.stats.live_runs = engine_->live_runs();
  response.stats.max_live_runs = config_.admission.max_live_runs;
  if (scheduler_service_) {
    response.stats.waitlist_depth = scheduler_service_->waitlist_depth();
    response.stats.waitlist_high_watermark =
        scheduler_service_->waitlist_high_watermark();
    response.stats.waitlist_parks = scheduler_service_->waitlist_parks();
  }
  return response;
}

api::Result<api::GetRunTraceResponse> Qonductor::getRunTrace(
    const api::GetRunTraceRequest& request) const {
  if (!telemetry_.tracing_enabled()) {
    return api::FailedPrecondition(
        "getRunTrace: tracing is disabled (QonductorConfig::telemetry.tracing)");
  }
  auto trace = telemetry_.tracer().trace(request.run);
  if (!trace.ok()) return trace.status();
  api::GetRunTraceResponse response;
  response.trace = *std::move(trace);
  return response;
}

api::Result<api::GetMetricsResponse> Qonductor::getMetrics(
    const api::GetMetricsRequest&) const {
  api::GetMetricsResponse response;
  response.snapshot = telemetry_.snapshot(fleetNow());
  return response;
}

api::Result<api::GetHealthResponse> Qonductor::getHealth(
    const api::GetHealthRequest&) const {
  api::GetHealthResponse response;
  response.components = health_.check();
  response.status = obs::HealthMonitor::overall(response.components);
  if (slo_) {
    const double now = fleetNow();
    // Advancing the alert state machines here makes getHealth the live
    // evaluation point (the campaign driver runs its own monitor on its
    // stats cadence instead, for determinism).
    for (const obs::AlertTransition& transition : slo_->evaluate(now)) {
      orch_log().warn("slo alert transition",
                      {{"rule", transition.rule},
                       {"priority", api::priority_name(transition.priority)},
                       {"state", api::alert_state_name(transition.state)},
                       {"t", transition.at_virtual},
                       {"fast_burn", transition.fast_burn},
                       {"slow_burn", transition.slow_burn}});
    }
    response.alerts = slo_->alerts(now);
    for (const api::AlertInfo& alert : response.alerts) {
      if (alert.state == api::AlertState::kFiring &&
          response.status == api::HealthStatus::kHealthy) {
        // A firing burn-rate alert is trouble even when every component
        // beats: the service is alive but not meeting its SLOs.
        response.status = api::HealthStatus::kDegraded;
      }
    }
  }
  return response;
}

api::Result<api::ReserveQpuResponse> Qonductor::reserveQpu(
    const api::ReserveQpuRequest& request) {
  if (request.duration_seconds && !(*request.duration_seconds > 0.0)) {
    // The negated comparison also rejects NaN.
    return api::InvalidArgument(
        "reserveQpu: duration_seconds must be > 0 (omit for an open-ended reservation)");
  }
  // reservations_mutex_ spans the flag flip AND the window-map update, so
  // the reservation epoch and its deadline change together: an expiry
  // sweep can never observe (and release) a half-installed reservation.
  // The monitor's own mutex nests inside; the flag flip itself stays
  // atomic against device-manager health writes.
  MutexLock lock(reservations_mutex_);
  const auto previous = monitor_.set_qpu_reserved(request.qpu, true);
  if (!previous) {
    return api::NotFound("reserveQpu: unknown QPU '" + request.qpu + "'");
  }
  if (*previous) {
    return api::AlreadyExists("reserveQpu: QPU '" + request.qpu +
                              "' is already reserved");
  }
  api::ReserveQpuResponse response;
  response.qpu = request.qpu;
  if (request.duration_seconds) {
    // Time-windowed reservation: scheduled for auto-release by the first
    // scheduling snapshot taken at/after the virtual deadline.
    const double release_at = fleetNow() + *request.duration_seconds;
    reservation_release_at_[request.qpu] = release_at;
    response.release_at = release_at;
  }
  return response;
}

api::Result<api::ReleaseQpuResponse> Qonductor::releaseQpu(
    const api::ReleaseQpuRequest& request) {
  // Clears only the reservation: a QPU the device manager took offline
  // for health reasons stays out of rotation. Under reservations_mutex_
  // (see reserveQpu) so the flag and the window deadline change together —
  // an explicit release ends any time window early, and a later
  // reservation never inherits a stale deadline.
  MutexLock lock(reservations_mutex_);
  const auto previous = monitor_.set_qpu_reserved(request.qpu, false);
  if (!previous) {
    return api::NotFound("releaseQpu: unknown QPU '" + request.qpu + "'");
  }
  if (!*previous) {
    return api::FailedPrecondition("releaseQpu: QPU '" + request.qpu +
                                   "' is not reserved");
  }
  reservation_release_at_.erase(request.qpu);
  api::ReleaseQpuResponse response;
  response.qpu = request.qpu;
  return response;
}

void Qonductor::expire_reservations(double now) {
  // The flag write happens inside reservations_mutex_, like reserveQpu/
  // releaseQpu: erasing the window and releasing the flag must be one
  // atomic step, or a releaseQpu+reserveQpu pair interleaved between them
  // would have its brand-new reservation silently released by this sweep.
  MutexLock lock(reservations_mutex_);
  for (auto it = reservation_release_at_.begin();
       it != reservation_release_at_.end();) {
    if (it->second <= now) {
      monitor_.set_qpu_reserved(it->first, false);
      it = reservation_release_at_.erase(it);
    } else {
      ++it;
    }
  }
}

api::Result<api::WorkflowStatusResponse> Qonductor::workflowStatus(
    const api::WorkflowStatusRequest& request) const {
  auto handle = runHandle(request.run);
  if (!handle.ok()) {
    return api::NotFound("workflowStatus: unknown run " + std::to_string(request.run));
  }
  api::WorkflowStatusResponse response;
  response.run = request.run;
  response.status = handle->poll();
  return response;
}

api::Result<api::WorkflowResultsResponse> Qonductor::workflowResults(
    const api::WorkflowResultsRequest& request) const {
  auto handle = runHandle(request.run);
  if (!handle.ok()) {
    return api::NotFound("workflowResults: unknown run " + std::to_string(request.run));
  }
  if (!request.wait && !api::run_status_terminal(handle->poll())) {
    return api::Unavailable("workflowResults: run " + std::to_string(request.run) +
                            " still in flight");
  }
  auto result = handle->result();  // blocks until terminal
  if (!result.ok()) return result.status();
  api::WorkflowResultsResponse response;
  response.result = *std::move(result);
  return response;
}

// ---- control/data-plane operations -------------------------------------------

estimator::PlanSet Qonductor::estimateResources(const circuit::Circuit& circ) const {
  return estimator::generate_resource_plans(circ, templates_, config_.plan_config);
}

sched::ScheduleDecision Qonductor::generateSchedule(const sched::SchedulingInput& input) const {
  sched::SchedulerConfig scheduler;
  scheduler.fidelity_weight = config_.fidelity_weight;
  return sched::schedule_cycle(input, scheduler);
}

std::vector<workflow::ImageId> Qonductor::listImages() const {
  MutexLock lock(registry_mutex_);
  return registry_.list();
}

// ---- data-plane execution (run-engine state machine) -------------------------

StepOutcome Qonductor::settle_run(const std::shared_ptr<RunContinuation>& cont) {
  const std::shared_ptr<api::RunState>& state = cont->state;
  const RunId run = state->id;
  const api::RunStatus terminal = cont->result.status;  // moved below
  cont->result.run = run;
  double submitted_at = 0.0;
  {
    MutexLock lock(state->mutex);
    submitted_at = state->submitted_at;
  }
  // The run's terminal virtual instant derives from its OWN events — the
  // task makespan for executed nodes, the cycle-verdict instant for a task
  // failed in scheduling — never from the fleet frontier: the frontier
  // advances with unrelated runs' executions, so reading it here would make
  // finished_at (and the latency histogram) depend on how many other runs'
  // engine events happened to be processed first. Runs that settle without
  // any virtual event of their own (cancelled before start, submit-time
  // failures) fall back to the frontier.
  double finished_at = std::max(cont->result.makespan_seconds, cont->settle_hint);
  if (finished_at <= 0.0) finished_at = fleetNow();
  finished_at = std::max(finished_at, submitted_at);
  // Terminal telemetry BEFORE the status flip: a client returning from
  // wait() (or polling the terminal status) is guaranteed the finished
  // counter, the latency sample and the settle span are already recorded —
  // a getMetrics/getRunTrace right after wait() never sees a settled run
  // missing from the registry.
  runs_finished_total_[static_cast<std::size_t>(terminal)]->inc();
  if (telemetry_.metrics_enabled()) {
    run_latency_seconds_[static_cast<std::size_t>(state->preferences.priority)]
        ->observe(std::max(0.0, finished_at - submitted_at));
  }
  if (slo_) {
    // The SLI feed: every terminal run, at its own terminal instant on the
    // virtual clock. Failed/cancelled runs burn budget regardless of speed.
    slo_->record(state->preferences.priority,
                 std::max(0.0, finished_at - submitted_at), finished_at,
                 terminal == api::RunStatus::kCompleted);
  }
  if (cont->trace) {
    cont->trace->record(telemetry_.tracer().point("settle", finished_at,
                                                  api::run_status_name(terminal)));
  }
  {
    MutexLock lock(state->mutex);
    state->result = std::move(cont->result);
    state->status = state->result.status;
    state->finished_at = finished_at;
    // Inside the state lock: a client that observes the terminal status
    // (poll/wait/result all take this lock) is guaranteed the run is
    // already GC-eligible in the table — listRuns/getRun never lag.
    run_table_.mark_terminal(run);
  }
  state->cv.notify_all();
  if (cont->trace) {
    // Outside all component locks, per the sink contract.
    telemetry_.tracer().finalize(cont->trace);
  }
  if (Logger::enabled(LogLevel::kDebug)) {
    orch_log().debug("run settled", {{"run", run},
                                     {"status", api::run_status_name(terminal)},
                                     {"latency_s", finished_at - submitted_at}});
  }
  return StepOutcome::kFinished;
}

StepOutcome Qonductor::settle_task_failure(const std::shared_ptr<RunContinuation>& cont,
                                           const std::string& task_name,
                                           const api::Status& status) {
  if (status.code() == api::StatusCode::kCancelled) {
    // The task was pulled out of the pending queue by cancel() (or refused
    // to start): the run ends kCancelled, not kFailed.
    cont->result.status = api::RunStatus::kCancelled;
    cont->result.error = api::Cancelled("run cancelled by client");
  } else {
    cont->result.status = api::RunStatus::kFailed;
    cont->result.error = api::Status(
        status.code(), "task '" + task_name + "' failed: " + status.message());
  }
  return settle_run(cont);
}

void Qonductor::record_task_result(RunContinuation& cont, workflow::TaskId node,
                                   TaskResult tr) {
  cont.finish[node] = tr.end;
  cont.result.makespan_seconds = std::max(cont.result.makespan_seconds, tr.end);
  cont.result.total_cost_dollars += tr.cost_dollars;
  if (tr.kind == workflow::TaskKind::kQuantum) {
    cont.result.min_fidelity = std::min(cont.result.min_fidelity, tr.fidelity);
  }
  cont.result.tasks.push_back(std::move(tr));
  ++cont.cursor;
}

StepOutcome Qonductor::step_run(const std::shared_ptr<RunContinuation>& cont) {
  // Capture the context up front: after a parking step registers its
  // settlement callback, `cont` may already be resuming on another worker
  // and must not be dereferenced again (the span ring locks internally).
  const obs::TraceContext trace = cont->trace;
  if (!trace) return step_run_impl(cont);
  const double virtual_start = fleetNow();
  const double wall_start = telemetry_.tracer().wall_now_us();
  const StepOutcome outcome = step_run_impl(cont);
  if (outcome != StepOutcome::kFinished) {
    // The finishing step's settle point stays the trace's last span (and
    // the sink already exported it from settle_run).
    trace->record(telemetry_.tracer().span(
        "engine_step", virtual_start, fleetNow(), wall_start,
        outcome == StepOutcome::kParked ? "parked" : "progress"));
  }
  return outcome;
}

StepOutcome Qonductor::step_run_impl(const std::shared_ptr<RunContinuation>& cont) {
  const std::shared_ptr<api::RunState>& state = cont->state;
  const RunId run = state->id;

  if (!cont->started) {
    // First event: kPending -> kRunning, or cancel-before-start.
    bool cancelled_before_start = false;
    {
      MutexLock lock(state->mutex);
      if (state->cancel_requested) {
        cancelled_before_start = true;
      } else {
        state->status = api::RunStatus::kRunning;
        state->started_at = fleetNow();
      }
    }
    if (cancelled_before_start) {
      cont->result.status = api::RunStatus::kCancelled;
      cont->result.error = api::Cancelled("run cancelled before execution started");
      return settle_run(cont);
    }
    state->cv.notify_all();
    cont->started = true;
  }

  if (cont->parked) {
    // Resume event: collect the settled quantum task's verdict. The park
    // context moves out first — whatever happens next, this continuation
    // is no longer "mid-quantum-task".
    const std::shared_ptr<PendingQuantumTask> pending = std::move(cont->parked);
    const std::shared_ptr<const QuantumTaskPrep> prep = std::move(cont->parked_prep);
    const double ready_at = cont->parked_ready;
    cont->parked = nullptr;
    cont->parked_prep = nullptr;
    {
      MutexLock lock(state->mutex);
      state->unpark = nullptr;
    }
    const workflow::TaskId node = cont->order[cont->cursor];
    const auto& task = cont->image->dag.task(node);
    if (!pending->error.ok()) {
      // Resume-with-error: cancel ends the run kCancelled; a cycle verdict
      // (DEADLINE_EXCEEDED / RESOURCE_EXHAUSTED / UNAVAILABLE) ends it
      // kFailed. Results of nodes that already ran stay in the report;
      // this node contributes only the error. The verdict instant becomes
      // the run's virtual finish time (no task executed to move makespan).
      cont->settle_hint = std::max(cont->settle_hint, pending->dispatched_at);
      return settle_task_failure(cont, task.name, pending->error);
    }
    if (cont->trace) {
      // The cycle's verdict fields are stable after settlement (see
      // pending_queue.hpp) — stamp the dispatch edge at the cycle's own
      // virtual fire time.
      cont->trace->record(telemetry_.tracer().point(
          "dispatch", pending->dispatched_at,
          "qpu=" + std::to_string(pending->assigned_qpu)));
    }
    try {
      const double exec_wall_start =
          cont->trace ? telemetry_.tracer().wall_now_us() : 0.0;
      TaskResult tr;
      {
        MutexLock lock(engine_mutex_);
        tr = execute_quantum_locked(
            task, *prep, static_cast<std::size_t>(pending->assigned_qpu), ready_at,
            pending->dispatched_at);
      }
      if (cont->trace) {
        cont->trace->record(telemetry_.tracer().span(
            "qpu_exec", tr.start, tr.end, exec_wall_start, "resource=" + tr.resource));
      }
      record_task_result(*cont, node, std::move(tr));
    } catch (const std::exception& e) {
      return settle_task_failure(cont, task.name, api::Internal(e.what()));
    }
    return StepOutcome::kProgress;
  }

  // Completion is checked BEFORE cooperative cancellation: once the last
  // node has executed there is no work left to cancel, and a cancel()
  // that races the final bookkeeping event must not relabel a fully
  // executed run kCancelled (the pre-engine loop never re-checked cancel
  // after the last task either).
  if (cont->cursor == cont->order.size()) {
    cont->result.status = api::RunStatus::kCompleted;
    return settle_run(cont);
  }

  // Cooperative cancellation at every remaining task boundary.
  bool cancelled = false;
  {
    MutexLock lock(state->mutex);
    cancelled = state->cancel_requested;
  }
  if (cancelled) {
    cont->result.status = api::RunStatus::kCancelled;
    cont->result.error = api::Cancelled("run cancelled by client");
    return settle_run(cont);
  }

  const workflow::TaskId node = cont->order[cont->cursor];
  const auto& task = cont->image->dag.task(node);
  if (config_.on_task_start) config_.on_task_start(run, task.name);
  double ready = 0.0;
  for (const workflow::TaskId dep : cont->image->dag.dependencies(node)) {
    ready = std::max(ready, cont->finish[dep]);
  }
  try {
    if (task.kind == workflow::TaskKind::kQuantum && scheduler_service_) {
      // Batch path (§7): the task parks in the pending queue with a resume
      // callback; no worker blocks on the scheduling cycle.
      return park_quantum_task(cont, task, ready);
    }
    const double exec_wall_start =
        cont->trace ? telemetry_.tracer().wall_now_us() : 0.0;
    api::Result<TaskResult> executed = task.kind == workflow::TaskKind::kQuantum
                                           ? run_quantum_immediate(state, task, ready)
                                           : run_classical_task(task, ready);
    if (!executed.ok()) {
      return settle_task_failure(cont, task.name, executed.status());
    }
    if (cont->trace) {
      cont->trace->record(telemetry_.tracer().span(
          task.kind == workflow::TaskKind::kQuantum ? "qpu_exec" : "task_classical",
          executed->start, executed->end, exec_wall_start,
          "resource=" + executed->resource));
    }
    record_task_result(*cont, node, *std::move(executed));
  } catch (const std::exception& e) {
    return settle_task_failure(cont, task.name, api::Internal(e.what()));
  }
  return StepOutcome::kProgress;
}

std::uint64_t Qonductor::calibration_fingerprint() const {
  // FNV-style combine over per-backend calibration cycles: any single
  // recalibration moves the fingerprint and invalidates the prep cache.
  std::uint64_t fp = 1469598103934665603ULL;
  for (const auto& backend : fleet_.backends) {
    fp ^= backend->calibration().cycle + 0x9e3779b97f4a7c15ULL + (fp << 6) + (fp >> 2);
  }
  return fp;
}

std::shared_ptr<const QuantumTaskPrep> Qonductor::prepare_quantum_task(
    const workflow::HybridTask& task) const {
  // Pure function of the (immutable) circuit, the backends and their
  // calibrations — so a burst of runs of one image shares a single prep
  // instead of re-transpiling per run. Keyed by the task's address: the
  // registry is append-only, so task addresses are stable and unique.
  const std::uint64_t fingerprint = calibration_fingerprint();
  {
    MutexLock lock(prep_cache_mutex_);
    if (fingerprint != prep_cache_fingerprint_) {
      prep_cache_.clear();  // fleet recalibrated: every estimate is stale
      prep_cache_order_.clear();
      prep_cache_fingerprint_ = fingerprint;
    }
    const auto it = prep_cache_.find(&task);
    if (it != prep_cache_.end()) {
      prep_cache_hits_->inc();
      return it->second;
    }
  }
  prep_cache_misses_->inc();

  auto prep = std::make_shared<QuantumTaskPrep>();
  prep->transpiled.reserve(fleet_.backends.size());
  for (const auto& backend : fleet_.backends) {
    prep->transpiled.push_back(transpiler::transpile(task.circ, *backend));
    const auto& t = prep->transpiled.back();
    const auto sig = mitigation::compute_signature(
        task.mitigation, static_cast<std::size_t>(task.circ.num_qubits()),
        static_cast<std::size_t>(t.circuit.depth()), t.circuit.two_qubit_gate_count(),
        static_cast<std::size_t>(t.circuit.num_clbits()),
        backend->calibration().mean_gate_error_2q(), task.accelerator);
    prep->est_fidelity.push_back(estimator::predicted_fidelity(t.circuit, *backend, sig));
    prep->est_exec_seconds.push_back(
        transpiler::job_quantum_runtime(t.schedule, task.shots, *backend) *
        sig.quantum_runtime_multiplier);
  }

  MutexLock lock(prep_cache_mutex_);
  if (fingerprint != prep_cache_fingerprint_) {
    // Recalibrated while we were transpiling: serve this prep to the
    // caller (its estimates matched the inputs it saw) but don't cache it.
    return prep;
  }
  // Concurrent executors may have prepared the same task; keep the first.
  const auto [it, inserted] = prep_cache_.emplace(&task, std::move(prep));
  if (inserted) {
    prep_cache_order_.push_back(&task);
    while (prep_cache_.size() > kPrepCacheCapacity) {
      // The registry is unbounded; the cache is not. Evict oldest first.
      prep_cache_.erase(prep_cache_order_.front());
      prep_cache_order_.pop_front();
    }
  }
  return it->second;
}

TaskResult Qonductor::execute_quantum_locked(const workflow::HybridTask& task,
                                             const QuantumTaskPrep& prep, std::size_t q,
                                             double ready_at, double not_before) {
  const auto& backend = *fleet_.backends[q];
  const auto& chosen = prep.transpiled[q];

  TaskResult result;
  result.name = task.name;
  result.kind = workflow::TaskKind::kQuantum;
  result.resource = backend.name();
  result.start = std::max({ready_at, qpu_available_at_[q], not_before});
  result.end = result.start + prep.est_exec_seconds[q];
  qpu_available_at_[q] = result.end;

  // Count active qubits to decide between exact trajectory simulation and
  // the analytic ground-truth model.
  std::vector<bool> active(static_cast<std::size_t>(chosen.circuit.num_qubits()), false);
  int n_active = 0;
  for (const auto& g : chosen.circuit.gates()) {
    for (int i = 0; i < g.arity(); ++i) {
      if (!active[static_cast<std::size_t>(g.qubit(i))]) {
        active[static_cast<std::size_t>(g.qubit(i))] = true;
        ++n_active;
      }
    }
  }
  const auto sig = mitigation::compute_signature(
      task.mitigation, static_cast<std::size_t>(task.circ.num_qubits()),
      static_cast<std::size_t>(chosen.circuit.depth()), chosen.circuit.two_qubit_gate_count(),
      static_cast<std::size_t>(chosen.circuit.num_clbits()),
      backend.calibration().mean_gate_error_2q(), task.accelerator);
  if (n_active <= config_.trajectory_width_limit && !sig.cuts_circuit) {
    sim::TrajectoryOptions opts;
    opts.delay_dephasing_residual = sig.delay_dephasing_residual;
    result.counts = sim::run_noisy(chosen.circuit, backend, task.shots, rng_, hidden_, opts);
    const double raw =
        sim::hellinger_fidelity(result.counts, sim::ideal_distribution(task.circ));
    result.fidelity = mitigation::mitigated_fidelity(raw, sig);
  } else {
    result.fidelity = estimator::executed_fidelity(chosen.circuit, backend, sig, hidden_,
                                                   1.08, task.shots, rng_);
  }
  result.cost_dollars = estimator::job_cost_dollars(
      prep.est_exec_seconds[q],
      sig.classical_preprocess_seconds + sig.classical_postprocess_seconds, task.accelerator,
      config_.plan_config.prices);
  advance_fleet_clock(result.end);
  return result;
}

StepOutcome Qonductor::park_quantum_task(const std::shared_ptr<RunContinuation>& cont,
                                         const workflow::HybridTask& task,
                                         double ready_at) {
  const std::shared_ptr<api::RunState>& state = cont->state;
  // Effective per-run QoS: fidelity_weight was resolved at invoke().
  const api::JobPreferences& prefs = state->preferences;
  std::shared_ptr<const QuantumTaskPrep> prep = prepare_quantum_task(task);

  auto pending = std::make_shared<PendingQuantumTask>();
  pending->run = state->id;
  pending->task_name = task.name;
  pending->qubits = task.circ.num_qubits();
  pending->shots = task.shots;
  pending->ready_at = ready_at;
  pending->enqueued_at = fleetNow();
  // Resolved by effective_preferences() at invoke(): always set here.
  pending->fidelity_weight = *prefs.fidelity_weight;
  pending->deadline_seconds = prefs.deadline_seconds;
  pending->priority = prefs.priority;
  pending->est_fidelity = prep->est_fidelity;
  pending->est_exec_seconds = prep->est_exec_seconds;
  if (cont->trace) {
    // Request-half fields: the scheduler thread reads them under the same
    // happens-before as the rest (the queue's lock hand-off) and records
    // queue_wait / cycle-stage spans into the ring before settlement.
    pending->trace = cont->trace;
    pending->enqueued_wall_us = telemetry_.tracer().wall_now_us();
    cont->trace->record(telemetry_.tracer().point(
        "park", pending->enqueued_at,
        "task=" + task.name + " priority=" + api::priority_name(prefs.priority)));
  }
  if (Logger::enabled(LogLevel::kDebug)) {
    orch_log().debug("quantum task parked",
                     {{"run", state->id},
                      {"task", task.name},
                      {"priority", api::priority_name(prefs.priority)}});
  }

  // Expose the parked task to cancel(): failing it and pulling it out of
  // the queue resumes the run immediately instead of at dispatch. fail()
  // is first-writer-wins, so a racing cycle completion is a no-op.
  {
    MutexLock lock(state->mutex);
    if (state->cancel_requested) {
      cont->result.status = api::RunStatus::kCancelled;
      cont->result.error = api::Cancelled("run cancelled by client");
    } else {
      state->unpark = [service = std::weak_ptr<SchedulerService>(scheduler_service_),
                       pending] {
        pending->fail(api::Cancelled("run cancelled while parked in the pending queue"),
                      pending->enqueued_at);
        if (auto live = service.lock()) live->remove_pending(pending);
      };
    }
  }
  if (!cont->result.error.ok()) return settle_run(cont);

  // Park context before the settlement callback goes live: the instant
  // on_settled is registered, a racing settlement (cycle dispatch, cancel,
  // queue close) may resume the continuation on another worker — nothing
  // below this point may touch `cont` except through the engine.
  cont->parked = pending;
  cont->parked_prep = std::move(prep);
  cont->parked_ready = ready_at;
  pending->on_settled([this, cont] { engine_->resume(cont); });

  // Non-blocking hand-off: a full queue waitlists the task (promoted into
  // the queue FIFO-by-priority as cycles free capacity) instead of blocking
  // this engine worker — one flooded queue must not convoy the whole
  // event-driven engine.
  const PendingQueue::Offer offer = scheduler_service_->offer(pending);
  if (offer == PendingQueue::Offer::kClosed) {
    // The closing queue rejected the offer: settle the task sideways so the
    // resume event fires. If a concurrent cancel() settled it first, the
    // cancel verdict stands (first writer wins) and the run ends
    // kCancelled as cancel()'s true return promised.
    pending->fail(api::Unavailable("park_quantum_task: scheduler service is shutting down"),
                  pending->enqueued_at);
    return StepOutcome::kParked;
  }
  if (offer == PendingQueue::Offer::kWaitlisted) {
    // Rate-limited: under sustained overload every park lands here, and
    // per-event warn lines would convoy the engine workers on the logging
    // mutex — the very convoy the waitlist exists to avoid.
    static LogRateLimiter waitlist_limiter(100);
    if (std::uint64_t suppressed = 0;
        Logger::enabled(LogLevel::kWarn) && waitlist_limiter.allow(&suppressed)) {
      orch_log().warn("pending queue full, task waitlisted",
                      {{"run", pending->run},
                       {"task", pending->task_name},
                       {"suppressed", suppressed}});
    }
  }
  if (pending->settled()) {
    // cancel() fired between installing the hook and the push, so its
    // queue removal was a no-op and we just enqueued a settled ghost:
    // reclaim the slot before it counts toward thresholds/capacity.
    scheduler_service_->remove_pending(pending);
  }
  return StepOutcome::kParked;
}

api::Result<TaskResult> Qonductor::run_quantum_immediate(
    const std::shared_ptr<api::RunState>& state, const workflow::HybridTask& task,
    double ready_at) {
  const RunId run = state->id;
  // Effective per-run QoS: fidelity_weight was resolved at invoke().
  const api::JobPreferences& prefs = state->preferences;
  const std::shared_ptr<const QuantumTaskPrep> prep = prepare_quantum_task(task);

  // A single-job scheduling cycle inline, with queue waits measured
  // relative to the task's own ready time. Reservation windows expire
  // against the monotone fleet-clock frontier only — one job's late DAG
  // ready time must not release a window early for every concurrent run.
  MutexLock lock(engine_mutex_);
  expire_reservations(fleet_clock_.load(std::memory_order_relaxed));
  if (prefs.deadline_seconds) {
    // Dispatch-time deadline check, mirroring the batch path: dispatch
    // happens at the fleet frontier (or the task's ready time, whichever
    // is later), and a task at or past its deadline must not consume a QPU
    // — dispatching exactly at the deadline leaves zero slack, the same
    // inclusive boundary the submit-time admission and cycle expiry use.
    const double dispatch_at =
        std::max(ready_at, fleet_clock_.load(std::memory_order_relaxed));
    if (*prefs.deadline_seconds <= dispatch_at) {
      return api::DeadlineExceeded(
          "run_quantum_immediate: task '" + task.name + "' missed its deadline (t=" +
          std::to_string(*prefs.deadline_seconds) + " s, dispatched at t=" +
          std::to_string(dispatch_at) + " s)");
    }
  }
  sched::SchedulingInput input;
  input.qpus = snapshot_qpu_states_locked(ready_at);
  sched::QuantumJob job;
  job.id = run;
  job.qubits = task.circ.num_qubits();
  job.shots = task.shots;
  job.fidelity_weight = *prefs.fidelity_weight;  // resolved at invoke()
  job.est_fidelity = prep->est_fidelity;
  job.est_exec_seconds = prep->est_exec_seconds;
  input.jobs.push_back(std::move(job));

  sched::SchedulerConfig scheduler;
  scheduler.fidelity_weight = config_.fidelity_weight;
  scheduler.nsga2.seed = rng_();
  const auto decision = sched::schedule_cycle(input, scheduler);
  if (decision.assignment.empty() || decision.assignment[0] < 0) {
    return api::ResourceExhausted("run_quantum_immediate: task '" + task.name +
                                  "' fits no online QPU in the fleet");
  }
  return execute_quantum_locked(task, *prep,
                                static_cast<std::size_t>(decision.assignment[0]),
                                ready_at, 0.0);
}

api::Result<TaskResult> Qonductor::run_classical_task(const workflow::HybridTask& task,
                                                      double ready_at) {
  const int node = sched::schedule_classical(nodes_, task.request);
  if (node < 0) {
    return api::ResourceExhausted("run_classical_task: no classical node fits '" +
                                  task.name + "'");
  }
  TaskResult result;
  result.name = task.name;
  result.kind = workflow::TaskKind::kClassical;
  result.resource = nodes_[static_cast<std::size_t>(node)].name;
  result.start = ready_at;  // abundant classical capacity: no queueing
  result.end = ready_at + task.estimated_seconds / mitigation::accelerator_speedup(task.accelerator);
  result.cost_dollars = estimator::job_cost_dollars(0.0, result.end - result.start,
                                                    task.accelerator,
                                                    config_.plan_config.prices);
  MutexLock lock(engine_mutex_);
  advance_fleet_clock(result.end);
  return result;
}

}  // namespace qon::core
