#include "core/orchestrator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/logging.hpp"
#include "common/rng.hpp"
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

/// Roots of the streams derived from the config seed: one per executed
/// task (keyed by run and node), one per calibration generation.
constexpr std::uint64_t kExecutionStream = 0xe8ec0a7eULL;
constexpr std::uint64_t kCalibrationStream = 0xca1b0a7eULL;

/// Spread of the ground-truth perturbation (sim::HiddenNoise) that keeps
/// executed fidelities off the estimators' predictions.
constexpr double kHiddenSigma = 0.25;
/// The classical node pool: standard, high-end and FPGA nodes.
constexpr std::size_t kStandardNodes = 8;
constexpr std::size_t kHighendNodes = 2;
constexpr std::size_t kFpgaNodes = 1;

/// The mitigation signature of `task` transpiled to `physical` on `backend`.
mitigation::MitigationSignature task_signature(const workflow::HybridTask& task,
                                               const circuit::Circuit& physical,
                                               const qpu::Backend& backend) {
  return mitigation::compute_signature(
      task.mitigation, static_cast<std::size_t>(task.circ.num_qubits()),
      static_cast<std::size_t>(physical.depth()), physical.two_qubit_gate_count(),
      static_cast<std::size_t>(physical.num_clbits()),
      backend.calibration().mean_gate_error_2q(), task.accelerator);
}

/// Qubits of `physical` that some gate touches.
int active_qubit_count(const circuit::Circuit& physical) {
  std::vector<bool> active(static_cast<std::size_t>(physical.num_qubits()), false);
  int n_active = 0;
  for (const auto& g : physical.gates()) {
    for (int i = 0; i < g.arity(); ++i) {
      if (!active[static_cast<std::size_t>(g.qubit(i))]) {
        active[static_cast<std::size_t>(g.qubit(i))] = true;
        ++n_active;
      }
    }
  }
  return n_active;
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
      hidden_(config.seed ^ 0x9d17ULL, kHiddenSigma),
      fleet_generations_(qpu::make_ibm_like_fleet(config.num_qpus, config.seed ^ 0xf1ee7ULL)),
      templates_(fleet().template_backends()),
      nodes_(sched::make_node_pool(kStandardNodes, kHighendNodes, kFpgaNodes)),
      monitor_(backend_names(fleet())),
      run_table_(config.retention),
      telemetry_(config.telemetry) {

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
      !(config_.fidelity_weight >= 0.0 && config_.fidelity_weight <= 1.0)) {
    // The negated comparison also rejects NaN.
    init_status_ = api::InvalidArgument(
        "QonductorConfig: fidelity_weight must be in [0, 1]");
  }
  if (init_status_.ok() && !(config_.health.engine_stall_budget_seconds > 0.0)) {
    // Same rule as the scheduler budgets: NaN or <= 0 breaks the watchdog.
    init_status_ = api::InvalidArgument(
        "QonductorConfig: health.engine_stall_budget_seconds must be > 0");
  }
  if (init_status_.ok()) {
    init_status_ = obs::validate_slo_config(config_.health.slo_seconds,
                                            config_.health.alert_rules);
  }
  if (init_status_.ok()) {
    sched::SchedulerConfig cycle_config;
    cycle_config.fidelity_weight = config_.fidelity_weight;
    SchedulerServiceHooks hooks;
    hooks.now = [this] { return fleetNow(); };
    hooks.snapshot_qpus = [this](double advance_to) {
      // The test-only wedge-injection point: a blocked hook wedges only the
      // scheduler thread, never the workers executing dispatched tasks.
      if (config_.health.scheduler_fault_injection) {
        config_.health.scheduler_fault_injection();
      }
      advanceFleetClock(advance_to);
      // Reservation time windows expire at cycle boundaries: the monitor
      // releases due QPUs in the same call that snapshots the table, so
      // this very cycle schedules onto them. The table is built in fleet
      // order: flags[q] is backend q.
      const std::vector<QpuInfo> flags = monitor_.release_due(fleetNow());
      const qpu::Fleet& fleet = this->fleet();
      std::vector<sched::QpuState> states(fleet.backends.size());
      for (std::size_t q = 0; q < states.size(); ++q) {
        states[q].name = fleet.backends[q]->name();
        states[q].size = fleet.backends[q]->num_qubits();
        states[q].online = flags[q].schedulable();
      }
      return states;
    };
    scheduler_service_ = std::make_shared<SchedulerService>(
        config_.scheduler_service, config_.seed ^ 0x5c4edULL, cycle_config,
        std::move(hooks), &telemetry_, &health_);
  }

  // Live-health wiring: the SLO monitor (when a valid config sets targets
  // or rules), the engine watchdog, and the probe-backed components.
  // Registered before the engine exists is fine — verdicts are only
  // derived at check() time, and the busy probe handles the (momentary)
  // null engine.
  {
    bool track_slo = !config_.health.alert_rules.empty();
    for (const double target : config_.health.slo_seconds) {
      track_slo = track_slo || target > 0.0;
    }
    if (init_status_.ok() && track_slo) {
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
        if (qpu.schedulable()) ++schedulable;
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

void Qonductor::advanceFleetClock(double up_to) {
  double seen = fleet_clock_.load(std::memory_order_relaxed);
  while (up_to > seen && !fleet_clock_.compare_exchange_weak(
                             seen, up_to, std::memory_order_release,
                             std::memory_order_relaxed)) {
  }
}

void Qonductor::recalibrateFleet() {
  const double now = fleetNow();
  fleet_generations_.publish([this, now](const qpu::FleetGenerations::Generation& displaced) {
    Rng rng(derive_seed(config_.seed ^ kCalibrationStream, displaced.number + 1));
    return displaced.fleet.recalibrated(rng, now);
  });
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
    for (const auto& backend : fleet().backends) {
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
  // dispatch-time check (take_expired, the mid-batch filter) uses the same
  // inclusive boundary: dispatch exactly at the deadline is a miss.
  // Rejecting at submit beats parking the job until a scheduling cycle
  // discovers the miss.
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

std::shared_ptr<RunContinuation> Qonductor::make_run(const workflow::WorkflowImage* image,
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
  cont->state = std::move(state);
  cont->image = image;
  cont->finish.assign(image->dag.size(), 0.0);
  cont->result.run = run;
  if (telemetry_.tracing_enabled()) {
    // The trace starts before the engine submit so the submit point is
    // always the first span, even if the first engine step runs instantly.
    obs::Tracer& tracer = telemetry_.tracer();
    tracer.start(cont->state);
    tracer.record(*cont->state, tracer.point("submit", submitted_at,
                                             "image=" + std::to_string(image->id)));
    tracer.record(*cont->state,
                  tracer.point("admitted", submitted_at,
                               std::string("priority=") + api::priority_name(priority)));
  }
  return cont;
}

void Qonductor::retract_run(const std::shared_ptr<api::RunState>& state) {
  // The engine rejected the run (shutdown). Retract the record and its
  // trace, and fail the state so no waiter can block forever on a run that
  // will never execute.
  run_table_.erase(state->id);
  if (telemetry_.tracing_enabled()) telemetry_.tracer().forget(state->id);
  {
    MutexLock lock(state->mutex);
    state->status = api::RunStatus::kFailed;
    state->finished_at = fleetNow();
    state->result.run = state->id;
    state->result.status = api::RunStatus::kFailed;
    state->result.error = api::Unavailable("executor shutting down");
  }
  state->cv.notify_all();
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
  std::shared_ptr<RunContinuation> cont =
      make_run(img, effective_preferences(request.preferences));
  std::shared_ptr<api::RunState> state = cont->state;
  if (!engine_->submit(std::move(cont))) {
    retract_run(state);
    return api::Unavailable("invoke: run engine is shutting down, run " +
                            std::to_string(state->id) + " rejected");
  }
  admission_accepted_[static_cast<std::size_t>(request.preferences.priority)]->inc();
  return api::RunHandle(std::move(state));
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
  // Build every record first, then hand the whole batch to the engine in
  // one critical section: a racing shutdown rejects all of it or none, so
  // the batch is all-or-nothing under shutdown too.
  std::vector<std::shared_ptr<RunContinuation>> conts;
  std::vector<std::shared_ptr<api::RunState>> states;
  conts.reserve(requests.size());
  states.reserve(requests.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    conts.push_back(make_run(images[i], effective_preferences(requests[i].preferences)));
    states.push_back(conts.back()->state);
  }
  if (!engine_->submit_all(std::move(conts))) {
    // Every record was created but none was accepted: retract them all, so
    // no run of the rejected batch stays listed or queryable by id.
    for (const auto& state : states) retract_run(state);
    return api::Unavailable("invokeAll: run engine is shutting down, batch of " +
                            std::to_string(requests.size()) + " runs rejected");
  }
  std::vector<api::RunHandle> handles;
  handles.reserve(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    admission_accepted_[static_cast<std::size_t>(requests[i].preferences.priority)]->inc();
    handles.emplace_back(std::move(states[i]));
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
  // A view over the same registry counters getMetrics exports.
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
  std::optional<double> release_at;
  if (request.duration_seconds) {
    // The negated comparison also rejects NaN; an infinite window would
    // never expire, yet echo a deadline.
    if (!(*request.duration_seconds > 0.0 && std::isfinite(*request.duration_seconds))) {
      return api::InvalidArgument(
          "reserveQpu: duration_seconds must be finite and > 0 (omit for an "
          "open-ended reservation)");
    }
    // Time-windowed reservation: auto-released by the first scheduling
    // snapshot taken at/after the virtual deadline.
    release_at = fleetNow() + *request.duration_seconds;
  }
  // The monitor sets the flag and the window in one critical section, so
  // an expiry sweep never observes a half-installed reservation; an
  // already reserved QPU keeps its own window.
  const auto previous = monitor_.reserve(request.qpu, release_at);
  if (!previous) {
    return api::NotFound("reserveQpu: unknown QPU '" + request.qpu + "'");
  }
  if (*previous) {
    return api::AlreadyExists("reserveQpu: QPU '" + request.qpu +
                              "' is already reserved");
  }
  return api::ReserveQpuResponse{request.qpu, release_at};
}

api::Result<api::ReleaseQpuResponse> Qonductor::releaseQpu(
    const api::ReleaseQpuRequest& request) {
  // Clears only the reservation: a QPU the device manager took offline
  // for health reasons stays out of rotation. The window goes with the
  // flag — an explicit release ends it early, and a later reservation
  // never inherits a stale deadline.
  const auto previous = monitor_.release(request.qpu);
  if (!previous) {
    return api::NotFound("releaseQpu: unknown QPU '" + request.qpu + "'");
  }
  if (!*previous) {
    return api::FailedPrecondition("releaseQpu: QPU '" + request.qpu +
                                   "' is not reserved");
  }
  return api::ReleaseQpuResponse{request.qpu};
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
  return estimator::generate_resource_plans(circ, templates_, estimator::PlanConfig{});
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
  const obs::Tracer& tracer = telemetry_.tracer();
  if (telemetry_.tracing_enabled()) {
    // The settling step's own span goes in first, so the settle point
    // stays the trace's last span (finalize below exports the trace).
    tracer.record(*state, tracer.span("engine_step", cont->step_virtual_start, fleetNow(),
                                      cont->step_wall_start_us, "finished"));
    tracer.record(*state, tracer.point("settle", finished_at, api::run_status_name(terminal)));
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
  if (telemetry_.tracing_enabled()) {
    // Outside all component locks, per the sink contract.
    tracer.finalize(*state);
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
                                   api::TaskResult tr) {
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
  if (!telemetry_.tracing_enabled()) return step_run_impl(cont);
  // Take the record up front: after a parking step registers its
  // settlement callback, `cont` may already be resuming on another worker
  // and its fields must not be read again. The record itself outlives
  // this step (the engine's event holds `cont`, which holds the record).
  api::RunState& state = *cont->state;
  const obs::Tracer& tracer = telemetry_.tracer();
  const double virtual_start = fleetNow();
  const double wall_start = tracer.wall_now_us();
  cont->step_virtual_start = virtual_start;
  cont->step_wall_start_us = wall_start;
  const StepOutcome outcome = step_run_impl(cont);
  if (outcome != StepOutcome::kFinished) {
    // A finishing step's span was recorded by settle_run, ahead of the
    // settle point (and the sink already exported the trace).
    tracer.record(state, tracer.span("engine_step", virtual_start, fleetNow(), wall_start,
                                     outcome == StepOutcome::kParked ? "parked"
                                                                     : "progress"));
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
    cont->parked = nullptr;
    cont->parked_prep = nullptr;
    {
      MutexLock lock(state->mutex);
      state->unpark = nullptr;
    }
    const workflow::TaskId node = cont->image->order[cont->cursor];
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
    const bool tracing = telemetry_.tracing_enabled();
    const obs::Tracer& tracer = telemetry_.tracer();
    if (tracing) {
      // The cycle's verdict fields are stable after settlement (see
      // pending_queue.hpp) — stamp the dispatch edge at the cycle's own
      // virtual fire time.
      tracer.record(*state, tracer.point("dispatch", pending->dispatched_at,
                                         "qpu=" + std::to_string(pending->assigned_qpu)));
    }
    try {
      const double exec_wall_start = tracing ? tracer.wall_now_us() : 0.0;
      api::TaskResult tr = execute_quantum(task, *prep, *pending, node);
      if (tracing) {
        tracer.record(*state, tracer.span("qpu_exec", tr.start, tr.end, exec_wall_start,
                                          "resource=" + tr.resource));
      }
      record_task_result(*cont, node, std::move(tr));
    } catch (const std::exception& e) {
      return settle_task_failure(cont, task.name, api::Internal(e.what()));
    }
    return finish_or_progress(cont);
  }

  // A node-less image (createWorkflow refuses one) has nothing to run:
  // settle it complete rather than index past `order`.
  if (cont->cursor == cont->image->order.size()) return finish_or_progress(cont);

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

  const workflow::TaskId node = cont->image->order[cont->cursor];
  const auto& task = cont->image->dag.task(node);
  if (config_.on_task_start) config_.on_task_start(run, task.name);
  try {
    if (task.kind == workflow::TaskKind::kQuantum) {
      // §7: the task parks in the pending queue with a resume callback; no
      // worker blocks on the scheduling cycle.
      return park_quantum_task(cont, task);
    }
    double ready = 0.0;
    for (const workflow::TaskId dep : cont->image->dag.dependencies(node)) {
      ready = std::max(ready, cont->finish[dep]);
    }
    const bool tracing = telemetry_.tracing_enabled();
    const obs::Tracer& tracer = telemetry_.tracer();
    const double exec_wall_start = tracing ? tracer.wall_now_us() : 0.0;
    api::Result<api::TaskResult> executed = run_classical_task(task, ready);
    if (!executed.ok()) {
      return settle_task_failure(cont, task.name, executed.status());
    }
    if (tracing) {
      tracer.record(*state, tracer.span("task_classical", executed->start, executed->end,
                                        exec_wall_start, "resource=" + executed->resource));
    }
    record_task_result(*cont, node, *std::move(executed));
  } catch (const std::exception& e) {
    return settle_task_failure(cont, task.name, api::Internal(e.what()));
  }
  return finish_or_progress(cont);
}

StepOutcome Qonductor::finish_or_progress(const std::shared_ptr<RunContinuation>& cont) {
  // Completion is checked BEFORE cooperative cancellation (which the next
  // step would test): once the last node has executed there is no work
  // left to cancel, and a cancel() racing the final node must not relabel
  // a fully executed run kCancelled. The step that records the last node
  // settles the run itself instead of spending one more engine event.
  if (cont->cursor < cont->image->order.size()) return StepOutcome::kProgress;
  cont->result.status = api::RunStatus::kCompleted;
  return settle_run(cont);
}

std::shared_ptr<const QuantumTaskPrep> Qonductor::prepare_quantum_task(
    const workflow::HybridTask& task) const {
  // Pure function of the (immutable) circuit and one calibration generation
  // — so a burst of runs of one image shares a single prep instead of
  // re-transpiling per run. Keyed by the task's address: the registry is
  // append-only, so task addresses are stable and unique.
  const qpu::FleetGenerations::Generation& generation = fleet_generations_.current();
  {
    MutexLock lock(prep_cache_mutex_);
    if (generation.number > prep_cache_generation_) {
      prep_cache_.clear();  // fleet recalibrated: every estimate is stale
      prep_cache_order_.clear();
      prep_cache_generation_ = generation.number;
    }
    const auto it = prep_cache_.find(&task);
    if (generation.number == prep_cache_generation_ && it != prep_cache_.end()) {
      prep_cache_hits_->inc();
      return it->second;
    }
  }
  prep_cache_misses_->inc();

  auto prep = std::make_shared<QuantumTaskPrep>();
  prep->generation = generation.number;
  const std::size_t qpus = generation.fleet.backends.size();
  prep->transpiled.reserve(qpus);
  prep->est_fidelity.reserve(qpus);
  prep->est_exec_seconds.reserve(qpus);
  prep->execution.reserve(qpus);
  for (const auto& backend : generation.fleet.backends) {
    prep->transpiled.push_back(transpiler::transpile(task.circ, *backend));
    const auto& t = prep->transpiled.back();
    const auto sig = task_signature(task, t.circuit, *backend);
    prep->est_fidelity.push_back(estimator::predicted_fidelity(t.circuit, *backend, sig));
    prep->est_exec_seconds.push_back(
        transpiler::job_quantum_runtime(t.schedule, task.shots, *backend) *
        sig.quantum_runtime_multiplier);
    prep->execution.push_back(
        execution_record(task, t, *backend, sig, prep->est_exec_seconds.back()));
  }

  MutexLock lock(prep_cache_mutex_);
  if (generation.number != prep_cache_generation_) {
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

QuantumExecutionRecord Qonductor::execution_record(
    const workflow::HybridTask& task, const transpiler::TranspileResult& transpiled,
    const qpu::Backend& backend, const mitigation::MitigationSignature& signature,
    double est_exec_seconds) const {
  QuantumExecutionRecord record;
  record.signature = signature;
  // Exact trajectory simulation when the active width fits; the analytic
  // ground-truth model otherwise.
  record.trajectory = active_qubit_count(transpiled.circuit) <= config_.trajectory_width_limit &&
                      !signature.cuts_circuit;
  if (!record.trajectory) {
    record.mitigated_mean = estimator::executed_fidelity_mean(transpiled.circuit, backend,
                                                              signature, hidden_, 1.08);
  }
  record.cost_dollars = estimator::job_cost_dollars(
      est_exec_seconds,
      signature.classical_preprocess_seconds + signature.classical_postprocess_seconds,
      task.accelerator);
  return record;
}

api::TaskResult Qonductor::execute_quantum(const workflow::HybridTask& task,
                                           const QuantumTaskPrep& prep,
                                           const PendingQuantumTask& verdict,
                                           workflow::TaskId node) {
  const std::size_t q = static_cast<std::size_t>(verdict.assigned_qpu);
  const qpu::FleetGenerations::Generation& generation = fleet_generations_.current();
  const auto& backend = *generation.fleet.backends[q];
  const auto& chosen = prep.transpiled[q];
  const QuantumExecutionRecord record =
      generation.number == prep.generation
          ? prep.execution[q]
          : execution_record(task, chosen, backend, task_signature(task, chosen.circuit, backend),
                             prep.est_exec_seconds[q]);
  // The task's own stream: its outcome draws do not depend on which worker
  // executes it or on how many executions ran before it.
  Rng rng(derive_seed(config_.seed ^ kExecutionStream, verdict.run, node));

  api::TaskResult result;
  result.name = task.name;
  result.kind = workflow::TaskKind::kQuantum;
  result.resource = backend.name();
  result.start = verdict.exec_start;
  result.end = verdict.exec_end;
  if (record.trajectory) {
    sim::TrajectoryOptions opts;
    opts.delay_dephasing_residual = record.signature.delay_dephasing_residual;
    result.counts = sim::run_noisy(chosen.circuit, backend, task.shots, rng, hidden_, opts);
    const double raw =
        sim::hellinger_fidelity(result.counts, sim::ideal_distribution(task.circ));
    result.fidelity = mitigation::mitigated_fidelity(raw, record.signature);
  } else {
    result.fidelity = estimator::sample_executed_fidelity(record.mitigated_mean, task.shots, rng);
  }
  result.cost_dollars = record.cost_dollars;
  advanceFleetClock(result.end);
  return result;
}

StepOutcome Qonductor::park_quantum_task(const std::shared_ptr<RunContinuation>& cont,
                                         const workflow::HybridTask& task) {
  const std::shared_ptr<api::RunState>& state = cont->state;
  // Effective per-run QoS: fidelity_weight was resolved at invoke().
  const api::JobPreferences& prefs = state->preferences;
  std::shared_ptr<const QuantumTaskPrep> prep = prepare_quantum_task(task);

  auto pending = std::make_shared<PendingQuantumTask>();
  pending->run = state->id;
  pending->task_name = task.name;
  pending->qubits = task.circ.num_qubits();
  pending->shots = task.shots;
  pending->enqueued_at = fleetNow();
  // Resolved by effective_preferences() at invoke(): always set here.
  pending->fidelity_weight = *prefs.fidelity_weight;
  pending->deadline_seconds = prefs.deadline_seconds;
  pending->priority = prefs.priority;
  pending->est_fidelity = prep->est_fidelity;
  pending->est_exec_seconds = prep->est_exec_seconds;
  if (telemetry_.tracing_enabled()) {
    // Request-half fields: the scheduler thread reads them under the same
    // happens-before as the rest (the queue's lock hand-off) and records
    // queue_wait / cycle-stage spans into the record before settlement.
    const obs::Tracer& tracer = telemetry_.tracer();
    pending->trace = state;
    pending->enqueued_wall_us = tracer.wall_now_us();
    tracer.record(*state, tracer.point("park", pending->enqueued_at,
                                       "task=" + task.name + " priority=" +
                                           api::priority_name(prefs.priority)));
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

api::Result<api::TaskResult> Qonductor::run_classical_task(
    const workflow::HybridTask& task, double ready_at) {
  const int node = sched::schedule_classical(nodes_, task.request);
  if (node < 0) {
    return api::ResourceExhausted("run_classical_task: no classical node fits '" +
                                  task.name + "'");
  }
  api::TaskResult result;
  result.name = task.name;
  result.kind = workflow::TaskKind::kClassical;
  result.resource = nodes_[static_cast<std::size_t>(node)].name;
  result.start = ready_at;  // abundant classical capacity: no queueing
  result.end = ready_at + task.estimated_seconds / mitigation::accelerator_speedup(task.accelerator);
  result.cost_dollars =
      estimator::job_cost_dollars(0.0, result.end - result.start, task.accelerator);
  advanceFleetClock(result.end);
  return result;
}

}  // namespace qon::core
