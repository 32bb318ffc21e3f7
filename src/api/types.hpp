#pragma once
// Versioned wire-facing types of the Table-2 control-plane API. Every
// request struct carries `api_version` so the surface can evolve without
// breaking callers: the client facade rejects versions it does not speak
// (kUnimplemented) instead of silently misinterpreting fields.
//
// The run lifecycle (RunStatus) and the execution report (WorkflowResult)
// live here too — they are part of the public surface, and qon::core
// aliases them for the orchestrator internals.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/status.hpp"
#include "simulator/statevector.hpp"
#include "workflow/registry.hpp"
#include "workflow/task.hpp"

namespace qon::api {

/// The API version this library speaks. Bump on incompatible changes to the
/// request/response structs below; the client facade refuses newer versions.
inline constexpr std::uint32_t kApiVersion = 2;

using RunId = std::uint64_t;

/// Scheduling priority class of one run. The pending queue forms batches
/// in priority order — kInteractive jobs take a cycle's slots before
/// kStandard, which take them before kBatch — FIFO within a class.
enum class Priority { kBatch, kStandard, kInteractive };

inline constexpr std::size_t kNumPriorities = 3;

const char* priority_name(Priority priority);

/// Per-job QoS preferences carried on InvokeRequest (Table 2's
/// "customizable resource estimation" as an API, not a process-global
/// knob). Every field defaults to the pre-existing behavior, so callers
/// that omit the struct are unaffected.
struct JobPreferences {
  /// MCDM fidelity-vs-JCT preference in [0, 1] for this job's quantum
  /// tasks: 1 = maximize fidelity, 0 = minimize completion time. Unset =
  /// the deployment default (QonductorConfig::fidelity_weight).
  std::optional<double> fidelity_weight;
  /// Absolute deadline on the fleet virtual clock, in seconds. A quantum
  /// task still parked in the pending queue when a scheduling cycle fires
  /// past this instant fails DEADLINE_EXCEEDED instead of being scheduled
  /// (it never consumes a QPU). Unset = no deadline.
  std::optional<double> deadline_seconds;
  /// Batch-formation priority class of the run's quantum tasks.
  Priority priority = Priority::kStandard;
};

/// Lifecycle of an invoked workflow run. Terminal states are kCompleted,
/// kFailed and kCancelled; RunHandle::wait() blocks until one is reached.
enum class RunStatus { kPending, kRunning, kCompleted, kFailed, kCancelled };

const char* run_status_name(RunStatus status);

inline bool run_status_terminal(RunStatus status) {
  return status == RunStatus::kCompleted || status == RunStatus::kFailed ||
         status == RunStatus::kCancelled;
}

/// Per-task execution record in a finished workflow run.
struct TaskResult {
  std::string name;
  workflow::TaskKind kind = workflow::TaskKind::kClassical;
  std::string resource;  ///< QPU or classical node name
  double start = 0.0;
  double end = 0.0;
  double fidelity = 0.0;  ///< quantum tasks only
  double cost_dollars = 0.0;
  sim::Counts counts;  ///< populated for small quantum tasks
};

/// Execution report for one run. `error` is non-OK iff status is kFailed
/// or kCancelled.
struct WorkflowResult {
  RunId run = 0;
  RunStatus status = RunStatus::kPending;
  std::vector<TaskResult> tasks;
  double makespan_seconds = 0.0;
  double total_cost_dollars = 0.0;
  double min_fidelity = 1.0;  ///< the binding fidelity across quantum tasks
  Status error;               ///< why the run failed / was cancelled
};

/// Point-in-time view of one run in the control plane's run table — what
/// getRun() / listRuns() return. Timestamps are on the fleet's virtual
/// clock (seconds); a phase that has not happened yet reads -1.
struct RunInfo {
  RunId run = 0;
  workflow::ImageId image = 0;
  RunStatus status = RunStatus::kPending;
  double submitted_at = -1.0;  ///< virtual clock when the run was queued
  double started_at = -1.0;    ///< virtual clock at kPending -> kRunning
  double finished_at = -1.0;   ///< virtual clock at the terminal transition
  Status error;                ///< non-OK iff status is kFailed / kCancelled
  /// The run's effective QoS preferences: what the request carried, with
  /// fidelity_weight resolved against the deployment default.
  JobPreferences preferences;
};

// ---- requests / responses ----------------------------------------------------

struct CreateWorkflowRequest {
  std::uint32_t api_version = kApiVersion;
  std::string name;
  std::vector<workflow::HybridTask> tasks;
  std::string yaml_config;  ///< Listing-1 deployment configuration, optional
};

struct CreateWorkflowResponse {
  workflow::ImageId image = 0;
};

struct DeployRequest {
  std::uint32_t api_version = kApiVersion;
  workflow::ImageId image = 0;
};

struct DeployResponse {
  workflow::ImageId image = 0;
};

struct InvokeRequest {
  std::uint32_t api_version = kApiVersion;
  workflow::ImageId image = 0;
  /// Per-run QoS: MCDM preference, deadline and priority. Defaults
  /// reproduce the pre-QoS behavior (config fidelity_weight, no deadline,
  /// kStandard). Out-of-range values are rejected INVALID_ARGUMENT.
  JobPreferences preferences;
};

struct WorkflowStatusRequest {
  std::uint32_t api_version = kApiVersion;
  RunId run = 0;
};

struct WorkflowStatusResponse {
  RunId run = 0;
  RunStatus status = RunStatus::kPending;
};

struct WorkflowResultsRequest {
  std::uint32_t api_version = kApiVersion;
  RunId run = 0;
  /// Block until the run reaches a terminal state. When false and the run
  /// is still in flight, workflowResults() returns kUnavailable.
  bool wait = true;
};

struct WorkflowResultsResponse {
  WorkflowResult result;
};

struct ListImagesRequest {
  std::uint32_t api_version = kApiVersion;
};

struct ListImagesResponse {
  std::vector<workflow::ImageId> images;
};

struct GetRunRequest {
  std::uint32_t api_version = kApiVersion;
  RunId run = 0;
};

struct GetRunResponse {
  RunInfo info;
};

/// Largest page listRuns hands out; bigger requests are clamped to this
/// bound (a page is materialized as typed RunInfo values, so the bound
/// caps per-request work on a hot control plane).
inline constexpr std::size_t kMaxListRunsPageSize = 1000;

/// Query over the run table, in ascending run-id order. Runs evicted under
/// the retention policy no longer appear (and getRun() on them is
/// kNotFound) — the table is bounded by design.
struct ListRunsRequest {
  std::uint32_t api_version = kApiVersion;
  /// Keep only runs currently in this state, e.g. RunStatus::kRunning.
  std::optional<RunStatus> status;
  /// Keep only runs of this image; 0 = any image.
  workflow::ImageId image = 0;
  /// Resume after this run id (the previous response's next_page_token).
  RunId page_token = 0;
  /// Max runs per page. 0 is rejected INVALID_ARGUMENT (it used to be
  /// silently clamped to 1); values above kMaxListRunsPageSize are clamped
  /// to that bound.
  std::size_t page_size = 100;
};

struct ListRunsResponse {
  std::vector<RunInfo> runs;
  /// Pass as the next request's page_token; 0 when the listing is complete.
  RunId next_page_token = 0;
};

// ---- QPU reservations (§7) ---------------------------------------------------

/// Takes a QPU out of scheduling rotation by setting the monitor's
/// reservation flag (distinct from the `online` health flag): in-flight
/// scheduling cycles snapshot both at cycle start, so a reservation made
/// while jobs are parked is honored by the very next cycle.
/// ALREADY_EXISTS when the QPU is already reserved; NOT_FOUND for
/// unknown names.
struct ReserveQpuRequest {
  std::uint32_t api_version = kApiVersion;
  std::string qpu;  ///< monitor name, e.g. "ibm_like_0"
  /// Reservation time window: when set (finite and > 0, else
  /// INVALID_ARGUMENT), the reservation auto-releases once a scheduling
  /// cycle fires at or after `fleetNow() + duration_seconds` on the fleet
  /// virtual clock — the releasing cycle already schedules onto the QPU.
  /// An explicit releaseQpu() before the deadline ends the window early.
  /// Unset = the reservation holds until releaseQpu() (pre-window
  /// behavior).
  std::optional<double> duration_seconds;
};

struct ReserveQpuResponse {
  std::string qpu;
  /// Fleet-clock instant the window expires; unset for an open-ended
  /// reservation.
  std::optional<double> release_at;
};

/// Returns a reserved QPU to scheduling rotation (a QPU that is also
/// offline for health reasons stays out). FAILED_PRECONDITION when the
/// QPU was not reserved; NOT_FOUND for unknown names.
struct ReleaseQpuRequest {
  std::uint32_t api_version = kApiVersion;
  std::string qpu;
};

struct ReleaseQpuResponse {
  std::string qpu;
};

// ---- scheduler service (§7 job manager) --------------------------------------

/// Effective scheduler-service configuration, echoed by getSchedulerStats
/// so clients can see which knobs a deployment runs with. Quantum tasks
/// always dispatch through scheduling cycles (queue threshold OR timer,
/// §7); queue_threshold = max_batch_size = 1 gives every job its own
/// cycle. The view's former `mode` field is gone without an api_version
/// bump: its only remaining value was the zero default kBatch, so a v1
/// reader that still expects the field reads the true answer.
struct SchedulerConfigView {
  std::size_t queue_threshold = 0;  ///< trigger: fire at this queue size
  double interval_seconds = 0.0;    ///< trigger: timer on the fleet clock
  std::size_t queue_capacity = 0;   ///< pending-queue bound; 0 = unbounded
  std::size_t max_batch_size = 0;   ///< jobs per cycle cap; 0 = no cap
  double aging_seconds = 0.0;       ///< priority-aging budget; 0 = off
};

/// What fired a scheduling cycle: the queue-size threshold, the (virtual)
/// timer deadline, or the final shutdown drain.
enum class CycleTrigger { kThreshold, kTimer, kFlush };

const char* cycle_trigger_name(CycleTrigger trigger);

/// One scheduling cycle as observed by the scheduler service. Stage
/// timings are the Fig. 9c breakdown (preprocess / optimize / select).
struct SchedulerCycleInfo {
  std::uint64_t cycle = 0;       ///< 1-based cycle index
  double fired_at = 0.0;         ///< fleet virtual clock when the cycle fired
  CycleTrigger trigger = CycleTrigger::kThreshold;
  std::size_t batch_size = 0;    ///< jobs handed to the hybrid scheduler
  std::size_t scheduled = 0;     ///< jobs assigned to a QPU
  std::size_t filtered = 0;      ///< infeasible jobs (failed RESOURCE_EXHAUSTED)
  std::size_t expired = 0;       ///< parked past deadline (failed DEADLINE_EXCEEDED)
  std::size_t queue_depth_after = 0;  ///< pending jobs left behind
  double preprocess_seconds = 0.0;
  double optimize_seconds = 0.0;
  double select_seconds = 0.0;
  double cycle_latency_seconds = 0.0;     ///< wall clock, whole cycle
  double mean_queue_wait_seconds = 0.0;   ///< virtual wait of this batch
};

/// Aggregate counters plus a bounded history of recent cycles. A job's own
/// queue wait (virtual seconds between enqueue and dispatch) is the extent
/// of the `queue_wait` span in its run's trace (getRunTrace).
struct SchedulerStats {
  std::uint64_t cycles = 0;
  std::uint64_t jobs_scheduled = 0;
  std::uint64_t jobs_filtered = 0;
  std::uint64_t jobs_expired = 0;        ///< deadline-expired while parked
  std::size_t queue_depth = 0;           ///< pending jobs right now
  std::size_t queue_high_watermark = 0;  ///< Fig. 9b stability statistic
  std::size_t max_batch_size_seen = 0;
  std::vector<SchedulerCycleInfo> recent_cycles;  ///< oldest first, bounded
};

struct GetSchedulerStatsRequest {
  std::uint32_t api_version = kApiVersion;
};

struct GetSchedulerStatsResponse {
  SchedulerConfigView config;
  SchedulerStats stats;
};

// ---- admission control (overload shedding at invoke) -------------------------

/// Counters of the front-door admission gate plus the pending queue's
/// capacity waitlist. Per-class arrays are indexed by Priority cast to
/// size_t, like the scheduler-stats histories.
struct AdmissionStats {
  std::array<std::uint64_t, kNumPriorities> accepted{};  ///< runs admitted
  std::array<std::uint64_t, kNumPriorities> shed{};      ///< RESOURCE_EXHAUSTED at invoke
  std::size_t live_runs = 0;      ///< non-terminal runs right now
  std::size_t max_live_runs = 0;  ///< configured bound; 0 = gate disabled
  /// Engine-side overload relief: quantum tasks parked on the pending
  /// queue's capacity waitlist instead of blocking an engine worker.
  std::size_t waitlist_depth = 0;           ///< parked right now
  std::size_t waitlist_high_watermark = 0;  ///< deepest ever observed
  std::uint64_t waitlist_parks = 0;         ///< total offers that waitlisted
};

struct GetAdmissionStatsRequest {
  std::uint32_t api_version = kApiVersion;
};

struct GetAdmissionStatsResponse {
  AdmissionStats stats;
};

// ---- observability: run-lifecycle traces (obs::Tracer) -----------------------

/// One lifecycle edge of a run, stamped on BOTH clocks: the fleet virtual
/// clock (simulated seconds) and the wall clock (microseconds since the
/// tracer's construction, steady). Point events have start == end on both
/// clocks. The span taxonomy (names and what each detail carries) is
/// documented in ROADMAP.md "Observability".
struct TraceSpan {
  std::string name;    ///< e.g. "submit", "queue_wait", "qpu_exec", "settle"
  std::string detail;  ///< free-form context: verdict, QPU, cycle index, ...
  double virtual_start = 0.0;  ///< fleet virtual clock, seconds
  double virtual_end = 0.0;
  double wall_start_us = 0.0;  ///< wall clock, µs since the tracer epoch
  double wall_end_us = 0.0;
};

/// The ring-buffered trace of one run: spans in record order (oldest
/// first). When a run records more entries than the per-run ring holds,
/// the oldest are dropped — `recorded` keeps the true span total, so
/// `dropped = recorded - spans.size()` tells a reader the trace is partial.
struct RunTrace {
  RunId run = 0;
  std::vector<TraceSpan> spans;
  std::uint64_t recorded = 0;  ///< spans ever recorded, including dropped
  std::uint64_t dropped = 0;   ///< spans lost to ring wraparound
};

/// kNotFound for unknown ids and for traces evicted from the tracer's
/// bounded retention window; kFailedPrecondition when tracing is disabled.
struct GetRunTraceRequest {
  std::uint32_t api_version = kApiVersion;
  RunId run = 0;
};

struct GetRunTraceResponse {
  RunTrace trace;
};

// ---- observability: metrics snapshot (obs::MetricsRegistry) ------------------

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* metric_kind_name(MetricKind kind);

/// One metric as captured by a registry snapshot. Counters and gauges use
/// `value`; histograms use the bucket/sum/count fields. `bucket_counts[i]`
/// is the NON-cumulative count of observations with
/// value <= bucket_bounds[i] (and > the previous bound) — the Prometheus
/// renderer accumulates them into the exposition's cumulative `le` series.
struct MetricValue {
  std::string name;    ///< family name, e.g. "qon_admission_accepted_total"
  std::string help;
  std::string labels;  ///< pre-rendered label set, e.g. priority="batch"
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  ///< counter / gauge reading
  std::vector<double> bucket_bounds;          ///< inclusive upper bounds (le)
  std::vector<std::uint64_t> bucket_counts;   ///< per-bucket, non-cumulative
  std::uint64_t inf_count = 0;  ///< observations above the last bound
  double sum = 0.0;             ///< sum of all observations
  std::uint64_t count = 0;      ///< total observations
};

/// Every registered metric read in ONE pass under the registry lock, so
/// ratios computed from a single snapshot (prep-cache hit rate, shed
/// fraction) are coherent with each other.
struct MetricsSnapshot {
  double taken_at_virtual = 0.0;  ///< fleet virtual clock, seconds
  double taken_at_wall_us = 0.0;  ///< µs since the telemetry epoch
  std::vector<MetricValue> metrics;  ///< registration order
};

struct GetMetricsRequest {
  std::uint32_t api_version = kApiVersion;
};

struct GetMetricsResponse {
  MetricsSnapshot snapshot;
};

// ---- observability: health (obs::HealthMonitor / obs::SloMonitor) ------------

/// Severity-ordered: aggregation takes the numeric worst across components,
/// so the enumerator order IS the severity order.
enum class HealthStatus { kHealthy, kDegraded, kUnhealthy };

const char* health_status_name(HealthStatus status);

/// Lifecycle of one SLO burn-rate alert rule:
/// kInactive -> kPending (fast window breached) -> kFiring (fast AND slow
/// breached) -> kResolved (fast back under the clear threshold) -> kInactive.
enum class AlertState { kInactive, kPending, kFiring, kResolved };

const char* alert_state_name(AlertState state);

/// One component's verdict as derived by the health monitor at check time.
struct ComponentHealth {
  std::string component;  ///< e.g. "scheduler", "engine", "queue", "fleet"
  HealthStatus status = HealthStatus::kHealthy;
  std::string detail;  ///< human-readable reason, names the component on stall
  std::uint64_t heartbeats = 0;  ///< lifetime beat count (0 for probes)
  /// Wall seconds since the last heartbeat; negative = never beaten or not
  /// a watchdog-backed component.
  double heartbeat_age_seconds = -1.0;
};

/// One burn-rate rule's live state, with burns as of the evaluation instant.
struct AlertInfo {
  std::string rule;
  Priority priority = Priority::kStandard;
  AlertState state = AlertState::kInactive;
  double fast_burn = 0.0;  ///< budget-burn multiple over the fast window
  double slow_burn = 0.0;  ///< budget-burn multiple over the slow window
  double since_virtual = 0.0;  ///< virtual instant of the last transition
};

struct GetHealthRequest {
  std::uint32_t api_version = kApiVersion;
};

/// Aggregated live-health view: worst component severity (raised to at
/// least kDegraded while any alert is firing), the per-component verdicts,
/// and the current alert states.
struct GetHealthResponse {
  HealthStatus status = HealthStatus::kHealthy;
  std::vector<ComponentHealth> components;
  std::vector<AlertInfo> alerts;
};

}  // namespace qon::api
