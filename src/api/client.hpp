#pragma once
// Versioned client facade over the orchestrator — the surface a remote SDK
// would bind to. Every call (1) checks the request's api_version against
// what this build speaks (kUnimplemented on mismatch, instead of silently
// misreading fields) and (2) guarantees that no exception escapes: stray
// throws from lower layers surface as StatusCode::kInternal.
//
//   api::QonductorClient client(config);
//   auto image = client.createWorkflow({.name = "qaoa", .tasks = ...});
//   client.deploy({.image = image->image});
//   auto handle = client.invoke({.image = image->image});
//   handle->wait();

#include <memory>
#include <vector>

#include "api/result.hpp"
#include "api/run_handle.hpp"
#include "api/types.hpp"
#include "core/orchestrator.hpp"

namespace qon::api {

class QonductorClient {
 public:
  /// Stands up an orchestrator owned by the client.
  explicit QonductorClient(core::QonductorConfig config = {});
  /// Wraps an existing orchestrator (non-owning); `backend` must outlive
  /// the client.
  explicit QonductorClient(core::Qonductor& backend);

  /// The API version this client speaks.
  static constexpr std::uint32_t version() { return kApiVersion; }

  // -- Table 2 user-facing API --------------------------------------------------
  /// Taken by value: pass an rvalue to hand the task circuits over without
  /// a deep copy.
  Result<CreateWorkflowResponse> createWorkflow(CreateWorkflowRequest request);
  Result<DeployResponse> deploy(const DeployRequest& request);
  Result<RunHandle> invoke(const InvokeRequest& request);
  Result<std::vector<RunHandle>> invokeAll(const std::vector<InvokeRequest>& requests);
  Result<WorkflowStatusResponse> workflowStatus(const WorkflowStatusRequest& request) const;
  Result<WorkflowResultsResponse> workflowResults(const WorkflowResultsRequest& request) const;
  Result<ListImagesResponse> listImages(const ListImagesRequest& request = {}) const;

  // -- run-table queries --------------------------------------------------------
  /// Lifecycle record of one run (state, virtual-clock timestamps, error);
  /// kNotFound for unknown or retention-evicted run ids.
  Result<GetRunResponse> getRun(const GetRunRequest& request) const;
  /// Convenience overload for the common "by id" lookup.
  Result<RunInfo> getRun(RunId run) const;
  /// Pages over the orchestrator's bounded run table (state/image filters,
  /// run-id-ordered pagination).
  Result<ListRunsResponse> listRuns(const ListRunsRequest& request = {}) const;
  /// Effective scheduler-service config plus cycle/queue statistics: cycle
  /// count, batch sizes, pending-queue depth, per-priority queue waits and
  /// the Fig. 9c per-stage timings of recent scheduling cycles.
  Result<GetSchedulerStatsResponse> getSchedulerStats(
      const GetSchedulerStatsRequest& request = {}) const;
  /// Front-door admission counters (accepted/shed per priority class, live
  /// runs vs the configured bound) plus the pending queue's capacity-
  /// waitlist statistics.
  Result<GetAdmissionStatsResponse> getAdmissionStats(
      const GetAdmissionStatsRequest& request = {}) const;

  // -- observability ------------------------------------------------------------
  /// The retained lifecycle trace of one run: ordered spans submit -> settle
  /// stamped with the fleet virtual clock AND wall µs. kNotFound for unknown
  /// or trace-retention-evicted ids; kFailedPrecondition with tracing off.
  Result<GetRunTraceResponse> getRunTrace(const GetRunTraceRequest& request) const;
  /// One coherent snapshot of every registered metric — feed it to
  /// obs::render_prometheus / obs::render_json.
  Result<GetMetricsResponse> getMetrics(const GetMetricsRequest& request = {}) const;
  /// Aggregated live health: per-component liveness verdicts and SLO
  /// burn-rate alert states rolled up into kHealthy/kDegraded/kUnhealthy.
  /// Never blocks on a wedged component (verdicts derive from heartbeat
  /// age) — feed it to obs::render_health_json.
  Result<GetHealthResponse> getHealth(const GetHealthRequest& request = {}) const;

  // -- QPU reservations (§7) ----------------------------------------------------
  /// Takes a QPU out of scheduling rotation; jobs already parked in the
  /// pending queue avoid it from the very next cycle.
  Result<ReserveQpuResponse> reserveQpu(const ReserveQpuRequest& request);
  /// Returns a reserved QPU to rotation.
  Result<ReleaseQpuResponse> releaseQpu(const ReleaseQpuRequest& request);

  // -- control-plane passthroughs (typed, non-throwing) -------------------------
  Result<estimator::PlanSet> estimateResources(const circuit::Circuit& circ) const;
  Result<sched::ScheduleDecision> generateSchedule(const sched::SchedulingInput& input) const;

  /// Escape hatch to the wrapped orchestrator (introspection, monitor).
  core::Qonductor& backend() { return *backend_; }
  const core::Qonductor& backend() const { return *backend_; }

 private:
  /// The boundary every call crosses: a request speaking another
  /// api_version is refused UNIMPLEMENTED, and an exception escaping
  /// `call` becomes INTERNAL. Both messages start "<method>: ".
  /// Calls without a versioned request pass kApiVersion.
  template <typename Response, typename Call>
  static Result<Response> guarded(const char* method, std::uint32_t api_version,
                                  Call&& call);

  std::unique_ptr<core::Qonductor> owned_;  ///< set iff constructed from config
  core::Qonductor* backend_;
};

}  // namespace qon::api
