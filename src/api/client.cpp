#include "api/client.hpp"

namespace qon::api {

QonductorClient::QonductorClient(core::QonductorConfig config)
    : owned_(std::make_unique<core::Qonductor>(std::move(config))), backend_(owned_.get()) {}

QonductorClient::QonductorClient(core::Qonductor& backend) : backend_(&backend) {}

template <typename Response, typename Call>
Result<Response> QonductorClient::guarded(const char* method, std::uint32_t api_version,
                                          Call&& call) {
  if (api_version != kApiVersion) {
    return Unimplemented(std::string(method) + ": request api_version " +
                         std::to_string(api_version) + " not supported (this build speaks v" +
                         std::to_string(kApiVersion) + ")");
  }
  try {
    return call();
  } catch (const std::exception& e) {
    return Internal(std::string(method) + ": " + e.what());
  }
}

Result<CreateWorkflowResponse> QonductorClient::createWorkflow(CreateWorkflowRequest request) {
  return guarded<CreateWorkflowResponse>("createWorkflow", request.api_version, [&] {
    return backend_->createWorkflow(std::move(request));
  });
}

Result<DeployResponse> QonductorClient::deploy(const DeployRequest& request) {
  return guarded<DeployResponse>("deploy", request.api_version,
                                 [&] { return backend_->deploy(request); });
}

Result<RunHandle> QonductorClient::invoke(const InvokeRequest& request) {
  return guarded<RunHandle>("invoke", request.api_version,
                            [&] { return backend_->invoke(request); });
}

Result<std::vector<RunHandle>> QonductorClient::invokeAll(
    const std::vector<InvokeRequest>& requests) {
  // The batch is refused on its first request speaking another version.
  std::uint32_t api_version = kApiVersion;
  for (const auto& request : requests) {
    if (request.api_version != kApiVersion) {
      api_version = request.api_version;
      break;
    }
  }
  return guarded<std::vector<RunHandle>>("invokeAll", api_version,
                                         [&] { return backend_->invokeAll(requests); });
}

Result<WorkflowStatusResponse> QonductorClient::workflowStatus(
    const WorkflowStatusRequest& request) const {
  return guarded<WorkflowStatusResponse>("workflowStatus", request.api_version,
                                         [&] { return backend_->workflowStatus(request); });
}

Result<WorkflowResultsResponse> QonductorClient::workflowResults(
    const WorkflowResultsRequest& request) const {
  return guarded<WorkflowResultsResponse>(
      "workflowResults", request.api_version,
      [&] { return backend_->workflowResults(request); });
}

Result<GetRunResponse> QonductorClient::getRun(const GetRunRequest& request) const {
  return guarded<GetRunResponse>("getRun", request.api_version,
                                 [&] { return backend_->getRun(request); });
}

Result<RunInfo> QonductorClient::getRun(RunId run) const {
  GetRunRequest request;
  request.run = run;
  auto response = getRun(request);
  if (!response.ok()) return response.status();
  return std::move(response->info);
}

Result<ListRunsResponse> QonductorClient::listRuns(const ListRunsRequest& request) const {
  return guarded<ListRunsResponse>("listRuns", request.api_version,
                                   [&] { return backend_->listRuns(request); });
}

Result<GetSchedulerStatsResponse> QonductorClient::getSchedulerStats(
    const GetSchedulerStatsRequest& request) const {
  return guarded<GetSchedulerStatsResponse>(
      "getSchedulerStats", request.api_version,
      [&] { return backend_->getSchedulerStats(request); });
}

Result<GetAdmissionStatsResponse> QonductorClient::getAdmissionStats(
    const GetAdmissionStatsRequest& request) const {
  return guarded<GetAdmissionStatsResponse>(
      "getAdmissionStats", request.api_version,
      [&] { return backend_->getAdmissionStats(request); });
}

Result<GetRunTraceResponse> QonductorClient::getRunTrace(
    const GetRunTraceRequest& request) const {
  return guarded<GetRunTraceResponse>("getRunTrace", request.api_version,
                                      [&] { return backend_->getRunTrace(request); });
}

Result<GetMetricsResponse> QonductorClient::getMetrics(
    const GetMetricsRequest& request) const {
  return guarded<GetMetricsResponse>("getMetrics", request.api_version,
                                     [&] { return backend_->getMetrics(request); });
}

Result<GetHealthResponse> QonductorClient::getHealth(
    const GetHealthRequest& request) const {
  return guarded<GetHealthResponse>("getHealth", request.api_version,
                                    [&] { return backend_->getHealth(request); });
}

Result<ReserveQpuResponse> QonductorClient::reserveQpu(const ReserveQpuRequest& request) {
  return guarded<ReserveQpuResponse>("reserveQpu", request.api_version,
                                     [&] { return backend_->reserveQpu(request); });
}

Result<ReleaseQpuResponse> QonductorClient::releaseQpu(const ReleaseQpuRequest& request) {
  return guarded<ReleaseQpuResponse>("releaseQpu", request.api_version,
                                     [&] { return backend_->releaseQpu(request); });
}

Result<ListImagesResponse> QonductorClient::listImages(const ListImagesRequest& request) const {
  return guarded<ListImagesResponse>("listImages", request.api_version, [&] {
    ListImagesResponse response;
    response.images = backend_->listImages();
    return response;
  });
}

Result<estimator::PlanSet> QonductorClient::estimateResources(const circuit::Circuit& circ) const {
  return guarded<estimator::PlanSet>("estimateResources", kApiVersion,
                                     [&] { return backend_->estimateResources(circ); });
}

Result<sched::ScheduleDecision> QonductorClient::generateSchedule(
    const sched::SchedulingInput& input) const {
  return guarded<sched::ScheduleDecision>("generateSchedule", kApiVersion,
                                          [&] { return backend_->generateSchedule(input); });
}

}  // namespace qon::api
