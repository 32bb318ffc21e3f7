// Per-job QoS (api::JobPreferences): two tenants share one burst with
// opposite fidelity/JCT preferences, and the SAME scheduling cycle serves
// both — per-job MCDM places each job on the Pareto point matching its own
// preference, so the "hifi" tenant lands on high-fidelity QPUs while the
// "turbo" tenant takes the fast lanes. A second act shows a QoS deadline:
// a run parked past its deadline fails with the typed DEADLINE_EXCEEDED
// instead of occupying a QPU.

#include <array>
#include <iostream>
#include <string>
#include <vector>

#include "api/client.hpp"
#include "circuit/library.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace {

constexpr std::size_t kPerTenant = 12;

struct TenantOutcome {
  double mean_fidelity = 0.0;
  double mean_jct = 0.0;  ///< mean completion time on the fleet clock [s]
};

TenantOutcome summarize(const std::vector<qon::api::RunHandle>& handles) {
  TenantOutcome outcome;
  std::size_t counted = 0;
  for (const auto& handle : handles) {
    const auto result = handle.result();
    if (!result.ok() || result->tasks.empty()) continue;
    outcome.mean_fidelity += result->tasks[0].fidelity;
    outcome.mean_jct += result->tasks[0].end;
    ++counted;
  }
  if (counted > 0) {
    outcome.mean_fidelity /= static_cast<double>(counted);
    outcome.mean_jct /= static_cast<double>(counted);
  }
  return outcome;
}

}  // namespace

int main() {
  using namespace qon;

  core::QonductorConfig config;
  config.num_qpus = 4;
  config.seed = 97;
  config.executor_threads = 2 * kPerTenant;  // the whole burst parks at once
  config.retention.max_terminal_runs = 2 * kPerTenant + 8;
  // One cycle takes the whole mixed burst: both tenants, one Pareto front.
  config.scheduler_service.queue_threshold = 2 * kPerTenant;
  config.scheduler_service.linger = std::chrono::milliseconds(500);
  api::QonductorClient client(config);

  api::CreateWorkflowRequest create;
  create.name = "qos-tenants";
  create.tasks.push_back(workflow::HybridTask::quantum("ghz", circuit::ghz(4), 1000));
  const auto created = client.createWorkflow(std::move(create));
  if (!created.ok()) {
    std::cerr << created.status().to_string() << "\n";
    return 1;
  }
  api::DeployRequest deploy;
  deploy.image = created->image;
  if (const auto deployed = client.deploy(deploy); !deployed.ok()) {
    std::cerr << deployed.status().to_string() << "\n";
    return 1;
  }

  // The same burst, interleaved: tenant "hifi" maximizes fidelity at
  // interactive priority, tenant "turbo" minimizes completion time in the
  // batch class. Neither knob is process-global — it rides the request.
  std::vector<api::InvokeRequest> requests(2 * kPerTenant);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].image = created->image;
    if (i % 2 == 0) {
      requests[i].preferences.fidelity_weight = 0.95;
      requests[i].preferences.priority = api::Priority::kInteractive;
    } else {
      requests[i].preferences.fidelity_weight = 0.05;
      requests[i].preferences.priority = api::Priority::kBatch;
    }
  }
  std::cout << "submitting one mixed burst: " << kPerTenant << " 'hifi' + "
            << kPerTenant << " 'turbo' runs...\n";
  const auto handles = client.invokeAll(requests);
  if (!handles.ok()) {
    std::cerr << handles.status().to_string() << "\n";
    return 1;
  }
  std::vector<api::RunHandle> hifi;
  std::vector<api::RunHandle> turbo;
  for (std::size_t i = 0; i < handles->size(); ++i) {
    ((i % 2 == 0) ? hifi : turbo).push_back((*handles)[i]);
    (*handles)[i].wait();
  }

  const TenantOutcome hifi_outcome = summarize(hifi);
  const TenantOutcome turbo_outcome = summarize(turbo);
  TextTable tenants({"tenant", "fidelity weight", "priority", "mean fidelity",
                     "mean JCT [s]"});
  tenants.add_row({"hifi", "0.95", "interactive",
                   TextTable::num(hifi_outcome.mean_fidelity, 4),
                   TextTable::num(hifi_outcome.mean_jct, 1)});
  tenants.add_row({"turbo", "0.05", "batch",
                   TextTable::num(turbo_outcome.mean_fidelity, 4),
                   TextTable::num(turbo_outcome.mean_jct, 1)});
  tenants.print(std::cout, "one burst, two tradeoffs (per-job MCDM)");

  // Each run's queue wait is the extent of the queue_wait span in its trace.
  std::array<std::vector<double>, api::kNumPriorities> waits_by_priority;
  for (std::size_t i = 0; i < handles->size(); ++i) {
    api::GetRunTraceRequest trace_request;
    trace_request.run = (*handles)[i].id();
    const auto trace = client.getRunTrace(trace_request);
    if (!trace.ok()) continue;
    auto& history =
        waits_by_priority[static_cast<std::size_t>(requests[i].preferences.priority)];
    for (const auto& span : trace->trace.spans) {
      if (span.name == "queue_wait") history.push_back(span.virtual_end - span.virtual_start);
    }
  }
  TextTable waits({"priority class", "jobs", "queue wait p50 [s]"});
  for (std::size_t p = api::kNumPriorities; p-- > 0;) {
    const auto& history = waits_by_priority[p];
    waits.add_row({api::priority_name(static_cast<api::Priority>(p)),
                   std::to_string(history.size()),
                   history.empty() ? "-" : TextTable::num(percentile(history, 50.0), 1)});
  }
  waits.print(std::cout, "per-priority queue waits (getRunTrace)");

  // --- act two: a deadline that cannot be met ---------------------------------
  // With the threshold out of reach the next cycle is the 120 s virtual
  // timer — far past this run's 10 s deadline. The run fails typed.
  api::InvokeRequest missed;
  missed.image = created->image;
  missed.preferences.deadline_seconds = client.backend().fleetNow() + 10.0;
  auto missed_handle = client.invoke(missed);
  if (!missed_handle.ok()) {
    std::cerr << missed_handle.status().to_string() << "\n";
    return 1;
  }
  missed_handle->wait();
  const auto missed_result = missed_handle->result();
  std::cout << "\nrun with a 10 s deadline while the next cycle is the 120 s timer:\n  "
            << (missed_result.ok() ? missed_result->error.to_string() : "?") << "\n";

  std::cout << "\nsame burst, same cycle: the hifi tenant bought fidelity ("
            << TextTable::num(hifi_outcome.mean_fidelity, 4) << " vs "
            << TextTable::num(turbo_outcome.mean_fidelity, 4)
            << "), the turbo tenant bought completion time ("
            << TextTable::num(turbo_outcome.mean_jct, 1) << " s vs "
            << TextTable::num(hifi_outcome.mean_jct, 1) << " s).\n";
  return 0;
}
