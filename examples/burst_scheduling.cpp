// Burst scheduling: the batch-scheduling job manager in action (§7). A
// client fans out a burst of workflow runs; instead of each quantum task
// greedily grabbing a QPU, the tasks park in the scheduler service's
// pending queue and scheduling cycles — fired by the queue-size threshold
// or the timer — assign whole batches through the hybrid scheduler
// (NSGA-II + MCDM). getSchedulerStats shows the cycles as they happened:
// batch sizes, mean queue waits, and the Fig. 9c per-stage timings; each
// run's own queue wait comes from its trace (getRunTrace). The same
// burst is then replayed with a per-task config (queue_threshold =
// max_batch_size = 1, no linger: one single-job cycle per task) for
// comparison.

#include <iostream>
#include <vector>

#include "api/client.hpp"
#include "circuit/library.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"

namespace {

constexpr std::size_t kRuns = 32;

qon::core::QonductorConfig base_config() {
  qon::core::QonductorConfig config;
  config.num_qpus = 4;
  config.seed = 90;
  config.executor_threads = kRuns;  // the whole burst can park at once
  config.retention.max_terminal_runs = kRuns + 8;
  return config;
}

/// Deploys the burst image and runs the whole burst to completion, adding
/// each run's virtual queue wait (the extent of its queue_wait trace span)
/// to `waits`. Returns the wall-clock seconds the burst took.
double run_burst(qon::api::QonductorClient& client, std::vector<double>& waits) {
  qon::api::CreateWorkflowRequest create;
  create.name = "burst";
  create.tasks.push_back(qon::workflow::HybridTask::quantum(
      "ghz", qon::circuit::ghz(4), 1000));
  const auto created = client.createWorkflow(std::move(create));
  if (!created.ok()) {
    std::cerr << created.status().to_string() << "\n";
    return -1.0;
  }
  qon::api::DeployRequest deploy;
  deploy.image = created->image;
  if (const auto deployed = client.deploy(deploy); !deployed.ok()) {
    std::cerr << deployed.status().to_string() << "\n";
    return -1.0;
  }

  std::vector<qon::api::InvokeRequest> requests(kRuns);
  for (auto& request : requests) request.image = created->image;
  qon::Stopwatch wall;
  const auto handles = client.invokeAll(requests);
  if (!handles.ok()) {
    std::cerr << handles.status().to_string() << "\n";
    return -1.0;
  }
  for (const auto& handle : *handles) handle.wait();
  const double wall_seconds = wall.seconds();
  for (const auto& handle : *handles) {
    qon::api::GetRunTraceRequest request;
    request.run = handle.id();
    const auto trace = client.getRunTrace(request);
    if (!trace.ok()) continue;
    for (const auto& span : trace->trace.spans) {
      if (span.name == "queue_wait") waits.push_back(span.virtual_end - span.virtual_start);
    }
  }
  return wall_seconds;
}

}  // namespace

int main() {
  using namespace qon;

  // --- batch: cycles assign whole batches -------------------------------------
  auto batch_config = base_config();
  batch_config.scheduler_service.queue_threshold = 8;   // fire at 8 pending jobs…
  batch_config.scheduler_service.max_batch_size = 12;   // …and cap a cycle at 12
  batch_config.scheduler_service.linger = std::chrono::milliseconds(50);
  api::QonductorClient batch_client(batch_config);

  std::cout << "submitting a burst of " << kRuns << " runs in batch cycles...\n";
  std::vector<double> waits;
  const double batch_wall = run_burst(batch_client, waits);
  if (batch_wall < 0.0) return 1;

  const auto batch_stats = batch_client.getSchedulerStats();
  if (!batch_stats.ok()) {
    std::cerr << batch_stats.status().to_string() << "\n";
    return 1;
  }
  const api::SchedulerStats& stats = batch_stats->stats;

  TextTable cycles({"cycle", "trigger", "batch", "scheduled", "queue after",
                    "mean wait [s]", "optimize [ms]"});
  for (const auto& cycle : stats.recent_cycles) {
    cycles.add_row({std::to_string(cycle.cycle),
                    api::cycle_trigger_name(cycle.trigger),
                    std::to_string(cycle.batch_size),
                    std::to_string(cycle.scheduled),
                    std::to_string(cycle.queue_depth_after),
                    TextTable::num(cycle.mean_queue_wait_seconds, 1),
                    TextTable::num(cycle.optimize_seconds * 1e3, 2)});
  }
  cycles.print(std::cout, "scheduling cycles (getSchedulerStats)");

  TextTable summary({"metric", "value"});
  summary.add_row({"queue threshold", std::to_string(batch_stats->config.queue_threshold)});
  summary.add_row({"max batch size", std::to_string(batch_stats->config.max_batch_size)});
  summary.add_row({"cycles", std::to_string(stats.cycles)});
  summary.add_row({"jobs scheduled", std::to_string(stats.jobs_scheduled)});
  summary.add_row({"largest batch", std::to_string(stats.max_batch_size_seen)});
  summary.add_row({"queue high watermark", std::to_string(stats.queue_high_watermark)});
  summary.add_row({"queue wait p50 [s]", TextTable::num(percentile(waits, 50.0), 1)});
  summary.add_row({"queue wait p95 [s]", TextTable::num(percentile(waits, 95.0), 1)});
  summary.print(std::cout, "batch config");

  // --- per-task: one single-job cycle per task, same serving path -----------
  auto per_task_config = base_config();
  per_task_config.scheduler_service.queue_threshold = 1;
  per_task_config.scheduler_service.max_batch_size = 1;
  per_task_config.scheduler_service.linger = std::chrono::milliseconds(0);
  api::QonductorClient per_task_client(per_task_config);

  std::cout << "\nreplaying the burst with one cycle per task...\n";
  std::vector<double> per_task_waits;
  const double per_task_wall = run_burst(per_task_client, per_task_waits);
  if (per_task_wall < 0.0) return 1;
  const auto per_task_stats = per_task_client.getSchedulerStats();

  TextTable compare({"config", "scheduling cycles", "queue wait p50 [s]",
                     "burst wall time [ms]"});
  compare.add_row({"batch", std::to_string(stats.cycles),
                   TextTable::num(percentile(waits, 50.0), 1),
                   TextTable::num(batch_wall * 1e3, 0)});
  compare.add_row({"per-task",
                   std::to_string(per_task_stats.ok() ? per_task_stats->stats.cycles : 0),
                   TextTable::num(percentile(per_task_waits, 50.0), 1),
                   TextTable::num(per_task_wall * 1e3, 0)});
  compare.print(std::cout, "batch vs per-task");

  std::cout << "\nthe batch config dispatched " << stats.jobs_scheduled << " jobs in "
            << stats.cycles << " hybrid-scheduler cycles; the per-task config ran one "
            << "single-job cycle per task.\n";
  return 0;
}
