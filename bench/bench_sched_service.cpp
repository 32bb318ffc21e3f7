// Scheduler-service benchmark — the batch-scheduling job manager in the
// live serving path (not the cloudsim replay of Fig. 9b). A burst of
// concurrent runs floods the pending queue; the scheduler service batches
// them into hybrid-scheduler cycles. Emits BENCH_sched_service.json with
// p50/p95 queue wait (virtual seconds between enqueue and dispatch, read
// from every run's queue_wait trace span) and
// p50/p95 cycle latency (real seconds per scheduling cycle), so future PRs
// can diff the serving path's scheduling overhead against this baseline.

#include <cstddef>
#include <fstream>
#include <iostream>
#include <vector>

#include "api/client.hpp"
#include "bench_util.hpp"
#include "circuit/library.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"

int main() {
  using namespace qon;
  bench::print_header("Scheduler service",
                      "Batch-scheduling serving path: queue wait and cycle latency");

  constexpr std::size_t kRuns = 160;
  core::QonductorConfig config;
  config.num_qpus = 8;
  config.seed = 1337;
  config.trajectory_width_limit = 0;  // analytic model: isolate scheduling cost
  config.executor_threads = kRuns;
  config.retention.max_terminal_runs = kRuns + 8;
  config.scheduler_service.queue_threshold = 40;
  config.scheduler_service.max_batch_size = 64;
  config.scheduler_service.linger = std::chrono::milliseconds(100);
  api::QonductorClient client(config);

  api::CreateWorkflowRequest create;
  create.name = "sched-service-burst";
  create.tasks.push_back(workflow::HybridTask::quantum("ghz", circuit::ghz(5), 2000));
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

  std::vector<api::InvokeRequest> requests(kRuns);
  for (auto& request : requests) request.image = created->image;
  Stopwatch wall;
  const auto handles = client.invokeAll(requests);
  if (!handles.ok()) {
    std::cerr << handles.status().to_string() << "\n";
    return 1;
  }
  std::size_t completed = 0;
  for (const auto& handle : *handles) {
    if (handle.wait() == api::RunStatus::kCompleted) ++completed;
  }
  const double wall_seconds = wall.seconds();

  const auto response = client.getSchedulerStats();
  if (!response.ok()) {
    std::cerr << response.status().to_string() << "\n";
    return 1;
  }
  const api::SchedulerStats& stats = response->stats;

  std::vector<double> cycle_latency;
  std::vector<double> optimize_seconds;
  double batch_sum = 0.0;
  for (const auto& cycle : stats.recent_cycles) {
    cycle_latency.push_back(cycle.cycle_latency_seconds);
    optimize_seconds.push_back(cycle.optimize_seconds);
    batch_sum += static_cast<double>(cycle.batch_size);
  }
  std::vector<double> waits;
  for (const auto& handle : *handles) {
    for (const double wait : bench::queue_waits(client, handle.id())) waits.push_back(wait);
  }
  const double mean_batch =
      stats.cycles > 0 ? batch_sum / static_cast<double>(stats.cycles) : 0.0;

  TextTable table({"metric", "value"});
  table.add_row({"runs completed", std::to_string(completed) + "/" + std::to_string(kRuns)});
  table.add_row({"scheduling cycles", std::to_string(stats.cycles)});
  table.add_row({"mean batch size", TextTable::num(mean_batch, 1)});
  table.add_row({"largest batch", std::to_string(stats.max_batch_size_seen)});
  table.add_row({"queue high watermark", std::to_string(stats.queue_high_watermark)});
  table.add_row({"queue wait p50 [s, virtual]", TextTable::num(percentile(waits, 50.0), 2)});
  table.add_row({"queue wait p95 [s, virtual]", TextTable::num(percentile(waits, 95.0), 2)});
  table.add_row({"cycle latency p50 [ms]", TextTable::num(percentile(cycle_latency, 50.0) * 1e3, 2)});
  table.add_row({"cycle latency p95 [ms]", TextTable::num(percentile(cycle_latency, 95.0) * 1e3, 2)});
  table.add_row({"optimize stage p50 [ms]", TextTable::num(percentile(optimize_seconds, 50.0) * 1e3, 2)});
  table.add_row({"burst wall time [s]", TextTable::num(wall_seconds, 2)});
  table.print(std::cout, "batch serving path");

  // Machine-readable trajectory point for regression tracking.
  const std::string json_path = bench::artifact_path("BENCH_sched_service.json");
  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"sched_service\",\n"
       << "  \"runs\": " << kRuns << ",\n"
       << "  \"completed\": " << completed << ",\n"
       << "  \"qpus\": " << config.num_qpus << ",\n"
       << "  \"queue_threshold\": " << config.scheduler_service.queue_threshold << ",\n"
       << "  \"max_batch_size\": " << config.scheduler_service.max_batch_size << ",\n"
       << "  \"cycles\": " << stats.cycles << ",\n"
       << "  \"mean_batch_size\": " << mean_batch << ",\n"
       << "  \"largest_batch\": " << stats.max_batch_size_seen << ",\n"
       << "  \"queue_high_watermark\": " << stats.queue_high_watermark << ",\n"
       << "  \"queue_wait_p50_s\": " << percentile(waits, 50.0) << ",\n"
       << "  \"queue_wait_p95_s\": " << percentile(waits, 95.0) << ",\n"
       << "  \"cycle_latency_p50_s\": " << percentile(cycle_latency, 50.0) << ",\n"
       << "  \"cycle_latency_p95_s\": " << percentile(cycle_latency, 95.0) << ",\n"
       << "  \"optimize_p50_s\": " << percentile(optimize_seconds, 50.0) << ",\n"
       << "  \"burst_wall_seconds\": " << wall_seconds << "\n"
       << "}\n";
  std::cout << "\nwrote " << json_path << "\n";

  bench::print_comparison("batch scheduling amortizes cycles over the burst",
                          "queue bounded, cycles >= 2 (Fig. 9b trigger behaviour)",
                          std::to_string(stats.cycles) + " cycles / " +
                              std::to_string(kRuns) + " jobs");
  return 0;
}
