// QoS-isolation benchmark: a mixed-priority burst (equal thirds of
// kInteractive / kStandard / kBatch runs) floods the pending queue, and
// priority-ordered batch formation decides who rides the early scheduling
// cycles. Emits BENCH_qos_isolation.json with per-priority p50/p95 queue
// waits (virtual seconds between enqueue and dispatch, read from every
// run's queue_wait trace span) so future PRs can diff the isolation the
// priority classes actually deliver.

#include <array>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "api/client.hpp"
#include "bench_util.hpp"
#include "circuit/library.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"

int main() {
  using namespace qon;
  bench::print_header("QoS isolation",
                      "Per-priority queue waits under a mixed-tenant burst");

  constexpr std::size_t kRuns = 120;
  core::QonductorConfig config;
  config.num_qpus = 6;
  config.seed = 4242;
  config.trajectory_width_limit = 0;  // analytic model: isolate scheduling cost
  config.executor_threads = kRuns;
  config.retention.max_terminal_runs = kRuns + 8;
  config.scheduler_service.queue_threshold = 40;
  config.scheduler_service.max_batch_size = 40;  // a cycle can't take everyone…
  config.scheduler_service.linger = std::chrono::milliseconds(100);
  api::QonductorClient client(config);

  api::CreateWorkflowRequest create;
  create.name = "qos-burst";
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

  // …so the priority classes compete for early-cycle slots.
  std::vector<api::InvokeRequest> requests(kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) {
    requests[i].image = created->image;
    requests[i].preferences.priority = static_cast<api::Priority>(i % api::kNumPriorities);
  }
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

  // Every run's queue wait, from its queue_wait trace span, per class.
  std::vector<double> all_waits;
  std::array<std::vector<double>, api::kNumPriorities> waits_by_priority;
  for (std::size_t i = 0; i < kRuns; ++i) {
    const auto p = static_cast<std::size_t>(requests[i].preferences.priority);
    for (const double wait : bench::queue_waits(client, (*handles)[i].id())) {
      all_waits.push_back(wait);
      waits_by_priority[p].push_back(wait);
    }
  }

  TextTable table({"priority", "jobs", "wait p50 [s, virtual]", "wait p95 [s, virtual]"});
  std::string json_classes;
  for (std::size_t p = api::kNumPriorities; p-- > 0;) {
    const auto& waits = waits_by_priority[p];
    const char* name = api::priority_name(static_cast<api::Priority>(p));
    const double p50 = waits.empty() ? 0.0 : percentile(waits, 50.0);
    const double p95 = waits.empty() ? 0.0 : percentile(waits, 95.0);
    table.add_row({name, std::to_string(waits.size()), TextTable::num(p50, 2),
                   TextTable::num(p95, 2)});
    if (!json_classes.empty()) json_classes += ",\n";
    json_classes += std::string("    \"") + name + "\": {\"jobs\": " +
                    std::to_string(waits.size()) + ", \"wait_p50_s\": " +
                    std::to_string(p50) + ", \"wait_p95_s\": " + std::to_string(p95) + "}";
  }
  table.print(std::cout, "per-priority queue waits");

  TextTable summary({"metric", "value"});
  summary.add_row({"runs completed", std::to_string(completed) + "/" + std::to_string(kRuns)});
  summary.add_row({"scheduling cycles", std::to_string(stats.cycles)});
  summary.add_row({"largest batch", std::to_string(stats.max_batch_size_seen)});
  summary.add_row({"overall wait p50 [s]",
                   TextTable::num(percentile(all_waits, 50.0), 2)});
  summary.add_row({"burst wall time [s]", TextTable::num(wall_seconds, 2)});
  summary.print(std::cout, "mixed-priority burst");

  const std::string json_path = bench::artifact_path("BENCH_qos_isolation.json");
  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"qos_isolation\",\n"
       << "  \"runs\": " << kRuns << ",\n"
       << "  \"completed\": " << completed << ",\n"
       << "  \"qpus\": " << config.num_qpus << ",\n"
       << "  \"queue_threshold\": " << config.scheduler_service.queue_threshold << ",\n"
       << "  \"max_batch_size\": " << config.scheduler_service.max_batch_size << ",\n"
       << "  \"cycles\": " << stats.cycles << ",\n"
       << "  \"by_priority\": {\n"
       << json_classes << "\n"
       << "  },\n"
       << "  \"overall_wait_p50_s\": " << percentile(all_waits, 50.0) << ",\n"
       << "  \"overall_wait_p95_s\": " << percentile(all_waits, 95.0) << ",\n"
       << "  \"burst_wall_seconds\": " << wall_seconds << "\n"
       << "}\n";
  std::cout << "\nwrote " << json_path << "\n";

  bench::print_comparison("priority classes shape who rides the early cycles",
                          "interactive p50 <= batch p50 (QoS isolation)",
                          std::to_string(stats.cycles) + " cycles / " +
                              std::to_string(kRuns) + " jobs");
  return 0;
}
