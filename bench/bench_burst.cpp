// Burst benchmark — the run engine's scale trajectory. Bursts of 1k and 5k
// concurrent runs are fanned out on executor_threads = 2 under two
// scheduler configs: "batch" (threshold-sized cycles of up to 500 jobs) and
// "per-task" (queue_threshold = max_batch_size = 1, no linger: every job
// gets its own single-job cycle). For each scenario we record p50/p95
// end-to-end run latency (virtual seconds from submit to finish) and the
// engine's peak live-run count — the decoupling statistic: pre-engine, two
// executor threads meant at most two runs could park quantum tasks at
// once, so a 5000-run burst could not even form scheduling batches. Emits
// BENCH_burst.json so future scale changes diff against this baseline.

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
#include "common/table.hpp"

namespace {

struct Scenario {
  std::string mode;
  std::size_t runs = 0;
  std::size_t completed = 0;
  double latency_p50 = 0.0;  ///< virtual seconds, submit -> finish
  double latency_p95 = 0.0;
  std::size_t peak_live = 0;
  std::uint64_t engine_events = 0;
  std::uint64_t cycles = 0;
  std::size_t largest_batch = 0;
  double wall_seconds = 0.0;
};

Scenario run_burst(bool per_task, std::size_t runs) {
  using namespace qon;
  core::QonductorConfig config;
  config.num_qpus = 8;
  config.seed = 4242;
  config.trajectory_width_limit = 0;  // analytic model: isolate orchestration cost
  config.executor_threads = 2;        // the whole point: a handful of workers
  config.retention.max_terminal_runs = runs + 8;
  config.scheduler_service.queue_capacity = 0;  // the burst IS the bound here
  if (per_task) {
    config.scheduler_service.queue_threshold = 1;
    config.scheduler_service.max_batch_size = 1;
    config.scheduler_service.linger = std::chrono::milliseconds(0);
  } else {
    config.scheduler_service.queue_threshold = 200;
    config.scheduler_service.max_batch_size = 500;
    config.scheduler_service.linger = std::chrono::milliseconds(20);
  }
  api::QonductorClient client(config);

  api::CreateWorkflowRequest create;
  create.name = "burst";
  create.tasks.push_back(workflow::HybridTask::quantum("ghz", circuit::ghz(4), 512));
  const auto created = client.createWorkflow(std::move(create));
  if (!created.ok()) throw std::runtime_error(created.status().to_string());
  api::DeployRequest deploy;
  deploy.image = created->image;
  if (const auto deployed = client.deploy(deploy); !deployed.ok()) {
    throw std::runtime_error(deployed.status().to_string());
  }

  std::vector<api::InvokeRequest> requests(runs);
  for (auto& request : requests) request.image = created->image;
  Stopwatch wall;
  const auto handles = client.invokeAll(requests);
  if (!handles.ok()) throw std::runtime_error(handles.status().to_string());

  Scenario scenario;
  scenario.mode = per_task ? "per-task" : "batch";
  scenario.runs = runs;
  std::vector<double> latencies;
  latencies.reserve(runs);
  for (const auto& handle : *handles) {
    if (handle.wait() == api::RunStatus::kCompleted) ++scenario.completed;
    const auto info = handle.info();
    if (info.ok() && info->finished_at >= info->submitted_at) {
      latencies.push_back(info->finished_at - info->submitted_at);
    }
  }
  scenario.wall_seconds = wall.seconds();
  scenario.latency_p50 = percentile(latencies, 50.0);
  scenario.latency_p95 = percentile(latencies, 95.0);
  scenario.peak_live = client.backend().runEngine().peak_live_runs();
  scenario.engine_events = client.backend().runEngine().events_dispatched();
  const auto stats = client.getSchedulerStats();
  if (stats.ok()) {
    scenario.cycles = stats->stats.cycles;
    scenario.largest_batch = stats->stats.max_batch_size_seen;
  }
  return scenario;
}

}  // namespace

int main() {
  using namespace qon;
  bench::print_header("Burst scaling",
                      "End-to-end run latency and peak live runs on 2 engine workers");

  std::vector<Scenario> scenarios;
  for (const std::size_t runs : {std::size_t{1000}, std::size_t{5000}}) {
    scenarios.push_back(run_burst(/*per_task=*/false, runs));
    scenarios.push_back(run_burst(/*per_task=*/true, runs));
  }

  TextTable table({"mode", "runs", "completed", "latency p50 [s]", "latency p95 [s]",
                   "peak live", "cycles", "largest batch", "wall [s]"});
  for (const auto& s : scenarios) {
    table.add_row({s.mode, std::to_string(s.runs), std::to_string(s.completed),
                   TextTable::num(s.latency_p50, 2), TextTable::num(s.latency_p95, 2),
                   std::to_string(s.peak_live), std::to_string(s.cycles),
                   std::to_string(s.largest_batch), TextTable::num(s.wall_seconds, 2)});
  }
  table.print(std::cout, "burst scaling on executor_threads = 2");

  const std::string json_path = bench::artifact_path("BENCH_burst.json");
  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"burst\",\n  \"executor_threads\": 2,\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto& s = scenarios[i];
    json << "    {\"mode\": \"" << s.mode << "\", \"runs\": " << s.runs
         << ", \"completed\": " << s.completed
         << ", \"latency_p50_s\": " << s.latency_p50
         << ", \"latency_p95_s\": " << s.latency_p95
         << ", \"peak_live_runs\": " << s.peak_live
         << ", \"engine_events\": " << s.engine_events
         << ", \"cycles\": " << s.cycles
         << ", \"largest_batch\": " << s.largest_batch
         << ", \"wall_seconds\": " << s.wall_seconds << "}"
         << (i + 1 < scenarios.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "\nwrote " << json_path << "\n";

  std::size_t batch_5k_peak = 0;
  for (const auto& s : scenarios) {
    if (s.mode == "batch" && s.runs == 5000) {
      batch_5k_peak = s.peak_live;
    }
  }
  bench::print_comparison(
      "thousands of live runs on two workers",
      "peak_live >> executor_threads in batch mode (engine decoupling)",
      std::to_string(batch_5k_peak) + " live runs at 5k burst");
  return 0;
}
