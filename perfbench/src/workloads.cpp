// The benchmark's workloads. Each stresses a different layer; the reason
// for each and its interaction table live in perfbench/README.md.

#include "bench.hpp"

namespace perfbench {

namespace {

using qon::circuit::BenchmarkFamily;

std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> specs;

  // Orchestration-bound: front door, engine, pending queue, NSGA-II over
  // large batches, analytic execution. Simulator and transpiler idle.
  WorkloadSpec burst;
  burst.name = "burst_analytic";
  burst.loop = Loop::kClosed;
  burst.group = 500;
  burst.engine_workers = 2;
  burst.trajectory_width_limit = 0;
  burst.images = {{BenchmarkFamily::kGhz, 4},
                  {BenchmarkFamily::kQft, 4},
                  {BenchmarkFamily::kBv, 4},
                  {BenchmarkFamily::kWState, 4}};
  specs.push_back(burst);

  // Execution-bound: noisy trajectory simulation under the engine lock.
  WorkloadSpec trajectory;
  trajectory.name = "trajectory_mix";
  trajectory.loop = Loop::kClosed;
  trajectory.group = 100;
  trajectory.engine_workers = 4;
  trajectory.trajectory_width_limit = 12;
  // ~7.6 ms of simulation per task on average; the seed-dependent
  // instances (QAOA graph, random circuit) carry the cheaper shares.
  trajectory.images = {{BenchmarkFamily::kQaoa, 5},
                       {BenchmarkFamily::kQft, 6},
                       {BenchmarkFamily::kRandom, 6},
                       {BenchmarkFamily::kGhz, 8}};
  specs.push_back(trajectory);

  // Latency under an arrival schedule below saturation, with registry
  // writes and prep-cache misses beside the re-invokes.
  WorkloadSpec open;
  open.name = "open_fresh";
  open.loop = Loop::kOpen;
  open.rate_per_s = 2000.0;
  open.fresh_share = 0.05;
  open.engine_workers = 2;
  // Timer cycles of ~25 runs. At the 2 ms default linger the scheduler
  // thread is busy well over half the time and the run's CPU cost and
  // settle latency flip between two regimes with host load.
  open.linger = std::chrono::milliseconds(10);
  open.trajectory_width_limit = 0;
  // Widths stay where every family keeps its executed fidelity well above
  // zero (at width 6 a QFT or QAOA instance can sample a fidelity of 0).
  open.images = {{BenchmarkFamily::kGhz, 5},    {BenchmarkFamily::kQft, 4},
                 {BenchmarkFamily::kQaoa, 4},   {BenchmarkFamily::kVqe, 5},
                 {BenchmarkFamily::kBv, 5},     {BenchmarkFamily::kWState, 4},
                 {BenchmarkFamily::kGrover, 4}, {BenchmarkFamily::kRandom, 5}};
  open.fresh_min_width = 3;
  open.fresh_max_width = 5;
  specs.push_back(open);

  return specs;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = make_workloads();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

}  // namespace perfbench
