// Figure 8a/b — Per-scheduling-cycle traces at 1500 jobs/hour, equal
// fidelity/JCT weights: the Pareto front's min/max JCT and fidelity
// bracketing the chosen solution. Paper: chosen JCT 34% below the maximum
// front (95th pct: 17.4%); chosen fidelity only 4% below the maximum.
//
// Usage: bench_fig8ab_scheduler_tradeoff [first_seed last_seed]
// Without arguments it runs the pinned seed 808 and prints the per-cycle
// table and the paper comparison. With a seed range it runs one simulation
// per seed and prints each seed's mean chosen-JCT reduction, then the
// range's mean, min and max: the yardstick for a change to the optimizer's
// random stream, whose effect one seed cannot show.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cloudsim/simulation.hpp"
#include "common/stats.hpp"

namespace {

using namespace qon;
using namespace qon::cloudsim;

SimulationResult simulate(std::uint64_t seed) {
  CloudSimConfig config;
  config.policy = SchedulingPolicy::kQonductor;
  config.num_qpus = 8;
  config.seed = seed;
  config.workload.jobs_per_hour = 1500.0;
  config.workload.duration_hours = 1.0;
  config.workload.seed = seed;
  config.scheduler.fidelity_weight = 0.5;
  return run_cloud_simulation(config);
}

// Chosen-JCT reduction vs the max Pareto front, one entry per cycle that
// scheduled jobs and has a positive max front JCT.
std::vector<double> jct_reductions(const SimulationResult& result) {
  std::vector<double> reduction;
  for (const auto& cycle : result.cycles) {
    if (cycle.jobs_scheduled == 0) continue;
    if (cycle.max_front_jct > 0.0) {
      reduction.push_back(1.0 - cycle.chosen.mean_jct / cycle.max_front_jct);
    }
  }
  return reduction;
}

int run_seed_range(std::uint64_t first, std::uint64_t last) {
  bench::print_header("Figure 8a/b (seed range)",
                      "Mean chosen-JCT reduction vs max Pareto front, seeds " +
                          std::to_string(first) + "-" + std::to_string(last));
  TextTable table({"seed", "cycles", "mean chosen-JCT reduction"});
  std::vector<double> per_seed;
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const auto reduction = jct_reductions(simulate(seed));
    per_seed.push_back(mean(reduction));
    table.add_row({std::to_string(seed), std::to_string(reduction.size()),
                   bench::pct(per_seed.back(), 2)});
  }
  table.print(std::cout, "per seed");
  TextTable summary({"seeds", "mean", "min", "max"});
  summary.add_row({std::to_string(per_seed.size()), bench::pct(mean(per_seed), 2),
                   bench::pct(*std::min_element(per_seed.begin(), per_seed.end()), 2),
                   bench::pct(*std::max_element(per_seed.begin(), per_seed.end()), 2)});
  summary.print(std::cout, "range");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 1) {
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    try {
      if (argc != 3) throw std::invalid_argument("seed count");
      first = std::stoull(argv[1]);
      last = std::stoull(argv[2]);
      if (first > last) throw std::invalid_argument("empty range");
    } catch (const std::exception&) {
      std::cerr << "usage: " << argv[0] << " [first_seed last_seed], first_seed <= last_seed\n";
      return 2;
    }
    return run_seed_range(first, last);
  }

  bench::print_header("Figure 8a/b",
                      "Per-cycle Pareto bounds vs chosen solution (1500 j/h, equal weights)");
  const auto result = simulate(808);

  TextTable table({"cycle", "min JCT", "chosen JCT", "max JCT", "min fid", "chosen fid",
                   "max fid"});
  const std::vector<double> jct_reduction = jct_reductions(result);  // chosen vs max front
  std::vector<double> fid_penalty;                              // chosen vs max front
  int cycle_no = 0;
  for (const auto& cycle : result.cycles) {
    if (cycle.jobs_scheduled == 0) continue;
    ++cycle_no;
    table.add_row({std::to_string(cycle_no), TextTable::num(cycle.min_front_jct, 0),
                   TextTable::num(cycle.chosen.mean_jct, 0),
                   TextTable::num(cycle.max_front_jct, 0),
                   TextTable::num(cycle.min_front_fidelity, 3),
                   TextTable::num(cycle.chosen.mean_fidelity(), 3),
                   TextTable::num(cycle.max_front_fidelity, 3)});
    if (cycle.max_front_fidelity > 0.0) {
      fid_penalty.push_back(1.0 - cycle.chosen.mean_fidelity() / cycle.max_front_fidelity);
    }
  }
  table.print(std::cout, "scheduling cycles (JCT in seconds)");

  bench::print_comparison("mean chosen-JCT reduction vs max Pareto front", "34%",
                          bench::pct(mean(jct_reduction)));
  bench::print_comparison("95th pct chosen-JCT reduction vs max front", "17.4%",
                          bench::pct(percentile(jct_reduction, 5.0)));  // worst-case cycles
  bench::print_comparison("mean chosen-fidelity penalty vs max front", "4%",
                          bench::pct(mean(fid_penalty)));
  bench::print_comparison("95th pct chosen-fidelity penalty vs max front", "6%",
                          bench::pct(percentile(fid_penalty, 95.0)));
  return 0;
}
