// Schedule-quality harness for the §7 optimizer: runs schedule_cycle over
// a fixed set of seeded inputs and prints, per input, the chosen schedule's
// mean JCT and mean error, the Pareto front's size and hypervolume, and the
// evaluations NSGA-II spent. Given the output of an earlier run (another
// optimizer version) as its argument, it also prints the per-input ratios
// against it, summarized as mean / median / min / max, and holds the means
// to the quality gate below.
//
//   bench_nsga2_quality > mine.txt
//   bench_nsga2_quality baseline.txt
//
// bench/nsga2_quality_baseline.txt holds the current kernel's output. CI
// runs the bench against that file as it stood before the change under
// test, so a change that moves the optimizer's random stream is judged
// against the old kernel; such a change re-captures the file, and the next
// change is judged against the new one.
//
// Inputs: 1-500 jobs, 2-16 QPUs of mixed sizes, some QPUs offline, a few
// infeasible (job, QPU) cells, and every third input with mixed per-job
// fidelity weights. Exit code 1 if any input returns an empty front or an
// infeasible assignment, or, given a baseline, if the mean chosen-JCT or
// chosen-error ratio leaves [0.99, 1.01] or the mean hypervolume ratio
// falls below 0.995.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "sched/baselines.hpp"
#include "sched/hybrid_scheduler.hpp"
#include "sched/problem.hpp"

namespace {

using namespace qon;

constexpr int kInputs = 320;

// The quality gate on the mean ratios against a baseline.
constexpr double kMeanRatioLow = 0.99;
constexpr double kMeanRatioHigh = 1.01;
constexpr double kMinHypervolumeRatio = 0.995;

sched::SchedulingInput make_input(int index) {
  Rng rng(derive_seed(0x9a11e7ULL, static_cast<std::uint64_t>(index)));
  sched::SchedulingInput input;
  const auto qpus = static_cast<std::size_t>(rng.uniform_int(2, 16));
  const int sizes[] = {5, 7, 16, 27};
  bool any_online = false;
  for (std::size_t q = 0; q < qpus; ++q) {
    sched::QpuState qpu;
    qpu.name = "q";
    qpu.name += std::to_string(q);
    qpu.size = sizes[rng.uniform_int(0, 3)];
    qpu.queue_wait_seconds = rng.uniform(0.0, 600.0);
    qpu.online = !rng.bernoulli(0.15);
    any_online = any_online || qpu.online;
    input.qpus.push_back(qpu);
  }
  if (!any_online) input.qpus.front().online = true;
  // Log-uniform batch size in [1, 500]: small timer cycles and large bursts.
  const auto jobs = static_cast<std::size_t>(
      std::clamp(std::lround(std::exp(rng.uniform(0.0, std::log(500.0)))), 1L, 500L));
  const bool mixed_weights = index % 3 == 0;
  const double weights[] = {0.1, 0.3, 0.5, 0.7, 0.9};
  for (std::size_t j = 0; j < jobs; ++j) {
    sched::QuantumJob job;
    job.id = j;
    job.qubits = static_cast<int>(rng.uniform_int(2, 20));
    if (mixed_weights) job.fidelity_weight = weights[rng.uniform_int(0, 4)];
    for (std::size_t q = 0; q < qpus; ++q) {
      job.est_fidelity.push_back(rng.uniform(0.2, 0.95));
      job.est_exec_seconds.push_back(rng.bernoulli(0.05) ? sched::kInfeasibleTime
                                                         : rng.uniform(0.5, 30.0));
    }
    input.jobs.push_back(std::move(job));
  }
  return input;
}

// Two-objective hypervolume of `front` (minimized) against `ref`.
double hypervolume(std::vector<sched::ObjectivePoint> front, double ref_jct, double ref_error) {
  std::sort(front.begin(), front.end(), [](const auto& a, const auto& b) {
    return a.mean_jct < b.mean_jct || (a.mean_jct == b.mean_jct && a.mean_error < b.mean_error);
  });
  double volume = 0.0;
  double ceiling = ref_error;
  for (const auto& p : front) {
    if (p.mean_jct >= ref_jct || p.mean_error >= ceiling) continue;
    volume += (ref_jct - p.mean_jct) * (ceiling - p.mean_error);
    ceiling = p.mean_error;
  }
  return volume;
}

struct Row {
  int input = 0;
  double jct = 0.0;
  double error = 0.0;
  double front = 0.0;
  double hv = 0.0;
  double evaluations = 0.0;
};

std::map<int, Row> read_rows(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::map<int, Row> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("input ", 0) != 0) continue;
    std::istringstream fields(line);
    std::string tag;
    Row row;
    std::size_t jobs = 0;
    std::size_t qpus = 0;
    fields >> tag >> row.input >> jobs >> qpus >> row.jct >> row.error >> row.front >> row.hv >>
        row.evaluations;
    rows[row.input] = row;
  }
  return rows;
}

// Prints the ratios' summary and returns their mean (NaN when empty).
double print_ratio(const std::string& name, std::vector<double> ratios) {
  if (ratios.empty()) return std::nan("");
  std::sort(ratios.begin(), ratios.end());
  std::printf("%-22s mean %.4f  median %.4f  min %.4f  max %.4f  (n=%zu)\n", name.c_str(),
              mean(ratios), ratios[ratios.size() / 2], ratios.front(), ratios.back(),
              ratios.size());
  return mean(ratios);
}

// Counts a gate violation, and prints it, unless lo <= value <= hi.
int gate(const char* name, double value, double lo, double hi) {
  if (value >= lo && value <= hi) return 0;
  std::printf("VIOLATION %s mean ratio %.4f outside [%.4f, %.4f]\n", name, value, lo, hi);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<int, Row> baseline;
  if (argc > 1) baseline = read_rows(argv[1]);

  int violations = 0;
  std::vector<Row> rows;
  std::printf("# input jobs qpus chosen_jct chosen_error front_size hypervolume evaluations\n");
  for (int i = 0; i < kInputs; ++i) {
    const sched::SchedulingInput input = make_input(i);
    sched::SchedulerConfig config;
    config.nsga2.seed = derive_seed(0x5eedULL, static_cast<std::uint64_t>(i));
    sched::ScheduleDecision decision;
    try {
      decision = sched::schedule_cycle(input, config);
    } catch (const std::exception& e) {
      std::printf("VIOLATION input %d: %s\n", i, e.what());
      ++violations;
      continue;
    }
    const sched::PreprocessResult pre = sched::preprocess_jobs(input);
    if (pre.compact.jobs.empty()) continue;  // every job filtered: no front
    if (decision.pareto_front.empty()) {
      std::printf("VIOLATION input %d: empty front\n", i);
      ++violations;
      continue;
    }
    for (std::size_t j = 0; j < input.jobs.size(); ++j) {
      const int q = decision.assignment[j];
      const bool filtered = std::find(decision.filtered_jobs.begin(), decision.filtered_jobs.end(),
                                      j) != decision.filtered_jobs.end();
      if (filtered) continue;
      const bool feasible = q >= 0 && static_cast<std::size_t>(q) < input.qpus.size() &&
                            input.qpus[static_cast<std::size_t>(q)].online &&
                            input.jobs[j].qubits <= input.qpus[static_cast<std::size_t>(q)].size &&
                            std::isfinite(input.jobs[j].est_exec_seconds[static_cast<std::size_t>(q)]);
      if (!feasible) {
        std::printf("VIOLATION input %d: job %zu on QPU %d is infeasible\n", i, j, q);
        ++violations;
      }
    }
    // Reference point: 1.1x the worse of the two heuristic schedules NSGA-II
    // is seeded with, in each objective — the same for every optimizer.
    const sched::SchedulingProblem problem(pre.compact);
    double ref_jct = 0.0;
    double ref_error = 0.0;
    for (const auto& genome : {sched::assign_best_fidelity_fcfs(pre.compact),
                               sched::assign_least_busy(pre.compact)}) {
      std::vector<double> objectives;
      problem.evaluate(genome, objectives);
      ref_jct = std::max(ref_jct, 1.1 * objectives[0]);
      ref_error = std::max(ref_error, 1.1 * objectives[1]);
    }
    Row row;
    row.input = i;
    row.jct = decision.chosen.mean_jct;
    row.error = decision.chosen.mean_error;
    row.front = static_cast<double>(decision.pareto_front.size());
    row.hv = hypervolume(decision.pareto_front, ref_jct, ref_error);
    row.evaluations = static_cast<double>(decision.nsga2_evaluations);
    rows.push_back(row);
    std::printf("input %d %zu %zu %.17g %.17g %zu %.17g %zu\n", i, pre.compact.jobs.size(),
                input.qpus.size(), row.jct, row.error, decision.pareto_front.size(), row.hv,
                decision.nsga2_evaluations);
  }

  std::printf("# %zu inputs scheduled, %d violations\n", rows.size(), violations);
  if (argc > 1) {
    std::vector<double> jct;
    std::vector<double> error;
    std::vector<double> hv;
    std::vector<double> front;
    std::vector<double> evaluations;
    for (const Row& row : rows) {
      const auto it = baseline.find(row.input);
      if (it == baseline.end()) continue;
      const Row& base = it->second;
      if (base.jct > 0.0) jct.push_back(row.jct / base.jct);
      if (base.error > 0.0) error.push_back(row.error / base.error);
      if (base.hv > 0.0) hv.push_back(row.hv / base.hv);
      front.push_back(row.front / base.front);
      evaluations.push_back(row.evaluations / base.evaluations);
    }
    std::printf("# ratio to baseline (this / baseline)\n");
    const double jct_mean = print_ratio("chosen_jct", jct);
    const double error_mean = print_ratio("chosen_error", error);
    const double hv_mean = print_ratio("hypervolume", hv);
    print_ratio("front_size", front);
    print_ratio("evaluations", evaluations);
    violations += gate("chosen_jct", jct_mean, kMeanRatioLow, kMeanRatioHigh);
    violations += gate("chosen_error", error_mean, kMeanRatioLow, kMeanRatioHigh);
    violations += gate("hypervolume", hv_mean, kMinHypervolumeRatio, HUGE_VAL);
  }
  return violations == 0 ? 0 : 1;
}
