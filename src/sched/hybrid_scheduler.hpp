#pragma once
// The Qonductor hybrid scheduler (§7, Fig. 5): three stages —
//   (a) job pre-processing: filter infeasible jobs, gather estimates;
//   (b) optimization: NSGA-II over Eq. 1 produces a Pareto front;
//   (c) selection: pseudo-weight MCDM. With a uniform preference the whole
//       batch takes one Pareto-optimal schedule; jobs carrying their own
//       QuantumJob::fidelity_weight each take their placement from the
//       front schedule closest to their preference, so one cycle serves
//       heterogeneous fidelity/JCT tradeoffs. The composite is feasible
//       per job but is a recombination NSGA-II never evaluated — several
//       JCT-preferring jobs can pick the same fast QPU from different
//       front schedules and serialize there. Its objectives are
//       re-evaluated for the report; no pass repairs or re-selects it.
// Per-stage wall-clock timings are recorded (Fig. 9c).

#include <vector>

#include "moo/mcdm.hpp"
#include "moo/nsga2.hpp"
#include "sched/job.hpp"
#include "sched/problem.hpp"

namespace qon::sched {

/// Scheduler priorities: preference = (p_fidelity, p_jct), p1 + p2 = 1.
struct SchedulerConfig {
  moo::Nsga2Config nsga2;
  double fidelity_weight = 0.5;  ///< balanced by default
  SchedulerConfig() {
    nsga2.population_size = 64;
    nsga2.max_generations = 48;
    nsga2.tolerance_window = 6;
  }
};

/// Objective pair of one candidate schedule.
struct ObjectivePoint {
  double mean_jct = 0.0;
  double mean_error = 0.0;  ///< 1 - mean fidelity
  double mean_fidelity() const { return 1.0 - mean_error; }
};

/// Output of one scheduling cycle.
struct ScheduleDecision {
  /// assignment[i] = QPU index for input.jobs[i]; -1 for filtered jobs
  /// (jobs no online QPU can host).
  std::vector<int> assignment;
  /// Indices of input jobs that could not be scheduled.
  std::vector<std::size_t> filtered_jobs;

  ObjectivePoint chosen;
  std::vector<ObjectivePoint> pareto_front;  ///< full front (Fig. 8a/b, 10b)
  double chosen_mean_exec_seconds = 0.0;     ///< Fig. 10a
  double min_front_exec_seconds = 0.0;
  double max_front_exec_seconds = 0.0;

  // Stage wall-clock timings [s] (Fig. 9c).
  double preprocess_seconds = 0.0;
  double optimize_seconds = 0.0;
  double select_seconds = 0.0;

  std::size_t nsga2_generations = 0;
  std::size_t nsga2_evaluations = 0;
};

/// Pre-processing helper (stage a): splits jobs into schedulable vs
/// filtered (no online QPU fits) and returns a compacted input.
struct PreprocessResult {
  SchedulingInput compact;
  std::vector<std::size_t> kept_indices;     ///< into the original job list
  std::vector<std::size_t> filtered_indices;
};
PreprocessResult preprocess_jobs(const SchedulingInput& input);

/// Runs one full scheduling cycle.
ScheduleDecision schedule_cycle(const SchedulingInput& input, const SchedulerConfig& config);

}  // namespace qon::sched
