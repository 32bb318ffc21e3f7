#pragma once
// End-to-end cloud simulation (§8.2-8.3): a fleet of QPU workers, a
// classical node pool, the load generator, and a pluggable scheduling
// policy (Qonductor's hybrid scheduler vs the best-fidelity FCFS and
// least-busy baselines). Produces the records behind Figs. 2c, 6, 8 and 9.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloudsim/workload.hpp"
#include "estimator/models.hpp"
#include "qpu/fleet.hpp"
#include "sched/hybrid_scheduler.hpp"

namespace qon::cloudsim {

enum class SchedulingPolicy {
  kQonductor,         ///< batched NSGA-II + MCDM (triggers per §7)
  kBestFidelityFcfs,  ///< per-arrival, highest-fidelity QPU (paper baseline)
  kLeastBusy,         ///< per-arrival, shortest-queue QPU
};

const char* policy_name(SchedulingPolicy policy);

struct CloudSimConfig {
  WorkloadConfig workload;
  std::size_t num_qpus = 8;
  std::uint64_t seed = 42;
  /// Fleet quality band (see make_ibm_like_fleet). Narrower bands make the
  /// fidelity objective flatter, so the scheduler spreads load more evenly.
  double fleet_best_quality = 0.72;
  double fleet_worst_quality = 1.55;
  SchedulingPolicy policy = SchedulingPolicy::kQonductor;
  sched::SchedulerConfig scheduler;
  std::size_t queue_trigger = 100;
  double timer_trigger_seconds = 120.0;
  double calibration_interval_hours = 12.0;
  bool calibration_crossover = true;
  double hidden_sigma = 0.25;
  double crosstalk_factor = 1.08;
  double queue_sample_interval_seconds = 60.0;
  /// Optional trained estimators; the calibration-model fallback is used
  /// when null.
  const estimator::FidelityEstimator* fidelity_model = nullptr;
  const estimator::RuntimeEstimator* runtime_model = nullptr;
};

/// Per-application outcome.
struct AppRecord {
  std::uint64_t id = 0;
  double arrival = 0.0;
  int width = 0;
  int shots = 0;
  bool mitigated = false;
  int qpu = -1;
  std::string qpu_name;
  double scheduled_at = 0.0;
  double start = 0.0;
  double quantum_done = 0.0;
  double completion = 0.0;
  double est_fidelity = 0.0;
  double measured_fidelity = 0.0;
  double quantum_exec_seconds = 0.0;
  double classical_seconds = 0.0;

  double jct() const { return completion - arrival; }
  double waiting_seconds() const { return start - arrival; }
};

/// Per-scheduling-cycle trace (Qonductor policy only).
struct CycleRecord {
  double time = 0.0;
  std::size_t jobs_scheduled = 0;
  sched::ObjectivePoint chosen;
  double min_front_jct = 0.0;
  double max_front_jct = 0.0;
  double min_front_fidelity = 0.0;
  double max_front_fidelity = 0.0;
  double chosen_exec_seconds = 0.0;
  double min_front_exec_seconds = 0.0;
  double max_front_exec_seconds = 0.0;
  double preprocess_seconds = 0.0;
  double optimize_seconds = 0.0;
  double select_seconds = 0.0;
};

/// Periodic queue-state sample.
struct QueueSample {
  double time = 0.0;
  std::vector<std::size_t> qpu_queue_lengths;
  std::size_t scheduler_pending = 0;
};

struct SimulationResult {
  std::vector<AppRecord> apps;          ///< completed applications
  std::vector<CycleRecord> cycles;
  std::vector<QueueSample> queue_samples;
  std::vector<std::string> qpu_names;
  std::vector<double> qpu_busy_seconds; ///< total exec time per QPU (Fig. 8c)
  double horizon_seconds = 0.0;
  std::size_t generated_apps = 0;
  std::size_t unscheduled_apps = 0;     ///< filtered (no QPU fits)

  // Aggregates over completed apps.
  double mean_fidelity() const;
  double mean_jct() const;
  double mean_utilization() const;      ///< mean busy fraction over horizon
};

/// The QPU fleet a run of `config` starts from, before any recalibration,
/// and the backend every application is transpiled for: the fleet's first
/// template, so one transpilation serves every QPU.
struct SimulationFleet {
  qpu::Fleet fleet;
  qpu::Backend transpile_target;
};

SimulationFleet make_simulation_fleet(const CloudSimConfig& config);

/// Runs the simulation to completion (all generated apps either complete or
/// are filtered; the event horizon extends past the arrival window until
/// queues drain, capped at 50x the workload duration). The applications are
/// generate_workload(config.workload), on make_simulation_fleet(config).
SimulationResult run_cloud_simulation(const CloudSimConfig& config);

}  // namespace qon::cloudsim
