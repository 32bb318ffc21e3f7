#pragma once
// Shared types of the qonductor benchmark: the workload table, one measured
// "arm" (a client driven for a fixed wall window) and what an arm returns.
//
// The benchmark only looks at the system from outside: it times its own
// calls into the public api::QonductorClient surface, reads the spans the
// program records (getRunTrace) and the registry (getMetrics, delta over the
// timed window). Nothing here reaches into src/ internals.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/client.hpp"
#include "circuit/library.hpp"

namespace perfbench {

enum class Loop { kClosed, kOpen };

/// One named workload. Everything a run sends is derived from the seed.
struct WorkloadSpec {
  std::string name;
  Loop loop = Loop::kClosed;
  /// Closed loop: runs per invokeAll group; also the scheduler's
  /// queue_threshold, so every cycle is one full group.
  std::size_t group = 0;
  /// Open loop: Poisson arrival rate on the wall clock (runs/s).
  double rate_per_s = 0.0;
  /// Open loop: share of arrivals that target a never-seen image
  /// (createWorkflow + deploy right before the invoke).
  double fresh_share = 0.0;
  std::size_t engine_workers = 2;
  /// Real-time grace a sub-threshold batch gets before a timer cycle.
  std::chrono::milliseconds linger{5000};
  /// 0 = analytic execution model only (no trajectory simulation).
  int trajectory_width_limit = 0;
  int shots = 512;
  /// The images deployed at set-up, one per (family, width).
  std::vector<std::pair<qon::circuit::BenchmarkFamily, int>> images;
  /// Fresh images (open loop) draw a family and a width in this range.
  int fresh_min_width = 3;
  int fresh_max_width = 5;
};

/// The fidelity weights runs draw from (uniformly), and the isolated
/// generateSchedule batch cycles through.
inline constexpr double kFidelityWeights[] = {0.1, 0.3, 0.5, 0.7, 0.9};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

/// One span recorded by the benchmark itself around a public call, tagged
/// with the run it belongs to. Kept in memory, written once at the end.
struct OwnSpan {
  std::uint64_t run = 0;
  const char* name = "";
  double start_us = 0.0;  ///< µs since the arm's window start
  double end_us = 0.0;
};

/// Per-run figures pulled from getRunTrace. Phase partition of one
/// single-quantum-task run along its wall timeline:
///   submit -> first engine_step (front) -> park (park) -> queue_wait end
///   (queue) -> resume engine_step (resume) -> qpu_exec start (pre_exec)
///   -> qpu_exec end (exec) -> settle (tail).
struct TraceStats {
  std::size_t runs = 0;
  std::size_t irregular = 0;  ///< traces without the single-task shape
  std::vector<double> first_step_lag_ms;
  std::vector<double> resume_lag_ms;
  std::vector<double> step_self_ms;  ///< per run: engine_step wall - qpu_exec
  std::vector<double> queue_wait_ms;
  std::vector<double> exec_wall_ms;
  std::vector<double> settle_lag_ms;
  /// Sums over regular runs of each partition phase (ms).
  std::map<std::string, double> phase_sum_ms;
  double lifetime_sum_ms = 0.0;  ///< submit -> settle, regular runs
};

/// Quantile sketch in fixed memory: counts in log-spaced buckets 0.1 %
/// wide over [1e-4, 1e6). The benchmark's own memory then does not grow with
/// the number of runs it sees — peak_rss_mb tracks the system, not the
/// bookkeeping — and every quantile is within 0.1 % of the exact one.
class LogHistogram {
 public:
  LogHistogram() : counts_(kBuckets, 0) {}

  void add(double x);
  /// Nearest-rank p-th percentile (p in [0, 100]); 0 when empty.
  double quantile(double p) const;
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }

 private:
  static constexpr double kMin = 1e-4;
  static constexpr double kGrowth = 1.001;
  static constexpr std::size_t kBuckets = 23040;  ///< log(1e10) / log(1.001)

  std::vector<std::uint32_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Wall-clock figures of one slice of the timed window. Runs belong to the
/// slice their send instant falls in.
struct Segment {
  double wall_seconds = 0.0;  ///< closed loop: active group time; open: slice length
  double cpu_seconds = 0.0;   ///< process CPU time over the same span
  std::size_t completed = 0;
  LogHistogram settle_ms;  ///< completed runs only
  LogHistogram submit_us;
};

/// The timed window is cut into this many equal slices. Wall-clock metrics
/// are the median over slices of the per-slice figure, so one slow slice
/// (a burst of CPU steal on a shared host) barely moves them.
inline constexpr std::size_t kSegments = 5;

/// What one measured arm reports.
struct ArmResult {
  double setup_seconds = 0.0;  ///< client + images + warm-up group
  double window_seconds = 0.0;  ///< timed wall window
  std::size_t attempted = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;  ///< RESOURCE_EXHAUSTED at invoke (admission gate)
  std::map<std::string, std::size_t> failed_by_code;  ///< incl. invoke errors
  std::vector<Segment> segments = std::vector<Segment>(kSegments);
  LogHistogram lateness_ms;  ///< open loop: send instant - due time
  LogHistogram jct_s;        ///< virtual finished_at - submitted_at
  double fidelity_sum = 0.0;
  std::size_t quantum_tasks = 0;
  std::size_t simulated_tasks = 0;  ///< tasks that carry trajectory counts
  double busy_qpu_seconds = 0.0;
  double virtual_span_seconds = 0.0;
  std::size_t num_qpus = 0;
  double peak_rss_mb = 0.0;
  std::vector<std::string> violations;  ///< correctness failures (capped)
  std::size_t violation_count = 0;
  qon::api::MetricsSnapshot delta;  ///< registry delta over the window
  std::vector<double> cycle_wall_ms;  ///< cycles fired inside the window
  TraceStats trace;
  std::vector<OwnSpan> own_spans;
  std::vector<double> create_deploy_us;

  /// Median over slices of completed runs / slice wall time.
  double runs_per_s() const;
  /// Median over slices of process CPU time per completed run.
  double cpu_us_per_run() const;
  /// Median over slices of the slice's p-th settle / submit percentile.
  double settle_ms(double p) const;
  double submit_us(double p) const;
  /// Mean settle time over every slice.
  double settle_mean_ms() const;
  void violate(std::string what);
};

struct ArmOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool tracing = false;
  /// Busy-spin injected through QonductorConfig::on_task_start (µs).
  double spin_us = 0.0;
  /// Set-ups made in this arm; all are timed, the last one is measured.
  std::size_t setups = 1;
};

/// Isolated timings of single layers on the workload's own inputs.
struct IsolatedLayers {
  double transpile_ms = 0.0;         ///< per (circuit, backend)
  double predict_us = 0.0;           ///< per (circuit, backend)
  double generate_schedule_ms = 0.0;  ///< one cycle-sized batch
  double run_noisy_ms = 0.0;         ///< per simulated circuit
};

/// Sets up a client for `spec`, drives it for `options.seconds` and checks
/// every run it sees.
ArmResult run_arm(const WorkloadSpec& spec, const ArmOptions& options,
                  std::vector<double>* setup_seconds = nullptr,
                  IsolatedLayers* isolated = nullptr);

/// Folds one run's trace into `stats`.
void absorb_trace(const qon::api::RunTrace& trace, TraceStats& stats);

/// Times transpile / predict / generateSchedule / run_noisy on `circuits`
/// against the client's fleet; `batch` jobs per generateSchedule call.
IsolatedLayers time_isolated_layers(const qon::api::QonductorClient& client,
                                    const std::vector<qon::circuit::Circuit>& circuits,
                                    std::size_t batch, int shots, int width_limit,
                                    std::uint64_t seed);

double percentile_of(std::vector<double> xs, double p);
double mean_of(const std::vector<double>& xs);

}  // namespace perfbench
