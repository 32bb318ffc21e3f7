// qbench — the qonductor benchmark's load generator.
//
//   qbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload three times — untraced, traced, and traced with a busy
// spin injected through QonductorConfig::on_task_start — and reports the
// per-layer metrics. Human-readable tables go first; the last line of
// stdout is one JSON object {correct, attempted, failed, metrics}. Exits 1
// when a correctness check fails, 2 on a usage or set-up error.

#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "obs/delta.hpp"

namespace {

using perfbench::ArmOptions;
using perfbench::ArmResult;
using perfbench::mean_of;
using perfbench::percentile_of;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("every flag takes one value");
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) value = 0.0;
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  void print_table(const std::string& title) const {
    std::cout << "\n" << title << "\n";
    for (const auto& m : metrics_) {
      std::cout << "  " << std::left << std::setw(30) << m.name << std::right
                << std::setw(16) << std::setprecision(6) << m.value << "  " << m.unit << "\n";
    }
  }

  std::string json(bool correct, std::size_t attempted, std::size_t failed) const {
    std::ostringstream out;
    out << std::setprecision(12);
    out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
        << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      out << (i ? ", " : "") << "\"" << metrics_[i].name << "\": {\"value\": "
          << metrics_[i].value << ", \"unit\": \"" << metrics_[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
  }

 private:
  std::vector<Metric> metrics_;
};

double family(const ArmResult& r, const char* name) {
  return qon::obs::sum_metric_family(r.delta, name);
}

/// Mean of a registry histogram over the window, in ms.
double histogram_mean_ms(const ArmResult& r, const char* name) {
  const auto* metric = qon::obs::find_metric(r.delta, name);
  return metric && metric->count > 0 ? 1e3 * metric->sum / static_cast<double>(metric->count)
                                     : 0.0;
}

std::size_t failed_runs(const ArmResult& r) { return r.attempted - r.completed; }

/// Busy virtual QPU-seconds over QPUs x virtual span of the window.
double qpu_util(const ArmResult& r) {
  return r.virtual_span_seconds > 0.0
             ? r.busy_qpu_seconds / (static_cast<double>(r.num_qpus) * r.virtual_span_seconds)
             : 0.0;
}

void print_arm(const std::string& label, const ArmResult& r) {
  std::cout << "[" << label << "] attempted " << r.attempted << ", completed " << r.completed
            << " in " << std::setprecision(4) << r.window_seconds << " s wall ("
            << r.runs_per_s() << " runs/s, median of " << r.segments.size()
            << " slices); failed_frac "
            << (r.attempted ? static_cast<double>(failed_runs(r)) / r.attempted : 0.0)
            << " = " << failed_runs(r) << "/" << r.attempted;
  for (const auto& [code, n] : r.failed_by_code) std::cout << " " << code << "=" << n;
  std::cout << "\n[" << label << "] settle p50 " << r.settle_ms(50) << " ms, p99 "
            << r.settle_ms(99) << " ms, jct p99 "
            << r.jct_s.quantile(99) << " s virtual, qpu_util " << qpu_util(r) << "\n";
  if (r.lateness_ms.count() > 0) {
    std::cout << "[" << label << "] generator lateness p50 "
              << r.lateness_ms.quantile(50) << " ms, p99 "
              << r.lateness_ms.quantile(99) << " ms\n";
  }
  if (r.quantum_tasks > 0) {
    std::cout << "[" << label << "] quantum tasks " << r.quantum_tasks << ", trajectory-simulated "
              << r.simulated_tasks << "\n";
  }
  for (const auto& v : r.violations) std::cout << "[" << label << "] VIOLATION: " << v << "\n";
  if (r.violation_count > r.violations.size()) {
    std::cout << "[" << label << "] ... " << r.violation_count - r.violations.size()
              << " more violations\n";
  }
}

void end_to_end(const perfbench::WorkloadSpec& spec, const Args& args) {
  ArmOptions options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.setups = 9;
  std::vector<double> setups;
  const ArmResult r = perfbench::run_arm(spec, options, &setups);
  print_arm(spec.name, r);

  Report report;
  report.add("cpu_us_per_run", r.cpu_us_per_run(), "us");
  report.add("completed_frac",
             r.attempted ? static_cast<double>(r.completed) / r.attempted : 0.0, "ratio");
  report.add("jct_p50_s", r.jct_s.quantile(50), "s_virtual");
  report.add("fidelity_mean",
             r.quantum_tasks ? r.fidelity_sum / static_cast<double>(r.quantum_tasks) : 0.0,
             "ratio");
  report.add("peak_rss_mb", r.peak_rss_mb, "MB");
  report.add("setup_s", percentile_of(setups, 50), "s");
  report.print_table("end-to-end metrics: " + spec.name + " (seed " + std::to_string(args.seed) +
                     ", " + std::to_string(r.completed) + " completed runs)");
  const bool correct = r.violation_count == 0 && r.attempted > 0;
  std::cout << report.json(correct, r.attempted, failed_runs(r)) << std::endl;
  if (!correct) std::exit(1);
}

void write_own_spans(const Args& args, const ArmResult& r) {
  if (args.out_dir.empty()) return;
  std::filesystem::create_directories(args.out_dir);
  const std::string path = args.out_dir + "/spans_" + args.workload + ".jsonl";
  std::ofstream out(path);
  out << std::setprecision(12);
  for (const auto& span : r.own_spans) {
    out << "{\"run\": " << span.run << ", \"name\": \"" << span.name
        << "\", \"start_us\": " << span.start_us << ", \"end_us\": " << span.end_us << "}\n";
  }
  std::cout << "wrote " << r.own_spans.size() << " benchmark spans to " << path << "\n";
}

void print_breakdown(const ArmResult& r) {
  const auto& t = r.trace;
  const std::size_t regular = t.runs - t.irregular;
  if (regular == 0) return;
  const double settle_mean = r.settle_mean_ms();
  std::cout << "\nwall breakdown per run (traced, " << regular << " of " << t.runs
            << " runs with the single-task shape; mean ms and share of observed settle)\n";
  for (const char* phase : {"front", "park", "queue", "resume", "pre_exec", "exec", "tail"}) {
    const auto it = t.phase_sum_ms.find(phase);
    const double mean = it == t.phase_sum_ms.end() ? 0.0 : it->second / regular;
    std::cout << "  " << std::left << std::setw(12) << phase << std::right << std::setw(12)
              << std::setprecision(4) << mean << " ms  " << std::setw(6)
              << (settle_mean > 0 ? 100.0 * mean / settle_mean : 0.0) << " %\n";
  }
  const double lifetime = t.lifetime_sum_ms / regular;
  std::cout << "  " << std::left << std::setw(12) << "client" << std::right << std::setw(12)
            << settle_mean - lifetime << " ms  " << std::setw(6)
            << (settle_mean > 0 ? 100.0 * (settle_mean - lifetime) / settle_mean : 0.0)
            << " %  (send instant -> submit, settle -> generator sees it)\n";
  std::cout << "cycle stages (mean ms per cycle): preprocess "
            << histogram_mean_ms(r, "qon_sched_cycle_preprocess_seconds") << ", optimize "
            << histogram_mean_ms(r, "qon_sched_cycle_optimize_seconds") << ", select "
            << histogram_mean_ms(r, "qon_sched_cycle_select_seconds") << ", whole cycle "
            << histogram_mean_ms(r, "qon_sched_cycle_latency_seconds") << "\n";
}

void per_layer(const perfbench::WorkloadSpec& spec, const Args& args) {
  constexpr double kSpinUs = 200.0;
  ArmOptions options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  const ArmResult untraced = perfbench::run_arm(spec, options);
  print_arm("untraced", untraced);

  options.tracing = true;
  perfbench::IsolatedLayers isolated;
  const ArmResult traced = perfbench::run_arm(spec, options, nullptr, &isolated);
  print_arm("traced", traced);
  print_breakdown(traced);
  write_own_spans(args, traced);

  options.seconds = args.seconds / 2.0;
  options.spin_us = kSpinUs;
  const ArmResult spun = perfbench::run_arm(spec, options);
  print_arm("traced+spin", spun);

  const auto& t = traced.trace;
  const double accepted = family(traced, "qon_admission_accepted_total");
  const double cycles = family(traced, "qon_sched_cycles_total");
  const double hits = family(traced, "qon_prep_cache_hits_total");
  const double misses = family(traced, "qon_prep_cache_misses_total");
  const double regular = static_cast<double>(t.runs - t.irregular);

  Report report;
  // Wall-clock figures of the untraced run: not gated end to end, because
  // the shared host's CPU steal moves them by up to a half between runs.
  report.add("wall.runs_per_s", untraced.runs_per_s(), "runs/s");
  report.add("wall.submit_p50_us", untraced.submit_us(50), "us");
  report.add("api.invoke_p99_us", traced.submit_us(99), "us");
  report.add("api.create_deploy_us", percentile_of(traced.create_deploy_us, 50), "us");
  report.add("admission.accepted", accepted, "count");
  report.add("admission.shed", family(traced, "qon_admission_shed_total"), "count");
  report.add("engine.events_per_run",
             accepted > 0 ? family(traced, "qon_engine_events_total") / accepted : 0.0,
             "events/run");
  report.add("engine.peak_live", family(traced, "qon_engine_peak_live_runs"), "count");
  report.add("engine.first_step_lag_ms", percentile_of(t.first_step_lag_ms, 50), "ms");
  report.add("engine.resume_lag_ms", percentile_of(t.resume_lag_ms, 50), "ms");
  report.add("engine.step_self_ms", mean_of(t.step_self_ms), "ms");
  report.add("queue.wait_p50_ms", percentile_of(t.queue_wait_ms, 50), "ms");
  report.add("queue.wait_p99_ms", percentile_of(t.queue_wait_ms, 99), "ms");
  report.add("queue.waitlist_parks", family(traced, "qon_sched_waitlist_parks_total"), "count");
  report.add("cycle.count", cycles, "count");
  report.add("cycle.jobs_mean",
             cycles > 0 ? family(traced, "qon_sched_jobs_scheduled_total") / cycles : 0.0,
             "jobs/cycle");
  report.add("cycle.wall_p50_ms", percentile_of(traced.cycle_wall_ms, 50), "ms");
  report.add("cycle.preprocess_ms",
             histogram_mean_ms(traced, "qon_sched_cycle_preprocess_seconds"), "ms");
  report.add("cycle.optimize_ms", histogram_mean_ms(traced, "qon_sched_cycle_optimize_seconds"),
             "ms");
  report.add("cycle.select_ms", histogram_mean_ms(traced, "qon_sched_cycle_select_seconds"), "ms");
  report.add("cycle.filtered", family(traced, "qon_sched_jobs_filtered_total"), "count");
  report.add("cycle.expired", family(traced, "qon_sched_jobs_expired_total"), "count");
  report.add("prep.hits", hits, "count");
  report.add("prep.misses", misses, "count");
  report.add("prep.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  report.add("exec.wall_p50_ms", percentile_of(t.exec_wall_ms, 50), "ms");
  report.add("exec.wall_p99_ms", percentile_of(t.exec_wall_ms, 99), "ms");
  report.add("settle.lag_ms", percentile_of(t.settle_lag_ms, 50), "ms");
  // Tails too noisy to gate end to end on a shared host, reported here.
  report.add("settle.p50_ms", untraced.settle_ms(50), "ms");
  report.add("settle.p90_ms", untraced.settle_ms(90), "ms");
  report.add("settle.p99_ms", untraced.settle_ms(99), "ms");
  report.add("virtual.jct_p99_s", untraced.jct_s.quantile(99), "s_virtual");
  report.add("virtual.qpu_util", qpu_util(untraced), "ratio");
  report.add("sched.generate_schedule_ms", isolated.generate_schedule_ms, "ms");
  report.add("transpiler.transpile_ms", isolated.transpile_ms, "ms");
  report.add("estimator.predict_us", isolated.predict_us, "us");
  report.add("simulator.run_noisy_ms", isolated.run_noisy_ms, "ms");
  report.add("obs.trace_overhead_frac",
             untraced.runs_per_s() > 0 ? 1.0 - traced.runs_per_s() / untraced.runs_per_s() : 0.0,
             "ratio");
  report.add("obs.spans_dropped", family(traced, "qon_trace_spans_dropped_total"), "count");
  report.add("breakdown.trace_share",
             regular > 0 ? (t.lifetime_sum_ms / regular) / traced.settle_mean_ms() : 0.0,
             "ratio");

  // Attribution self-check: the spin runs inside the engine step that
  // parks each task, so it must show up in engine.step_self_ms.
  const double step_delta = mean_of(spun.trace.step_self_ms) - mean_of(t.step_self_ms);
  report.add("attrib.step_self_delta_ms", step_delta, "ms");
  report.add("attrib.cycle_delta_ms",
             percentile_of(spun.cycle_wall_ms, 50) - percentile_of(traced.cycle_wall_ms, 50), "ms");
  report.add("attrib.exec_delta_ms",
             percentile_of(spun.trace.exec_wall_ms, 50) - percentile_of(t.exec_wall_ms, 50), "ms");
  report.print_table("per-layer metrics: " + spec.name + " (seed " + std::to_string(args.seed) +
                     ", " + std::to_string(t.runs) + " traced runs; attribution spin " +
                     std::to_string(static_cast<int>(kSpinUs)) + " us per task)");

  const bool attributed = step_delta >= 0.5 * kSpinUs / 1e3;
  if (!attributed) {
    std::cout << "VIOLATION: attribution: a " << kSpinUs
              << " us on_task_start spin moved engine.step_self_ms by only " << step_delta
              << " ms\n";
  }
  const bool correct = attributed && untraced.violation_count == 0 &&
                       traced.violation_count == 0 && spun.violation_count == 0 &&
                       traced.attempted > 0;
  const std::size_t attempted = untraced.attempted + traced.attempted + spun.attempted;
  const std::size_t failed = failed_runs(untraced) + failed_runs(traced) + failed_runs(spun);
  std::cout << report.json(correct, attempted, failed) << std::endl;
  if (!correct) std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const perfbench::WorkloadSpec* spec = perfbench::find_workload(args.workload);
    if (spec == nullptr) throw std::invalid_argument("unknown workload " + args.workload);
    if (args.trace) {
      per_layer(*spec, args);
    } else {
      end_to_end(*spec, args);
    }
  } catch (const std::exception& e) {
    std::cerr << "qbench: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
