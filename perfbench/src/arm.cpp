// One measured arm: set a client up, drive it closed- or open-loop for a
// fixed wall window, check every run it sees, and read the registry delta
// over the window.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "bench.hpp"
#include "common/rng.hpp"
#include "obs/delta.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace api = qon::api;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// CPU time consumed by every thread of this process so far.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The base images' circuit instances (graph, angles, secret) are fixed:
/// the seed varies the offered request stream, not the per-run work, so
/// every seed measures the same system on comparable load.
constexpr std::uint64_t kInstanceSeed = 1000;

/// Mixes the workload name into the seed so workloads never share streams.
std::uint64_t stream_seed(const WorkloadSpec& spec, std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t h = 1469598103934665603ULL ^ salt;
  for (const char c : spec.name) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  return h ^ (seed * 0x9e3779b97f4a7c15ULL);
}

api::JobPreferences draw_preferences(qon::Rng& rng) {
  api::JobPreferences prefs;
  prefs.priority = static_cast<api::Priority>(rng.uniform_int(0, 2));
  prefs.fidelity_weight = kFidelityWeights[rng.uniform_int(
      0, static_cast<std::int64_t>(std::size(kFidelityWeights)) - 1)];
  return prefs;
}

qon::core::QonductorConfig make_config(const WorkloadSpec& spec, const ArmOptions& options) {
  qon::core::QonductorConfig config;
  config.num_qpus = 8;  // the fleet is fixed; only the offered load follows the seed
  config.trajectory_width_limit = spec.trajectory_width_limit;
  config.executor_threads = spec.engine_workers;
  config.scheduler_service.linger = spec.linger;
  if (spec.loop == Loop::kClosed) {
    // Every cycle is one full group: the threshold fires it, never the timer.
    config.scheduler_service.queue_threshold = spec.group;
  } else {
    // Below saturation, but the gate stays armed on the invoke path.
    config.admission.max_live_runs = 4096;
  }
  config.telemetry.tracing = options.tracing;
  config.telemetry.trace_runs = 4096;  // pulled per run long before eviction
  if (options.spin_us > 0.0) {
    const auto spin = std::chrono::nanoseconds(static_cast<std::int64_t>(options.spin_us * 1e3));
    config.on_task_start = [spin](api::RunId, const std::string&) {
      const auto until = Clock::now() + spin;
      while (Clock::now() < until) {
      }
    };
  }
  return config;
}

qon::workflow::ImageId deploy_image(api::QonductorClient& client, std::string name,
                                    qon::workflow::HybridTask task) {
  api::CreateWorkflowRequest create;
  create.name = std::move(name);
  create.tasks.push_back(std::move(task));
  auto created = client.createWorkflow(std::move(create));
  if (!created.ok()) throw std::runtime_error(created.status().to_string());
  api::DeployRequest deploy;
  deploy.image = created->image;
  if (const auto deployed = client.deploy(deploy); !deployed.ok()) {
    throw std::runtime_error(deployed.status().to_string());
  }
  return created->image;
}

/// A set-up client with the workload's base images deployed.
struct Session {
  std::unique_ptr<api::QonductorClient> client;
  std::vector<qon::workflow::ImageId> images;
  std::vector<qon::circuit::Circuit> circuits;  ///< isolated-layer inputs
};

/// Checks each run the load generator sees terminal and accumulates its figures.
class RunChecker {
 public:
  RunChecker(const api::QonductorClient& client, const WorkloadSpec& spec, bool tracing,
             ArmResult& out)
      : client_(client), spec_(spec), tracing_(tracing), out_(out) {
    for (const auto& backend : client.backend().fleet().backends) {
      qpu_index_.emplace(backend->name(), qpu_index_.size());
    }
    intervals_.resize(qpu_index_.size());
    out_.num_qpus = qpu_index_.size();
  }

  /// Runs the invoke call itself refused (never started).
  void refused(const api::Status& status, std::size_t runs) {
    if (status.code() == api::StatusCode::kResourceExhausted) out_.shed += runs;
    out_.failed_by_code[api::status_code_name(status.code())] += runs;
    refused_ += runs;
  }
  std::size_t refused_runs() const { return refused_; }

  void absorb(const api::RunHandle& handle, double settle_ms, double submit_us,
              std::size_t segment) {
    Segment& slice = out_.segments[std::min(segment, out_.segments.size() - 1)];
    const auto result = handle.result();
    const auto info = handle.info();
    if (!result.ok() || !info.ok()) {
      out_.violate("run " + std::to_string(handle.id()) + ": no result after wait()");
      return;
    }
    slice.submit_us.add(submit_us);
    if (result->status != api::RunStatus::kCompleted) {
      out_.failed_by_code[api::status_code_name(result->error.code())] += 1;
    } else {
      ++out_.completed;
      ++slice.completed;
      slice.settle_ms.add(settle_ms);
      out_.jct_s.add(info->finished_at - info->submitted_at);
      check_tasks(handle.id(), *result, *info);
      prune(info->submitted_at);
    }
    if (tracing_) {
      api::GetRunTraceRequest request;
      request.run = handle.id();
      const auto trace = client_.getRunTrace(request);
      if (!trace.ok()) {
        out_.violate("run " + std::to_string(handle.id()) + ": trace not retained: " +
                     trace.status().to_string());
      } else {
        absorb_trace(trace->trace, out_.trace);
      }
    }
  }


 private:
  /// The "no QPU double-booked" contract, checked from the task results as
  /// each one arrives against the QPU's booked intervals.
  void book(std::size_t q, double start, double end) {
    auto& booked = intervals_[q];
    const auto overlaps = [](double a_end, double b_start) {
      return b_start < a_end - 1e-9 * std::max(1.0, std::abs(a_end));
    };
    const auto next = booked.lower_bound(start);
    const bool clash = (next != booked.end() && overlaps(end, next->first)) ||
                       (next != booked.begin() && overlaps(std::prev(next)->second, start));
    if (clash || !booked.emplace(start, end).second) {
      out_.violate("QPU " + std::to_string(q) + " double-booked at [" + std::to_string(start) +
                   ", " + std::to_string(end) + ")");
    }
  }

  /// Runs are absorbed in submission order and submitted_at follows the
  /// monotone fleet clock, so no later task can start before `watermark`
  /// (a task starting before its own submit is flagged separately): every
  /// interval ending by then can no longer clash and is dropped.
  void prune(double watermark) {
    if (++absorbed_ % 1024 != 0) return;
    for (auto& booked : intervals_) {
      while (!booked.empty() && booked.begin()->second <= watermark) booked.erase(booked.begin());
    }
  }

  void check_tasks(api::RunId run, const api::WorkflowResult& result, const api::RunInfo& info) {
    const std::string where = "run " + std::to_string(run) + ": ";
    for (const auto& task : result.tasks) {
      if (task.kind != qon::workflow::TaskKind::kQuantum) continue;
      ++out_.quantum_tasks;
      const auto qpu = qpu_index_.find(task.resource);
      if (qpu == qpu_index_.end()) {
        out_.violate(where + "task ran on '" + task.resource + "', not a fleet QPU");
        continue;
      }
      if (task.start < info.submitted_at) out_.violate(where + "task starts before submit");
      if (!(task.end > task.start)) out_.violate(where + "task interval is empty");
      if (!(task.fidelity > 0.0 && task.fidelity <= 1.0)) {
        out_.violate(where + "fidelity " + std::to_string(task.fidelity) + " outside (0, 1]");
      }
      if (!task.counts.empty()) {
        ++out_.simulated_tasks;
        std::uint64_t shots = 0;
        for (const auto& [bits, n] : task.counts) shots += n;
        if (shots != static_cast<std::uint64_t>(spec_.shots)) {
          out_.violate(where + "counts sum to " + std::to_string(shots) + ", not " +
                       std::to_string(spec_.shots) + " shots");
        }
      }
      out_.fidelity_sum += task.fidelity;
      out_.busy_qpu_seconds += task.end - task.start;
      book(qpu->second, task.start, task.end);
    }
  }

  const api::QonductorClient& client_;
  const WorkloadSpec& spec_;
  const bool tracing_;
  ArmResult& out_;
  std::unordered_map<std::string, std::size_t> qpu_index_;
  std::vector<std::map<double, double>> intervals_;  ///< per QPU: start -> end
  std::size_t absorbed_ = 0;
  std::size_t refused_ = 0;
};

Session set_up(const WorkloadSpec& spec, const ArmOptions& options, ArmResult& out) {
  const auto start = Clock::now();
  Session session;
  session.client = std::make_unique<api::QonductorClient>(make_config(spec, options));
  qon::Rng rng(stream_seed(spec, options.seed, 1));
  for (std::size_t i = 0; i < spec.images.size(); ++i) {
    const auto [family, width] = spec.images[i];
    auto circ = qon::circuit::make_benchmark(family, width, kInstanceSeed + i);
    session.circuits.push_back(circ);
    const auto t0 = Clock::now();
    session.images.push_back(deploy_image(
        *session.client, qon::circuit::benchmark_family_name(family),
        qon::workflow::HybridTask::quantum("q", std::move(circ), spec.shots)));
    out.create_deploy_us.push_back(us_between(t0, Clock::now()));
  }
  // Warm-up group of one full threshold batch, so its cycle fires at once:
  // fills the prep cache and runs the first NSGA-II.
  const auto scheduler = session.client->getSchedulerStats();
  if (!scheduler.ok()) throw std::runtime_error(scheduler.status().to_string());
  std::vector<api::InvokeRequest> warm(scheduler->config.queue_threshold);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    warm[i].image = session.images[i % session.images.size()];
    warm[i].preferences = draw_preferences(rng);
  }
  const auto handles = session.client->invokeAll(warm);
  if (!handles.ok()) throw std::runtime_error("warm-up: " + handles.status().to_string());
  for (const auto& handle : *handles) {
    if (handle.wait() != api::RunStatus::kCompleted) {
      throw std::runtime_error("warm-up run " + std::to_string(handle.id()) + " did not complete");
    }
  }
  out.setup_seconds = seconds_between(start, Clock::now());
  return session;
}

/// Closed loop: one invokeAll group of exactly `group` runs at a time, the
/// next sent once the generator has seen every run of the previous terminal.
void drive_closed(const WorkloadSpec& spec, const ArmOptions& options, Session& session,
                  RunChecker& checker, ArmResult& out) {
  qon::Rng rng(stream_seed(spec, options.seed, 2));
  std::vector<api::InvokeRequest> requests(spec.group);
  std::vector<Clock::time_point> seen(spec.group);
  const auto start = Clock::now();
  double active_seconds = 0.0;
  for (double elapsed = 0.0; elapsed < options.seconds;
       elapsed = seconds_between(start, Clock::now())) {
    const auto segment = static_cast<std::size_t>(elapsed / options.seconds * kSegments);
    for (auto& request : requests) {
      request.image = session.images[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(session.images.size()) - 1))];
      request.preferences = draw_preferences(rng);
    }
    const double cpu_at_send = process_cpu_seconds();
    const auto sent = Clock::now();
    const auto handles = session.client->invokeAll(requests);
    const auto returned = Clock::now();
    out.attempted += requests.size();
    if (!handles.ok()) {
      checker.refused(handles.status(), requests.size());
      continue;
    }
    for (std::size_t i = 0; i < handles->size(); ++i) {
      (*handles)[i].wait();
      seen[i] = Clock::now();
    }
    active_seconds += seconds_between(sent, seen.back());
    out.segments[segment].wall_seconds += seconds_between(sent, seen.back());
    out.segments[segment].cpu_seconds += process_cpu_seconds() - cpu_at_send;
    // Bookkeeping (results, traces) runs outside the timed window.
    const double submit_us = us_between(sent, returned) / static_cast<double>(requests.size());
    for (std::size_t i = 0; i < handles->size(); ++i) {
      const auto& handle = (*handles)[i];
      checker.absorb(handle, us_between(sent, seen[i]) / 1e3, submit_us, segment);
      if (options.tracing) {
        out.own_spans.push_back({handle.id(), "invokeAll", us_between(start, sent),
                                 us_between(start, returned)});
        out.own_spans.push_back(
            {handle.id(), "settle", us_between(start, sent), us_between(start, seen[i])});
      }
    }
  }
  out.window_seconds = active_seconds;
}

/// Open loop: Poisson arrivals at a fixed wall rate, one invoke() each, sent
/// on schedule whatever the system does. A generator thread sends; this
/// thread waits for each run in send order.
void drive_open(const WorkloadSpec& spec, const ArmOptions& options, Session& session,
                RunChecker& checker, ArmResult& out) {
  static constexpr std::size_t kNoFresh = ~std::size_t{0};
  struct Arrival {
    double due_s = 0.0;
    std::size_t image = 0;
    std::size_t fresh = kNoFresh;  ///< index into fresh_tasks
    api::JobPreferences preferences;
  };
  std::vector<qon::workflow::HybridTask> fresh_tasks;
  qon::Rng rng(stream_seed(spec, options.seed, 3));
  const auto families = qon::circuit::all_benchmark_families();
  std::vector<Arrival> arrivals;
  for (double t = rng.exponential(spec.rate_per_s); t < options.seconds;
       t += rng.exponential(spec.rate_per_s)) {
    Arrival arrival;
    arrival.due_s = t;
    arrival.image = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(session.images.size()) - 1));
    if (rng.bernoulli(spec.fresh_share)) {
      const auto family = families[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(families.size()) - 1))];
      const int width =
          static_cast<int>(rng.uniform_int(spec.fresh_min_width, spec.fresh_max_width));
      auto circ = qon::circuit::make_benchmark(family, width, rng());
      if (session.circuits.size() < 2 * spec.images.size()) session.circuits.push_back(circ);
      arrival.fresh = fresh_tasks.size();
      fresh_tasks.push_back(qon::workflow::HybridTask::quantum("q", std::move(circ), spec.shots));
    }
    arrival.preferences = draw_preferences(rng);
    arrivals.push_back(std::move(arrival));
  }

  struct Sent {
    std::size_t segment = 0;
    Clock::time_point due;
    Clock::time_point call;
    Clock::time_point returned;
    api::Status status;
    api::RunHandle handle;
  };
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<Sent> sent_runs;
  bool done = false;
  std::string generator_error;

  // Process CPU time at each slice boundary, stamped by the generator.
  std::vector<double> cpu_marks(kSegments + 1, 0.0);
  std::size_t marked = 0;
  const auto mark_until = [&](std::size_t slice) {
    for (const double now = process_cpu_seconds(); marked <= slice; ++marked) {
      cpu_marks[marked] = now;
    }
  };

  const auto start = Clock::now();
  std::jthread generator([&] {
    try {
      mark_until(0);
      for (std::size_t i = 0; i < arrivals.size(); ++i) {
        auto& arrival = arrivals[i];
        Sent sent;
        sent.segment = static_cast<std::size_t>(arrival.due_s / options.seconds * kSegments);
        mark_until(sent.segment);
        sent.due = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(arrival.due_s));
        std::this_thread::sleep_until(sent.due);
        const auto late = Clock::now();
        qon::workflow::ImageId image = session.images[arrival.image];
        double create_deploy_us = -1.0;
        if (arrival.fresh != kNoFresh) {
          image = deploy_image(*session.client, "fresh-" + std::to_string(i),
                               std::move(fresh_tasks[arrival.fresh]));
          create_deploy_us = us_between(late, Clock::now());
        }
        api::InvokeRequest request;
        request.image = image;
        request.preferences = arrival.preferences;
        sent.call = Clock::now();
        auto handle = session.client->invoke(request);
        sent.returned = Clock::now();
        if (handle.ok()) {
          sent.handle = *std::move(handle);
        } else {
          sent.status = handle.status();
        }
        std::lock_guard lock(mutex);
        out.lateness_ms.add(us_between(sent.due, late) / 1e3);
        if (create_deploy_us >= 0.0) out.create_deploy_us.push_back(create_deploy_us);
        sent_runs.push_back(std::move(sent));
        ready.notify_one();
      }
      std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(
                                                std::chrono::duration<double>(options.seconds)));
      mark_until(kSegments);
    } catch (const std::exception& e) {
      std::lock_guard lock(mutex);
      generator_error = e.what();
    }
    std::lock_guard lock(mutex);
    done = true;
    ready.notify_one();
  });

  Clock::time_point last_seen = start;
  for (;;) {
    Sent sent;
    {
      std::unique_lock lock(mutex);
      ready.wait(lock, [&] { return done || !sent_runs.empty(); });
      if (sent_runs.empty()) break;
      sent = std::move(sent_runs.front());
      sent_runs.pop_front();
    }
    ++out.attempted;
    if (!sent.handle.valid()) {
      checker.refused(sent.status, 1);
      continue;
    }
    sent.handle.wait();
    last_seen = Clock::now();
    checker.absorb(sent.handle, us_between(sent.due, last_seen) / 1e3,
                   us_between(sent.call, sent.returned), sent.segment);
    if (options.tracing) {
      out.own_spans.push_back({sent.handle.id(), "invoke", us_between(start, sent.call),
                               us_between(start, sent.returned)});
      out.own_spans.push_back({sent.handle.id(), "settle", us_between(start, sent.due),
                               us_between(start, last_seen)});
    }
  }
  generator.join();
  if (!generator_error.empty()) throw std::runtime_error("generator: " + generator_error);
  out.window_seconds = seconds_between(start, last_seen);
  for (std::size_t k = 0; k < kSegments; ++k) {
    out.segments[k].wall_seconds = options.seconds / kSegments;
    out.segments[k].cpu_seconds = cpu_marks[k + 1] - cpu_marks[k];
  }
}

api::MetricsSnapshot metrics_now(const api::QonductorClient& client) {
  auto metrics = client.getMetrics();
  if (!metrics.ok()) throw std::runtime_error(metrics.status().to_string());
  return std::move(metrics->snapshot);
}

std::uint64_t scheduler_cycles(const api::QonductorClient& client) {
  const auto stats = client.getSchedulerStats();
  return stats.ok() ? stats->stats.cycles : 0;
}

/// Counters that must reconcile with what the load generator saw.
void reconcile(ArmResult& out, std::size_t refused_at_invoke, bool tracing) {
  using qon::obs::find_metric;
  using qon::obs::sum_metric_family;
  const ArmResult& r = out;
  const auto expect = [&out](const char* what, double registry, double seen) {
    if (registry != seen) {
      out.violate(std::string(what) + ": registry reads " + std::to_string(registry) +
                  ", load generator saw " + std::to_string(seen));
    }
  };
  const double accepted = sum_metric_family(r.delta, "qon_admission_accepted_total");
  expect("admitted runs", accepted, static_cast<double>(r.attempted - refused_at_invoke));
  expect("shed runs", sum_metric_family(r.delta, "qon_admission_shed_total"),
         static_cast<double>(r.shed));
  const auto* completed = find_metric(r.delta, "qon_runs_finished_total",
                                      std::string("status=\"") +
                                          api::run_status_name(api::RunStatus::kCompleted) + "\"");
  expect("completed runs", completed ? completed->value : -1.0,
         static_cast<double>(r.completed));
  expect("settled runs", sum_metric_family(r.delta, "qon_runs_finished_total"), accepted);
  std::size_t failed = 0;
  for (const auto& [code, n] : r.failed_by_code) failed += n;
  if (r.attempted != r.completed + failed) {
    out.violate("attempted " + std::to_string(r.attempted) + " != completed " +
                std::to_string(r.completed) + " + failed " + std::to_string(failed));
  }
  if (tracing) {
    expect("trace spans dropped", sum_metric_family(r.delta, "qon_trace_spans_dropped_total"),
           0.0);
  }
}

template <typename PerSegment>
double median_over_segments(const std::vector<Segment>& segments, PerSegment figure) {
  std::vector<double> values;
  for (const auto& segment : segments) {
    if (segment.completed > 0 && segment.wall_seconds > 0.0) values.push_back(figure(segment));
  }
  return percentile_of(std::move(values), 50.0);
}

}  // namespace

double ArmResult::runs_per_s() const {
  return median_over_segments(segments, [](const Segment& s) {
    return static_cast<double>(s.completed) / s.wall_seconds;
  });
}

double ArmResult::cpu_us_per_run() const {
  return median_over_segments(segments, [](const Segment& s) {
    return 1e6 * s.cpu_seconds / static_cast<double>(s.completed);
  });
}

double ArmResult::settle_ms(double p) const {
  return median_over_segments(segments,
                              [p](const Segment& s) { return s.settle_ms.quantile(p); });
}

double ArmResult::submit_us(double p) const {
  return median_over_segments(segments,
                              [p](const Segment& s) { return s.submit_us.quantile(p); });
}

double ArmResult::settle_mean_ms() const {
  double sum = 0.0;
  std::uint64_t count = 0;
  for (const auto& segment : segments) {
    sum += segment.settle_ms.sum();
    count += segment.settle_ms.count();
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

void ArmResult::violate(std::string what) {
  if (violations.size() < 20) violations.push_back(std::move(what));
  ++violation_count;
}

ArmResult run_arm(const WorkloadSpec& spec, const ArmOptions& options,
                  std::vector<double>* setup_seconds, IsolatedLayers* isolated) {
  ArmResult out;
  Session session;
  for (std::size_t i = 0; i < std::max<std::size_t>(1, options.setups); ++i) {
    out.create_deploy_us.clear();
    session = Session{};  // tear the previous client down before the next set-up
    session = set_up(spec, options, out);
    if (setup_seconds) setup_seconds->push_back(out.setup_seconds);
  }
  auto& client = *session.client;
  RunChecker checker(client, spec, options.tracing, out);

  const auto before = metrics_now(client);
  const std::uint64_t cycles_before = scheduler_cycles(client);
  const double virtual_before = client.backend().fleetNow();
  if (spec.loop == Loop::kClosed) {
    drive_closed(spec, options, session, checker, out);
  } else {
    drive_open(spec, options, session, checker, out);
  }
  out.virtual_span_seconds = client.backend().fleetNow() - virtual_before;
  out.delta = qon::obs::snapshot_delta(before, metrics_now(client));
  if (const auto stats = client.getSchedulerStats(); stats.ok()) {
    for (const auto& cycle : stats->stats.recent_cycles) {
      if (cycle.cycle > cycles_before) out.cycle_wall_ms.push_back(cycle.cycle_latency_seconds * 1e3);
    }
  }

  reconcile(out, checker.refused_runs(), options.tracing);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  if (isolated) {
    const double cycles = qon::obs::sum_metric_family(out.delta, "qon_sched_cycles_total");
    const double jobs = qon::obs::sum_metric_family(out.delta, "qon_sched_jobs_scheduled_total");
    const std::size_t batch =
        spec.loop == Loop::kClosed
            ? spec.group
            : static_cast<std::size_t>(std::max(1.0, std::round(jobs / std::max(1.0, cycles))));
    // Analytic workloads still time the simulator on what the default
    // trajectory limit would simulate.
    const int width_limit = spec.trajectory_width_limit > 0
                                ? spec.trajectory_width_limit
                                : qon::core::QonductorConfig{}.trajectory_width_limit;
    *isolated = time_isolated_layers(client, session.circuits, batch, spec.shots, width_limit,
                                     options.seed);
  }
  return out;
}

}  // namespace perfbench
