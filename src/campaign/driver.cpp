#include "campaign/driver.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "campaign/churn.hpp"
#include "circuit/library.hpp"
#include "common/rng.hpp"
#include "obs/delta.hpp"
#include "obs/slo.hpp"
#include "workflow/task.hpp"

namespace qon::campaign {

namespace {

std::string priority_label(api::Priority p) {
  return std::string("priority=\"") + api::priority_name(p) + "\"";
}

std::string status_label(api::RunStatus s) {
  return std::string("status=\"") + api::run_status_name(s) + "\"";
}

std::string format_fixed(double value, int precision) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << value;
  return out.str();
}

std::string format_count(double value) {
  return std::to_string(static_cast<std::uint64_t>(std::llround(value)));
}

/// Sink cells are inserted verbatim, so string-valued alert cells must be
/// pre-quoted to stay valid JSON in the JSONL stream.
std::string quoted(const std::string& text) { return "\"" + text + "\""; }

double counter_value(const api::MetricsSnapshot& snapshot, const std::string& name,
                     const std::string& labels = "") {
  const api::MetricValue* metric = obs::find_metric(snapshot, name, labels);
  return metric ? metric->value : 0.0;
}

/// Driver-side campaign counters (the virtual-domain totals).
struct Totals {
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
};

}  // namespace

const std::vector<std::string>& campaign_alert_columns() {
  static const std::vector<std::string> kColumns = {
      "row", "t_virtual", "rule", "priority", "state", "fast_burn", "slow_burn"};
  return kColumns;
}

const std::vector<std::string>& campaign_stats_columns() {
  static const std::vector<std::string> kColumns = {
      "row",           "t_end",          "arrivals",      "admitted",
      "shed",          "rejected",       "completed",     "failed",
      "cancelled",     "sched_cycles",   "jobs_scheduled", "jobs_filtered",
      "jobs_expired",  "queue_depth",    "latency_count", "latency_sum_seconds"};
  return kColumns;
}

api::Result<CampaignReport> run_campaign(const CampaignProfile& profile,
                                         const CampaignOptions& options) {
  const auto wall_start = std::chrono::steady_clock::now();

  // -- output streams -----------------------------------------------------------
  // Opened before the stack stands up, so an unwritable path fails at once
  // instead of after the fleet is built and deployed. The alert stream is
  // only written when the profile configures `alerts:` rules.
  std::unique_ptr<StatsSink> sink;
  std::unique_ptr<StatsSink> alert_sink;
  try {
    if (!options.stats_path.empty()) {
      sink = std::make_unique<StatsSink>(options.stats_path, options.stats_format,
                                         campaign_stats_columns(),
                                         options.sink_batch_rows);
    }
    if (!profile.alerts.empty() && !options.alerts_path.empty()) {
      alert_sink = std::make_unique<StatsSink>(
          options.alerts_path, options.stats_format, campaign_alert_columns(),
          options.sink_batch_rows);
    }
  } catch (const std::runtime_error& e) {
    return api::FailedPrecondition(e.what());
  }

  api::QonductorClient client(make_orchestrator_config(profile));
  core::Qonductor& backend = client.backend();
  core::SchedulerService* sched = backend.schedulerService();

  // -- tenant images: one single-quantum-task workflow each ---------------------
  std::vector<workflow::ImageId> images;
  std::vector<double> weights;
  images.reserve(profile.tenants.size());
  for (std::size_t i = 0; i < profile.tenants.size(); ++i) {
    const TenantSpec& tenant = profile.tenants[i];
    api::CreateWorkflowRequest create;
    create.name = tenant.name;
    // Image circuits are seeded from the profile seed + tenant index, so
    // the deployed fleet of workflows is itself a function of the profile.
    create.tasks.push_back(workflow::HybridTask::quantum(
        tenant.name,
        circuit::make_benchmark(tenant.family, tenant.width,
                                profile.seed ^ (0x7e1aULL + i * 0x9e3779b9ULL)),
        tenant.shots));
    auto created = client.createWorkflow(std::move(create));
    if (!created.ok()) return created.status();
    api::DeployRequest deploy;
    deploy.image = created->image;
    auto deployed = client.deploy(deploy);
    if (!deployed.ok()) return deployed.status();
    images.push_back(created->image);
    weights.push_back(tenant.weight);
  }

  // -- churn: validate QPU names before hour one, not at hour forty -------------
  ChurnInjector churn(profile.churn);
  if (const api::Status status = churn.validate(backend); !status.ok()) return status;

  // -- deterministic RNG paths --------------------------------------------------
  // One root seed, split into independent streams: arrival instants and the
  // tenant-mix / preference draws never perturb each other.
  Rng root(profile.seed);
  Rng arrival_rng = root.split();
  Rng mix_rng = root.split();
  const ArrivalProcess arrivals(profile.arrivals);

  // -- SLO burn-rate alert timeline ---------------------------------------------
  // The driver owns its own monitor (distinct from the orchestrator's live
  // one) fed from the deterministic reap order below, so the alert timeline
  // is byte-identical across same-profile lockstep runs.
  std::unique_ptr<obs::SloMonitor> slo;
  if (!profile.alerts.empty()) {
    slo = std::make_unique<obs::SloMonitor>(profile.slo_seconds, profile.alerts);
  }
  std::uint64_t alert_rows = 0;
  std::uint64_t alerts_fired = 0;
  std::uint64_t alerts_resolved = 0;
  std::uint64_t alert_transitions = 0;

  Totals totals;
  std::uint64_t churn_applied = 0;
  std::array<std::uint64_t, api::kNumPriorities> admitted_by_priority{};
  std::array<LatencyAccumulator, api::kNumPriorities> latency_by_priority;

  api::MetricsSnapshot prev_snapshot = backend.telemetry().snapshot(0.0);
  Totals row_base;  // totals at the last emitted row
  double last_row_t = 0.0;
  std::uint64_t rows = 0;

  const auto emit_row = [&](bool force) {
    if (!sink && !slo) return;
    const double now_v = backend.fleetNow();
    if (!force && now_v - last_row_t < profile.stats_interval_seconds) return;
    last_row_t = now_v;
    if (slo) {
      // Burn rules advance on the same virtual-time cadence as the stats
      // rows; each state transition streams as one timeline row.
      for (const obs::AlertTransition& tr : slo->evaluate(now_v)) {
        ++alert_transitions;
        if (tr.state == api::AlertState::kFiring) ++alerts_fired;
        if (tr.state == api::AlertState::kResolved) ++alerts_resolved;
        if (alert_sink) {
          alert_sink->append({
              std::to_string(alert_rows),
              format_fixed(tr.at_virtual, 3),
              quoted(tr.rule),
              quoted(api::priority_name(tr.priority)),
              quoted(api::alert_state_name(tr.state)),
              format_fixed(tr.fast_burn, 6),
              format_fixed(tr.slow_burn, 6),
          });
        }
        ++alert_rows;
      }
    }
    if (!sink) return;
    api::MetricsSnapshot cur = backend.telemetry().snapshot(now_v);
    const api::MetricsSnapshot delta = obs::snapshot_delta(prev_snapshot, cur);
    double latency_count = 0.0;
    double latency_sum = 0.0;
    for (std::size_t p = 0; p < api::kNumPriorities; ++p) {
      const api::MetricValue* hist =
          obs::find_metric(delta, "qon_run_latency_seconds",
                           priority_label(static_cast<api::Priority>(p)));
      if (hist != nullptr) {
        latency_count += static_cast<double>(hist->count);
        latency_sum += hist->sum;
      }
    }
    sink->append({
        std::to_string(rows),
        format_fixed(now_v, 3),
        std::to_string(totals.arrivals - row_base.arrivals),
        std::to_string(totals.admitted - row_base.admitted),
        std::to_string(totals.shed - row_base.shed),
        std::to_string(totals.rejected - row_base.rejected),
        format_count(counter_value(delta, "qon_runs_finished_total",
                                   status_label(api::RunStatus::kCompleted))),
        format_count(counter_value(delta, "qon_runs_finished_total",
                                   status_label(api::RunStatus::kFailed))),
        format_count(counter_value(delta, "qon_runs_finished_total",
                                   status_label(api::RunStatus::kCancelled))),
        format_count(counter_value(delta, "qon_sched_cycles_total")),
        format_count(counter_value(delta, "qon_sched_jobs_scheduled_total")),
        format_count(counter_value(delta, "qon_sched_jobs_filtered_total")),
        format_count(counter_value(delta, "qon_sched_jobs_expired_total")),
        format_count(counter_value(cur, "qon_sched_queue_depth")),
        format_count(latency_count),
        format_fixed(latency_sum, 6),
    });
    ++rows;
    prev_snapshot = std::move(cur);
    row_base = totals;
  };

  const auto reap = [&](const api::RunHandle& handle) {
    handle.wait();
    const api::Result<api::RunInfo> info = handle.info();
    if (!info.ok()) {
      ++totals.failed;  // unreachable with a valid handle; count, don't drop
      return;
    }
    switch (info->status) {
      case api::RunStatus::kCompleted: {
        ++totals.completed;
        const std::size_t p = static_cast<std::size_t>(info->preferences.priority);
        latency_by_priority[p].observe(info->finished_at - info->submitted_at);
        break;
      }
      case api::RunStatus::kFailed:
        ++totals.failed;
        break;
      case api::RunStatus::kCancelled:
        ++totals.cancelled;
        break;
      default:
        ++totals.failed;  // wait() only returns terminal states
        break;
    }
    if (slo) {
      // Every terminal run is an SLI sample at its terminal virtual
      // instant: failed/cancelled runs burn budget, completions burn only
      // when late.
      slo->record(info->preferences.priority,
                  std::max(0.0, info->finished_at - info->submitted_at),
                  info->finished_at,
                  info->status == api::RunStatus::kCompleted);
    }
  };

  // Lockstep pacing: wait for each admitted run's park to land in the
  // pending queue so the group's Kth member deterministically trips the
  // threshold. Bounded wall-time escape hatch — a stuck stack degrades to
  // nondeterminism instead of hanging the campaign.
  const auto spin_until_depth = [&](std::size_t depth) {
    if (sched == nullptr) return;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (sched->queue_depth() != depth &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };

  const std::size_t threshold = profile.scheduler.queue_threshold;
  const bool lockstep = profile.pacing == PacingMode::kLockstep;
  // Windowed mode bounds outstanding handles; lockstep bounds them at the
  // group size by construction.
  const std::size_t window_cap =
      profile.admission.max_live_runs > 0
          ? profile.admission.max_live_runs
          : std::max<std::size_t>(4 * threshold, 256);

  std::vector<api::RunHandle> group;   // lockstep: the in-flight group
  group.reserve(threshold);
  std::deque<api::RunHandle> window;   // windowed: outstanding runs

  const double horizon = profile.duration_hours * 3600.0;
  double t = 0.0;
  for (;;) {
    if (profile.target_runs != 0 && totals.arrivals >= profile.target_runs) break;
    t = arrivals.next(t, horizon, arrival_rng);
    if (t >= horizon) break;
    ++totals.arrivals;

    backend.advanceFleetClock(t);
    churn_applied += churn.apply_due(t, backend);

    const std::size_t tenant_index =
        profile.tenants.size() == 1 ? 0 : mix_rng.weighted_index(weights);
    const TenantSpec& tenant = profile.tenants[tenant_index];
    api::InvokeRequest invoke;
    invoke.image = images[tenant_index];
    invoke.preferences.priority = tenant.priority;
    invoke.preferences.fidelity_weight = tenant.fidelity_weight;
    if (tenant.deadline_offset_max_seconds > 0.0) {
      const double offset =
          tenant.deadline_offset_max_seconds > tenant.deadline_offset_min_seconds
              ? mix_rng.uniform(tenant.deadline_offset_min_seconds,
                                tenant.deadline_offset_max_seconds)
              : tenant.deadline_offset_max_seconds;
      invoke.preferences.deadline_seconds = t + offset;
    }

    api::Result<api::RunHandle> handle = client.invoke(invoke);
    if (!handle.ok()) {
      if (handle.status().code() == api::StatusCode::kResourceExhausted) {
        ++totals.shed;
      } else {
        ++totals.rejected;
      }
      // Request-level SLI: a refused request (admission shed, dead-on-
      // arrival deadline) burns the class error budget at the refusal
      // instant — the fleet frontier, the same timeline settles land on.
      if (slo) slo->record(tenant.priority, 0.0, backend.fleetNow(), false);
    } else {
      ++totals.admitted;
      ++admitted_by_priority[static_cast<std::size_t>(tenant.priority)];
      if (lockstep) {
        group.push_back(std::move(*handle));
        if (group.size() < threshold) {
          spin_until_depth(group.size());
        } else {
          // The threshold member trips the cycle — the queue drains, the
          // group settles, and only then does the clock move again.
          for (const api::RunHandle& h : group) reap(h);
          group.clear();
          emit_row(false);
        }
      } else {
        window.push_back(std::move(*handle));
        if (window.size() >= window_cap) {
          reap(window.front());
          window.pop_front();
        }
        emit_row(false);
      }
    }

    if (options.print_progress && totals.arrivals % 100000 == 0) {
      std::fprintf(stderr, "campaign %s: %" PRIu64 " arrivals, t=%.0f s\n",
                   profile.name.c_str(), totals.arrivals, t);
    }
  }

  // Drain: close the queue — the scheduler's flush cycle settles the
  // partial group at the current (deterministic) clock frontier.
  if (sched != nullptr) sched->shutdown();
  for (const api::RunHandle& h : group) reap(h);
  group.clear();
  for (const api::RunHandle& h : window) reap(h);
  window.clear();

  emit_row(true);  // the stream always ends with a final (partial) row
  if (sink) sink->flush();
  if (alert_sink) alert_sink->flush();

  // -- report -------------------------------------------------------------------
  const api::MetricsSnapshot final_snapshot =
      backend.telemetry().snapshot(backend.fleetNow());
  CampaignReport report;
  report.profile_name = profile.name;
  report.seed = profile.seed;
  report.pacing = pacing_mode_name(profile.pacing);
  report.arrival_process = arrival_kind_name(profile.arrivals.kind);
  report.arrivals = totals.arrivals;
  report.admitted = totals.admitted;
  report.shed = totals.shed;
  report.rejected = totals.rejected;
  report.completed = totals.completed;
  report.failed = totals.failed;
  report.cancelled = totals.cancelled;
  report.jobs_expired = static_cast<std::uint64_t>(
      std::llround(counter_value(final_snapshot, "qon_sched_jobs_expired_total")));
  report.jobs_filtered = static_cast<std::uint64_t>(
      std::llround(counter_value(final_snapshot, "qon_sched_jobs_filtered_total")));
  report.sched_cycles = static_cast<std::uint64_t>(
      std::llround(counter_value(final_snapshot, "qon_sched_cycles_total")));
  report.churn_applied = churn_applied;
  report.stats_rows = rows;
  report.stats_path = options.stats_path;
  report.alerts_fired = alerts_fired;
  report.alerts_resolved = alerts_resolved;
  report.alert_transitions = alert_transitions;
  if (alert_sink) report.alerts_stats_path = options.alerts_path;
  report.virtual_duration_seconds = backend.fleetNow();
  report.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  for (std::size_t p = 0; p < api::kNumPriorities; ++p) {
    if (admitted_by_priority[p] == 0) continue;
    const LatencyAccumulator& acc = latency_by_priority[p];
    ClassReport cls;
    cls.priority = static_cast<api::Priority>(p);
    cls.completed = acc.count();
    cls.mean_latency_seconds = acc.mean();
    cls.p50_seconds = acc.quantile(0.50);
    cls.p90_seconds = acc.quantile(0.90);
    cls.p99_seconds = acc.quantile(0.99);
    cls.slo_seconds = profile.slo_seconds[p];
    cls.slo_attainment =
        cls.slo_seconds > 0.0 ? acc.fraction_below(cls.slo_seconds) : 1.0;
    report.classes.push_back(cls);
  }
  return report;
}

}  // namespace qon::campaign
