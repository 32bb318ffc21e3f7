// Tests for the live health layer (src/obs/health.*, src/obs/slo.*): the
// Heartbeat/HealthMonitor watchdog verdict logic (idle-awareness, stall
// naming, probe passthrough, worst-of aggregation), the SLO burn-rate
// monitor (windowed burn math, bucket-ring recycling, the pending ->
// firing -> resolved state machine with hysteresis), the typed getHealth
// surface end to end, the render_health_json exporter, and the wedge
// death test: a fault-injected stall in the scheduler snapshot hook is
// detected and NAMED by getHealth long before any test timeout.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "circuit/library.hpp"
#include "obs/export.hpp"
#include "obs/health.hpp"
#include "obs/slo.hpp"

namespace qon {
namespace {

using namespace std::chrono_literals;

// ---- Heartbeat ---------------------------------------------------------------

TEST(Heartbeat, StartsNeverBeatenAndCountsBeats) {
  obs::Heartbeat beat;
  EXPECT_EQ(beat.count(), 0u);
  EXPECT_LT(beat.last_beat_seconds(), 0.0);  // negative = never

  beat.beat();
  beat.beat();
  EXPECT_EQ(beat.count(), 2u);
  const double age = obs::Heartbeat::now_seconds() - beat.last_beat_seconds();
  EXPECT_GE(age, 0.0);
  EXPECT_LT(age, 5.0);  // just beaten
}

// ---- HealthMonitor watchdog verdicts -----------------------------------------

TEST(HealthMonitor, IdleComponentWithoutBeatsIsHealthy) {
  obs::HealthMonitor monitor;
  obs::Heartbeat beat;  // never beaten
  obs::HealthMonitor::WatchdogOptions options;
  options.stall_budget_seconds = 0.001;
  options.busy = [] { return false; };  // no work -> silence is fine
  monitor.watch("idler", &beat, options);

  const auto components = monitor.check();
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].component, "idler");
  EXPECT_EQ(components[0].status, api::HealthStatus::kHealthy);
  EXPECT_EQ(components[0].detail, "idle");
  EXPECT_EQ(monitor.overall(components), api::HealthStatus::kHealthy);
}

TEST(HealthMonitor, BusyComponentThatNeverBeatIsDegraded) {
  obs::HealthMonitor monitor;
  obs::Heartbeat beat;
  obs::HealthMonitor::WatchdogOptions options;
  options.stall_budget_seconds = 60.0;
  options.busy = [] { return true; };  // has work but no beat yet
  monitor.watch("starter", &beat, options);

  const auto components = monitor.check();
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].status, api::HealthStatus::kDegraded);
}

TEST(HealthMonitor, StalledBusyComponentIsUnhealthyAndNamed) {
  obs::HealthMonitor monitor;
  obs::Heartbeat beat;
  beat.beat();
  obs::HealthMonitor::WatchdogOptions options;
  options.stall_budget_seconds = 0.0005;  // any scheduling delay exceeds it
  options.busy = [] { return true; };
  monitor.watch("wedged-loop", &beat, options);

  std::this_thread::sleep_for(5ms);  // let the heartbeat age past the budget
  const auto components = monitor.check();
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].status, api::HealthStatus::kUnhealthy);
  EXPECT_EQ(components[0].component, "wedged-loop");
  EXPECT_NE(components[0].detail.find("stalled"), std::string::npos);
  EXPECT_EQ(components[0].heartbeats, 1u);
  EXPECT_GT(components[0].heartbeat_age_seconds, 0.0);
  EXPECT_EQ(monitor.overall(components), api::HealthStatus::kUnhealthy);
}

TEST(HealthMonitor, FreshBeatWithinBudgetIsHealthy) {
  obs::HealthMonitor monitor;
  obs::Heartbeat beat;
  obs::HealthMonitor::WatchdogOptions options;
  options.stall_budget_seconds = 300.0;
  options.busy = [] { return true; };
  monitor.watch("ticker", &beat, options);

  beat.beat();
  const auto components = monitor.check();
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].status, api::HealthStatus::kHealthy);
}

TEST(HealthMonitor, ProbeVerdictsPassThroughAndAggregateWorst) {
  obs::HealthMonitor monitor;
  obs::Heartbeat beat;
  beat.beat();
  obs::HealthMonitor::WatchdogOptions options;
  options.stall_budget_seconds = 300.0;
  monitor.watch("beating", &beat, options);
  monitor.probe("gate", [] {
    api::ComponentHealth health;
    health.component = "gate";
    health.status = api::HealthStatus::kDegraded;
    health.detail = "live 9 / limit 10";
    return health;
  });

  const auto components = monitor.check();
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0].component, "beating");
  EXPECT_EQ(components[1].component, "gate");
  EXPECT_EQ(components[1].status, api::HealthStatus::kDegraded);
  EXPECT_EQ(components[1].detail, "live 9 / limit 10");
  EXPECT_EQ(monitor.overall(components), api::HealthStatus::kDegraded);
  EXPECT_EQ(monitor.overall({}), api::HealthStatus::kHealthy);
}

// ---- SloMonitor: burn math ---------------------------------------------------

std::array<double, api::kNumPriorities> slo_targets(double interactive,
                                                    double standard,
                                                    double batch) {
  std::array<double, api::kNumPriorities> targets{};
  targets[static_cast<std::size_t>(api::Priority::kInteractive)] = interactive;
  targets[static_cast<std::size_t>(api::Priority::kStandard)] = standard;
  targets[static_cast<std::size_t>(api::Priority::kBatch)] = batch;
  return targets;
}

obs::SloRule standard_rule() {
  obs::SloRule rule;
  rule.name = "standard-burn";
  rule.priority = api::Priority::kStandard;
  rule.attainment_target = 0.9;  // budget = 0.1 -> burn = 10 x bad fraction
  rule.fast_window_seconds = 300.0;
  rule.slow_window_seconds = 3600.0;
  rule.burn_threshold = 2.0;
  rule.clear_threshold = 1.0;
  rule.min_samples = 10;
  return rule;
}

TEST(SloMonitor, BurnIsBadFractionOverErrorBudget) {
  obs::SloMonitor slo(slo_targets(0.0, 100.0, 0.0), {standard_rule()});
  // 20 samples at t=1000: 15 within the 100 s target, 5 late/failed.
  for (int i = 0; i < 15; ++i) {
    slo.record(api::Priority::kStandard, 50.0, 1000.0, true);
  }
  for (int i = 0; i < 3; ++i) {
    slo.record(api::Priority::kStandard, 500.0, 1000.0, true);  // late
  }
  for (int i = 0; i < 2; ++i) {
    slo.record(api::Priority::kStandard, 10.0, 1000.0, false);  // failed
  }
  const auto burn = slo.burn(api::Priority::kStandard, 300.0, 0.9, 1000.0);
  EXPECT_EQ(burn.total, 20u);
  EXPECT_EQ(burn.good, 15u);
  EXPECT_NEAR(burn.rate, (5.0 / 20.0) / 0.1, 1e-9);  // 2.5x budget
  EXPECT_EQ(slo.recorded_total(), 20u);
}

TEST(SloMonitor, UntrackedClassIsIgnored) {
  obs::SloMonitor slo(slo_targets(0.0, 100.0, 0.0), {standard_rule()});
  slo.record(api::Priority::kBatch, 1.0, 100.0, true);  // no batch target
  EXPECT_EQ(slo.recorded_total(), 0u);
  const auto burn = slo.burn(api::Priority::kBatch, 300.0, 0.9, 100.0);
  EXPECT_EQ(burn.total, 0u);
  EXPECT_EQ(burn.rate, 0.0);
}

TEST(SloMonitor, SlidingWindowForgetsOldBuckets) {
  obs::SloMonitor slo(slo_targets(0.0, 100.0, 0.0), {standard_rule()});
  for (int i = 0; i < 10; ++i) {
    slo.record(api::Priority::kStandard, 500.0, 100.0, true);  // all bad
  }
  // Inside the fast window the burn is maximal...
  EXPECT_NEAR(slo.burn(api::Priority::kStandard, 300.0, 0.9, 150.0).rate, 10.0,
              1e-9);
  // ...and once the window slides past those buckets, nothing remains.
  const auto later = slo.burn(api::Priority::kStandard, 300.0, 0.9, 1000.0);
  EXPECT_EQ(later.total, 0u);
  EXPECT_EQ(later.rate, 0.0);
}

// ---- SloMonitor: alert state machine -----------------------------------------

TEST(SloMonitor, WalksPendingFiringResolvedInactive) {
  obs::SloMonitor slo(slo_targets(0.0, 100.0, 0.0), {standard_rule()});

  // t=100: 20 all-bad samples -> fast burn 10 >= 2, but the state machine
  // enters kPending first (multi-window rule: one fast breach never pages).
  for (int i = 0; i < 20; ++i) {
    slo.record(api::Priority::kStandard, 0.0, 100.0, false);
  }
  auto transitions = slo.evaluate(100.0);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].state, api::AlertState::kPending);
  EXPECT_EQ(transitions[0].rule, "standard-burn");
  EXPECT_GE(transitions[0].fast_burn, 2.0);

  // Still burning at the next evaluation: slow window also breaches -> firing.
  for (int i = 0; i < 20; ++i) {
    slo.record(api::Priority::kStandard, 0.0, 400.0, false);
  }
  transitions = slo.evaluate(400.0);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].state, api::AlertState::kFiring);

  // Recovery: the fast window slides clear of the bad buckets -> resolved.
  for (int i = 0; i < 20; ++i) {
    slo.record(api::Priority::kStandard, 10.0, 5000.0, true);
  }
  transitions = slo.evaluate(5000.0);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].state, api::AlertState::kResolved);

  // Resolved decays to inactive silently on the next evaluation.
  transitions = slo.evaluate(5300.0);
  EXPECT_TRUE(transitions.empty());
  const auto alerts = slo.alerts(5300.0);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].state, api::AlertState::kInactive);
}

TEST(SloMonitor, HysteresisHoldsFiringBetweenClearAndBurnThresholds) {
  obs::SloMonitor slo(slo_targets(0.0, 100.0, 0.0), {standard_rule()});
  // Drive to firing with an all-bad window.
  for (int i = 0; i < 40; ++i) {
    slo.record(api::Priority::kStandard, 0.0, 100.0, false);
  }
  slo.evaluate(100.0);
  slo.evaluate(160.0);
  ASSERT_EQ(slo.alerts(160.0)[0].state, api::AlertState::kFiring);

  // A window hovering at burn 1.5 (between clear 1.0 and threshold 2.0)
  // must NOT resolve the alert — that is the hysteresis band.
  for (int i = 0; i < 17; ++i) {
    slo.record(api::Priority::kStandard, 10.0, 700.0, true);
  }
  for (int i = 0; i < 3; ++i) {
    slo.record(api::Priority::kStandard, 500.0, 700.0, true);  // 15% bad
  }
  auto transitions = slo.evaluate(700.0);
  EXPECT_TRUE(transitions.empty());
  EXPECT_EQ(slo.alerts(700.0)[0].state, api::AlertState::kFiring);
}

TEST(SloMonitor, MinSamplesGateStopsEmptyWindowPaging) {
  obs::SloMonitor slo(slo_targets(0.0, 100.0, 0.0), {standard_rule()});
  // A single bad run in an otherwise empty window is burn 10 — but with
  // fewer than min_samples observations it must not even go pending.
  slo.record(api::Priority::kStandard, 0.0, 100.0, false);
  EXPECT_TRUE(slo.evaluate(100.0).empty());
  EXPECT_EQ(slo.alerts(100.0)[0].state, api::AlertState::kInactive);
}

TEST(SloMonitor, PendingFallsBackToInactiveWhenBurnClears) {
  obs::SloMonitor slo(slo_targets(0.0, 100.0, 0.0), {standard_rule()});
  for (int i = 0; i < 20; ++i) {
    slo.record(api::Priority::kStandard, 0.0, 100.0, false);
  }
  slo.evaluate(100.0);  // -> pending
  // The blip passes before the slow window ever breached: back to inactive.
  const auto transitions = slo.evaluate(5000.0);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].state, api::AlertState::kInactive);
}

// ---- getHealth end to end ----------------------------------------------------

workflow::ImageId deploy_quantum(api::QonductorClient& client,
                                 const std::string& name) {
  api::CreateWorkflowRequest create;
  create.name = name;
  create.tasks.push_back(workflow::HybridTask::quantum("ghz", circuit::ghz(3), 64));
  auto created = client.createWorkflow(std::move(create));
  EXPECT_TRUE(created.ok()) << created.status().to_string();
  api::DeployRequest deploy;
  deploy.image = created->image;
  auto deployed = client.deploy(deploy);
  EXPECT_TRUE(deployed.ok()) << deployed.status().to_string();
  return created->image;
}

const api::ComponentHealth* find_component(
    const std::vector<api::ComponentHealth>& components,
    const std::string& name) {
  for (const auto& component : components) {
    if (component.component == name) return &component;
  }
  return nullptr;
}

TEST(GetHealth, QuiescentSystemReportsEveryComponentHealthy) {
  core::QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 7;
  config.trajectory_width_limit = 0;
  config.scheduler_service.queue_threshold = 2;
  config.scheduler_service.linger = 5ms;
  config.health.slo_seconds[static_cast<std::size_t>(api::Priority::kStandard)] =
      3600.0;
  config.health.alert_rules.push_back(standard_rule());
  api::QonductorClient client(config);
  const auto image = deploy_quantum(client, "health-happy");

  std::vector<api::InvokeRequest> requests(4);
  for (auto& request : requests) request.image = image;
  auto handles = client.invokeAll(requests);
  ASSERT_TRUE(handles.ok()) << handles.status().to_string();
  for (auto& handle : *handles) {
    ASSERT_EQ(handle.wait(), api::RunStatus::kCompleted);
  }

  const auto health = client.getHealth();
  ASSERT_TRUE(health.ok()) << health.status().to_string();
  EXPECT_EQ(health->status, api::HealthStatus::kHealthy);
  for (const char* name :
       {"engine", "scheduler", "queue", "admission", "fleet"}) {
    const api::ComponentHealth* component =
        find_component(health->components, name);
    ASSERT_NE(component, nullptr) << "missing component " << name;
    EXPECT_EQ(component->status, api::HealthStatus::kHealthy)
        << name << ": " << component->detail;
  }
  // The engine and scheduler actually beat while settling the four runs.
  EXPECT_GT(find_component(health->components, "engine")->heartbeats, 0u);
  EXPECT_GT(find_component(health->components, "scheduler")->heartbeats, 0u);
  // The SLO monitor saw every settle; the quiet rule reports inactive.
  ASSERT_EQ(health->alerts.size(), 1u);
  EXPECT_EQ(health->alerts[0].rule, "standard-burn");
  EXPECT_EQ(health->alerts[0].state, api::AlertState::kInactive);

  // Exporter smoke: the JSON names every component and the alert rule.
  const std::string json = obs::render_health_json(*health);
  EXPECT_NE(json.find("\"status\": \"healthy\""), std::string::npos);
  EXPECT_NE(json.find("\"component\": \"scheduler\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"standard-burn\""), std::string::npos);
}

// An offline QPU is a fault whether or not it is also reserved: reserving
// a faulted QPU must not launder the fleet verdict back to healthy.
TEST(GetHealth, FleetProbeCountsOfflineQpusIndependentlyOfReservations) {
  core::QonductorConfig config;
  config.num_qpus = 3;
  config.seed = 7;
  api::QonductorClient client(config);
  const auto names = client.backend().monitor().qpu_names();
  ASSERT_EQ(names.size(), 3u);
  const auto fleet_verdict = [&client] {
    const auto health = client.getHealth();
    EXPECT_TRUE(health.ok());
    const api::ComponentHealth* fleet = find_component(health->components, "fleet");
    EXPECT_NE(fleet, nullptr);
    return *fleet;
  };
  EXPECT_EQ(fleet_verdict().status, api::HealthStatus::kHealthy);

  // A reservation alone is an operator decision, not a fault.
  api::ReserveQpuRequest reserve;
  reserve.qpu = names[1];
  ASSERT_TRUE(client.reserveQpu(reserve).ok());
  EXPECT_EQ(fleet_verdict().status, api::HealthStatus::kHealthy);
  api::ReleaseQpuRequest release;
  release.qpu = names[1];
  ASSERT_TRUE(client.releaseQpu(release).ok());

  ASSERT_TRUE(client.backend().monitor().set_qpu_online(names[0], false).has_value());
  EXPECT_EQ(fleet_verdict().status, api::HealthStatus::kDegraded);

  reserve.qpu = names[0];
  ASSERT_TRUE(client.reserveQpu(reserve).ok());
  const api::ComponentHealth both = fleet_verdict();
  EXPECT_EQ(both.status, api::HealthStatus::kDegraded) << both.detail;
  EXPECT_NE(both.detail.find("2/3"), std::string::npos) << both.detail;
}

// SLO targets and burn rules are validated once, at construction: a rule
// that could never fire, a window that would size the SLI ring without
// bound, an inverted window pair or a non-finite target each park invoke()
// on a typed INVALID_ARGUMENT instead of being accepted (or crashing).
TEST(GetHealth, BadSloConfigSurfacesAsInvalidArgument) {
  const auto expect_rejected = [](const core::HealthConfig& health, const char* why) {
    core::QonductorConfig config;
    config.num_qpus = 2;
    config.seed = 7;
    config.health = health;
    api::QonductorClient client(config);  // must not throw
    api::InvokeRequest request;
    request.image = deploy_quantum(client, "bad-slo");
    auto handle = client.invoke(request);
    ASSERT_FALSE(handle.ok()) << why;
    EXPECT_EQ(handle.status().code(), api::StatusCode::kInvalidArgument)
        << why << ": " << handle.status().to_string();
    EXPECT_TRUE(client.getHealth().ok()) << why;
  };
  core::HealthConfig valid;
  valid.slo_seconds = slo_targets(0.0, 3600.0, 0.0);
  valid.alert_rules.push_back(standard_rule());

  core::HealthConfig untracked = valid;
  untracked.alert_rules[0].priority = api::Priority::kBatch;  // no batch target
  expect_rejected(untracked, "rule on an untracked class");

  core::HealthConfig infinite_window = valid;
  infinite_window.alert_rules[0].slow_window_seconds =
      std::numeric_limits<double>::infinity();
  expect_rejected(infinite_window, "infinite slow window");

  // Finite but unbounded windows would size the SLI ring past memory.
  core::HealthConfig month_and_a_second = valid;
  month_and_a_second.alert_rules[0].slow_window_seconds = 30.0 * 24 * 3600 + 1.0;
  expect_rejected(month_and_a_second, "slow window of 30 days + 1 s");

  core::HealthConfig huge_window = valid;
  huge_window.alert_rules[0].slow_window_seconds = 1e15;
  expect_rejected(huge_window, "slow window of 1e15 s");

  core::HealthConfig inverted = valid;
  inverted.alert_rules[0].fast_window_seconds = 7200.0;  // > slow (3600)
  expect_rejected(inverted, "fast window longer than slow");

  core::HealthConfig infinite_target;
  infinite_target.slo_seconds = slo_targets(std::numeric_limits<double>::infinity(), 0.0, 0.0);
  expect_rejected(infinite_target, "infinite class target");

  // A NaN engine budget would disable the watchdog (age > NaN is false); a
  // budget <= 0 reads as stalled whenever the engine is busy.
  for (const double budget : {std::numeric_limits<double>::quiet_NaN(), 0.0, -5.0}) {
    core::HealthConfig bad_budget;
    bad_budget.engine_stall_budget_seconds = budget;
    expect_rejected(bad_budget, ("engine stall budget " + std::to_string(budget)).c_str());
  }
}

TEST(GetHealth, RejectsUnsupportedApiVersion) {
  core::QonductorConfig config;
  config.num_qpus = 1;
  api::QonductorClient client(config);
  api::GetHealthRequest request;
  request.api_version = api::kApiVersion + 1;
  EXPECT_EQ(client.getHealth(request).status().code(),
            api::StatusCode::kUnimplemented);
}

// ---- the wedge death test ----------------------------------------------------

// A scheduler cycle wedged inside its snapshot hook must be detected — and
// named — by getHealth within the (tiny) stall budget, not discovered as a
// hung 300 s ctest timeout. The fault injection point runs on the
// scheduler thread at the top of every cycle, holding no lock.
TEST(GetHealth, WedgedSchedulerIsNamedUnhealthyWhileStalled) {
  std::atomic<bool> wedged{false};
  core::QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 9;
  config.trajectory_width_limit = 0;
  config.scheduler_service.queue_threshold = 1;
  config.scheduler_service.linger = 5ms;
  config.scheduler_service.scheduler_stall_budget_seconds = 0.05;
  config.health.scheduler_fault_injection = [&] {
    while (wedged.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(1ms);
    }
  };
  api::QonductorClient client(config);
  const auto image = deploy_quantum(client, "health-wedge");

  // Healthy first: one run settles end to end.
  api::InvokeRequest request;
  request.image = image;
  auto warmup = client.invoke(request);
  ASSERT_TRUE(warmup.ok());
  ASSERT_EQ(warmup->wait(), api::RunStatus::kCompleted);

  // Wedge the scheduler, then park a task so the queue is demonstrably
  // non-empty (busy) while the cycle thread is stuck in the hook.
  wedged.store(true);
  auto parked = client.invoke(request);
  ASSERT_TRUE(parked.ok());

  // The stall verdict must arrive well before any test timeout: poll
  // getHealth for at most ~2 s against a 50 ms budget.
  bool named = false;
  for (int i = 0; i < 2000 && !named; ++i) {
    const auto health = client.getHealth();
    ASSERT_TRUE(health.ok());
    const api::ComponentHealth* scheduler =
        find_component(health->components, "scheduler");
    ASSERT_NE(scheduler, nullptr);
    if (health->status == api::HealthStatus::kUnhealthy &&
        scheduler->status == api::HealthStatus::kUnhealthy &&
        scheduler->detail.find("stalled") != std::string::npos) {
      named = true;
    }
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(named) << "wedged scheduler never reported unhealthy";

  // Release the wedge: the parked run settles and health recovers.
  wedged.store(false);
  ASSERT_EQ(parked->wait(), api::RunStatus::kCompleted);
}

}  // namespace
}  // namespace qon
