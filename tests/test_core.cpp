// Tests for the core orchestrator: the system monitor's typed QPU flag
// table, and the Table-2 API surface end to end — create, deploy, invoke,
// status, results, resource estimation and scheduling — exercised directly
// on core::Qonductor through the typed request/response surface (the
// former synchronous shims are gone). The client facade and the async
// lifecycle corners are covered by tests/test_api.cpp; the run table's
// retention policy by tests/test_run_table.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <random>
#include <thread>
#include <utility>

#include "circuit/library.hpp"
#include "core/orchestrator.hpp"
#include "core/system_monitor.hpp"

namespace qon::core {
namespace {

TEST(SystemMonitor, TableStartsOnlineAndUnreservedInGivenOrder) {
  SystemMonitor monitor({"mumbai", "cairo"});
  EXPECT_EQ(monitor.qpu_names(), (std::vector<std::string>{"mumbai", "cairo"}));
  const auto read = monitor.qpu("cairo");
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->name, "cairo");
  EXPECT_TRUE(read->online);
  EXPECT_FALSE(read->reserved);
  const auto all = monitor.qpus();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].name, "mumbai");
  EXPECT_EQ(all[1].name, "cairo");
  EXPECT_FALSE(monitor.qpu("absent").has_value());
}

TEST(SystemMonitor, FlagSettersRoundTripIndependently) {
  SystemMonitor monitor({"mumbai", "cairo"});
  // Field-level setters return the previous value and touch nothing else.
  EXPECT_EQ(monitor.reserve("mumbai"), std::optional<bool>(false));
  EXPECT_EQ(monitor.reserve("mumbai"), std::optional<bool>(true));
  EXPECT_EQ(monitor.set_qpu_online("mumbai", false), std::optional<bool>(true));
  auto read = monitor.qpu("mumbai");
  ASSERT_TRUE(read.has_value());
  EXPECT_FALSE(read->online);
  EXPECT_TRUE(read->reserved);
  EXPECT_FALSE(read->schedulable());
  // Releasing the reservation must not bring the faulted QPU back.
  EXPECT_EQ(monitor.release("mumbai"), std::optional<bool>(true));
  read = monitor.qpu("mumbai");
  EXPECT_FALSE(read->online);
  EXPECT_FALSE(read->reserved);
  EXPECT_FALSE(read->schedulable());
  // The neighbour's flags never moved.
  EXPECT_TRUE(monitor.qpu("cairo")->online);
  EXPECT_FALSE(monitor.qpu("cairo")->reserved);
  EXPECT_TRUE(monitor.qpu("cairo")->schedulable());
}

TEST(SystemMonitor, ReservationWindowExpiresAtTheSnapshotThatReachesIt) {
  SystemMonitor monitor({"mumbai", "cairo"});
  EXPECT_EQ(monitor.reserve("mumbai", 100.0), std::optional<bool>(false));
  EXPECT_EQ(monitor.reserve("cairo"), std::optional<bool>(false));
  // A second reserve is refused without touching the held window.
  EXPECT_EQ(monitor.reserve("mumbai", 5.0), std::optional<bool>(true));
  EXPECT_EQ(monitor.qpu("mumbai")->release_at, std::optional<double>(100.0));
  // Before the deadline the snapshot keeps both reservations.
  auto table = monitor.release_due(99.0);
  ASSERT_EQ(table.size(), 2u);
  EXPECT_TRUE(table[0].reserved);
  EXPECT_TRUE(table[1].reserved);
  // At the deadline (inclusive) only the windowed one is released.
  table = monitor.release_due(100.0);
  EXPECT_FALSE(table[0].reserved);
  EXPECT_FALSE(table[0].release_at.has_value());
  EXPECT_TRUE(table[1].reserved);
  EXPECT_FALSE(table[1].release_at.has_value());
  // An explicit release clears the window with the flag: a later
  // open-ended reservation never inherits it.
  EXPECT_EQ(monitor.reserve("mumbai", 200.0), std::optional<bool>(false));
  EXPECT_EQ(monitor.release("mumbai"), std::optional<bool>(true));
  EXPECT_EQ(monitor.reserve("mumbai"), std::optional<bool>(false));
  EXPECT_TRUE(monitor.release_due(1e9)[0].reserved);
}

TEST(SystemMonitor, UnknownNamesAreRejected) {
  SystemMonitor monitor({"mumbai"});
  EXPECT_FALSE(monitor.set_qpu_online("absent", false).has_value());
  EXPECT_FALSE(monitor.reserve("absent").has_value());
  EXPECT_FALSE(monitor.reserve("absent", 1.0).has_value());
  EXPECT_FALSE(monitor.release("absent").has_value());
  EXPECT_EQ(monitor.qpu_names(), (std::vector<std::string>{"mumbai"}));
}

/// Reference model of the reservation state as two stores: a flag table
/// plus a QPU -> release-instant window map, kept consistent by hand the
/// way the orchestrator once did under its own lock. Single-threaded:
/// MatchesReservationMapReference holds the one-row monitor to it.
class ReservationMapReference {
 public:
  explicit ReservationMapReference(const std::vector<std::string>& names) {
    for (const std::string& name : names) flags_[name] = Flags{};
  }

  std::optional<bool> set_qpu_online(const std::string& name, bool online) {
    const auto it = flags_.find(name);
    if (it == flags_.end()) return std::nullopt;
    return std::exchange(it->second.online, online);
  }

  std::optional<bool> reserve(const std::string& name, std::optional<double> release_at) {
    const auto previous = set_reserved(name, true);
    if (!previous || *previous) return previous;
    if (release_at) windows_[name] = *release_at;
    return previous;
  }

  std::optional<bool> release(const std::string& name) {
    const auto previous = set_reserved(name, false);
    if (!previous || !*previous) return previous;
    windows_.erase(name);
    return previous;
  }

  void expire(double now) {
    for (auto it = windows_.begin(); it != windows_.end();) {
      if (it->second <= now) {
        set_reserved(it->first, false);
        it = windows_.erase(it);
      } else {
        ++it;
      }
    }
  }

  bool online(const std::string& name) const { return flags_.at(name).online; }
  bool reserved(const std::string& name) const { return flags_.at(name).reserved; }
  std::optional<double> release_at(const std::string& name) const {
    const auto it = windows_.find(name);
    if (it == windows_.end()) return std::nullopt;
    return it->second;
  }

 private:
  struct Flags {
    bool online = true;
    bool reserved = false;
  };

  std::optional<bool> set_reserved(const std::string& name, bool reserved) {
    const auto it = flags_.find(name);
    if (it == flags_.end()) return std::nullopt;
    return std::exchange(it->second.reserved, reserved);
  }

  std::map<std::string, Flags> flags_;
  std::map<std::string, double> windows_;
};

// Seeded random open and windowed reserve / release / snapshot-at-now /
// set_qpu_online sequences, including unknown names: every return value
// and every QPU's flags and window must match the two-store reference
// after every operation.
TEST(SystemMonitor, MatchesReservationMapReference) {
  const std::vector<std::string> names = {"mumbai", "cairo", "kolkata", "auckland"};
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    std::mt19937_64 rng(seed);
    const auto uniform = [&rng](double lo, double hi) {
      return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    SystemMonitor monitor(names);
    ReservationMapReference reference(names);
    for (int op = 0; op < 200; ++op) {
      // One name in nine is unknown to both.
      const std::string name =
          rng() % 9 == 0 ? std::string("absent") : names[rng() % names.size()];
      const auto dice = rng() % 100;
      if (dice < 35) {
        std::optional<double> release_at;
        if (rng() % 3 != 0) release_at = uniform(0.0, 100.0);
        ASSERT_EQ(monitor.reserve(name, release_at), reference.reserve(name, release_at))
            << "reserve, seed " << seed << " op " << op;
      } else if (dice < 60) {
        ASSERT_EQ(monitor.release(name), reference.release(name))
            << "release, seed " << seed << " op " << op;
      } else if (dice < 85) {
        const double now = uniform(0.0, 120.0);
        const std::vector<QpuInfo> table = monitor.release_due(now);
        reference.expire(now);
        ASSERT_EQ(table.size(), names.size());
        for (std::size_t q = 0; q < names.size(); ++q) {
          ASSERT_EQ(table[q].name, names[q]);
          ASSERT_EQ(table[q].reserved, reference.reserved(names[q]))
              << "snapshot, seed " << seed << " op " << op;
          ASSERT_EQ(table[q].online, reference.online(names[q]))
              << "snapshot, seed " << seed << " op " << op;
        }
      } else {
        const bool online = rng() % 2 == 0;
        ASSERT_EQ(monitor.set_qpu_online(name, online),
                  reference.set_qpu_online(name, online))
            << "set_qpu_online, seed " << seed << " op " << op;
      }
      for (const QpuInfo& qpu : monitor.qpus()) {
        ASSERT_EQ(qpu.online, reference.online(qpu.name)) << "seed " << seed << " op " << op;
        ASSERT_EQ(qpu.reserved, reference.reserved(qpu.name))
            << "seed " << seed << " op " << op;
        ASSERT_EQ(qpu.release_at, reference.release_at(qpu.name))
            << "seed " << seed << " op " << op;
      }
    }
  }
}

// The race the one-row table closes: a scheduling snapshot must never
// release a reservation that is not due, however its sweep interleaves
// with concurrent reserve/release pairs. Two QPUs churn reservations the
// snapshot's `now` lies before (one windowed, one open-ended); a third
// churns a window due at every snapshot followed by a fresh open-ended
// reservation, which a sweep acting on the old window would lose. Written
// for the TSAN job.
TEST(SystemMonitor, SnapshotNeverLosesAFreshReservation) {
  SystemMonitor monitor({"windowed", "open", "expiring"});
  std::atomic<bool> stop{false};
  std::thread scheduler([&] {
    while (!stop.load()) monitor.release_due(10.0);
  });
  const auto churn = [&monitor](const std::string& name, std::optional<double> release_at) {
    for (int i = 0; i < 5000; ++i) {
      ASSERT_EQ(monitor.reserve(name, release_at), std::optional<bool>(false)) << name;
      ASSERT_EQ(monitor.release(name), std::optional<bool>(true))
          << name << ": a fresh reservation was lost at iteration " << i;
    }
  };
  std::thread windowed([&] { churn("windowed", 20.0); });
  std::thread open([&] { churn("open", std::nullopt); });
  std::thread expiring([&] {
    for (int i = 0; i < 5000; ++i) {
      ASSERT_EQ(monitor.reserve("expiring", 5.0), std::optional<bool>(false));
      monitor.release("expiring");  // a snapshot may have released it first
      ASSERT_EQ(monitor.reserve("expiring"), std::optional<bool>(false));
      ASSERT_EQ(monitor.release("expiring"), std::optional<bool>(true))
          << "expiring: a fresh reservation was lost at iteration " << i;
    }
  });
  windowed.join();
  open.join();
  expiring.join();
  stop.store(true);
  scheduler.join();
}

class OrchestratorFixture : public ::testing::Test {
 protected:
  static QonductorConfig small_config() {
    QonductorConfig config;
    config.num_qpus = 3;
    config.seed = 4242;
    config.trajectory_width_limit = 8;
    return config;
  }

  /// createWorkflow through the typed surface; asserts success.
  static workflow::ImageId create(Qonductor& orchestrator, const std::string& name,
                                  std::vector<workflow::HybridTask> tasks,
                                  const std::string& yaml_config = "") {
    api::CreateWorkflowRequest request;
    request.name = name;
    request.tasks = std::move(tasks);
    request.yaml_config = yaml_config;
    auto created = orchestrator.createWorkflow(std::move(request));
    EXPECT_TRUE(created.ok()) << created.status().to_string();
    return created.ok() ? created->image : 0;
  }

  static void deploy(Qonductor& orchestrator, workflow::ImageId image) {
    api::DeployRequest request;
    request.image = image;
    auto deployed = orchestrator.deploy(request);
    ASSERT_TRUE(deployed.ok()) << deployed.status().to_string();
  }

  /// invoke + wait: the blocking convenience the old sync surface offered,
  /// now composed from the async primitives.
  static api::WorkflowResult invoke_and_wait(Qonductor& orchestrator,
                                             workflow::ImageId image) {
    api::InvokeRequest request;
    request.image = image;
    auto handle = orchestrator.invoke(request);
    EXPECT_TRUE(handle.ok()) << handle.status().to_string();
    if (!handle.ok()) return {};
    auto result = handle->result();
    EXPECT_TRUE(result.ok()) << result.status().to_string();
    return result.ok() ? *std::move(result) : api::WorkflowResult{};
  }
};

TEST_F(OrchestratorFixture, MonitorTableIsBuiltFromTheFleet) {
  Qonductor orchestrator(small_config());
  const auto names = orchestrator.monitor().qpu_names();
  ASSERT_EQ(names.size(), 3u);
  for (std::size_t q = 0; q < names.size(); ++q) {
    EXPECT_EQ(names[q], orchestrator.fleet().backends[q]->name());
  }
  const auto info = orchestrator.monitor().qpu(names[0]);
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->online);
  EXPECT_FALSE(info->reserved);
  // Static facts are read from the fleet, their only owner.
  EXPECT_EQ(orchestrator.fleet().backends[0]->num_qubits(), 27);
}

TEST_F(OrchestratorFixture, CreateDeployInvokeLifecycle) {
  Qonductor orchestrator(small_config());

  // Listing-2-style hybrid workflow: pre-process, QAOA circuit, post-process.
  std::vector<workflow::HybridTask> tasks;
  tasks.push_back(workflow::HybridTask::classical("zne-prepare", 0.2));
  mitigation::MitigationSpec spec;
  spec.stack = {mitigation::Technique::kRem};
  tasks.push_back(workflow::HybridTask::quantum("qaoa", circuit::qaoa_maxcut(5, 1, 7), 2000, spec));
  tasks.push_back(workflow::HybridTask::classical("zne-inference", 0.4,
                                                  mitigation::Accelerator::kGpu));

  const auto image = create(orchestrator, "qaoa-error-mitigated", std::move(tasks),
                            "resources:\n  limits:\n    qubits: 5\n");
  EXPECT_EQ(orchestrator.listImages(), (std::vector<workflow::ImageId>{image}));
  deploy(orchestrator, image);

  const auto result = invoke_and_wait(orchestrator, image);
  EXPECT_EQ(result.status, api::RunStatus::kCompleted);
  ASSERT_EQ(result.tasks.size(), 3u);
  EXPECT_EQ(result.tasks[0].kind, workflow::TaskKind::kClassical);
  EXPECT_EQ(result.tasks[1].kind, workflow::TaskKind::kQuantum);
  EXPECT_GT(result.tasks[1].fidelity, 0.2);
  EXPECT_LE(result.tasks[1].fidelity, 1.0);
  EXPECT_FALSE(result.tasks[1].counts.empty());  // small: trajectory-simulated
  EXPECT_FALSE(result.tasks[1].resource.empty());
  EXPECT_GT(result.total_cost_dollars, 0.0);
  EXPECT_GT(result.makespan_seconds, 0.0);
  // Tasks run in dependency order on the virtual clock.
  EXPECT_LE(result.tasks[0].end, result.tasks[1].start + 1e-9);
  EXPECT_LE(result.tasks[1].end, result.tasks[2].start + 1e-9);

  // The run's lifecycle record is queryable and stamped on the fleet clock.
  api::WorkflowStatusRequest status_request;
  status_request.run = result.run;
  auto status = orchestrator.workflowStatus(status_request);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->status, api::RunStatus::kCompleted);
}

TEST_F(OrchestratorFixture, InvokeRequiresDeploy) {
  Qonductor orchestrator(small_config());
  const auto image = create(orchestrator, "undeployed",
                            {workflow::HybridTask::classical("only", 0.1)});
  api::InvokeRequest request;
  request.image = image;
  auto handle = orchestrator.invoke(request);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), api::StatusCode::kFailedPrecondition);
}

TEST_F(OrchestratorFixture, DeployRejectsOversizedCircuits) {
  Qonductor orchestrator(small_config());
  circuit::Circuit big(28);
  big.h(0);
  big.measure_all();
  const auto image = create(orchestrator, "too-big",
                            {workflow::HybridTask::quantum("big", big)});
  api::DeployRequest request;
  request.image = image;
  auto deployed = orchestrator.deploy(request);
  ASSERT_FALSE(deployed.ok());
  EXPECT_EQ(deployed.status().code(), api::StatusCode::kResourceExhausted);
}

TEST_F(OrchestratorFixture, CreateWorkflowValidatesInput) {
  Qonductor orchestrator(small_config());
  api::CreateWorkflowRequest request;
  request.name = "empty";
  auto created = orchestrator.createWorkflow(std::move(request));
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), api::StatusCode::kInvalidArgument);
}

TEST_F(OrchestratorFixture, LargeCircuitsUseAnalyticModel) {
  Qonductor orchestrator(small_config());
  const auto image = create(orchestrator, "wide",
                            {workflow::HybridTask::quantum("qft20", circuit::qft(20), 1000)});
  deploy(orchestrator, image);
  const auto result = invoke_and_wait(orchestrator, image);
  EXPECT_EQ(result.status, api::RunStatus::kCompleted);
  ASSERT_EQ(result.tasks.size(), 1u);
  EXPECT_TRUE(result.tasks[0].counts.empty());  // too wide for trajectories
  // A 20-qubit QFT is deep enough that its ESP can round to zero; only the
  // range invariant holds.
  EXPECT_GE(result.tasks[0].fidelity, 0.0);
  EXPECT_LE(result.tasks[0].fidelity, 1.0);
}

TEST_F(OrchestratorFixture, SequentialQuantumTasksQueueOnFleet) {
  Qonductor orchestrator(small_config());
  std::vector<workflow::HybridTask> tasks;
  tasks.push_back(workflow::HybridTask::quantum("first", circuit::ghz(4), 2000));
  tasks.push_back(workflow::HybridTask::quantum("second", circuit::ghz(4), 2000));
  const auto image = create(orchestrator, "pair", std::move(tasks));
  deploy(orchestrator, image);
  const auto result = invoke_and_wait(orchestrator, image);
  ASSERT_EQ(result.tasks.size(), 2u);
  EXPECT_GE(result.tasks[1].start, result.tasks[0].end - 1e-9);
}

TEST_F(OrchestratorFixture, EstimateResourcesReturnsPlans) {
  Qonductor orchestrator(small_config());
  const auto plans = orchestrator.estimateResources(circuit::qaoa_maxcut(10, 1, 5));
  EXPECT_FALSE(plans.all.empty());
  EXPECT_FALSE(plans.recommended.empty());
  EXPECT_LE(plans.recommended.size(), 3u);
}

TEST_F(OrchestratorFixture, GenerateScheduleUsesHybridScheduler) {
  Qonductor orchestrator(small_config());
  sched::SchedulingInput input;
  for (const auto& backend : orchestrator.fleet().backends) {
    input.qpus.push_back({backend->name(), backend->num_qubits(), 0.0, true});
  }
  for (int j = 0; j < 10; ++j) {
    sched::QuantumJob job;
    job.id = static_cast<std::uint64_t>(j);
    job.qubits = 5;
    job.est_fidelity.assign(input.qpus.size(), 0.9);
    job.est_exec_seconds.assign(input.qpus.size(), 3.0);
    input.jobs.push_back(job);
  }
  const auto decision = orchestrator.generateSchedule(input);
  for (int a : decision.assignment) EXPECT_GE(a, 0);
}

TEST_F(OrchestratorFixture, UnknownRunIsNotFound) {
  Qonductor orchestrator(small_config());
  api::WorkflowStatusRequest status_request;
  status_request.run = 9999;
  auto status = orchestrator.workflowStatus(status_request);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), api::StatusCode::kNotFound);

  api::GetRunRequest get_request;
  get_request.run = 9999;
  auto info = orchestrator.getRun(get_request);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), api::StatusCode::kNotFound);
}

TEST_F(OrchestratorFixture, GetRunTracksWorkflowStatus) {
  Qonductor orchestrator(small_config());
  const auto image = create(orchestrator, "tracked",
                            {workflow::HybridTask::classical("c", 0.1)});
  deploy(orchestrator, image);
  const auto result = invoke_and_wait(orchestrator, image);
  api::GetRunRequest request;
  request.run = result.run;
  const auto info = orchestrator.getRun(request);
  ASSERT_TRUE(info.ok()) << info.status().to_string();
  EXPECT_EQ(info->info.status, api::RunStatus::kCompleted);
}

TEST_F(OrchestratorFixture, RunInfoTimestampsFollowTheFleetClock) {
  Qonductor orchestrator(small_config());
  std::vector<workflow::HybridTask> tasks;
  tasks.push_back(workflow::HybridTask::quantum("ghz", circuit::ghz(4), 1000));
  tasks.push_back(workflow::HybridTask::classical("post", 0.2));
  const auto image = create(orchestrator, "stamped", std::move(tasks));
  deploy(orchestrator, image);
  const auto result = invoke_and_wait(orchestrator, image);

  api::GetRunRequest request;
  request.run = result.run;
  auto response = orchestrator.getRun(request);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  const api::RunInfo& info = response->info;
  EXPECT_EQ(info.run, result.run);
  EXPECT_EQ(info.image, image);
  EXPECT_EQ(info.status, api::RunStatus::kCompleted);
  EXPECT_TRUE(info.error.ok());
  // submitted -> started -> finished is monotone on the fleet virtual
  // clock, and the finish stamp has caught up with the executed makespan.
  EXPECT_GE(info.submitted_at, 0.0);
  EXPECT_GE(info.started_at, info.submitted_at);
  EXPECT_GE(info.finished_at, info.started_at);
  EXPECT_GE(info.finished_at, result.makespan_seconds - 1e-9);
  EXPECT_GE(orchestrator.fleetNow(), info.finished_at);
}

TEST_F(OrchestratorFixture, ShutdownIsIdempotentAndKeepsQueriesWorking) {
  Qonductor orchestrator(small_config());
  const auto image = create(orchestrator, "pre-shutdown",
                            {workflow::HybridTask::classical("c", 0.1)});
  deploy(orchestrator, image);
  const auto result = invoke_and_wait(orchestrator, image);

  orchestrator.shutdown();
  orchestrator.shutdown();  // idempotent

  // Queries on existing runs keep answering after shutdown.
  api::GetRunRequest request;
  request.run = result.run;
  auto info = orchestrator.getRun(request);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->info.status, api::RunStatus::kCompleted);

  // New work is rejected with the typed UNAVAILABLE, not an exception.
  api::InvokeRequest invoke_request;
  invoke_request.image = image;
  auto rejected = orchestrator.invoke(invoke_request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), api::StatusCode::kUnavailable);
}

// ---- flag-table stress (run under TSAN in CI) --------------------------------

// One thread per QPU flips that QPU's `online` (device-manager setter) and
// `reserved` (reserveQpu/releaseQpu) flags while a batch burst executes and
// the health probe reads them. Each thread is its QPU's only writer, so
// every write must see the thread's own previous write (no lost update)
// and the table must end on each thread's last write. QPU 0 is never
// touched, so every run still has a schedulable QPU.
TEST(SystemMonitorStress, FlagFlipsDuringBatchBurstKeepTheLastWrite) {
  QonductorConfig config;
  config.num_qpus = 4;
  config.seed = 99;
  config.trajectory_width_limit = 0;  // analytic execution: keep it fast
  config.scheduler_service.queue_threshold = 25;
  config.scheduler_service.linger = std::chrono::milliseconds(2);
  Qonductor orchestrator(config);

  api::CreateWorkflowRequest create;
  create.name = "flag-burst";
  create.tasks.push_back(workflow::HybridTask::quantum("ghz", circuit::ghz(4), 100));
  const auto created = orchestrator.createWorkflow(std::move(create));
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  api::DeployRequest deploy;
  deploy.image = created->image;
  ASSERT_TRUE(orchestrator.deploy(deploy).ok());

  const std::vector<std::string> names = orchestrator.monitor().qpu_names();
  struct LastWrite {
    bool online = true;
    bool reserved = false;
  };
  std::vector<LastWrite> last(names.size());
  std::atomic<bool> burst_done{false};
  std::vector<std::thread> flippers;
  for (std::size_t q = 1; q < names.size(); ++q) {
    flippers.emplace_back([&, q] {
      LastWrite& mine = last[q];
      for (int i = 0; i < 200 || !burst_done.load(); ++i) {
        if (i % 2 == 0) {
          const auto previous = orchestrator.monitor().set_qpu_online(names[q], !mine.online);
          ASSERT_EQ(previous, std::optional<bool>(mine.online));
          mine.online = !mine.online;
        } else if (mine.reserved) {
          api::ReleaseQpuRequest release;
          release.qpu = names[q];
          ASSERT_TRUE(orchestrator.releaseQpu(release).ok());
          mine.reserved = false;
        } else {
          api::ReserveQpuRequest reserve;
          reserve.qpu = names[q];
          ASSERT_TRUE(orchestrator.reserveQpu(reserve).ok());
          mine.reserved = true;
        }
      }
    });
  }

  std::vector<api::InvokeRequest> requests(200);
  for (auto& request : requests) request.image = created->image;
  auto handles = orchestrator.invokeAll(requests);
  ASSERT_TRUE(handles.ok()) << handles.status().to_string();
  for (auto& handle : *handles) {
    EXPECT_TRUE(orchestrator.getHealth().ok());
    EXPECT_EQ(handle.wait(), api::RunStatus::kCompleted);
  }
  burst_done.store(true);
  for (auto& flipper : flippers) flipper.join();

  for (std::size_t q = 0; q < names.size(); ++q) {
    const auto info = orchestrator.monitor().qpu(names[q]);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->online, last[q].online) << names[q];
    EXPECT_EQ(info->reserved, last[q].reserved) << names[q];
  }
}

TEST(CalibrationGenerations, RecalibrationDuringABurstIsRaceFree) {
  // recalibrateFleet() publishes generations while a burst preps (fresh
  // images miss the prep cache and transpile against the fleet) and
  // executes (trajectory simulation reads the calibration). Every run must
  // complete; under TSAN the suite must report nothing.
  QonductorConfig config;
  config.num_qpus = 3;
  config.seed = 31;
  config.trajectory_width_limit = 6;
  config.executor_threads = 4;
  config.scheduler_service.queue_threshold = 8;
  config.scheduler_service.linger = std::chrono::milliseconds(2);
  Qonductor orchestrator(config);
  const qpu::Fleet& initial = orchestrator.fleet();

  const auto deploy_image = [&orchestrator](const std::string& name, int width) {
    api::CreateWorkflowRequest create;
    create.name = name;
    create.tasks.push_back(
        workflow::HybridTask::quantum("ghz", circuit::ghz(width), 200));
    const auto created = orchestrator.createWorkflow(std::move(create));
    EXPECT_TRUE(created.ok()) << created.status().to_string();
    api::DeployRequest deploy;
    deploy.image = created.ok() ? created->image : 0;
    EXPECT_TRUE(orchestrator.deploy(deploy).ok());
    return deploy.image;
  };
  const workflow::ImageId repeated = deploy_image("repeated", 4);
  std::vector<api::InvokeRequest> requests;
  for (int i = 0; i < 24; ++i) {
    api::InvokeRequest fresh;
    fresh.image = deploy_image("fresh-" + std::to_string(i), 3 + i % 3);
    requests.push_back(fresh);
    for (int r = 0; r < 3; ++r) {
      api::InvokeRequest again;
      again.image = repeated;
      requests.push_back(again);
    }
  }

  std::atomic<bool> burst_done{false};
  std::atomic<int> published{0};
  std::thread recalibrator([&] {
    // Bounded: generations are retained for the orchestrator's lifetime.
    // Relaxed counter: the test must not add synchronization between the
    // recalibrator and the workers that the orchestrator itself lacks.
    while (!burst_done.load() && published.load(std::memory_order_relaxed) < 1000) {
      orchestrator.recalibrateFleet();
      published.fetch_add(1, std::memory_order_relaxed);
    }
  });
  while (published.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  auto handles = orchestrator.invokeAll(requests);
  ASSERT_TRUE(handles.ok()) << handles.status().to_string();
  for (auto& handle : *handles) {
    EXPECT_EQ(handle.wait(), api::RunStatus::kCompleted);
  }
  burst_done.store(true);
  recalibrator.join();

  EXPECT_GE(orchestrator.prepCacheMisses(), 24u);
  EXPECT_GT(orchestrator.fleet().backends[0]->calibration().cycle, 0u);
  // A published generation is never rewritten: the reference taken before
  // the burst still reads the initial calibration.
  EXPECT_EQ(initial.backends[0]->calibration().cycle, 0u);
}

TEST(CalibrationGenerations, RecalibrationIsAPureFunctionOfSeedAndGeneration) {
  // Generation g draws from the stream of (seed, g): executions in between
  // do not move it.
  QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 17;
  config.scheduler_service.queue_threshold = 1;
  Qonductor quiet(config);
  Qonductor busy(config);
  api::CreateWorkflowRequest create;
  create.name = "one";
  create.tasks.push_back(workflow::HybridTask::quantum("ghz", circuit::ghz(3), 100));
  const auto created = busy.createWorkflow(std::move(create));
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  api::DeployRequest deploy;
  deploy.image = created->image;
  ASSERT_TRUE(busy.deploy(deploy).ok());
  api::InvokeRequest invoke;
  invoke.image = created->image;
  auto handle = busy.invoke(invoke);
  ASSERT_TRUE(handle.ok()) << handle.status().to_string();
  EXPECT_EQ(handle->wait(), api::RunStatus::kCompleted);

  for (int g = 1; g <= 2; ++g) {
    quiet.recalibrateFleet();
    busy.recalibrateFleet();
  }
  for (std::size_t q = 0; q < 2; ++q) {
    const qpu::CalibrationData& a = quiet.fleet().backends[q]->calibration();
    const qpu::CalibrationData& b = busy.fleet().backends[q]->calibration();
    EXPECT_EQ(a.cycle, 2u);
    EXPECT_EQ(b.cycle, 2u);
    EXPECT_DOUBLE_EQ(a.mean_gate_error_2q(), b.mean_gate_error_2q());
    EXPECT_DOUBLE_EQ(a.mean_readout_error(), b.mean_readout_error());
  }
}

TEST(CalibrationGenerations, TaskDispatchedAfterRecalibrationExecutesOnLiveGeneration) {
  // The first run parks (prepped on generation 0), the fleet recalibrates,
  // and the second run's arrival fires the cycle that dispatches both: the
  // first executes on generation 1 without a record for it, the second on
  // the record its generation-1 prep carries. The pinned outcomes are the
  // ones an execution that always reads the live generation produces. Every
  // QPU but lagos is reserved, so both runs land there whatever the
  // optimizer draws: the stale and live outcomes compare one QPU.
  const auto run_pair = [](bool recalibrate) {
    QonductorConfig config;
    config.num_qpus = 3;
    config.seed = 43;
    config.trajectory_width_limit = 0;  // analytic execution
    config.scheduler_service.queue_threshold = 2;
    config.scheduler_service.linger = std::chrono::minutes(10);
    Qonductor orchestrator(config);
    for (const auto& backend : orchestrator.fleet().backends) {
      if (backend->name() == "lagos") continue;
      api::ReserveQpuRequest reserve;
      reserve.qpu = backend->name();
      EXPECT_TRUE(orchestrator.reserveQpu(reserve).ok());
    }
    api::CreateWorkflowRequest create;
    create.name = "ghz";
    create.tasks.push_back(workflow::HybridTask::quantum("ghz", circuit::ghz(4), 1000));
    const auto created = orchestrator.createWorkflow(std::move(create));
    EXPECT_TRUE(created.ok()) << created.status().to_string();
    api::DeployRequest deploy;
    deploy.image = created.ok() ? created->image : 0;
    EXPECT_TRUE(orchestrator.deploy(deploy).ok());
    api::InvokeRequest invoke;
    invoke.image = deploy.image;
    auto first = orchestrator.invoke(invoke);
    EXPECT_TRUE(first.ok()) << first.status().to_string();
    while (orchestrator.getSchedulerStats({})->stats.queue_depth < 1) {
      std::this_thread::yield();
    }
    if (recalibrate) orchestrator.recalibrateFleet();
    auto second = orchestrator.invoke(invoke);
    EXPECT_TRUE(second.ok()) << second.status().to_string();
    std::vector<api::TaskResult> tasks;
    for (const auto* handle : {&*first, &*second}) {
      api::WorkflowResultsRequest request;
      request.run = handle->id();
      const auto results = orchestrator.workflowResults(request);
      EXPECT_TRUE(results.ok()) << results.status().to_string();
      EXPECT_EQ(results->result.status, api::RunStatus::kCompleted);
      tasks.push_back(results->result.tasks.at(0));
    }
    return tasks;
  };
  const auto live = run_pair(true);
  EXPECT_EQ(live[0].resource, "lagos");
  EXPECT_EQ(live[0].fidelity, 0x1.ce62e94d814f8p-1);
  EXPECT_EQ(live[0].cost_dollars, 0x1.c9aa5848837cp-3);
  EXPECT_EQ(live[1].resource, "lagos");
  EXPECT_EQ(live[1].fidelity, 0x1.ba22c23f81029p-1);
  EXPECT_EQ(live[1].cost_dollars, 0x1.cf0e1113a20e2p-3);
  // Without the recalibration the same runs read generation 0's records.
  const auto stale = run_pair(false);
  EXPECT_EQ(stale[0].resource, "lagos");
  EXPECT_EQ(stale[0].fidelity, 0x1.dcf4d10655f9ep-1);
  EXPECT_NE(stale[0].fidelity, live[0].fidelity);
}

}  // namespace
}  // namespace qon::core
