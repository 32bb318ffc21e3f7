// Tests for the core orchestrator: the system monitor's typed QPU flag
// table (local and Raft-journalled), and the Table-2 API surface end to end — create,
// deploy, invoke, status, results, resource estimation and scheduling —
// exercised directly on core::Qonductor through the typed request/response
// surface (the former synchronous shims are gone). The client facade and
// the async lifecycle corners are covered by tests/test_api.cpp; the run
// table's retention policy by tests/test_run_table.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "circuit/library.hpp"
#include "core/orchestrator.hpp"
#include "core/system_monitor.hpp"

namespace qon::core {
namespace {

TEST(SystemMonitor, TableStartsOnlineAndUnreservedInGivenOrder) {
  SystemMonitor monitor({"mumbai", "cairo"});
  EXPECT_FALSE(monitor.replicated());
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
  EXPECT_EQ(monitor.set_qpu_reserved("mumbai", true), std::optional<bool>(false));
  EXPECT_EQ(monitor.set_qpu_reserved("mumbai", true), std::optional<bool>(true));
  EXPECT_EQ(monitor.set_qpu_online("mumbai", false), std::optional<bool>(true));
  auto read = monitor.qpu("mumbai");
  ASSERT_TRUE(read.has_value());
  EXPECT_FALSE(read->online);
  EXPECT_TRUE(read->reserved);
  // Releasing the reservation must not bring the faulted QPU back.
  EXPECT_EQ(monitor.set_qpu_reserved("mumbai", false), std::optional<bool>(true));
  read = monitor.qpu("mumbai");
  EXPECT_FALSE(read->online);
  EXPECT_FALSE(read->reserved);
  // The neighbour's flags never moved.
  EXPECT_TRUE(monitor.qpu("cairo")->online);
  EXPECT_FALSE(monitor.qpu("cairo")->reserved);
}

TEST(SystemMonitor, UnknownNamesAreRejected) {
  SystemMonitor monitor({"mumbai"});
  EXPECT_FALSE(monitor.set_qpu_online("absent", false).has_value());
  EXPECT_FALSE(monitor.set_qpu_reserved("absent", true).has_value());
  EXPECT_EQ(monitor.qpu_names(), (std::vector<std::string>{"mumbai"}));
}

TEST(SystemMonitor, ReplicatedTableRoundTripsFlags) {
  SystemMonitor monitor({"mumbai"}, /*replicated=*/true);
  EXPECT_TRUE(monitor.replicated());
  EXPECT_EQ(monitor.set_qpu_online("mumbai", false), std::optional<bool>(true));
  EXPECT_EQ(monitor.set_qpu_reserved("mumbai", true), std::optional<bool>(false));
  EXPECT_FALSE(monitor.qpu("mumbai")->online);
  EXPECT_TRUE(monitor.qpu("mumbai")->reserved);
  EXPECT_FALSE(monitor.set_qpu_online("absent", true).has_value());
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
  EXPECT_EQ(result.status, WorkflowStatus::kCompleted);
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
  EXPECT_EQ(status->status, WorkflowStatus::kCompleted);
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
  EXPECT_EQ(result.status, WorkflowStatus::kCompleted);
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
  EXPECT_EQ(info.status, WorkflowStatus::kCompleted);
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
  EXPECT_EQ(info->info.status, WorkflowStatus::kCompleted);

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

}  // namespace
}  // namespace qon::core
