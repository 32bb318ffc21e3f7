// Tests for the v1 typed/async API surface: Status + Result<T>, the
// request/response client facade, the non-blocking invoke() lifecycle
// (poll/wait/wait_for/cancel), batched invokeAll, typed error codes, API
// versioning, a concurrency smoke test, and a randomized lifecycle
// property test (every observed state sequence is a prefix walk of
// kPending -> kRunning -> terminal, and all terminal queries agree).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <iostream>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "circuit/library.hpp"
#include "common/rng.hpp"

namespace qon::api {
namespace {

using namespace std::chrono_literals;

core::QonductorConfig small_config() {
  core::QonductorConfig config;
  config.num_qpus = 3;
  config.seed = 4242;
  config.trajectory_width_limit = 8;
  return config;
}

/// A latch the on_task_start hook can block on: the test observes that a
/// task entered execution, does its assertions, then releases the run.
struct TaskGate {
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::atomic<bool> armed{true};  ///< only gate the first task that arrives
};

core::QonductorConfig gated_config(const std::shared_ptr<TaskGate>& gate) {
  auto config = small_config();
  config.on_task_start = [gate](RunId, const std::string&) {
    if (gate->armed.exchange(false)) {
      gate->entered.set_value();
      gate->release_future.wait();
    }
  };
  return config;
}

workflow::ImageId deploy_classical(QonductorClient& client, const std::string& name,
                                   int num_tasks = 1) {
  CreateWorkflowRequest request;
  request.name = name;
  for (int t = 0; t < num_tasks; ++t) {
    request.tasks.push_back(
        workflow::HybridTask::classical(name + "-t" + std::to_string(t), 0.1));
  }
  auto created = client.createWorkflow(request);
  EXPECT_TRUE(created.ok()) << created.status().to_string();
  DeployRequest deploy_request;
  deploy_request.image = created->image;
  auto deployed = client.deploy(deploy_request);
  EXPECT_TRUE(deployed.ok()) << deployed.status().to_string();
  return created->image;
}

// ---- Status / Result ---------------------------------------------------------

TEST(Status, DefaultIsOkAndFormats) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), StatusCode::kOk);
  EXPECT_EQ(ok.to_string(), "OK");

  const Status missing = NotFound("image 7");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_EQ(missing.to_string(), "NOT_FOUND: image 7");
  EXPECT_STREQ(status_code_name(StatusCode::kFailedPrecondition), "FAILED_PRECONDITION");
}

TEST(ResultT, HoldsValueOrStatus) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good.status().ok());
  EXPECT_EQ(*good, 42);
  EXPECT_EQ(good.value_or(-1), 42);

  Result<int> bad = InvalidArgument("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.value_or(-1), -1);

  // An OK status without a value is a logic error, normalized to kInternal.
  Result<int> weird = Status::Ok();
  EXPECT_FALSE(weird.ok());
  EXPECT_EQ(weird.status().code(), StatusCode::kInternal);
}

TEST(Status, RetryAfterDetailRidesTheStatus) {
  Status shed = ResourceExhausted("admission gate shed batch-class run");
  EXPECT_FALSE(shed.retry_after_seconds().has_value());

  // set_retry_after composes with the canonical constructors…
  shed = ResourceExhausted("admission gate shed batch-class run").set_retry_after(5.0);
  ASSERT_TRUE(shed.retry_after_seconds().has_value());
  EXPECT_DOUBLE_EQ(*shed.retry_after_seconds(), 5.0);
  // …renders into the human form…
  EXPECT_NE(shed.to_string().find("[retry after"), std::string::npos) << shed.to_string();
  // …and participates in equality: same code+message, different hint.
  const Status same_text = ResourceExhausted("admission gate shed batch-class run");
  EXPECT_FALSE(shed == same_text);
  EXPECT_TRUE(shed == Status(shed));
  // OK statuses are unaffected.
  EXPECT_EQ(Status::Ok().to_string(), "OK");
}

// ---- async lifecycle ---------------------------------------------------------

TEST(AsyncInvoke, ReturnsBeforeExecutionCompletes) {
  auto gate = std::make_shared<TaskGate>();
  QonductorClient client(gated_config(gate));
  const auto image = deploy_classical(client, "async");

  InvokeRequest request;
  request.image = image;
  auto handle = client.invoke(request);
  ASSERT_TRUE(handle.ok()) << handle.status().to_string();

  // invoke() came back while the run is still in flight.
  EXPECT_FALSE(run_status_terminal(handle->poll()));

  gate->entered.get_future().wait();
  EXPECT_EQ(handle->poll(), RunStatus::kRunning);

  gate->release.set_value();
  EXPECT_EQ(handle->wait(), RunStatus::kCompleted);

  auto result = handle->result();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status, RunStatus::kCompleted);
  ASSERT_EQ(result->tasks.size(), 1u);
  EXPECT_TRUE(result->error.ok());
  auto info = client.getRun(handle->id());
  ASSERT_TRUE(info.ok()) << info.status().to_string();
  EXPECT_EQ(info->status, RunStatus::kCompleted);
}

TEST(AsyncInvoke, WaitForTimesOutWhileInFlight) {
  auto gate = std::make_shared<TaskGate>();
  QonductorClient client(gated_config(gate));
  const auto image = deploy_classical(client, "timeout");

  InvokeRequest request;
  request.image = image;
  auto handle = client.invoke(request);
  ASSERT_TRUE(handle.ok());
  gate->entered.get_future().wait();

  auto waited = handle->wait_for(10ms);
  ASSERT_FALSE(waited.ok());
  EXPECT_EQ(waited.status().code(), StatusCode::kDeadlineExceeded);

  gate->release.set_value();
  auto done = handle->wait_for(10s);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(*done, RunStatus::kCompleted);
}

TEST(AsyncInvoke, WorkflowResultsNonBlockingQuery) {
  auto gate = std::make_shared<TaskGate>();
  QonductorClient client(gated_config(gate));
  const auto image = deploy_classical(client, "nonblocking");

  InvokeRequest request;
  request.image = image;
  auto handle = client.invoke(request);
  ASSERT_TRUE(handle.ok());
  gate->entered.get_future().wait();

  WorkflowResultsRequest results_request;
  results_request.run = handle->id();
  results_request.wait = false;
  auto in_flight = client.workflowResults(results_request);
  ASSERT_FALSE(in_flight.ok());
  EXPECT_EQ(in_flight.status().code(), StatusCode::kUnavailable);

  gate->release.set_value();
  handle->wait();
  results_request.wait = true;
  auto done = client.workflowResults(results_request);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->result.status, RunStatus::kCompleted);
}

TEST(AsyncInvoke, CancelMidRunStopsAtTaskBoundary) {
  auto gate = std::make_shared<TaskGate>();
  QonductorClient client(gated_config(gate));
  const auto image = deploy_classical(client, "cancel", /*num_tasks=*/3);

  InvokeRequest request;
  request.image = image;
  auto handle = client.invoke(request);
  ASSERT_TRUE(handle.ok());
  gate->entered.get_future().wait();  // task 0 is executing

  EXPECT_TRUE(handle->cancel());
  gate->release.set_value();

  EXPECT_EQ(handle->wait(), RunStatus::kCancelled);
  auto result = handle->result();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status, RunStatus::kCancelled);
  EXPECT_EQ(result->error.code(), StatusCode::kCancelled);
  // Task 0 completed before the cancellation took effect; tasks 1-2 never ran.
  EXPECT_EQ(result->tasks.size(), 1u);
  EXPECT_FALSE(handle->cancel());  // already terminal
  auto info = client.getRun(handle->id());
  ASSERT_TRUE(info.ok()) << info.status().to_string();
  EXPECT_EQ(info->status, RunStatus::kCancelled);
}

// A cancel that lands after the last task has executed must not relabel
// the finished work: the run completes (the engine's final bookkeeping
// event checks completion before cancellation, matching the pre-engine
// loop, which never re-checked cancel after the last task).
TEST(AsyncInvoke, CancelAfterLastTaskStillCompletes) {
  auto gate = std::make_shared<TaskGate>();
  QonductorClient client(gated_config(gate));
  const auto image = deploy_classical(client, "late-cancel", /*num_tasks=*/1);

  InvokeRequest request;
  request.image = image;
  auto handle = client.invoke(request);
  ASSERT_TRUE(handle.ok());
  gate->entered.get_future().wait();  // the only task is executing

  EXPECT_TRUE(handle->cancel());  // not yet terminal, so cancel() is accepted
  gate->release.set_value();

  // The task finishes after the cancel request; with nothing left to
  // cancel, the run reports the completed work instead of kCancelled.
  EXPECT_EQ(handle->wait(), RunStatus::kCompleted);
  auto result = handle->result();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status, RunStatus::kCompleted);
  EXPECT_TRUE(result->error.ok());
  EXPECT_EQ(result->tasks.size(), 1u);
}

TEST(AsyncInvoke, CancelWhileQueuedRunsNothing) {
  auto gate = std::make_shared<TaskGate>();
  auto config = gated_config(gate);
  config.executor_threads = 1;  // one lane: the second run must queue
  QonductorClient client(config);
  const auto blocker = deploy_classical(client, "blocker");
  const auto queued = deploy_classical(client, "queued");

  InvokeRequest blocker_request;
  blocker_request.image = blocker;
  auto blocker_handle = client.invoke(blocker_request);
  ASSERT_TRUE(blocker_handle.ok());
  gate->entered.get_future().wait();  // the lane is now occupied

  InvokeRequest queued_request;
  queued_request.image = queued;
  auto queued_handle = client.invoke(queued_request);
  ASSERT_TRUE(queued_handle.ok());
  EXPECT_EQ(queued_handle->poll(), RunStatus::kPending);
  EXPECT_TRUE(queued_handle->cancel());

  gate->release.set_value();
  EXPECT_EQ(blocker_handle->wait(), RunStatus::kCompleted);
  EXPECT_EQ(queued_handle->wait(), RunStatus::kCancelled);
  auto result = queued_handle->result();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->tasks.empty());  // cancelled before any task ran
}

TEST(AsyncInvoke, QuantumWorkflowCompletesAsync) {
  QonductorClient client(small_config());
  CreateWorkflowRequest create;
  create.name = "ghz-async";
  create.tasks.push_back(workflow::HybridTask::quantum("ghz", circuit::ghz(4), 1000));
  auto created = client.createWorkflow(create);
  ASSERT_TRUE(created.ok());
  DeployRequest deploy_request;
  deploy_request.image = created->image;
  ASSERT_TRUE(client.deploy(deploy_request).ok());

  InvokeRequest request;
  request.image = created->image;
  auto handle = client.invoke(request);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->wait(), RunStatus::kCompleted);
  auto result = handle->result();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->tasks.size(), 1u);
  EXPECT_GT(result->tasks[0].fidelity, 0.0);
  EXPECT_LE(result->tasks[0].fidelity, 1.0);
  EXPECT_FALSE(result->tasks[0].resource.empty());
}

// ---- typed error codes -------------------------------------------------------

TEST(ApiErrors, CreateWorkflowRejectsEmptyAndBadConfig) {
  QonductorClient client(small_config());
  CreateWorkflowRequest empty;
  empty.name = "empty";
  auto created = client.createWorkflow(empty);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
}

TEST(ApiErrors, DeployUnknownImageIsNotFound) {
  QonductorClient client(small_config());
  DeployRequest request;
  request.image = 999;
  auto deployed = client.deploy(request);
  ASSERT_FALSE(deployed.ok());
  EXPECT_EQ(deployed.status().code(), StatusCode::kNotFound);
}

TEST(ApiErrors, DoubleDeployIsAlreadyExists) {
  QonductorClient client(small_config());
  const auto image = deploy_classical(client, "once");
  DeployRequest request;
  request.image = image;
  auto again = client.deploy(request);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
}

TEST(ApiErrors, DeployOversizedCircuitIsResourceExhausted) {
  QonductorClient client(small_config());
  circuit::Circuit big(28);
  big.h(0);
  big.measure_all();
  CreateWorkflowRequest create;
  create.name = "too-big";
  create.tasks.push_back(workflow::HybridTask::quantum("big", big));
  auto created = client.createWorkflow(create);
  ASSERT_TRUE(created.ok());
  DeployRequest request;
  request.image = created->image;
  auto deployed = client.deploy(request);
  ASSERT_FALSE(deployed.ok());
  EXPECT_EQ(deployed.status().code(), StatusCode::kResourceExhausted);
}

TEST(ApiErrors, InvokeUndeployedIsFailedPrecondition) {
  QonductorClient client(small_config());
  CreateWorkflowRequest create;
  create.name = "undeployed";
  create.tasks.push_back(workflow::HybridTask::classical("only", 0.1));
  auto created = client.createWorkflow(create);
  ASSERT_TRUE(created.ok());

  InvokeRequest request;
  request.image = created->image;
  auto handle = client.invoke(request);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ApiErrors, InvokeUnknownImageIsNotFound) {
  QonductorClient client(small_config());
  InvokeRequest request;
  request.image = 12345;
  auto handle = client.invoke(request);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kNotFound);
}

TEST(ApiErrors, UnknownRunIsNotFound) {
  QonductorClient client(small_config());
  WorkflowStatusRequest status_request;
  status_request.run = 9999;
  auto status = client.workflowStatus(status_request);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kNotFound);

  WorkflowResultsRequest results_request;
  results_request.run = 9999;
  auto results = client.workflowResults(results_request);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kNotFound);
}

TEST(ApiErrors, ListRunsZeroPageSizeIsInvalidArgument) {
  QonductorClient client(small_config());
  ListRunsRequest request;
  request.page_size = 0;  // used to be silently clamped to 1
  auto response = client.listRuns(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);

  // Oversized pages are clamped to the documented bound, not rejected.
  ListRunsRequest huge;
  huge.page_size = kMaxListRunsPageSize + 1;
  EXPECT_TRUE(client.listRuns(huge).ok());
}

// ---- per-job QoS preferences -------------------------------------------------

TEST(Preferences, BadValuesAreInvalidArgument) {
  QonductorClient client(small_config());
  const auto image = deploy_classical(client, "qos-bad");

  InvokeRequest request;
  request.image = image;
  request.preferences.fidelity_weight = 1.5;
  auto handle = client.invoke(request);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument);

  request.preferences.fidelity_weight = -0.1;
  EXPECT_EQ(client.invoke(request).status().code(), StatusCode::kInvalidArgument);

  request.preferences.fidelity_weight.reset();
  request.preferences.deadline_seconds = -1.0;
  EXPECT_EQ(client.invoke(request).status().code(), StatusCode::kInvalidArgument);

  // A priority smuggled past the enum (e.g. a wire layer) is rejected, not
  // used as an out-of-bounds lane index.
  request.preferences.deadline_seconds.reset();
  request.preferences.priority = static_cast<Priority>(17);
  EXPECT_EQ(client.invoke(request).status().code(), StatusCode::kInvalidArgument);
  request.preferences.priority = Priority::kStandard;

  // invokeAll validates the whole batch atomically: nothing starts.
  std::vector<InvokeRequest> batch(2);
  batch[0].image = image;
  batch[1].image = image;
  batch[1].preferences.fidelity_weight = 2.0;
  auto handles = client.invokeAll(batch);
  ASSERT_FALSE(handles.ok());
  EXPECT_EQ(handles.status().code(), StatusCode::kInvalidArgument);
}

TEST(Preferences, EchoedInRunInfoWithResolvedDefault) {
  auto config = small_config();
  config.fidelity_weight = 0.25;
  QonductorClient client(config);
  const auto image = deploy_classical(client, "qos-echo");

  // A request without preferences reproduces pre-QoS behavior: the echo
  // shows the deployment default, no deadline, standard priority.
  InvokeRequest plain;
  plain.image = image;
  auto plain_handle = client.invoke(plain);
  ASSERT_TRUE(plain_handle.ok());
  plain_handle->wait();
  auto plain_info = client.getRun(plain_handle->id());
  ASSERT_TRUE(plain_info.ok());
  ASSERT_TRUE(plain_info->preferences.fidelity_weight.has_value());
  EXPECT_DOUBLE_EQ(*plain_info->preferences.fidelity_weight, 0.25);
  EXPECT_FALSE(plain_info->preferences.deadline_seconds.has_value());
  EXPECT_EQ(plain_info->preferences.priority, Priority::kStandard);

  InvokeRequest tuned;
  tuned.image = image;
  tuned.preferences.fidelity_weight = 0.9;
  tuned.preferences.deadline_seconds = 1e6;
  tuned.preferences.priority = Priority::kInteractive;
  auto tuned_handle = client.invoke(tuned);
  ASSERT_TRUE(tuned_handle.ok());
  tuned_handle->wait();
  auto info = tuned_handle->info();  // the handle echoes too, not just getRun
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(info->preferences.fidelity_weight.has_value());
  EXPECT_DOUBLE_EQ(*info->preferences.fidelity_weight, 0.9);
  ASSERT_TRUE(info->preferences.deadline_seconds.has_value());
  EXPECT_DOUBLE_EQ(*info->preferences.deadline_seconds, 1e6);
  EXPECT_EQ(info->preferences.priority, Priority::kInteractive);
  EXPECT_STREQ(priority_name(Priority::kInteractive), "interactive");
}

// Deadline-aware admission: a deadline at/before the fleet-clock frontier
// can never be met, so invoke() rejects it DEADLINE_EXCEEDED at submit time
// instead of parking the run until a scheduling cycle discovers the miss.
TEST(Preferences, UnmeetableDeadlineIsRejectedAtSubmitTime) {
  QonductorClient client(small_config());
  const auto image = deploy_classical(client, "dead-on-arrival");

  // The fleet clock starts at 0: a deadline of 0 lies AT the frontier.
  InvokeRequest request;
  request.image = image;
  request.preferences.deadline_seconds = 0.0;
  auto rejected = client.invoke(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kDeadlineExceeded);

  // Nothing was parked or recorded: the run table is still empty.
  auto listed = client.listRuns();
  ASSERT_TRUE(listed.ok());
  EXPECT_TRUE(listed->runs.empty());

  // Advance the frontier by completing a run, then submit a deadline the
  // clock has already passed.
  InvokeRequest plain;
  plain.image = image;
  auto first = client.invoke(plain);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->wait(), RunStatus::kCompleted);
  const double frontier = client.backend().fleetNow();
  ASSERT_GT(frontier, 0.0);

  request.preferences.deadline_seconds = frontier / 2.0;
  EXPECT_EQ(client.invoke(request).status().code(), StatusCode::kDeadlineExceeded);

  // A deadline beyond the frontier is admitted normally.
  request.preferences.deadline_seconds = frontier + 1e6;
  auto admitted = client.invoke(request);
  ASSERT_TRUE(admitted.ok()) << admitted.status().to_string();
  EXPECT_EQ(admitted->wait(), RunStatus::kCompleted);

  // invokeAll stays atomic: one dead-on-arrival deadline rejects the whole
  // batch before anything starts.
  std::vector<InvokeRequest> batch(2);
  batch[0].image = image;
  batch[1].image = image;
  batch[1].preferences.deadline_seconds = frontier / 2.0;
  const auto runs_before = client.listRuns();
  ASSERT_TRUE(runs_before.ok());
  auto handles = client.invokeAll(batch);
  ASSERT_FALSE(handles.ok());
  EXPECT_EQ(handles.status().code(), StatusCode::kDeadlineExceeded);
  const auto runs_after = client.listRuns();
  ASSERT_TRUE(runs_after.ok());
  EXPECT_EQ(runs_after->runs.size(), runs_before->runs.size());
}

TEST(ApiVersioning, UnsupportedVersionIsUnimplemented) {
  QonductorClient client(small_config());
  EXPECT_EQ(QonductorClient::version(), kApiVersion);

  CreateWorkflowRequest create;
  create.api_version = kApiVersion + 1;
  create.name = "future";
  create.tasks.push_back(workflow::HybridTask::classical("t", 0.1));
  auto created = client.createWorkflow(create);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kUnimplemented);

  InvokeRequest invoke_request;
  invoke_request.api_version = 99;
  auto handle = client.invoke(invoke_request);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kUnimplemented);

  GetAdmissionStatsRequest admission_request;
  admission_request.api_version = kApiVersion + 3;
  auto admission = client.getAdmissionStats(admission_request);
  ASSERT_FALSE(admission.ok());
  EXPECT_EQ(admission.status().code(), StatusCode::kUnimplemented);

  // The well-versioned default works even with the gate off: counters are
  // zero and max_live_runs echoes "disabled".
  auto stats = client.getAdmissionStats();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats->stats.max_live_runs, 0u);
  for (const auto shed : stats->stats.shed) EXPECT_EQ(shed, 0u);
}

// ---- batched invocation ------------------------------------------------------

TEST(InvokeAll, RunsTheWholeBatch) {
  QonductorClient client(small_config());
  const auto image = deploy_classical(client, "batch", /*num_tasks=*/2);

  std::vector<InvokeRequest> requests(3);
  for (auto& request : requests) request.image = image;
  auto handles = client.invokeAll(requests);
  ASSERT_TRUE(handles.ok()) << handles.status().to_string();
  ASSERT_EQ(handles->size(), 3u);
  std::set<RunId> ids;
  for (const auto& handle : *handles) {
    EXPECT_EQ(handle.wait(), RunStatus::kCompleted);
    ids.insert(handle.id());
  }
  EXPECT_EQ(ids.size(), 3u);  // distinct run ids
}

TEST(InvokeAll, ValidatesAtomically) {
  QonductorClient client(small_config());
  const auto image = deploy_classical(client, "valid");

  std::vector<InvokeRequest> requests(2);
  requests[0].image = image;
  requests[1].image = 777;  // unknown: the whole batch must be rejected
  auto handles = client.invokeAll(requests);
  ASSERT_FALSE(handles.ok());
  EXPECT_EQ(handles.status().code(), StatusCode::kNotFound);

  // Nothing was started: the next run id is still the first one.
  InvokeRequest single;
  single.image = image;
  auto handle = client.invoke(single);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->id(), 1u);
  handle->wait();
}

// ---- concurrency smoke test --------------------------------------------------

TEST(Concurrency, ManyClientsInvokeInParallel) {
  auto config = small_config();
  config.executor_threads = 4;
  QonductorClient client(config);
  const auto image = deploy_classical(client, "storm", /*num_tasks=*/2);

  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 8;
  std::vector<std::vector<RunHandle>> per_thread(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int c = 0; c < kThreads; ++c) {
    threads.emplace_back([&client, &per_thread, image, c] {
      for (int r = 0; r < kRunsPerThread; ++r) {
        InvokeRequest request;
        request.image = image;
        auto handle = client.invoke(request);
        ASSERT_TRUE(handle.ok()) << handle.status().to_string();
        per_thread[static_cast<std::size_t>(c)].push_back(*handle);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::set<RunId> ids;
  for (const auto& handles : per_thread) {
    ASSERT_EQ(handles.size(), static_cast<std::size_t>(kRunsPerThread));
    for (const auto& handle : handles) {
      EXPECT_EQ(handle.wait(), RunStatus::kCompleted);
      auto result = handle.result();
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->tasks.size(), 2u);
      ids.insert(handle.id());
    }
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kThreads * kRunsPerThread));
}

// ---- executor shutdown (error table: UNAVAILABLE) ----------------------------

TEST(ApiErrors, ShutdownRejectsNewRunsAsUnavailable) {
  QonductorClient client(small_config());
  const auto image = deploy_classical(client, "drain");

  InvokeRequest request;
  request.image = image;
  auto pre = client.invoke(request);
  ASSERT_TRUE(pre.ok());
  EXPECT_EQ(pre->wait(), RunStatus::kCompleted);

  client.backend().shutdown();

  // New work is rejected with the typed UNAVAILABLE — single and batched.
  auto post = client.invoke(request);
  ASSERT_FALSE(post.ok());
  EXPECT_EQ(post.status().code(), StatusCode::kUnavailable);
  auto batch = client.invokeAll({request, request});
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kUnavailable);

  // Completed runs stay queryable through every surface.
  EXPECT_EQ(pre->poll(), RunStatus::kCompleted);
  auto info = client.getRun(pre->id());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->status, RunStatus::kCompleted);
}

TEST(ApiErrors, ShutdownMidRunDrainsQueuedWorkBeforeRejecting) {
  auto gate = std::make_shared<TaskGate>();
  auto config = gated_config(gate);
  config.executor_threads = 1;  // one lane: the second run must queue
  QonductorClient client(config);
  const auto image = deploy_classical(client, "mid-shutdown");

  InvokeRequest request;
  request.image = image;
  auto running = client.invoke(request);
  ASSERT_TRUE(running.ok());
  gate->entered.get_future().wait();  // the lane is now occupied
  auto queued = client.invoke(request);
  ASSERT_TRUE(queued.ok());

  // Shut down while one run executes and another waits in the queue. The
  // contract: accepted work drains to completion, nothing is dropped.
  std::thread shutter([&client] { client.backend().shutdown(); });
  gate->release.set_value();
  shutter.join();

  EXPECT_EQ(running->poll(), RunStatus::kCompleted);
  EXPECT_EQ(queued->poll(), RunStatus::kCompleted);

  auto late = client.invoke(request);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
}

// invokeAll is all-or-nothing under shutdown too: a batch racing
// shutdown() either starts every run or is rejected UNAVAILABLE with none
// of its runs left in the run table.
TEST(ApiErrors, InvokeAllRacingShutdownIsAllOrNothing) {
  constexpr std::size_t kBatch = 8;
  auto config = small_config();
  config.retention.max_terminal_runs = std::size_t{1} << 20;  // listRuns sees every run
  QonductorClient client(config);
  const auto image = deploy_classical(client, "batch-vs-shutdown");
  InvokeRequest request;
  request.image = image;
  const std::vector<InvokeRequest> requests(kBatch, request);

  std::atomic<std::size_t> batches_sent{0};
  std::vector<RunHandle> accepted;
  std::size_t rejected = 0;
  std::thread sender([&] {
    // Keeps sending until a few batches were refused, so some batch is in
    // flight whenever shutdown() closes the engine.
    while (rejected < 3) {
      auto handles = client.invokeAll(requests);
      batches_sent.fetch_add(1);
      if (!handles.ok()) {
        EXPECT_EQ(handles.status().code(), StatusCode::kUnavailable)
            << handles.status().to_string();
        ++rejected;
        continue;
      }
      EXPECT_EQ(handles->size(), kBatch);
      accepted.insert(accepted.end(), handles->begin(), handles->end());
    }
  });
  while (batches_sent.load() < 3) std::this_thread::yield();
  client.backend().shutdown();
  sender.join();

  std::set<RunId> accepted_ids;
  for (const auto& handle : accepted) {
    EXPECT_TRUE(run_status_terminal(handle.wait()));
    accepted_ids.insert(handle.id());
  }
  EXPECT_EQ(accepted_ids.size(), accepted.size());
  std::set<RunId> listed_ids;
  ListRunsRequest list;
  list.page_size = kMaxListRunsPageSize;
  for (;;) {
    auto page = client.listRuns(list);
    ASSERT_TRUE(page.ok()) << page.status().to_string();
    for (const auto& info : page->runs) listed_ids.insert(info.run);
    if (page->next_page_token == 0) break;
    list.page_token = page->next_page_token;
  }
  EXPECT_EQ(listed_ids, accepted_ids);
}

// ---- randomized lifecycle property test --------------------------------------

// For 500 randomly seeded runs (mixed images, random cancellations, jittered
// polling), every observed status sequence must be a prefix walk of
//   kPending -> kRunning -> {kCompleted | kCancelled}
// (each status rank non-decreasing, nothing after a terminal state), and
// once terminal, poll() / wait() / wait_for(0) / result() / info() must all
// agree on the outcome.
TEST(LifecycleProperty, StateSequencesArePrefixWalksAndTerminalQueriesAgree) {
  constexpr std::uint64_t kSeed = 20260728;  // change to reproduce a failure
  RecordProperty("seed", std::to_string(kSeed));
  std::cout << "LifecycleProperty seed = " << kSeed << "\n";
  Rng rng(kSeed);

  auto config = small_config();
  config.executor_threads = 4;
  config.retention.max_terminal_runs = 600;  // keep all 500 queryable
  QonductorClient client(config);
  const auto quick = deploy_classical(client, "prop-quick", /*num_tasks=*/1);
  const auto chained = deploy_classical(client, "prop-chained", /*num_tasks=*/3);

  const auto rank = [](RunStatus status) {
    if (status == RunStatus::kPending) return 0;
    if (status == RunStatus::kRunning) return 1;
    return 2;
  };

  constexpr int kRuns = 500;
  constexpr int kWave = 50;  // bound the number of simultaneous handles
  int completed = 0;
  int cancelled = 0;
  for (int wave = 0; wave < kRuns / kWave; ++wave) {
    std::vector<RunHandle> handles;
    std::vector<bool> asked_to_cancel;
    handles.reserve(kWave);
    for (int r = 0; r < kWave; ++r) {
      InvokeRequest request;
      request.image = rng.bernoulli(0.5) ? quick : chained;
      auto handle = client.invoke(request);
      ASSERT_TRUE(handle.ok()) << handle.status().to_string();
      const bool cancel = rng.bernoulli(0.3);
      // The cancel may lose the race with completion — both outcomes are
      // valid here, so the verdict is deliberately not asserted.
      if (cancel) (void)handle->cancel();
      handles.push_back(*std::move(handle));
      asked_to_cancel.push_back(cancel);
    }
    for (std::size_t h = 0; h < handles.size(); ++h) {
      const RunHandle& handle = handles[h];
      std::vector<RunStatus> observed{handle.poll()};
      while (!run_status_terminal(observed.back())) {
        if (rng.bernoulli(0.5)) std::this_thread::yield();
        const RunStatus next = handle.poll();
        if (next != observed.back()) observed.push_back(next);
      }
      for (std::size_t i = 1; i < observed.size(); ++i) {
        ASSERT_LT(rank(observed[i - 1]), 2)
            << "run " << handle.id() << ": status observed after a terminal state";
        ASSERT_GT(rank(observed[i]), rank(observed[i - 1]))
            << "run " << handle.id() << ": lifecycle walked backwards";
      }

      // After a terminal state, every query agrees on the outcome.
      const RunStatus final_status = observed.back();
      ASSERT_TRUE(run_status_terminal(final_status));
      EXPECT_EQ(handle.poll(), final_status);
      EXPECT_EQ(handle.wait(), final_status);
      auto waited = handle.wait_for(0ms);
      ASSERT_TRUE(waited.ok()) << waited.status().to_string();
      EXPECT_EQ(*waited, final_status);
      auto result = handle.result();
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->status, final_status);
      EXPECT_EQ(result->error.ok(), final_status == RunStatus::kCompleted);
      auto info = handle.info();
      ASSERT_TRUE(info.ok());
      EXPECT_EQ(info->status, final_status);
      EXPECT_GE(info->finished_at, info->submitted_at);

      // Only cancellation was injected, so failures are real bugs; a run
      // never asked to cancel must complete.
      ASSERT_NE(final_status, RunStatus::kFailed)
          << "run " << handle.id() << ": " << result->error.to_string();
      if (!asked_to_cancel[h]) {
        EXPECT_EQ(final_status, RunStatus::kCompleted);
      }
      (final_status == RunStatus::kCompleted ? completed : cancelled) += 1;
    }
  }
  std::cout << "LifecycleProperty: " << completed << " completed, " << cancelled
            << " cancelled\n";
  EXPECT_EQ(completed + cancelled, kRuns);
  EXPECT_GT(completed, 0);
}

}  // namespace
}  // namespace qon::api
