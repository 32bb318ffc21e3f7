// Run-table lifecycle suite: retention-policy unit tests (capacity/LRU,
// never-evict-in-flight, handle-outlives-eviction), a multi-threaded
// stress test over the table's whole surface (run under TSAN in CI), and
// an orchestrator-level listRuns/getRun round trip across eviction.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "common/rng.hpp"
#include "core/orchestrator.hpp"
#include "core/run_table.hpp"

namespace qon::core {
namespace {

std::shared_ptr<api::RunState> make_state() {
  return std::make_shared<api::RunState>();
}

/// Drives a record to a terminal state the way the executor would, so that
/// handle-level queries (poll/result) see a finished run.
void finish_state(const std::shared_ptr<api::RunState>& state, api::RunStatus status) {
  {
    MutexLock lock(state->mutex);
    state->status = status;
    state->result.run = state->id;
    state->result.status = status;
  }
  state->cv.notify_all();
}

// ---- retention policy --------------------------------------------------------

TEST(RunTable, InsertAssignsMonotonicIdsAndStampsRecord) {
  RunTable table;
  const auto a = make_state();
  const auto b = make_state();
  EXPECT_EQ(table.insert(a), 1u);
  EXPECT_EQ(table.insert(b), 2u);
  EXPECT_EQ(a->id, 1u);
  EXPECT_EQ(b->id, 2u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.find(1), a);
  EXPECT_EQ(table.find(3), nullptr);
}

TEST(RunTable, CapacityEvictsLeastRecentlyUsedTerminalRun) {
  RunRetentionPolicy policy;
  policy.max_terminal_runs = 2;
  RunTable table(policy);

  for (int i = 0; i < 3; ++i) table.insert(make_state());
  table.mark_terminal(1);
  table.mark_terminal(2);
  EXPECT_EQ(table.size(), 3u);  // within budget: nothing evicted
  EXPECT_EQ(table.evictions(), 0u);

  table.mark_terminal(3);  // over budget: the oldest terminal run goes
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.find(1), nullptr);
  EXPECT_NE(table.find(2), nullptr);
  EXPECT_NE(table.find(3), nullptr);
  EXPECT_EQ(table.evictions(), 1u);
  EXPECT_EQ(table.terminal_count(), 2u);
}

TEST(RunTable, LookupRefreshesLruRecency) {
  RunRetentionPolicy policy;
  policy.max_terminal_runs = 2;
  RunTable table(policy);
  for (int i = 0; i < 3; ++i) table.insert(make_state());
  table.mark_terminal(1);
  table.mark_terminal(2);
  ASSERT_NE(table.find(1), nullptr);  // touch: run 1 becomes most recent
  table.mark_terminal(3);
  EXPECT_NE(table.find(1), nullptr);  // survived thanks to the touch
  EXPECT_EQ(table.find(2), nullptr);  // run 2 was the LRU victim instead
  EXPECT_NE(table.find(3), nullptr);
}

TEST(RunTable, InFlightRunsAreNeverEvicted) {
  RunRetentionPolicy policy;
  policy.max_terminal_runs = 1;
  RunTable table(policy);
  for (int i = 0; i < 8; ++i) table.insert(make_state());  // way over capacity
  EXPECT_EQ(table.size(), 8u);  // all in flight: pinned
  for (api::RunId id = 1; id <= 8; ++id) EXPECT_NE(table.find(id), nullptr);

  table.mark_terminal(5);
  table.mark_terminal(6);  // capacity 1: run 5 evicted, 6 retained
  EXPECT_EQ(table.find(5), nullptr);
  EXPECT_NE(table.find(6), nullptr);
  for (api::RunId id : {1u, 2u, 3u, 4u, 7u, 8u}) {
    EXPECT_NE(table.find(id), nullptr) << "in-flight run " << id << " was evicted";
  }
}

TEST(RunTable, HandleOutlivesEviction) {
  RunRetentionPolicy policy;
  policy.max_terminal_runs = 1;
  RunTable table(policy);
  const auto state = make_state();
  table.insert(state);
  table.insert(make_state());
  api::RunHandle handle(state);

  finish_state(state, api::RunStatus::kCompleted);
  table.mark_terminal(1);
  table.mark_terminal(2);  // evicts run 1 (capacity 1)
  ASSERT_EQ(table.find(1), nullptr);

  // The shared record answers through the handle regardless of eviction.
  EXPECT_TRUE(handle.valid());
  EXPECT_EQ(handle.poll(), api::RunStatus::kCompleted);
  auto result = handle.result();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->run, 1u);
  auto info = handle.info();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->status, api::RunStatus::kCompleted);
}

TEST(RunTable, EraseRetractsWithoutCountingAsEviction) {
  RunTable table;
  table.insert(make_state());
  EXPECT_TRUE(table.erase(1));
  EXPECT_FALSE(table.erase(1));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.evictions(), 0u);
}

TEST(RunTable, MarkTerminalIgnoresUnknownAndRepeatedIds) {
  RunRetentionPolicy policy;
  policy.max_terminal_runs = 2;
  RunTable table(policy);
  table.insert(make_state());
  table.mark_terminal(99);  // unknown: no effect
  table.mark_terminal(1);
  table.mark_terminal(1);  // repeated: not double-counted in the LRU
  EXPECT_EQ(table.terminal_count(), 1u);
}

TEST(RunTable, ListAfterPagesInRunIdOrder) {
  RunRetentionPolicy policy;
  policy.max_terminal_runs = 2;
  RunTable table(policy);
  for (int i = 0; i < 5; ++i) table.insert(make_state());
  table.mark_terminal(1);
  table.mark_terminal(2);
  table.mark_terminal(3);  // evicts 1

  const auto all = table.list_after(0);
  ASSERT_EQ(all.size(), 4u);  // 2,3,4,5 — 1 was evicted
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->id, all[i]->id);
  }
  const auto tail = table.list_after(3);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0]->id, 4u);
  EXPECT_EQ(tail[1]->id, 5u);
}

// ---- multi-threaded stress (run under TSAN in CI) ----------------------------

// N submitter threads insert runs and drive most of them to terminal states
// while M chaos threads concurrently poll, cancel, query and page the
// table. Invariants checked live and at the end:
//   - an in-flight run is never evicted,
//   - the terminal population respects the capacity bound (once settled),
//   - ids are unique and every surviving record is consistent.
TEST(RunTableStress, ConcurrentSubmitPollCancelEvict) {
  constexpr int kSubmitters = 4;
  constexpr int kChaos = 3;
  constexpr int kRunsPerSubmitter = 250;
  constexpr std::size_t kCapacity = 32;

  RunRetentionPolicy policy;
  policy.max_terminal_runs = kCapacity;
  RunTable table(policy);

  std::atomic<bool> stop{false};
  std::atomic<api::RunId> max_id{0};
  // Ids each submitter left in flight on purpose (never marked terminal).
  std::vector<std::vector<api::RunId>> in_flight(kSubmitters);

  std::vector<std::thread> threads;
  threads.reserve(kSubmitters + kChaos);
  for (int s = 0; s < kSubmitters; ++s) {
    threads.emplace_back([&, s] {
      Rng rng(1000 + static_cast<std::uint64_t>(s));
      for (int r = 0; r < kRunsPerSubmitter; ++r) {
        const auto state = make_state();
        const api::RunId id = table.insert(state);
        api::RunId seen = max_id.load();
        while (id > seen && !max_id.compare_exchange_weak(seen, id)) {
        }
        if (rng.uniform() < 0.9) {
          finish_state(state, rng.bernoulli(0.5) ? api::RunStatus::kCompleted
                                                 : api::RunStatus::kFailed);
          table.mark_terminal(id);
        } else {
          in_flight[static_cast<std::size_t>(s)].push_back(id);
        }
        // Interleave queries with submissions from the same thread.
        if (rng.bernoulli(0.25)) table.find(rng.uniform_int(1, static_cast<std::int64_t>(id)));
      }
    });
  }
  for (int c = 0; c < kChaos; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(9000 + static_cast<std::uint64_t>(c));
      while (!stop.load()) {
        const api::RunId upper = std::max<api::RunId>(1, max_id.load());
        const auto id =
            static_cast<api::RunId>(rng.uniform_int(1, static_cast<std::int64_t>(upper)));
        if (auto state = table.find(id)) {
          api::RunHandle handle(std::move(state));
          handle.poll();
          // Cooperative flag only (no executor involved); already-terminal
          // records legitimately refuse, so the verdict is not asserted.
          (void)handle.cancel();
          (void)handle.info();
        }
        if (rng.bernoulli(0.2)) {
          const auto page = table.list_after(rng.bernoulli(0.5) ? upper / 2 : 0);
          for (std::size_t i = 1; i < page.size(); ++i) {
            ASSERT_LT(page[i - 1]->id, page[i]->id);
          }
        }
        if (rng.bernoulli(0.1)) {
          table.terminal_count();
          table.evictions();
        }
      }
    });
  }
  for (int s = 0; s < kSubmitters; ++s) threads[static_cast<std::size_t>(s)].join();
  stop.store(true);
  for (int c = 0; c < kChaos; ++c) {
    threads[static_cast<std::size_t>(kSubmitters + c)].join();
  }

  // Every run intentionally left in flight survived the storm.
  std::size_t in_flight_total = 0;
  for (const auto& ids : in_flight) {
    in_flight_total += ids.size();
    for (const api::RunId id : ids) {
      ASSERT_NE(table.find(id), nullptr) << "in-flight run " << id << " was evicted";
    }
  }
  // Settled terminal population respects the capacity bound exactly.
  EXPECT_LE(table.terminal_count(), kCapacity);
  EXPECT_EQ(table.size(), in_flight_total + table.terminal_count());
  // Every terminal mark either survives or was capacity-evicted.
  const std::size_t marked =
      static_cast<std::size_t>(kSubmitters * kRunsPerSubmitter) - in_flight_total;
  EXPECT_EQ(table.evictions() + table.terminal_count(), marked);
  // Ids in the final listing are unique and sorted.
  const auto survivors = table.list_after(0);
  std::set<api::RunId> ids;
  for (const auto& state : survivors) ids.insert(state->id);
  EXPECT_EQ(ids.size(), survivors.size());
}

// ---- orchestrator round trip -------------------------------------------------

class RunLifecycleFixture : public ::testing::Test {
 protected:
  static QonductorConfig config_with_retention(std::size_t max_terminal) {
    QonductorConfig config;
    config.num_qpus = 3;
    config.seed = 4242;
    config.retention.max_terminal_runs = max_terminal;
    return config;
  }

  static workflow::ImageId deploy_classical(api::QonductorClient& client,
                                            const std::string& name) {
    api::CreateWorkflowRequest create;
    create.name = name;
    create.tasks.push_back(workflow::HybridTask::classical(name + "-t", 0.1));
    auto created = client.createWorkflow(std::move(create));
    EXPECT_TRUE(created.ok()) << created.status().to_string();
    api::DeployRequest deploy_request;
    deploy_request.image = created->image;
    EXPECT_TRUE(client.deploy(deploy_request).ok());
    return created->image;
  }
};

TEST_F(RunLifecycleFixture, ListRunsGetRunRoundTripAcrossEviction) {
  api::QonductorClient client(config_with_retention(4));
  const auto image = deploy_classical(client, "soak");

  // Complete 10 runs strictly in order so the LRU victim order is exact.
  std::vector<api::RunHandle> handles;
  for (int r = 0; r < 10; ++r) {
    api::InvokeRequest request;
    request.image = image;
    auto handle = client.invoke(request);
    ASSERT_TRUE(handle.ok()) << handle.status().to_string();
    EXPECT_EQ(handle->wait(), api::RunStatus::kCompleted);
    handles.push_back(*handle);
  }

  // Retention keeps the 4 most recent terminal runs: ids 7..10.
  for (api::RunId run = 1; run <= 6; ++run) {
    auto info = client.getRun(run);
    ASSERT_FALSE(info.ok()) << "run " << run << " should have been evicted";
    EXPECT_EQ(info.status().code(), api::StatusCode::kNotFound);
    // The evicted run's handle still answers from the shared record.
    EXPECT_EQ(handles[run - 1].poll(), api::RunStatus::kCompleted);
  }
  for (api::RunId run = 7; run <= 10; ++run) {
    auto info = client.getRun(run);
    ASSERT_TRUE(info.ok()) << info.status().to_string();
    EXPECT_EQ(info->status, api::RunStatus::kCompleted);
    EXPECT_EQ(info->image, image);
    EXPECT_TRUE(info->error.ok());
    EXPECT_LE(info->submitted_at, info->finished_at);
  }

  // The introspection surface agrees with the policy's arithmetic.
  RunTable& table = client.backend().runTable();
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.terminal_count(), 4u);
  EXPECT_EQ(table.evictions(), 6u);

  // Full listing sees exactly the retained tail, in id order.
  auto all = client.listRuns();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->runs.size(), 4u);
  EXPECT_EQ(all->next_page_token, 0u);
  for (std::size_t i = 0; i < all->runs.size(); ++i) {
    EXPECT_EQ(all->runs[i].run, 7u + i);
  }

  // Pagination walks the same set in two pages.
  api::ListRunsRequest page_request;
  page_request.page_size = 2;
  auto page1 = client.listRuns(page_request);
  ASSERT_TRUE(page1.ok());
  ASSERT_EQ(page1->runs.size(), 2u);
  EXPECT_EQ(page1->runs[0].run, 7u);
  EXPECT_EQ(page1->next_page_token, 8u);
  page_request.page_token = page1->next_page_token;
  auto page2 = client.listRuns(page_request);
  ASSERT_TRUE(page2.ok());
  ASSERT_EQ(page2->runs.size(), 2u);
  EXPECT_EQ(page2->runs[1].run, 10u);
  EXPECT_EQ(page2->next_page_token, 0u);

  // Filters: all retained runs completed; none running; image filter.
  api::ListRunsRequest by_status;
  by_status.status = api::RunStatus::kCompleted;
  auto completed = client.listRuns(by_status);
  ASSERT_TRUE(completed.ok());
  EXPECT_EQ(completed->runs.size(), 4u);
  by_status.status = api::RunStatus::kRunning;
  auto running = client.listRuns(by_status);
  ASSERT_TRUE(running.ok());
  EXPECT_TRUE(running->runs.empty());
  api::ListRunsRequest by_image;
  by_image.image = image + 100;  // no such image
  auto none = client.listRuns(by_image);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->runs.empty());
}

TEST_F(RunLifecycleFixture, ListRunsSeesInFlightRunsAndVersionIsChecked) {
  auto config = config_with_retention(4);
  std::promise<void> entered;
  std::promise<void> release;
  auto release_future = release.get_future().share();
  std::atomic<bool> armed{true};
  config.on_task_start = [&](RunId, const std::string&) {
    if (armed.exchange(false)) {
      entered.set_value();
      release_future.wait();
    }
  };
  api::QonductorClient client(config);
  const auto image = deploy_classical(client, "inflight");

  api::InvokeRequest request;
  request.image = image;
  auto handle = client.invoke(request);
  ASSERT_TRUE(handle.ok());
  entered.get_future().wait();  // the run is now kRunning

  api::ListRunsRequest by_status;
  by_status.status = api::RunStatus::kRunning;
  auto running = client.listRuns(by_status);
  ASSERT_TRUE(running.ok());
  ASSERT_EQ(running->runs.size(), 1u);
  EXPECT_EQ(running->runs[0].run, handle->id());
  EXPECT_GE(running->runs[0].started_at, 0.0);
  EXPECT_EQ(running->runs[0].finished_at, -1.0);

  // Versioning applies to the new surface like every other call.
  api::ListRunsRequest future_version;
  future_version.api_version = api::kApiVersion + 1;
  auto rejected = client.listRuns(future_version);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), api::StatusCode::kUnimplemented);
  api::GetRunRequest future_get;
  future_get.api_version = 99;
  future_get.run = handle->id();
  auto rejected_get = client.getRun(future_get);
  ASSERT_FALSE(rejected_get.ok());
  EXPECT_EQ(rejected_get.status().code(), api::StatusCode::kUnimplemented);

  release.set_value();
  EXPECT_EQ(handle->wait(), api::RunStatus::kCompleted);
}

}  // namespace
}  // namespace qon::core
