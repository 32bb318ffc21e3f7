// Tests for the telemetry subsystem (src/obs/): metrics-registry instrument
// semantics (Prometheus le-inclusive histogram buckets, counter/gauge
// concurrency, idempotent registration), trace ring wraparound and tracer
// retention, cycle spans rendered from the one shared cycle record (and kept
// after the scheduler's recent_cycles ring evicts the cycle), the
// Prometheus/JSON renderers, the end-to-end run-lifecycle
// trace surface (both clocks on every span), the getRunTrace error
// contract, and the stats-surface coherence guarantee:
// getSchedulerStats / getAdmissionStats / prepCacheHits are views over the
// same registry instruments one getMetrics snapshot exports.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "api/client.hpp"
#include "circuit/library.hpp"
#include "obs/delta.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace qon {
namespace {

using namespace std::chrono_literals;

// ---- Histogram: Prometheus le-inclusive bucket semantics ---------------------

TEST(ObsHistogram, LeInclusiveBucketBoundaries) {
  obs::Histogram hist({1.0, 2.0});
  hist.observe(1.0);  // == bound 1 -> bucket 0 (le is inclusive)
  hist.observe(1.5);  // -> bucket 1
  hist.observe(2.0);  // == bound 2 -> bucket 1
  hist.observe(2.1);  // above the last bound -> +Inf

  api::MetricValue value;
  hist.read(value);
  ASSERT_EQ(value.bucket_bounds.size(), 2u);
  EXPECT_EQ(value.bucket_counts[0], 1u);
  EXPECT_EQ(value.bucket_counts[1], 2u);
  EXPECT_EQ(value.inf_count, 1u);
  EXPECT_EQ(value.count, 4u);
  EXPECT_DOUBLE_EQ(value.sum, 1.0 + 1.5 + 2.0 + 2.1);
}

TEST(ObsHistogram, BoundsAreSortedAndDeduplicated) {
  obs::Histogram hist({5.0, 1.0, 5.0, 3.0});
  ASSERT_EQ(hist.bounds().size(), 3u);
  EXPECT_DOUBLE_EQ(hist.bounds()[0], 1.0);
  EXPECT_DOUBLE_EQ(hist.bounds()[2], 5.0);
}

// ---- Counter / Gauge: lock-free updates stay exact under contention ----------

TEST(ObsMetrics, CounterAndGaugeConcurrency) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.counter("t_events_total", "test");
  obs::Gauge* gauge = registry.gauge("t_level", "test");
  obs::Histogram* hist = registry.histogram("t_latency", "test", {0.5});

  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->inc();
        gauge->add(1.0);
        hist->observe(i % 2 == 0 ? 0.25 : 0.75);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(counter->value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(gauge->value(), static_cast<double>(kThreads * kPerThread));
  api::MetricValue value;
  hist->read(value);
  EXPECT_EQ(value.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(value.bucket_counts[0], value.inf_count);  // even/odd split
}

TEST(ObsMetrics, RegistrationIsIdempotentPerLabelSet) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.counter("t_total", "test", "priority=\"batch\"");
  obs::Counter* b = registry.counter("t_total", "test", "priority=\"batch\"");
  obs::Counter* c = registry.counter("t_total", "test", "priority=\"standard\"");
  EXPECT_EQ(a, b);    // same (name, labels) -> same instrument
  EXPECT_NE(a, c);    // different label set -> distinct series
  a->inc(3);
  c->inc(1);

  registry.gauge_fn("t_cb", "test", [] { return 7.0; });
  const api::MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.metrics.size(), 3u);  // two series + the callback gauge
  EXPECT_DOUBLE_EQ(snapshot.metrics[0].value, 3.0);
  EXPECT_DOUBLE_EQ(snapshot.metrics[1].value, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.metrics[2].value, 7.0);
}

// ---- Tracer: bounded span rings on run records, bounded retention ---------

std::shared_ptr<api::RunState> run_record(api::RunId id) {
  auto run = std::make_shared<api::RunState>();
  run->id = id;
  return run;
}

TEST(ObsTrace, RingWrapsAndCountsDrops) {
  constexpr std::size_t kRing = obs::Tracer::kRingEntries;
  obs::Tracer tracer(/*max_runs=*/1);
  const auto run = run_record(42);
  tracer.start(run);
  for (std::size_t i = 0; i < kRing + 6; ++i) {
    api::TraceSpan span;
    span.name = "span-" + std::to_string(i);
    span.virtual_start = span.virtual_end = static_cast<double>(i);
    tracer.record(*run, std::move(span));
  }
  const auto trace = tracer.trace(42);
  ASSERT_TRUE(trace.ok()) << trace.status().to_string();
  EXPECT_EQ(trace->run, 42u);
  ASSERT_EQ(trace->spans.size(), kRing);
  EXPECT_EQ(trace->recorded, kRing + 6);
  EXPECT_EQ(trace->dropped, 6u);
  // Oldest retained first: spans 6..kRing+5 survive in record order.
  EXPECT_EQ(trace->spans.front().name, "span-6");
  EXPECT_EQ(trace->spans.back().name, "span-" + std::to_string(kRing + 5));
}

// An entry carrying a cycle renders as four spans and drops as four.
TEST(ObsTrace, CycleEntryRendersFourSpansAndDropsAsFour) {
  constexpr std::size_t kRing = obs::Tracer::kRingEntries;
  obs::MetricsRegistry registry;
  obs::Counter* dropped = registry.counter("t_dropped_total", "test");
  obs::Tracer tracer(/*max_runs=*/1, nullptr, dropped);
  const auto run = run_record(5);
  tracer.start(run);
  auto cycle = std::make_shared<api::CycleRecord>();
  cycle->info.cycle = 9;
  cycle->info.fired_at = 3.5;
  cycle->info.preprocess_seconds = 0.25e-3;
  cycle->info.optimize_seconds = 2e-3;
  cycle->info.select_seconds = 0.5e-3;
  cycle->stages_end_us = 10000.0;
  tracer.record(*run, tracer.span("queue_wait", 1.0, 3.5, 0.0, "dispatched qpu=0"), cycle);

  auto trace = tracer.trace(5);
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace->spans.size(), 4u);
  EXPECT_EQ(trace->recorded, 4u);
  EXPECT_EQ(trace->dropped, 0u);
  const std::vector<std::string> names = {"queue_wait", "cycle_preprocess", "cycle_optimize",
                                          "cycle_select"};
  const std::vector<std::pair<double, double>> walls = {
      {7250.0, 7500.0}, {7500.0, 9500.0}, {9500.0, 10000.0}};
  for (std::size_t i = 0; i < names.size(); ++i) EXPECT_EQ(trace->spans[i].name, names[i]);
  for (std::size_t i = 1; i < 4; ++i) {
    const api::TraceSpan& span = trace->spans[i];
    EXPECT_EQ(span.detail, "cycle=9");
    EXPECT_EQ(span.virtual_start, 3.5);
    EXPECT_EQ(span.virtual_end, 3.5);
    EXPECT_DOUBLE_EQ(span.wall_start_us, walls[i - 1].first) << span.name;
    EXPECT_DOUBLE_EQ(span.wall_end_us, walls[i - 1].second) << span.name;
  }

  // Overwriting the cycle entry drops the four spans it held.
  for (std::size_t i = 0; i < kRing; ++i) tracer.record(*run, tracer.point("p", 4.0));
  trace = tracer.trace(5);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->spans.size(), kRing);
  EXPECT_EQ(trace->recorded, kRing + 4);
  EXPECT_EQ(trace->dropped, 4u);
  EXPECT_EQ(dropped->value(), 4u);
}

TEST(ObsTrace, TracerEvictsOldestBeyondRetention) {
  obs::Tracer tracer(/*max_runs=*/2);
  tracer.start(run_record(1));
  tracer.start(run_record(2));
  tracer.start(run_record(3));  // evicts run 1
  EXPECT_EQ(tracer.trace(1).status().code(), api::StatusCode::kNotFound);
  EXPECT_TRUE(tracer.trace(2).ok());
  EXPECT_TRUE(tracer.trace(3).ok());
  EXPECT_EQ(tracer.trace(99).status().code(), api::StatusCode::kNotFound);
}

TEST(ObsTrace, FinalizeFeedsSinkOutsideTheMapLock) {
  std::vector<api::RunTrace> finished;
  obs::Tracer tracer(4, [&finished](const api::RunTrace& trace) {
    finished.push_back(trace);
  });
  const auto run = run_record(7);
  tracer.start(run);
  tracer.record(*run, tracer.point("submit", 0.0));
  tracer.finalize(*run);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_EQ(finished[0].run, 7u);
  ASSERT_EQ(finished[0].spans.size(), 1u);
  EXPECT_EQ(finished[0].spans[0].name, "submit");
}

// ---- Exporters ---------------------------------------------------------------

TEST(ObsExport, PrometheusRendersCumulativeBucketsAndOneHeaderPerFamily) {
  obs::MetricsRegistry registry;
  registry.counter("t_total", "counted", "priority=\"batch\"")->inc(2);
  registry.counter("t_total", "counted", "priority=\"standard\"")->inc(5);
  obs::Histogram* hist = registry.histogram("t_seconds", "timed", {1.0, 2.0});
  hist->observe(0.5);
  hist->observe(1.5);
  hist->observe(9.0);

  const std::string text = obs::render_prometheus(registry.snapshot());
  // One HELP/TYPE header per family even with two label sets.
  EXPECT_EQ(text.find("# HELP t_total counted"), text.rfind("# HELP t_total counted"));
  EXPECT_NE(text.find("t_total{priority=\"batch\"} 2"), std::string::npos);
  EXPECT_NE(text.find("t_total{priority=\"standard\"} 5"), std::string::npos);
  // Cumulative le series: 1 at le=1, 2 at le=2, 3 at +Inf == _count.
  EXPECT_NE(text.find("t_seconds_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("t_seconds_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("t_seconds_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("t_seconds_count 3"), std::string::npos);
  EXPECT_NE(text.find("t_seconds_sum 11"), std::string::npos);
}

TEST(ObsExport, ChromeTraceEventsEmitOneJsonObjectPerSpan) {
  api::RunTrace trace;
  trace.run = 11;
  api::TraceSpan closed;
  closed.name = "qpu_exec";
  closed.wall_start_us = 10.0;
  closed.wall_end_us = 250.0;
  trace.spans.push_back(closed);
  api::TraceSpan instant;
  instant.name = "settle";
  instant.wall_start_us = instant.wall_end_us = 300.0;
  trace.spans.push_back(instant);

  const std::string jsonl = obs::chrome_trace_events(trace);
  EXPECT_NE(jsonl.find("\"ph\": \"X\""), std::string::npos);  // closed span
  EXPECT_NE(jsonl.find("\"dur\": 240"), std::string::npos);
  EXPECT_NE(jsonl.find("\"ph\": \"i\""), std::string::npos);  // point span
  EXPECT_NE(jsonl.find("\"tid\": 11"), std::string::npos);
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
}

// ---- the run-lifecycle trace surface end to end ------------------------------

workflow::ImageId deploy_quantum(api::QonductorClient& client, const std::string& name) {
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

std::ptrdiff_t span_index(const api::RunTrace& trace, const std::string& name) {
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    if (trace.spans[i].name == name) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

TEST(ObsEndToEnd, BatchModeTraceCoversSubmitToSettleOnBothClocks) {
  core::QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 11;
  config.trajectory_width_limit = 0;  // analytic model: fast
  config.scheduler_service.queue_threshold = 1;
  config.scheduler_service.linger = 5ms;
  api::QonductorClient client(config);
  const auto image = deploy_quantum(client, "trace-batch");

  api::InvokeRequest request;
  request.image = image;
  request.preferences.priority = api::Priority::kInteractive;
  auto handle = client.invoke(request);
  ASSERT_TRUE(handle.ok()) << handle.status().to_string();
  ASSERT_EQ(handle->wait(), api::RunStatus::kCompleted);

  api::GetRunTraceRequest trace_request;
  trace_request.run = handle->id();
  auto response = client.getRunTrace(trace_request);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  const api::RunTrace& trace = response->trace;
  EXPECT_EQ(trace.run, handle->id());
  EXPECT_EQ(trace.dropped, 0u);

  // The full batch-mode lifecycle, in record order: admission, park into
  // the pending queue, the cycle's queue-wait + stage spans, dispatch,
  // execution, settlement.
  const std::vector<std::string> expected = {
      "submit",         "admitted",       "park",    "queue_wait",
      "cycle_preprocess", "cycle_optimize", "cycle_select", "dispatch",
      "qpu_exec",       "settle"};
  std::ptrdiff_t previous = -1;
  for (const auto& name : expected) {
    const std::ptrdiff_t index = span_index(trace, name);
    ASSERT_GE(index, 0) << "missing span " << name;
    EXPECT_GT(index, previous) << "span " << name << " out of order";
    previous = index;
  }
  // Every span carries both clocks, well-formed.
  for (const auto& span : trace.spans) {
    EXPECT_GE(span.virtual_end, span.virtual_start) << span.name;
    EXPECT_GE(span.wall_end_us, span.wall_start_us) << span.name;
  }
  // The queue-wait span carries the dispatch verdict.
  const auto& wait = trace.spans[static_cast<std::size_t>(span_index(trace, "queue_wait"))];
  EXPECT_NE(wait.detail.find("dispatched qpu="), std::string::npos) << wait.detail;
  // The settle point sits at the run's terminal virtual time.
  const auto& settle = trace.spans[static_cast<std::size_t>(span_index(trace, "settle"))];
  EXPECT_EQ(settle.detail, "completed");
}

TEST(ObsEndToEnd, GetRunTraceErrorContract) {
  core::QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 13;
  config.trajectory_width_limit = 0;
  config.telemetry.trace_runs = 1;  // retention window of a single run
  config.scheduler_service.queue_threshold = 1;
  config.scheduler_service.linger = 5ms;
  api::QonductorClient client(config);
  const auto image = deploy_quantum(client, "trace-evict");

  api::InvokeRequest request;
  request.image = image;
  auto first = client.invoke(request);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->wait(), api::RunStatus::kCompleted);
  auto second = client.invoke(request);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->wait(), api::RunStatus::kCompleted);

  // Unknown id -> NOT_FOUND.
  api::GetRunTraceRequest unknown;
  unknown.run = 424242;
  EXPECT_EQ(client.getRunTrace(unknown).status().code(), api::StatusCode::kNotFound);
  // The first run's trace was evicted by the second (retention = 1).
  api::GetRunTraceRequest evicted;
  evicted.run = first->id();
  EXPECT_EQ(client.getRunTrace(evicted).status().code(), api::StatusCode::kNotFound);
  api::GetRunTraceRequest retained;
  retained.run = second->id();
  EXPECT_TRUE(client.getRunTrace(retained).ok());

  // Tracing disabled -> FAILED_PRECONDITION (and no spans are recorded).
  core::QonductorConfig off_config = config;
  off_config.telemetry.tracing = false;
  api::QonductorClient off(off_config);
  const auto off_image = deploy_quantum(off, "trace-off");
  api::InvokeRequest off_request;
  off_request.image = off_image;
  auto off_handle = off.invoke(off_request);
  ASSERT_TRUE(off_handle.ok());
  ASSERT_EQ(off_handle->wait(), api::RunStatus::kCompleted);
  api::GetRunTraceRequest off_trace;
  off_trace.run = off_handle->id();
  EXPECT_EQ(off.getRunTrace(off_trace).status().code(),
            api::StatusCode::kFailedPrecondition);
}

// A run the engine refuses (shutdown) is retracted from the run table and
// from the tracer's retention index alike: no id of a rejected invoke or
// invokeAll batch answers getRunTrace, while an earlier run's trace stays.
TEST(ObsEndToEnd, RejectedRunsLeaveNoQueryableTrace) {
  core::QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 17;
  config.trajectory_width_limit = 0;
  config.scheduler_service.queue_threshold = 1;
  config.scheduler_service.linger = 5ms;
  api::QonductorClient client(config);
  ASSERT_TRUE(client.backend().telemetry().tracing_enabled());
  api::InvokeRequest request;
  request.image = deploy_quantum(client, "trace-retract");
  auto before = client.invoke(request);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->wait(), api::RunStatus::kCompleted);

  client.backend().shutdown();
  auto single = client.invoke(request);
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.status().code(), api::StatusCode::kUnavailable);
  EXPECT_NE(single.status().message().find("run " + std::to_string(before->id() + 1) +
                                           " rejected"),
            std::string::npos)
      << single.status().to_string();
  auto batch = client.invokeAll({request, request, request});
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), api::StatusCode::kUnavailable);

  // Ids are assigned in order: the rejected invoke took the next one and
  // the batch the three after it.
  for (api::RunId id = before->id() + 1; id <= before->id() + 4; ++id) {
    api::GetRunTraceRequest trace_request;
    trace_request.run = id;
    EXPECT_EQ(client.getRunTrace(trace_request).status().code(), api::StatusCode::kNotFound)
        << "rejected run " << id;
    EXPECT_EQ(client.getRun(id).status().code(), api::StatusCode::kNotFound)
        << "rejected run " << id;
  }
  api::GetRunTraceRequest kept;
  kept.run = before->id();
  EXPECT_TRUE(client.getRunTrace(kept).ok());
}

// ---- stats surfaces as registry views ----------------------------------------

double metric_value(const api::MetricsSnapshot& snapshot, const std::string& name,
                    const std::string& labels = "") {
  for (const auto& metric : snapshot.metrics) {
    if (metric.name == name && metric.labels == labels) return metric.value;
  }
  ADD_FAILURE() << "metric not found: " << name << "{" << labels << "}";
  return -1.0;
}

TEST(ObsEndToEnd, LegacyStatsSurfacesMatchOneRegistrySnapshot) {
  constexpr std::size_t kRuns = 12;
  core::QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 14;
  config.trajectory_width_limit = 0;
  config.retention.max_terminal_runs = kRuns + 8;
  config.scheduler_service.queue_threshold = 4;
  config.scheduler_service.linger = 5ms;
  api::QonductorClient client(config);
  const auto image = deploy_quantum(client, "stats-view");

  std::vector<api::InvokeRequest> requests(kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) {
    requests[i].image = image;
    requests[i].preferences.priority =
        static_cast<api::Priority>(i % api::kNumPriorities);
  }
  auto handles = client.invokeAll(requests);
  ASSERT_TRUE(handles.ok()) << handles.status().to_string();
  for (auto& handle : *handles) ASSERT_EQ(handle.wait(), api::RunStatus::kCompleted);
  // wait() returns when the terminal status is published; the engine worker
  // retires the finishing continuation just after. Drain to quiescence so
  // the live-run gauge assertion below is deterministic.
  auto& backend = client.backend();
  for (int i = 0; i < 2000 && backend.runEngine().stats().live_runs != 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }

  // Quiescent system: the legacy surfaces and a registry snapshot must
  // agree exactly — they are views over the same instruments.
  auto metrics = client.getMetrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().to_string();
  const api::MetricsSnapshot& snapshot = metrics->snapshot;

  auto sched = client.getSchedulerStats();
  ASSERT_TRUE(sched.ok());
  EXPECT_EQ(static_cast<double>(sched->stats.cycles),
            metric_value(snapshot, "qon_sched_cycles_total"));
  EXPECT_EQ(static_cast<double>(sched->stats.jobs_scheduled),
            metric_value(snapshot, "qon_sched_jobs_scheduled_total"));
  EXPECT_EQ(sched->stats.jobs_scheduled, kRuns);
  EXPECT_EQ(static_cast<double>(sched->stats.jobs_filtered),
            metric_value(snapshot, "qon_sched_jobs_filtered_total"));
  EXPECT_EQ(static_cast<double>(sched->stats.jobs_expired),
            metric_value(snapshot, "qon_sched_jobs_expired_total"));

  auto admission = client.getAdmissionStats();
  ASSERT_TRUE(admission.ok());
  double accepted_total = 0.0;
  for (std::size_t p = 0; p < api::kNumPriorities; ++p) {
    const std::string label =
        std::string("priority=\"") +
        api::priority_name(static_cast<api::Priority>(p)) + "\"";
    EXPECT_EQ(static_cast<double>(admission->stats.accepted[p]),
              metric_value(snapshot, "qon_admission_accepted_total", label));
    accepted_total += static_cast<double>(admission->stats.accepted[p]);
  }
  EXPECT_EQ(accepted_total, static_cast<double>(kRuns));

  // The satellite fix: hit/miss ratio from ONE snapshot is coherent — and
  // the accessor pair agrees with it on a quiescent system.
  EXPECT_EQ(static_cast<double>(backend.prepCacheHits()),
            metric_value(snapshot, "qon_prep_cache_hits_total"));
  EXPECT_EQ(static_cast<double>(backend.prepCacheMisses()),
            metric_value(snapshot, "qon_prep_cache_misses_total"));
  EXPECT_EQ(backend.prepCacheHits() + backend.prepCacheMisses(), kRuns);

  EXPECT_EQ(static_cast<double>(backend.runEngine().peak_live_runs()),
            metric_value(snapshot, "qon_engine_peak_live_runs"));
  EXPECT_EQ(metric_value(snapshot, "qon_engine_live_runs"), 0.0);
  EXPECT_EQ(metric_value(snapshot, "qon_runs_finished_total", "status=\"completed\""),
            static_cast<double>(kRuns));

  // Histograms observed: one run-latency sample per settled run.
  std::uint64_t latency_samples = 0;
  for (const auto& metric : snapshot.metrics) {
    if (metric.name == "qon_run_latency_seconds") latency_samples += metric.count;
  }
  EXPECT_EQ(latency_samples, kRuns);
}

TEST(ObsEndToEnd, MetricsKnobOffStillServesLegacySurfaces) {
  core::QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 15;
  config.trajectory_width_limit = 0;
  config.telemetry.metrics = false;  // gates ONLY histogram observations
  config.scheduler_service.queue_threshold = 1;
  config.scheduler_service.linger = 5ms;
  api::QonductorClient client(config);
  const auto image = deploy_quantum(client, "metrics-off");

  api::InvokeRequest request;
  request.image = image;
  auto handle = client.invoke(request);
  ASSERT_TRUE(handle.ok());
  ASSERT_EQ(handle->wait(), api::RunStatus::kCompleted);

  auto sched = client.getSchedulerStats();
  ASSERT_TRUE(sched.ok());
  EXPECT_GE(sched->stats.cycles, 1u);      // counters stay maintained
  EXPECT_EQ(sched->stats.jobs_scheduled, 1u);

  auto metrics = client.getMetrics();
  ASSERT_TRUE(metrics.ok());
  std::uint64_t histogram_samples = 0;
  for (const auto& metric : metrics->snapshot.metrics) {
    if (metric.kind == api::MetricKind::kHistogram) histogram_samples += metric.count;
  }
  EXPECT_EQ(histogram_samples, 0u);  // observations gated off
}

TEST(ObsEndToEnd, JsonlTraceSinkReceivesEveryFinishedRun) {
  // Named per test and per process, so concurrent runs of this binary do
  // not share the file.
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = ::testing::TempDir() + info->test_suite_name() + "_" +
                           info->name() + "_" + std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  {
    core::QonductorConfig config;
    config.num_qpus = 2;
    config.seed = 16;
    config.trajectory_width_limit = 0;
    config.telemetry.trace_sink = obs::make_jsonl_file_sink(path);
    config.scheduler_service.queue_threshold = 1;
    config.scheduler_service.linger = 5ms;
    api::QonductorClient client(config);
    const auto image = deploy_quantum(client, "sink");
    api::InvokeRequest request;
    request.image = image;
    auto handle = client.invoke(request);
    ASSERT_TRUE(handle.ok());
    ASSERT_EQ(handle->wait(), api::RunStatus::kCompleted);
  }
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream content;
  content << file.rdbuf();
  const std::string text = content.str();
  EXPECT_NE(text.find("\"queue_wait\""), std::string::npos);
  EXPECT_NE(text.find("\"settle\""), std::string::npos);
  std::remove(path.c_str());
}

// Span writers (engine workers, the scheduler thread) and readers
// (getRunTrace, the export sink) meet on each run record's lock; the
// sanitizer builds run this to keep that meeting race-free.
TEST(ObsEndToEnd, ConcurrentTraceReadersSeeWholeTraces) {
  constexpr std::size_t kRuns = 500;
  const auto whole = [](const api::RunTrace& trace) {
    return !trace.spans.empty() && trace.spans.front().name == "submit" &&
           span_index(trace, "settle") >= 0 && trace.dropped == 0;
  };
  std::atomic<std::size_t> sunk{0};
  std::atomic<std::size_t> sunk_whole{0};
  core::QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 17;
  config.executor_threads = 2;
  config.trajectory_width_limit = 0;
  config.scheduler_service.queue_threshold = 25;
  config.scheduler_service.linger = 5ms;
  config.telemetry.trace_sink = [&](const api::RunTrace& trace) {
    sunk.fetch_add(1);
    if (whole(trace)) sunk_whole.fetch_add(1);
  };
  api::QonductorClient client(config);
  const auto image = deploy_quantum(client, "trace-stress");

  std::vector<api::InvokeRequest> requests(kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) {
    requests[i].image = image;
    requests[i].preferences.priority = static_cast<api::Priority>(i % api::kNumPriorities);
  }
  auto handles = client.invokeAll(requests);
  ASSERT_TRUE(handles.ok()) << handles.status().to_string();

  std::size_t read_whole = 0;
  std::thread reader([&] {
    for (const auto& handle : *handles) {
      api::GetRunTraceRequest request;
      request.run = handle.id();
      // Read the ring while its writers may still be at it, then once more
      // after the run settles.
      while (!api::run_status_terminal(handle.poll())) {
        EXPECT_TRUE(client.getRunTrace(request).ok());
      }
      if (handle.wait() != api::RunStatus::kCompleted) continue;
      const auto response = client.getRunTrace(request);
      if (response.ok() && whole(response->trace)) ++read_whole;
    }
  });
  reader.join();

  EXPECT_EQ(read_whole, kRuns);
  EXPECT_EQ(sunk.load(), kRuns);
  EXPECT_EQ(sunk_whole.load(), kRuns);
}

// ---- cycle spans: rendered from the one shared cycle record ------------------

std::vector<api::TraceSpan> cycle_spans(const api::RunTrace& trace) {
  std::vector<api::TraceSpan> out;
  for (const auto& span : trace.spans) {
    if (span.name.rfind("cycle_", 0) == 0) out.push_back(span);
  }
  return out;
}

api::RunTrace run_trace(api::QonductorClient& client, api::RunId run) {
  api::GetRunTraceRequest request;
  request.run = run;
  auto response = client.getRunTrace(request);
  EXPECT_TRUE(response.ok()) << response.status().to_string();
  return response.ok() ? response->trace : api::RunTrace{};
}

// Two runs one cycle decided render the same three stage spans, and each
// span's wall extent is that cycle's stage time.
TEST(ObsEndToEnd, OneCycleRendersIdenticalStageSpansIntoEveryRunItDecided) {
  core::QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 18;
  config.trajectory_width_limit = 0;
  config.scheduler_service.queue_threshold = 2;
  config.scheduler_service.linger = 10s;  // the cycle fires at the threshold
  api::QonductorClient client(config);
  api::InvokeRequest request;
  request.image = deploy_quantum(client, "one-cycle");
  auto handles = client.invokeAll({request, request});
  ASSERT_TRUE(handles.ok()) << handles.status().to_string();
  for (auto& handle : *handles) ASSERT_EQ(handle.wait(), api::RunStatus::kCompleted);

  const auto first = cycle_spans(run_trace(client, (*handles)[0].id()));
  const auto second = cycle_spans(run_trace(client, (*handles)[1].id()));
  ASSERT_EQ(first.size(), 3u);
  ASSERT_EQ(second.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(first[i].name, second[i].name);
    EXPECT_EQ(first[i].detail, second[i].detail);
    EXPECT_EQ(first[i].virtual_start, second[i].virtual_start);
    EXPECT_EQ(first[i].virtual_end, second[i].virtual_end);
    EXPECT_EQ(first[i].wall_start_us, second[i].wall_start_us);
    EXPECT_EQ(first[i].wall_end_us, second[i].wall_end_us);
  }

  auto stats = client.getSchedulerStats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->stats.recent_cycles.size(), 1u);
  const api::SchedulerCycleInfo& cycle = stats->stats.recent_cycles[0];
  EXPECT_EQ(cycle.batch_size, 2u);
  EXPECT_EQ(first[0].detail, "cycle=" + std::to_string(cycle.cycle));
  const double stage_us[] = {cycle.preprocess_seconds * 1e6, cycle.optimize_seconds * 1e6,
                             cycle.select_seconds * 1e6};
  const char* names[] = {"cycle_preprocess", "cycle_optimize", "cycle_select"};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(first[i].name, names[i]);
    EXPECT_EQ(first[i].virtual_start, cycle.fired_at);
    EXPECT_EQ(first[i].virtual_end, cycle.fired_at);
    EXPECT_NEAR(first[i].wall_end_us - first[i].wall_start_us, stage_us[i], 1e-6)
        << first[i].name;
  }
  // The stages abut: preprocess ends where NSGA-II starts, NSGA-II where
  // MCDM selection starts.
  EXPECT_EQ(first[0].wall_end_us, first[1].wall_start_us);
  EXPECT_EQ(first[1].wall_end_us, first[2].wall_start_us);
}

// A trace holds its cycle: the run keeps all three stage spans after the
// scheduler's recent_cycles ring evicted the cycle that decided it.
TEST(ObsEndToEnd, TraceKeepsCycleSpansAfterRecentCyclesEvictsTheCycle) {
  core::QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 19;
  config.trajectory_width_limit = 0;
  config.scheduler_service.queue_threshold = 1;
  config.scheduler_service.linger = 5ms;
  config.scheduler_service.stats_cycle_history = 1;
  api::QonductorClient client(config);
  api::InvokeRequest request;
  request.image = deploy_quantum(client, "evicted-cycle");

  auto first = client.invoke(request);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->wait(), api::RunStatus::kCompleted);
  const auto before = cycle_spans(run_trace(client, first->id()));
  ASSERT_EQ(before.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    auto later = client.invoke(request);
    ASSERT_TRUE(later.ok());
    ASSERT_EQ(later->wait(), api::RunStatus::kCompleted);
  }

  auto stats = client.getSchedulerStats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->stats.recent_cycles.size(), 1u);
  EXPECT_NE("cycle=" + std::to_string(stats->stats.recent_cycles[0].cycle), before[0].detail);
  const auto after = cycle_spans(run_trace(client, first->id()));
  ASSERT_EQ(after.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(after[i].name, before[i].name);
    EXPECT_EQ(after[i].detail, before[i].detail);
    EXPECT_EQ(after[i].wall_start_us, before[i].wall_start_us);
    EXPECT_EQ(after[i].wall_end_us, before[i].wall_end_us);
  }
}

// The scheduler thread writes one ring entry per job: a one-quantum-task
// run's ring holds three entries fewer than the spans getRunTrace renders,
// and those spans are the full lifecycle set, engine steps included.
TEST(ObsEndToEnd, RingHoldsOneSchedulerEntryPerJobAndRendersTheFullSpanSet) {
  core::QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 20;
  config.trajectory_width_limit = 0;
  config.executor_threads = 1;  // the parking step's span lands before the resume
  config.scheduler_service.queue_threshold = 1;
  config.scheduler_service.linger = 5ms;
  api::QonductorClient client(config);
  api::InvokeRequest request;
  request.image = deploy_quantum(client, "one-entry");
  auto handle = client.invoke(request);
  ASSERT_TRUE(handle.ok());
  ASSERT_EQ(handle->wait(), api::RunStatus::kCompleted);

  const api::RunTrace trace = run_trace(client, handle->id());
  const auto state = client.backend().runTable().find(handle->id());
  ASSERT_NE(state, nullptr);
  std::size_t entries = 0;
  {
    MutexLock lock(state->mutex);
    entries = state->trace.entries.size();
  }
  EXPECT_EQ(entries + 3, trace.spans.size());
  EXPECT_EQ(trace.recorded, trace.spans.size());
  EXPECT_EQ(trace.dropped, 0u);

  std::vector<std::string> names;
  for (const auto& span : trace.spans) names.push_back(span.name);
  std::sort(names.begin(), names.end());
  const std::vector<std::string> expected = {
      "admitted",    "cycle_optimize", "cycle_preprocess", "cycle_select",
      "dispatch",    "engine_step",    "engine_step",      "park",
      "qpu_exec",    "queue_wait",     "settle",           "submit"};
  EXPECT_EQ(names, expected);
}

// ---- telemetry self-observation ----------------------------------------------

TEST(ObsTelemetry, BuildInfoGaugeCarriesIdentityLabels) {
  obs::Telemetry telemetry;
  const auto snapshot = telemetry.snapshot(0.0);
  const api::MetricValue* info = nullptr;
  for (const auto& metric : snapshot.metrics) {
    if (metric.name == "qon_build_info") info = &metric;
  }
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->value, 1.0);  // constant 1: the information IS the labels
  EXPECT_NE(info->labels.find("version=\"v" + std::to_string(api::kApiVersion) + "\""),
            std::string::npos);
  EXPECT_NE(info->labels.find("compiler=\""), std::string::npos);
  EXPECT_NE(info->labels.find("build=\""), std::string::npos);
}

TEST(ObsTelemetry, SnapshotPassTimesItselfIntoTheNextSnapshot) {
  obs::Telemetry telemetry;
  // The snapshot pass is observed AFTER the registry read, so the first
  // snapshot sees an empty histogram and each pass lands in the next one.
  const auto first = telemetry.snapshot(0.0);
  const api::MetricValue* duration =
      obs::find_metric(first, "qon_metrics_snapshot_duration_seconds");
  ASSERT_NE(duration, nullptr);
  EXPECT_EQ(duration->count, 0u);

  const auto second = telemetry.snapshot(0.0);
  duration = obs::find_metric(second, "qon_metrics_snapshot_duration_seconds");
  ASSERT_NE(duration, nullptr);
  EXPECT_EQ(duration->count, 1u);
  EXPECT_GE(duration->sum, 0.0);
}

// ---- snapshot deltas with mid-interval registration --------------------------

TEST(ObsDelta, MidIntervalRegistrationContributesFullValue) {
  obs::MetricsRegistry registry;
  auto* settled = registry.counter("settled_total", "runs settled");
  auto* depth = registry.gauge("queue_depth", "current depth");
  settled->inc(5);
  depth->set(7.0);
  const auto prev = registry.snapshot();

  // An instrument registered BETWEEN snapshots must stream its full
  // current value, not a bogus subtraction against a missing baseline.
  auto* shed = registry.counter("shed_total", "runs shed");
  shed->inc(3);
  settled->inc(2);
  depth->set(4.0);
  const auto cur = registry.snapshot();

  const auto delta = obs::snapshot_delta(prev, cur);
  const api::MetricValue* settled_delta = obs::find_metric(delta, "settled_total");
  ASSERT_NE(settled_delta, nullptr);
  EXPECT_EQ(settled_delta->value, 2.0);  // 7 - 5
  const api::MetricValue* shed_delta = obs::find_metric(delta, "shed_total");
  ASSERT_NE(shed_delta, nullptr);
  EXPECT_EQ(shed_delta->value, 3.0);  // fresh series: full current value
  const api::MetricValue* depth_delta = obs::find_metric(delta, "queue_depth");
  ASSERT_NE(depth_delta, nullptr);
  EXPECT_EQ(depth_delta->value, 4.0);  // gauges pass through
  EXPECT_EQ(obs::find_metric(delta, "missing_total"), nullptr);
}

}  // namespace
}  // namespace qon
