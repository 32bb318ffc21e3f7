#pragma once
// The telemetry bundle: one MetricsRegistry + one Tracer + the knobs that
// gate them, owned by the orchestrator (declared early, so it outlives the
// engine and the scheduler service whose draining runs still record into
// it). Components receive a Telemetry& / Telemetry* and register their
// instruments at construction; the config gates the optional surfaces:
//
//   - tracing:  off -> no span is recorded and no run enters the tracer's
//               retention index; getRunTrace returns FAILED_PRECONDITION.
//   - metrics:  gates the OPTIONAL observations (latency/stage histograms).
//               Counters and callback gauges backing the pre-existing stats
//               surfaces (getSchedulerStats / getAdmissionStats /
//               prepCacheHits) are ALWAYS maintained — those surfaces must
//               not change behavior with telemetry off.

#include <chrono>
#include <cstddef>
#include <string>

#include "api/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qon::obs {

/// Pre-rendered label set of the `qon_build_info` gauge: the Prometheus
/// build-info idiom (constant value 1; the information IS the labels), so
/// dashboards and incident timelines can correlate a metrics change with
/// the binary that produced it.
inline std::string build_info_labels() {
  std::string compiler =
#if defined(__clang__)
      "clang " __VERSION__;
#elif defined(__GNUC__)
      "gcc " __VERSION__;
#else
      "unknown";
#endif
  for (char& c : compiler) {
    if (c == '"' || c == '\\') c = '\'';  // keep the label set parseable
  }
  const char* build =
#ifdef NDEBUG
      "release";
#else
      "debug";
#endif
  return "version=\"v" + std::to_string(api::kApiVersion) + "\",compiler=\"" +
         compiler + "\",build=\"" + build + "\"";
}

struct TelemetryConfig {
  /// Per-run lifecycle tracing (spans + getRunTrace).
  bool tracing = true;
  /// Histogram observations (run latency, cycle stages). Counters backing
  /// the legacy stats surfaces are unaffected by this knob.
  bool metrics = true;
  /// How many run traces the tracer retains (oldest-started evicted first).
  /// Each run's span ring holds Tracer::kRingEntries entries.
  std::size_t trace_runs = 1024;
  /// Invoked with each finished run's trace at settle time, outside all
  /// locks (e.g. obs::make_jsonl_file_sink). Must be thread-safe.
  TraceSink trace_sink;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig config = {})
      : config_(std::move(config)),
        // registry_ precedes tracer_ in declaration order, so handing the
        // tracer a registry counter here is construction-order safe.
        tracer_(config_.trace_runs, config_.trace_sink,
                registry_.counter("qon_trace_spans_dropped_total",
                                  "Trace spans dropped from full per-run rings")),
        snapshot_duration_(registry_.histogram(
            "qon_metrics_snapshot_duration_seconds",
            "Wall time of one registry snapshot pass (exporter self-observation)",
            {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1})) {
    registry_.gauge("qon_build_info", "Build identity (value is constant 1)",
                    build_info_labels())
        ->set(1.0);
  }

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  const TelemetryConfig& config() const { return config_; }
  bool tracing_enabled() const { return config_.tracing; }
  bool metrics_enabled() const { return config_.metrics; }

  /// One-pass registry snapshot stamped with both clocks. The pass itself
  /// is timed into qon_metrics_snapshot_duration_seconds — observed AFTER
  /// the read, so each sample shows up in the NEXT snapshot (the exporter
  /// cannot observe its own in-flight cost).
  api::MetricsSnapshot snapshot(double virtual_now) const {
    const auto start = std::chrono::steady_clock::now();
    api::MetricsSnapshot out = registry_.snapshot();
    snapshot_duration_->observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
    out.taken_at_virtual = virtual_now;
    out.taken_at_wall_us = tracer_.wall_now_us();
    return out;
  }

 private:
  const TelemetryConfig config_;
  MetricsRegistry registry_;
  Tracer tracer_;
  Histogram* const snapshot_duration_;
};

}  // namespace qon::obs
