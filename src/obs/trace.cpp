#include "obs/trace.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace qon::obs {

Tracer::Tracer(std::size_t max_runs, std::size_t spans_per_run, TraceSink sink,
               Counter* span_drop_counter)
    : max_runs_(std::max<std::size_t>(1, max_runs)),
      spans_per_run_(std::max<std::size_t>(1, spans_per_run)),
      sink_(std::move(sink)),
      span_drop_counter_(span_drop_counter),
      epoch_(std::chrono::steady_clock::now()) {}

void Tracer::start(std::shared_ptr<api::RunState> run) {
  // Declared before the lock, so an evicted record that was the last
  // reference to its run is destroyed after the unlock.
  std::shared_ptr<api::RunState> evicted;
  const api::RunId id = run->id;
  MutexLock lock(mutex_);
  runs_[id] = std::move(run);
  order_.push_back(id);
  while (runs_.size() > max_runs_) {
    if (const auto it = runs_.find(order_.front()); it != runs_.end()) {
      evicted = std::move(it->second);
      runs_.erase(it);
    }
    order_.pop_front();
  }
}

void Tracer::forget(api::RunId run) {
  std::shared_ptr<api::RunState> forgotten;  // destroyed after the unlock
  MutexLock lock(mutex_);
  if (const auto it = runs_.find(run); it != runs_.end()) {
    forgotten = std::move(it->second);
    runs_.erase(it);
  }
}

void Tracer::record(api::RunState& run, api::TraceSpan span) const {
  MutexLock lock(run.mutex);
  api::SpanRing& ring = run.trace;
  if (ring.spans.size() < spans_per_run_) {
    ring.spans.push_back(std::move(span));
  } else {
    // Wrapped: overwrite the oldest slot and advance the ring head.
    ring.spans[ring.head] = std::move(span);
    ring.head = (ring.head + 1) % spans_per_run_;
    if (span_drop_counter_ != nullptr) span_drop_counter_->inc();
  }
  ++ring.recorded;
}

api::RunTrace Tracer::snapshot(const api::RunState& run) {
  api::RunTrace out;
  out.run = run.id;
  MutexLock lock(run.mutex);
  const api::SpanRing& ring = run.trace;
  out.recorded = ring.recorded;
  out.dropped = ring.recorded - ring.spans.size();
  out.spans.reserve(ring.spans.size());
  // Oldest-first: from the ring head around; before wrap, head is 0 and
  // this is a plain copy.
  for (std::size_t i = 0; i < ring.spans.size(); ++i) {
    out.spans.push_back(ring.spans[(ring.head + i) % ring.spans.size()]);
  }
  return out;
}

void Tracer::finalize(const api::RunState& run) const {
  if (sink_) sink_(snapshot(run));
}

api::Result<api::RunTrace> Tracer::trace(api::RunId run) const {
  std::shared_ptr<const api::RunState> record;
  {
    MutexLock lock(mutex_);
    const auto it = runs_.find(run);
    if (it != runs_.end()) record = it->second;
  }
  if (!record) {
    return api::NotFound("getRunTrace: no trace for run " + std::to_string(run) +
                         " (unknown id, or evicted from the trace retention window)");
  }
  return snapshot(*record);
}

api::TraceSpan Tracer::point(const char* name, double virtual_now,
                             std::string detail) const {
  api::TraceSpan span;
  span.name = name;
  span.detail = std::move(detail);
  span.virtual_start = virtual_now;
  span.virtual_end = virtual_now;
  span.wall_start_us = wall_now_us();
  span.wall_end_us = span.wall_start_us;
  return span;
}

api::TraceSpan Tracer::span(const char* name, double virtual_start, double virtual_end,
                            double wall_start_us, std::string detail) const {
  api::TraceSpan span;
  span.name = name;
  span.detail = std::move(detail);
  span.virtual_start = virtual_start;
  span.virtual_end = virtual_end;
  span.wall_start_us = wall_start_us;
  span.wall_end_us = wall_now_us();
  return span;
}

}  // namespace qon::obs
