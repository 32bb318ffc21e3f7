#include "obs/trace.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace qon::obs {

namespace {

/// Spans an entry renders as: itself, plus its cycle's three stage spans.
std::uint64_t rendered_spans(const api::SpanEntry& entry) {
  return entry.cycle ? 4 : 1;
}

/// The three stage spans of `cycle`, each a point on the virtual clock at
/// the cycle instant. Their wall windows are reconstructed backwards from
/// the stage end: MCDM selection ended there, NSGA-II before it,
/// preprocessing first.
void render_cycle(const api::CycleRecord& cycle, std::vector<api::TraceSpan>& out) {
  const api::SchedulerCycleInfo& info = cycle.info;
  const std::string detail = "cycle=" + std::to_string(info.cycle);
  const double select_start = cycle.stages_end_us - info.select_seconds * 1e6;
  const double optimize_start = select_start - info.optimize_seconds * 1e6;
  const double preprocess_start = optimize_start - info.preprocess_seconds * 1e6;
  const double at = info.fired_at;
  out.push_back({"cycle_preprocess", detail, at, at, preprocess_start, optimize_start});
  out.push_back({"cycle_optimize", detail, at, at, optimize_start, select_start});
  out.push_back({"cycle_select", detail, at, at, select_start, cycle.stages_end_us});
}

}  // namespace

Tracer::Tracer(std::size_t max_runs, TraceSink sink, Counter* span_drop_counter)
    : max_runs_(std::max<std::size_t>(1, max_runs)),
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

void Tracer::record(api::RunState& run, api::TraceSpan span,
                    std::shared_ptr<const api::CycleRecord> cycle) const {
  api::SpanEntry entry{std::move(span), std::move(cycle)};
  const std::uint64_t spans = rendered_spans(entry);
  MutexLock lock(run.mutex);
  api::SpanRing& ring = run.trace;
  if (ring.entries.size() < kRingEntries) {
    ring.entries.push_back(std::move(entry));
  } else {
    // Wrapped: overwrite the oldest slot and advance the ring head.
    api::SpanEntry& oldest = ring.entries[ring.head];
    if (span_drop_counter_ != nullptr) span_drop_counter_->inc(rendered_spans(oldest));
    oldest = std::move(entry);
    ring.head = (ring.head + 1) % kRingEntries;
  }
  ring.recorded += spans;
}

api::RunTrace Tracer::snapshot(const api::RunState& run) {
  api::RunTrace out;
  out.run = run.id;
  MutexLock lock(run.mutex);
  const api::SpanRing& ring = run.trace;
  out.spans.reserve(ring.entries.size() + 3);  // + one cycle's stage spans
  // Oldest-first: from the ring head around; before wrap, head is 0 and
  // this is a plain walk.
  for (std::size_t i = 0; i < ring.entries.size(); ++i) {
    const api::SpanEntry& entry = ring.entries[(ring.head + i) % ring.entries.size()];
    out.spans.push_back(entry.span);
    if (entry.cycle) render_cycle(*entry.cycle, out.spans);
  }
  out.recorded = ring.recorded;
  out.dropped = ring.recorded - out.spans.size();
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
