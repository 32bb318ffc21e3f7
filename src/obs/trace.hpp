#pragma once
// Run-lifecycle tracing — the first pillar of the telemetry subsystem.
//
// A run's spans live on its record: api::RunState::trace is a bounded ring
// guarded by the record's own mutex, so tracing adds no per-run heap object
// and no lock of its own. The Tracer writes and reads those rings and keeps
// the retention index getRunTrace looks runs up in. Spans stamp BOTH
// clocks — the fleet virtual clock (simulated seconds) and a steady wall
// clock (µs since the tracer's construction) — so a reader can answer
// "where did run 4711's 90 ms go?" in either domain.
//
// Writer model: an entry is recorded either by the engine worker currently
// driving the run (one event per run is in flight at a time) or by the
// scheduler thread BEFORE it settles the run's parked task, which reaches
// the record through PendingQuantumTask::trace — the settlement
// happens-before edge then orders those writes against the resume step's.
// The scheduler thread writes one entry per job: the `queue_wait` span,
// carrying a reference to the api::CycleRecord of the cycle that decided
// it. Every write takes the record lock with no other lock held (kRunState
// is the outermost rank), so the one genuine writer/writer window — a
// parking step's trailing engine_step span racing the resume on another
// worker — interleaves safely, and readers (getRunTrace, the export sink)
// render the ring under the same lock.
//
// Rendering is the one place that knows how a cycle looks in a run's
// trace: right after an entry that carries a cycle it emits
// `cycle_preprocess` / `cycle_optimize` / `cycle_select` (detail
// `cycle=N`, a point on the virtual clock at the cycle instant, wall
// windows reconstructed backwards from the stored stage end). The shared
// record is the retention rule: a cycle lives as long as a retained trace
// or the scheduler's recent_cycles ring points at it.
//
// Each ring is bounded at kRingEntries entries: a run recording more drops
// the oldest entries and counts the spans they held (four for an entry
// with a cycle), so a pathological run cannot grow memory without bound.
// The tracer itself retains at most `max_runs` records, evicting
// oldest-started first — getRunTrace on an evicted (or never-traced) id is
// NOT_FOUND, mirroring the run table's retention contract.

#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "api/result.hpp"
#include "api/run_handle.hpp"
#include "api/types.hpp"
#include "common/thread_safety.hpp"

namespace qon::obs {

class Counter;

/// Invoked with a finished run's trace at settle time (outside all locks).
using TraceSink = std::function<void(const api::RunTrace&)>;

/// Writes and reads the span rings on run records and keeps the bounded
/// retention index of traced runs.
class Tracer {
 public:
  /// Entries a run's span ring holds before it drops the oldest.
  static constexpr std::size_t kRingEntries = 128;

  /// Retains at most `max_runs` traces (oldest-started evicted first).
  /// `sink`, when set, receives each finished run's trace from finalize().
  /// `span_drop_counter`, when set, counts ring-evicted spans across every
  /// run this tracer records into.
  explicit Tracer(std::size_t max_runs, TraceSink sink = nullptr,
                  Counter* span_drop_counter = nullptr);

  /// Adds `run` to the retention index, evicting the oldest-started trace
  /// beyond the bound (an evicted in-flight run keeps recording into its
  /// record; only the lookup is gone).
  void start(std::shared_ptr<api::RunState> run);

  /// Drops `run` from the retention index (a run the engine refused never
  /// started, so its trace must not stay queryable). Unknown ids are ignored;
  /// start()'s eviction skips the id's stale place in the start order.
  void forget(api::RunId run);

  /// Appends `span` to the run's ring under the record lock, dropping the
  /// oldest entry once the ring is full. `cycle`, when set, is the cycle
  /// that decided the job this `queue_wait` span closes; its stage spans
  /// are rendered after it. The caller must hold no lock.
  void record(api::RunState& run, api::TraceSpan span,
              std::shared_ptr<const api::CycleRecord> cycle = nullptr) const;

  /// Feeds the finished trace to the sink (if configured). The trace stays
  /// queryable until evicted by later start() calls.
  void finalize(const api::RunState& run) const;

  /// The retained trace of `run`; kNotFound for unknown / evicted ids.
  api::Result<api::RunTrace> trace(api::RunId run) const;

  /// Wall clock in µs since this tracer was constructed (steady).
  double wall_now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// A point span (start == end on both clocks) stamped `virtual_now` /
  /// wall-now. Convenience for the lifecycle-edge call sites.
  api::TraceSpan point(const char* name, double virtual_now,
                       std::string detail = "") const;
  /// A closed span: [virtual_start, virtual_end] × [wall_start_us, wall-now].
  api::TraceSpan span(const char* name, double virtual_start, double virtual_end,
                      double wall_start_us, std::string detail = "") const;

 private:
  /// The run's retained entries rendered as spans in record order, plus
  /// the drop accounting.
  static api::RunTrace snapshot(const api::RunState& run);

  const std::size_t max_runs_;
  const TraceSink sink_;
  Counter* const span_drop_counter_;
  const std::chrono::steady_clock::time_point epoch_;

  /// Taken alone: trace() copies a record out and releases this lock before
  /// it takes the record's (kRunState ranks below kTracer).
  mutable Mutex mutex_{LockRank::kTracer, "Tracer::mutex_"};
  std::unordered_map<api::RunId, std::shared_ptr<api::RunState>> runs_
      GUARDED_BY(mutex_);
  std::deque<api::RunId> order_ GUARDED_BY(mutex_);  ///< start order, oldest first
};

}  // namespace qon::obs
