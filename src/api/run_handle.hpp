#pragma once
// Client-side handle for an in-flight workflow run. invoke() returns a
// RunHandle immediately; the DAG executes on the orchestrator's executor
// pool. Handles are cheap to copy (a shared_ptr to the run record) and
// stay valid after the orchestrator retires — queries keep answering from
// the shared record.
//
//   auto handle = *qonductor.invoke({.image = image});
//   while (!run_status_terminal(handle.poll())) do_other_work();
//   auto result = handle.result();

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "api/result.hpp"
#include "api/types.hpp"
#include "common/thread_safety.hpp"

namespace qon::api {

/// One scheduling cycle as the scheduler thread published it: the cycle's
/// stats record plus the tracer wall instant (µs) at which its MCDM
/// selection stage ended. Immutable once published. The service's
/// recent_cycles ring and the trace entry of every job the cycle decided
/// share it, so it lives as long as either still points at it.
struct CycleRecord {
  SchedulerCycleInfo info;
  double stages_end_us = 0.0;
};

/// One ring slot: a recorded span, plus, on the `queue_wait` span of a job
/// a cycle dispatched or filtered, that cycle. obs::Tracer renders the
/// cycle's three `cycle_*` stage spans right after such a span at read
/// time, so a slot with a cycle counts as four spans.
struct SpanEntry {
  TraceSpan span;
  std::shared_ptr<const CycleRecord> cycle;
};

/// A run's bounded span ring. obs::Tracer writes and reads it under the
/// owning record's mutex; once `entries` is full, `head` is the oldest slot
/// and the next entry overwrites it.
struct SpanRing {
  std::vector<SpanEntry> entries;
  std::size_t head = 0;
  std::uint64_t recorded = 0;  ///< rendered spans ever recorded, including dropped
};

/// Shared record of one run, written by the orchestrator's executor and
/// read by any number of handles. All mutable fields are guarded by
/// `mutex`; `cv` is notified on every status transition. The record is
/// also where the run's trace lives: the engine worker driving the run and
/// the scheduler thread deciding its parked task append entries to `trace`
/// under `mutex`, holding no other lock (kRunState is the outermost rank).
struct RunState {
  RunId id = 0;
  workflow::ImageId image = 0;
  /// Effective QoS preferences (request values with fidelity_weight
  /// resolved against the deployment default). Written once before the
  /// record is shared; immutable afterwards.
  JobPreferences preferences;

  mutable Mutex mutex{LockRank::kRunState, "RunState::mutex"};
  mutable CondVar cv;
  RunStatus status GUARDED_BY(mutex) = RunStatus::kPending;
  bool cancel_requested GUARDED_BY(mutex) = false;
  WorkflowResult result GUARDED_BY(mutex);  ///< stable once `status` is terminal
  /// Set by the executor while the run's quantum task is parked in the
  /// scheduler service's pending queue; cancel() invokes it (outside this
  /// mutex) so a queued-then-cancelled run stops immediately instead of
  /// waiting to be dispatched.
  std::function<void()> unpark GUARDED_BY(mutex);
  // Lifecycle timestamps on the fleet virtual clock; -1 until the phase
  // happens. Stamped by the orchestrator at each transition.
  double submitted_at GUARDED_BY(mutex) = -1.0;
  double started_at GUARDED_BY(mutex) = -1.0;
  double finished_at GUARDED_BY(mutex) = -1.0;
  /// The run's lifecycle spans (obs::Tracer); empty when tracing is off.
  SpanRing trace GUARDED_BY(mutex);
};

class RunHandle {
 public:
  /// An empty handle: valid() is false, poll()/wait() report kFailed
  /// (there is no run to observe), and Result-returning queries
  /// (wait_for, result) return kNotFound.
  RunHandle() = default;
  explicit RunHandle(std::shared_ptr<RunState> state) : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }
  RunId id() const { return state_ ? state_->id : 0; }
  workflow::ImageId image() const { return state_ ? state_->image : 0; }

  /// Non-blocking status snapshot.
  RunStatus poll() const;

  /// Blocks until the run reaches a terminal state and returns it.
  RunStatus wait() const;

  /// wait() with a deadline; kDeadlineExceeded when the run is still in
  /// flight after `timeout`.
  Result<RunStatus> wait_for(std::chrono::milliseconds timeout) const;

  /// Requests cooperative cancellation: the executor stops before the next
  /// task boundary and the run ends kCancelled. A quantum task parked in
  /// the scheduler service's pending queue is pulled out immediately — the
  /// run does not wait to be dispatched. Returns false when the run had
  /// already reached a terminal state (nothing to cancel) — callers must
  /// check, hence [[nodiscard]]: dropping the result hides a lost race
  /// with completion.
  [[nodiscard]] bool cancel() const;

  /// Blocks until terminal, then returns the execution report. The report
  /// of a failed/cancelled run is still a value — its `status` and `error`
  /// fields say what happened. Only an empty handle is an error (kNotFound).
  Result<WorkflowResult> result() const;

  /// Non-blocking snapshot of the run's lifecycle record (state, virtual-
  /// clock timestamps, error status) — the same view getRun() serves. Keeps
  /// answering after the run is evicted from the orchestrator's run table.
  Result<RunInfo> info() const;

 private:
  std::shared_ptr<RunState> state_;
};

}  // namespace qon::api
