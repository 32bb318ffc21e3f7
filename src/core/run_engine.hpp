#pragma once
// Event-driven run engine: continuation-based DAG execution so thousands of
// in-flight runs are driven by a handful of worker threads.
//
// The pre-engine executor dedicated one blocked thread to every in-flight
// run: the thread blocked on its parked quantum task until a scheduling
// cycle dispatched it, so `executor_threads` (default 2) bounded how many
// jobs a cycle could even see. The engine inverts that model. Each run is an explicit state machine — a
// RunContinuation holding the next-DAG-node cursor, per-node finish times
// and the accumulated WorkflowResult — and a small worker pool drives those
// machines through an event queue:
//
//   - submit() posts the run's first step event (submit_all() posts a
//     whole batch in one critical section);
//   - a worker pops an event and advances the run by one DAG node via the
//     owner-provided step function;
//   - a classical task executes inside the step and the worker reposts
//     the continuation (kProgress), so concurrent runs interleave fairly
//     instead of one run monopolizing a worker;
//   - a quantum task *registers a completion callback* with the
//     scheduler service's pending queue and returns kParked — no thread
//     blocks. When the scheduling cycle settles the task (dispatch, filter,
//     deadline expiry, cancel), the callback posts a resume() event and any
//     worker picks the run back up. The resume step executes the task in
//     the QPU window the cycle booked, holding no lock, so the workers
//     execute quantum tasks in parallel;
//   - kFinished retires the run (the stepper has already settled its
//     record). The step that records a run's last node settles it inline,
//     so a single-task run costs two events: submit and resume.
//
// Workers sleep on one condition variable and a post notifies only when
// some worker is asleep: a busy worker re-checks the queue before it
// sleeps, so waking it would be a wasted context switch.
//
// One event per run is in flight at a time: submit posts one, every step
// posts at most one follow-up, and a parked run's only path back is the
// single resume() its settlement callback fires — so a continuation is
// never stepped concurrently and its fields need no lock of their own.
//
// Shutdown contract (mirrors the old executor pool): shutdown() closes
// submissions — submit() returns false, the caller fails the run
// UNAVAILABLE — then waits until every live run drains. Parked runs drain
// too: the scheduler service stays up while the engine shuts down, its
// linger/flush cycles settle the parked tasks, and the resulting resume
// events run to completion on the still-live workers. Only then are the
// workers joined.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "api/run_handle.hpp"
#include "common/thread_safety.hpp"
#include "api/types.hpp"
#include "core/pending_queue.hpp"
#include "workflow/registry.hpp"

namespace qon::core {

// Per-backend transpile + estimate bundle (defined in orchestrator.hpp); a
// parked continuation pins the prep its resume step will execute with.
struct QuantumTaskPrep;

/// What one step of a run's state machine did.
enum class StepOutcome {
  kProgress,  ///< one node finished; the engine reposts the continuation
  kParked,    ///< waiting on an external completion; resume() brings it back
  kFinished,  ///< the run reached a terminal state (stepper settled it)
};

/// The explicit state machine of one in-flight run. Owned by the engine's
/// event queue between steps; only ever touched by the single in-flight
/// event, so the fields are unsynchronized by design (see header comment).
struct RunContinuation {
  std::shared_ptr<api::RunState> state;
  const workflow::WorkflowImage* image = nullptr;
  std::size_t cursor = 0;               ///< next node in `image->order`
  std::vector<double> finish;           ///< per-node finish times (fleet clock)
  api::WorkflowResult result;           ///< accumulated execution report
  bool started = false;                 ///< kPending -> kRunning happened

  /// Start of the step in flight (virtual and tracer wall clock), stamped
  /// when tracing: a step that settles the run records its own
  /// engine_step span ahead of the settle point.
  double step_virtual_start = 0.0;
  double step_wall_start_us = 0.0;

  // Park context: set before the quantum task enters the pending queue and
  // collected by the resume step. `parked` doubles as the "this step is a
  // resume" flag.
  std::shared_ptr<PendingQuantumTask> parked;
  std::shared_ptr<const QuantumTaskPrep> parked_prep;

  /// Latest virtual instant produced by the run's own events that is not
  /// already covered by result.makespan_seconds — e.g. the scheduling-cycle
  /// verdict time of a task that failed without executing. settle_run()
  /// derives finished_at from the run's own events instead of the fleet
  /// frontier, which moves with unrelated runs' executions.
  double settle_hint = 0.0;
};

/// The worker pool + event queue driving every run's state machine. The
/// step function is supplied by the owner (the orchestrator; tests use
/// fakes) and must not throw — task-level failures are part of the run's
/// state machine, not the engine's.
class RunEngine {
 public:
  using Step = std::function<StepOutcome(const std::shared_ptr<RunContinuation>&)>;

  /// Spawns `workers` threads (min 1) executing `step` on queued events.
  /// `on_event`, when set, is invoked by the dispatching worker once per
  /// popped event BEFORE the step runs, outside the engine's lock — the
  /// orchestrator stamps its engine liveness heartbeat here, so a step
  /// function that wedges is already past its final beat and ages out.
  RunEngine(std::size_t workers, Step step, std::function<void()> on_event = {});
  ~RunEngine();

  RunEngine(const RunEngine&) = delete;
  RunEngine& operator=(const RunEngine&) = delete;

  /// Registers the run as live and posts its first step event. False once
  /// shutdown() has begun — the run was not accepted and never will be.
  bool submit(std::shared_ptr<RunContinuation> run);

  /// submit() for a batch in one critical section: every run is accepted,
  /// or none is (false once shutdown() has begun).
  bool submit_all(std::vector<std::shared_ptr<RunContinuation>> runs);

  /// Posts a resume event for a parked run. Accepted even during the
  /// shutdown drain (a live run must always be able to come back) — only
  /// new submissions are refused.
  void resume(std::shared_ptr<RunContinuation> run);

  /// Closes submissions, waits until every live run reaches kFinished
  /// (parked runs return via resume() as their waits settle), and joins the
  /// workers. Idempotent and safe to call concurrently.
  void shutdown();

  std::size_t workers() const { return workers_.size(); }
  /// Runs submitted and not yet finished — parked runs count.
  std::size_t live_runs() const;
  /// Largest live_runs() ever observed: the decoupling statistic — with the
  /// engine it can exceed the worker count by orders of magnitude.
  std::size_t peak_live_runs() const;
  /// Step events dispatched so far (submits + reposts + resumes).
  std::uint64_t events_dispatched() const;

  /// One coherent sample of the three statistics above. The individual
  /// accessors each take the lock separately, so reading them back-to-back
  /// can observe e.g. a peak smaller than the concurrently-updated live
  /// count; registry gauges snapshot through here instead.
  struct EngineStats {
    std::size_t live_runs = 0;
    std::size_t peak_live_runs = 0;
    std::uint64_t events_dispatched = 0;
    /// Events queued and not yet popped — the engine's "has work" signal.
    /// Distinct from live_runs: a parked run is live but demands nothing of
    /// the workers, so the health watchdog keys its busy-probe off this.
    std::size_t queue_depth = 0;
  };
  EngineStats stats() const;

 private:
  void worker_loop() EXCLUDES(mutex_);
  void post(std::shared_ptr<RunContinuation> run) EXCLUDES(mutex_);
  /// Notifies up to `events` sleeping workers (none when all are busy).
  void wake_idle_locked(std::size_t events) REQUIRES(mutex_);

  const Step step_;
  /// Liveness hook, called once per dispatched event outside mutex_.
  const std::function<void()> on_event_;

  mutable Mutex mutex_{LockRank::kRunEngine, "RunEngine::mutex_"};
  CondVar cv_;          ///< workers waiting for events
  CondVar drained_cv_;  ///< shutdown() waiting for live_ == 0
  std::deque<std::shared_ptr<RunContinuation>> queue_ GUARDED_BY(mutex_);
  std::size_t live_ GUARDED_BY(mutex_) = 0;
  std::size_t idle_ GUARDED_BY(mutex_) = 0;  ///< workers asleep in cv_
  std::size_t peak_live_ GUARDED_BY(mutex_) = 0;
  std::uint64_t events_ GUARDED_BY(mutex_) = 0;
  bool closed_ GUARDED_BY(mutex_) = false;

  /// Serializes concurrent shutdown() calls; never held together with
  /// mutex_ (the drain wait finishes before the join begins).
  Mutex join_mutex_{LockRank::kShutdownJoin, "RunEngine::join_mutex_"};
  /// Declared last: no member may be destroyed while a worker still runs.
  std::vector<std::thread> workers_;
};

}  // namespace qon::core
