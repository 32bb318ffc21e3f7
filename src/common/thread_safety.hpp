#pragma once
// Compile-time concurrency verification for the whole serving stack.
//
// Two layers, one header:
//
//  1. **Clang Thread Safety Analysis macros** (`GUARDED_BY`, `REQUIRES`,
//     `ACQUIRE`/`RELEASE`, …) over `-Wthread-safety`: every mutex-owning
//     class annotates which fields its lock guards and which private
//     helpers require it, so an unguarded access or a lock-discipline
//     violation is a *compile error* under Clang (the `static-analysis` CI
//     job builds with `-Wthread-safety -Werror`). Under GCC the attributes
//     expand to nothing — the annotations are free documentation.
//
//  2. **A ranked mutex wrapper with runtime deadlock detection**:
//     `qon::Mutex` carries a `CAPABILITY` attribute (so the analysis sees
//     every acquisition) and a static `LockRank`. Each thread tracks the
//     ranks it holds; acquiring a mutex whose rank is not strictly greater
//     than every held rank aborts with a diagnostic naming both locks.
//     A potential ABBA deadlock therefore dies deterministically on first
//     execution of *either* arm — no unlucky interleaving required — and
//     the 300 s ctest timeouts never have to catch a silent hang.
//
// The global rank order (see ROADMAP.md "Concurrency invariants") is the
// acquired-before order: a thread may only acquire strictly increasing
// ranks. Outer (coarse, long-held) locks rank low; leaf locks rank high.
//
// Checking is ON by default in every build type — the cost is a handful of
// thread-local loads/stores per acquisition, noise against the mutex
// operation itself — so the Release tier-1 suite, TSAN and ASan jobs all
// enforce the hierarchy. Define QON_LOCK_RANK_CHECKS=0 to compile it out.

#include <chrono>
#include <condition_variable>
#include <mutex>

// ---- Clang Thread Safety Analysis attribute macros ---------------------------
// Standard spelling (LLVM docs / Abseil); expand to nothing on non-Clang
// compilers so GCC builds see plain classes.

#if defined(__clang__) && !defined(SWIG)
#define QON_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define QON_THREAD_ANNOTATION__(x)  // no-op outside Clang
#endif

#ifndef CAPABILITY
#define CAPABILITY(x) QON_THREAD_ANNOTATION__(capability(x))
#endif
#ifndef SCOPED_CAPABILITY
#define SCOPED_CAPABILITY QON_THREAD_ANNOTATION__(scoped_lockable)
#endif
#ifndef GUARDED_BY
#define GUARDED_BY(x) QON_THREAD_ANNOTATION__(guarded_by(x))
#endif
#ifndef PT_GUARDED_BY
#define PT_GUARDED_BY(x) QON_THREAD_ANNOTATION__(pt_guarded_by(x))
#endif
#ifndef ACQUIRED_BEFORE
#define ACQUIRED_BEFORE(...) QON_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#endif
#ifndef ACQUIRED_AFTER
#define ACQUIRED_AFTER(...) QON_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))
#endif
#ifndef REQUIRES
#define REQUIRES(...) QON_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#endif
#ifndef REQUIRES_SHARED
#define REQUIRES_SHARED(...) \
  QON_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
#endif
#ifndef ACQUIRE
#define ACQUIRE(...) QON_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#endif
#ifndef ACQUIRE_SHARED
#define ACQUIRE_SHARED(...) QON_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#endif
#ifndef RELEASE
#define RELEASE(...) QON_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#endif
#ifndef RELEASE_SHARED
#define RELEASE_SHARED(...) QON_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#endif
#ifndef TRY_ACQUIRE
#define TRY_ACQUIRE(...) QON_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#endif
#ifndef EXCLUDES
#define EXCLUDES(...) QON_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#endif
#ifndef ASSERT_CAPABILITY
#define ASSERT_CAPABILITY(x) QON_THREAD_ANNOTATION__(assert_capability(x))
#endif
#ifndef RETURN_CAPABILITY
#define RETURN_CAPABILITY(x) QON_THREAD_ANNOTATION__(lock_returned(x))
#endif
#ifndef NO_THREAD_SAFETY_ANALYSIS
#define NO_THREAD_SAFETY_ANALYSIS QON_THREAD_ANNOTATION__(no_thread_safety_analysis)
#endif

// ---- lock-rank deadlock detection --------------------------------------------

#ifndef QON_LOCK_RANK_CHECKS
#define QON_LOCK_RANK_CHECKS 1
#endif

namespace qon {

/// The global lock hierarchy: every Mutex in the codebase is constructed
/// with one of these ranks, and a thread may only acquire a mutex whose
/// rank is STRICTLY greater than every rank it already holds (two distinct
/// mutexes of the same rank are never held together; re-acquiring the same
/// mutex is always fatal). Outer locks rank low, leaves rank high. The
/// ordering edges that force this ranking are documented per entry and in
/// ROADMAP.md "Concurrency invariants" — extend the enum there first when
/// adding a lock.
enum class LockRank : int {
  /// Opts out of hierarchy checking (recursion is still fatal). For locks
  /// whose nesting is externally constrained (none in-tree today).
  kUnranked = 0,

  /// api::RunState::mutex — one per run record; the outermost rank.
  /// Outside kRunTable (settle_run calls mark_terminal under the record
  /// lock). Also guards the run's span ring, so span writes from engine
  /// workers and the scheduler thread take it with no other lock held.
  kRunState = 300,
  /// core::RunTable::mutex_ — the run-record table structure. A leaf:
  /// eviction only drops the table's own references.
  kRunTable = 400,
  /// core::SystemMonitor::mutex_ — the QPU table (health flags,
  /// reservations and their windows). A leaf: reserve, release and the
  /// snapshot's expiry sweep each change a reservation in one critical
  /// section under it alone.
  kMonitor = 500,
  /// obs::MetricsRegistry::mutex_ — metric registration + snapshot. Must
  /// rank BELOW kPendingQueue/kRunEngine/kSchedulerStats: snapshot() polls
  /// callback gauges (queue depth, engine live runs) that acquire those
  /// locks while the registry lock is held. Hot-path increments are
  /// lock-free atomics and never touch this mutex.
  kMetrics = 550,
  /// obs::SloMonitor::mutex_ — SLI bucket rings + alert rule states.
  /// Above kMetrics so a registry snapshot's callback gauges may read SLO
  /// state under the registry lock; below the component locks so record()
  /// from the settle path (which holds none of them) stays a leaf in
  /// practice.
  kSlo = 560,
  /// obs::HealthMonitor::mutex_ — the watchdog/probe entry list. Held only
  /// for registration and the entry-list copy; verdict callbacks run
  /// OUTSIDE it (the fleet probe takes kMonitor=500, which would otherwise
  /// rank-invert).
  kHealth = 570,
  /// core::PendingQueue::mutex_ — the scheduler service's pending queue,
  /// queued and capacity-waitlisted items alike, so waitlist membership
  /// and queue capacity change in one critical section. Never held while
  /// settling a task (settlement happens after take).
  kPendingQueue = 600,
  /// core::PendingQuantumTask::mutex_ — one per parked task; settlement
  /// observers fire outside it (they acquire kRunEngine).
  kPendingTask = 650,
  /// core::RunEngine::mutex_ — the event queue + live-run accounting.
  /// Acquired by settlement callbacks after kPendingTask is released; the
  /// step function runs outside it.
  kRunEngine = 700,
  /// core::SchedulerService::stats_mutex_ — stats ring buffers. Leaf.
  kSchedulerStats = 750,
  /// Qonductor::registry_mutex_ — registry + deployment flags. Leaf.
  kRegistry = 800,
  /// Qonductor::prep_cache_mutex_ — transpile/estimate cache. Leaf.
  kPrepCache = 850,
  /// obs::Tracer::mutex_ — the trace retention index (run id -> run
  /// record). Taken alone: getRunTrace copies the record out and releases
  /// it before taking the record's kRunState lock, and span writes take
  /// only the record lock.
  kTracer = 860,
  /// join_mutex_ of RunEngine / SchedulerService — serializes
  /// concurrent shutdown(); held only while joining, after the component's
  /// own lock is released.
  kShutdownJoin = 950,
  /// The logging I/O lock — the innermost leaf, so diagnostics can be
  /// emitted while holding anything.
  kLogging = 1000,
};

namespace lock_rank {
/// Validates `rank` against this thread's held set and records the
/// acquisition. Aborts (after a stderr diagnostic naming both locks) on a
/// hierarchy violation or a recursive acquisition. Compiled out when
/// QON_LOCK_RANK_CHECKS=0.
void note_acquire(const void* mutex, LockRank rank, const char* name);
/// Forgets an acquisition recorded by note_acquire (release order need not
/// be LIFO — a condition-variable wait releases mid-stack).
void note_release(const void* mutex);
/// How many locks this thread currently holds (test introspection).
int held_count();
}  // namespace lock_rank

/// std::mutex with a thread-safety capability attribute and a static lock
/// rank. Every mutex in the concurrent surface is one of these: the Clang
/// analysis sees each acquisition at compile time, and the rank checker
/// turns a hierarchy violation into a deterministic abort at runtime.
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank = LockRank::kUnranked, const char* name = "Mutex")
      : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
#if QON_LOCK_RANK_CHECKS
    // Checked BEFORE blocking: the ABBA arm that would complete the cycle
    // dies here instead of deadlocking inside m_.lock().
    lock_rank::note_acquire(this, rank_, name_);
#endif
    m_.lock();
  }

  void unlock() RELEASE() {
    m_.unlock();
#if QON_LOCK_RANK_CHECKS
    lock_rank::note_release(this);
#endif
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  friend class CondVar;  // waits on m_ directly

  std::mutex m_;
  const LockRank rank_;
  const char* const name_;
};

/// RAII lock over Mutex — the std::lock_guard of the annotated world, with
/// a scoped-capability attribute so the analysis tracks the critical
/// section's extent.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over Mutex. Waits take the Mutex itself (the caller
/// holds it, per REQUIRES) and block on its underlying std::mutex through a
/// plain std::condition_variable — no per-instance allocation and no inner
/// lock on notify or wait, unlike condition_variable_any. The wait drops
/// the mutex's rank record before blocking and restores it after waking,
/// so the rank checker's held set stays exact across the wait. Call sites
/// spell predicates as explicit `while (!pred) cv.wait(mu);` loops — the
/// analysis can then verify the predicate's guarded reads in the holding
/// function instead of losing them inside a lambda.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) REQUIRES(mu) {
    Adopted adopted(mu);
    cv_.wait(adopted.lock);
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(Mutex& mu, const std::chrono::duration<Rep, Period>& rel)
      REQUIRES(mu) {
    Adopted adopted(mu);
    return cv_.wait_for(adopted.lock, rel);
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(Mutex& mu,
                            const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    Adopted adopted(mu);
    return cv_.wait_until(adopted.lock, deadline);
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  /// Borrows the caller's hold on `mu` for the duration of one wait: the
  /// unique_lock adopts the already-locked std::mutex and gives it back
  /// (still locked) on scope exit, with the rank record dropped in between.
  struct Adopted {
    explicit Adopted(Mutex& mu) : mutex(mu), lock(mu.m_, std::adopt_lock) {
#if QON_LOCK_RANK_CHECKS
      // Validate the relock against the rest of the held set before
      // blocking (the set cannot change during the wait): a wait that would
      // relock out of rank dies here instead of deadlocking in the relock.
      lock_rank::note_release(&mutex);
      lock_rank::note_acquire(&mutex, mutex.rank_, mutex.name_);
      lock_rank::note_release(&mutex);
#endif
    }
    ~Adopted() {
      lock.release();  // the caller still owns the mutex
#if QON_LOCK_RANK_CHECKS
      lock_rank::note_acquire(&mutex, mutex.rank_, mutex.name_);
#endif
    }
    Adopted(const Adopted&) = delete;
    Adopted& operator=(const Adopted&) = delete;

    Mutex& mutex;
    std::unique_lock<std::mutex> lock;
  };

  std::condition_variable cv_;
};

}  // namespace qon
