// Lock-hierarchy layer (common/thread_safety.hpp): rank bookkeeping on the
// happy path, non-LIFO release (condition-variable waits), and the death
// tests proving that hierarchy violations — including a genuine two-thread
// ABBA acquisition — abort deterministically instead of deadlocking.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/thread_safety.hpp"

namespace qon {
namespace {

// Test mutexes are static function-locals, not stack objects: TSAN's
// lock-order detector keys the acquisition graph on mutex addresses, and
// std::mutex's trivial destructor never unregisters one — so sequential
// tests reusing the same stack slots would be conflated into one false
// cycle. Statics get distinct addresses for the life of the process.

TEST(LockRank, IncreasingRanksNest) {
  static Mutex outer(LockRank::kRunState, "test_outer");
  static Mutex mid(LockRank::kMonitor, "test_mid");
  static Mutex leaf(LockRank::kLogging, "test_leaf");
  EXPECT_EQ(lock_rank::held_count(), 0);
  {
    MutexLock a(outer);
    EXPECT_EQ(lock_rank::held_count(), 1);
    {
      MutexLock b(mid);
      MutexLock c(leaf);
      EXPECT_EQ(lock_rank::held_count(), 3);
    }
    EXPECT_EQ(lock_rank::held_count(), 1);
  }
  EXPECT_EQ(lock_rank::held_count(), 0);
}

TEST(LockRank, ReacquireAfterFullReleaseIsFine) {
  static Mutex m(LockRank::kRunTable, "test_reacquire");
  for (int i = 0; i < 3; ++i) {
    MutexLock lock(m);
    EXPECT_EQ(lock_rank::held_count(), 1);
  }
  EXPECT_EQ(lock_rank::held_count(), 0);
}

TEST(LockRank, NonLifoReleaseIsSupported) {
  // CondVar::wait unlocks the waited mutex from mid-stack; the checker
  // must tolerate any release order.
  static Mutex low(LockRank::kRunState, "test_low");
  static Mutex high(LockRank::kMonitor, "test_high");
  low.lock();
  high.lock();
  EXPECT_EQ(lock_rank::held_count(), 2);
  low.unlock();  // not the most recent acquisition
  EXPECT_EQ(lock_rank::held_count(), 1);
  high.unlock();
  EXPECT_EQ(lock_rank::held_count(), 0);
}

TEST(LockRank, UnrankedOptsOutOfOrdering) {
  // kUnranked mutexes may interleave with any rank in any order (recursion
  // is still fatal — covered by the death tests). Two distinct pairs, one
  // per ordering: the same pair in both orders would be a real cycle in
  // TSAN's acquisition graph, which is exactly the hazard opting out of
  // the hierarchy accepts — don't model it in-process here.
  static Mutex ranked_a(LockRank::kMonitor, "test_ranked_a");
  static Mutex unranked_a(LockRank::kUnranked, "test_unranked_a");
  static Mutex ranked_b(LockRank::kMonitor, "test_ranked_b");
  static Mutex unranked_b(LockRank::kUnranked, "test_unranked_b");
  {
    MutexLock a(ranked_a);
    MutexLock b(unranked_a);  // unranked after ranked
  }
  {
    MutexLock b(unranked_b);
    MutexLock a(ranked_b);  // ranked after unranked — also fine
  }
  EXPECT_EQ(lock_rank::held_count(), 0);
}

TEST(LockRank, SameMutexSequentiallyAcrossThreads) {
  // The held set is per-thread: two threads taking the same mutex in turn
  // never trip the checker.
  static Mutex m(LockRank::kRunEngine, "test_cross_thread");
  std::thread t([&] {
    MutexLock lock(m);
    EXPECT_EQ(lock_rank::held_count(), 1);
  });
  t.join();
  MutexLock lock(m);
  EXPECT_EQ(lock_rank::held_count(), 1);
}

TEST(LockRank, CondVarWaitReleasesAndReacquiresRank) {
  static Mutex m(LockRank::kMonitor, "test_cv_m");
  CondVar cv;
  bool flag = false;
  std::thread waiter([&] {
    MutexLock lock(m);
    while (!flag) cv.wait(m);
    // Woken with the mutex re-acquired: exactly one lock on record.
    EXPECT_EQ(lock_rank::held_count(), 1);
  });
  {
    // Acquiring the same mutex from this thread is only possible because
    // the waiter's wait() released it (and its rank entry) mid-stack.
    MutexLock lock(m);
    flag = true;
  }
  cv.notify_all();
  waiter.join();
  EXPECT_EQ(lock_rank::held_count(), 0);
}

TEST(LockRank, CondVarWaitsKeepHeldCountExact) {
  // The wait drops the waited mutex's rank record while blocked and
  // restores it on waking — whether the wait times out or is notified —
  // and leaves every other held lock on record throughout.
  static Mutex outer(LockRank::kRunState, "test_cv_outer");
  static Mutex m(LockRank::kMonitor, "test_cv_exact");
  CondVar cv;
  MutexLock hold_outer(outer);
  {
    MutexLock lock(m);
    ASSERT_EQ(lock_rank::held_count(), 2);
    EXPECT_EQ(cv.wait_for(m, std::chrono::milliseconds(1)), std::cv_status::timeout);
    EXPECT_EQ(lock_rank::held_count(), 2);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
    while (cv.wait_until(m, deadline) != std::cv_status::timeout) {
    }
    EXPECT_EQ(lock_rank::held_count(), 2);
  }
  bool flag = false;
  std::thread notifier([&] {
    MutexLock lock(m);  // only possible while the waiter's wait released it
    flag = true;
    cv.notify_one();
  });
  {
    MutexLock lock(m);
    while (!flag) cv.wait(m);
    EXPECT_EQ(lock_rank::held_count(), 2);
  }
  notifier.join();
  EXPECT_EQ(lock_rank::held_count(), 1);
}

#if QON_LOCK_RANK_CHECKS

using LockRankDeathTest = ::testing::Test;

TEST(LockRankDeathTest, InversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex inner(LockRank::kMonitor, "death_inner");
        Mutex outer(LockRank::kRunState, "death_outer");
        MutexLock a(inner);  // rank 500 first…
        MutexLock b(outer);  // …then rank 300: inversion
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, EqualRankPairAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Strictly increasing means two distinct same-rank locks can never nest
  // (in either order one of the two arms would be the inversion).
  EXPECT_DEATH(
      {
        Mutex first(LockRank::kMonitor, "death_eq_first");
        Mutex second(LockRank::kMonitor, "death_eq_second");
        MutexLock a(first);
        MutexLock b(second);
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, RecursiveAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex m(LockRank::kMonitor, "death_recursive");
        m.lock();
        m.lock();  // std::mutex UB; the checker makes it a deterministic abort
      },
      "recursive lock");
}

TEST(LockRankDeathTest, RecursiveUnrankedAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Opting out of the hierarchy does not opt out of recursion detection.
  EXPECT_DEATH(
      {
        Mutex m(LockRank::kUnranked, "death_recursive_unranked");
        m.lock();
        m.lock();
      },
      "recursive lock");
}

TEST(LockRankDeathTest, AbbaAcquisitionAbortsInsteadOfDeadlocking) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The regression this layer exists for: two threads acquiring two locks
  // in opposite orders. Without the checker this interleaving deadlocks
  // (thread 1 holds A wanting B, thread 2 holds B wanting A) and only the
  // 300 s ctest timeout would catch it. With the checker, thread 2's
  // out-of-rank attempt aborts BEFORE it blocks — the process dies
  // deterministically on the first execution, no unlucky timing needed.
  EXPECT_DEATH(
      {
        Mutex a(LockRank::kRunState, "abba_a");  // low rank
        Mutex b(LockRank::kMonitor, "abba_b");   // high rank
        std::atomic<bool> a_held{false};
        std::thread t1([&] {
          MutexLock la(a);  // correct order: A (low)…
          a_held.store(true);
          // Park long enough for t2 to run its inverted arm; the abort
          // kills the whole process, so this sleep never completes.
          std::this_thread::sleep_for(std::chrono::seconds(30));
          MutexLock lb(b);  // …then B (high)
        });
        std::thread t2([&] {
          while (!a_held.load()) std::this_thread::yield();
          MutexLock lb(b);  // inverted order: B (high) first…
          MutexLock la(a);  // …then A (low): aborts before blocking on t1
        });
        t2.join();
        t1.join();
      },
      "lock-rank violation");
}

#endif  // QON_LOCK_RANK_CHECKS

}  // namespace
}  // namespace qon
