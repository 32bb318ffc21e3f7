#include "common/thread_safety.hpp"

#if QON_LOCK_RANK_CHECKS

#include <cstdio>
#include <cstdlib>

namespace qon::lock_rank {
namespace {

// Per-thread stack of held locks. Fixed-size: the deepest legal chain is
// one lock per rank tier (a dozen), so 32 leaves slack for tests; blowing
// the cap is itself a hierarchy bug and dies with the same diagnostic
// machinery. thread_local POD — no dynamic allocation on lock paths.
struct Held {
  const void* mutex;
  LockRank rank;
  const char* name;
};

constexpr int kMaxHeld = 32;
thread_local Held t_held[kMaxHeld];
thread_local int t_held_count = 0;

[[noreturn]] void die(const char* what, const void* mutex, LockRank rank,
                      const char* name) {
  std::fprintf(stderr,
               "qon lock-rank violation: %s acquiring %s (rank %d, %p); held:\n",
               what, name, static_cast<int>(rank), mutex);
  for (int i = 0; i < t_held_count; ++i) {
    std::fprintf(stderr, "  [%d] %s (rank %d, %p)\n", i, t_held[i].name,
                 static_cast<int>(t_held[i].rank), t_held[i].mutex);
  }
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void note_acquire(const void* mutex, LockRank rank, const char* name) {
  for (int i = 0; i < t_held_count; ++i) {
    if (t_held[i].mutex == mutex) {
      die("recursive lock", mutex, rank, name);
    }
  }
  if (rank != LockRank::kUnranked) {
    for (int i = 0; i < t_held_count; ++i) {
      const LockRank held = t_held[i].rank;
      // Strictly increasing: equal ranks are also a violation, so two
      // same-tier locks can never nest in either order.
      if (held != LockRank::kUnranked && held >= rank) {
        die("lock-order inversion", mutex, rank, name);
      }
    }
  }
  if (t_held_count >= kMaxHeld) {
    die("held-lock stack overflow", mutex, rank, name);
  }
  t_held[t_held_count++] = Held{mutex, rank, name};
}

void note_release(const void* mutex) {
  // Non-LIFO release is legal (CondVar::wait unlocks the waited mutex
  // from mid-stack): remove wherever it is.
  for (int i = t_held_count - 1; i >= 0; --i) {
    if (t_held[i].mutex == mutex) {
      for (int j = i; j + 1 < t_held_count; ++j) t_held[j] = t_held[j + 1];
      --t_held_count;
      return;
    }
  }
  // Releasing a never-acquired mutex: tolerated silently. std::mutex makes
  // it UB anyway, and aborting here would fire on exotic-but-legal patterns
  // (ownership transferred between threads), which the checker doesn't model.
}

int held_count() { return t_held_count; }

}  // namespace qon::lock_rank

#else

namespace qon::lock_rank {
void note_acquire(const void*, LockRank, const char*) {}
void note_release(const void*) {}
int held_count() { return 0; }
}  // namespace qon::lock_rank

#endif  // QON_LOCK_RANK_CHECKS
