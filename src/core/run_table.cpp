#include "core/run_table.hpp"

#include <chrono>

namespace qon::core {

namespace {

double steady_now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

RunTable::RunTable(RunRetentionPolicy policy) : policy_(std::move(policy)) {
  if (!policy_.clock) policy_.clock = steady_now_seconds;
}

bool RunTable::expired_locked(const Entry& entry, double now) const {
  return entry.terminal && policy_.terminal_ttl_seconds > 0.0 &&
         now - entry.terminal_at >= policy_.terminal_ttl_seconds;
}

void RunTable::evict_locked(std::map<api::RunId, Entry>::iterator it) {
  lru_.erase(it->second.lru);
  ++evictions_;
  entries_.erase(it);
}

// Enforces both retention bounds: first age (so stale records don't consume
// capacity), then capacity in LRU order.
std::size_t RunTable::enforce_locked() {
  const std::uint64_t before = evictions_;
  if (policy_.terminal_ttl_seconds > 0.0 && !lru_.empty()) {
    const double now = policy_.clock();
    for (auto id_it = lru_.begin(); id_it != lru_.end();) {
      const auto it = entries_.find(*id_it);
      ++id_it;  // evict_locked invalidates the entry's lru iterator
      if (it != entries_.end() && expired_locked(it->second, now)) {
        evict_locked(it);
      }
    }
  }
  if (policy_.max_terminal_runs > 0) {
    while (lru_.size() > policy_.max_terminal_runs) {
      evict_locked(entries_.find(lru_.front()));
    }
  }
  return static_cast<std::size_t>(evictions_ - before);
}

api::RunId RunTable::insert(const std::shared_ptr<api::RunState>& state) {
  MutexLock lock(mutex_);
  const api::RunId id = next_id_++;
  // Precondition: the record is not yet shared, so the id store needs no
  // state lock. Keeping the state lock out of the table's critical
  // sections lets the executor call mark_terminal() while holding the
  // state lock (terminal visibility and GC eligibility stay atomic)
  // without a lock-order cycle.
  state->id = id;
  Entry entry;
  entry.state = state;
  entries_.emplace(id, std::move(entry));
  enforce_locked();
  return id;
}

std::shared_ptr<api::RunState> RunTable::find(api::RunId id) {
  MutexLock lock(mutex_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) return nullptr;
  // Only consult the clock when a TTL verdict is actually possible — the
  // default policy (no TTL) pays nothing under the table lock.
  const bool ttl_applies = it->second.terminal && policy_.terminal_ttl_seconds > 0.0;
  if (ttl_applies && expired_locked(it->second, policy_.clock())) {
    evict_locked(it);
    return nullptr;
  }
  if (it->second.terminal) {
    // Refresh recency: a queried result is the one worth keeping.
    lru_.splice(lru_.end(), lru_, it->second.lru);
  }
  return it->second.state;
}

bool RunTable::erase(api::RunId id) {
  MutexLock lock(mutex_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  if (it->second.terminal) lru_.erase(it->second.lru);
  entries_.erase(it);
  return true;
}

void RunTable::mark_terminal(api::RunId id) {
  MutexLock lock(mutex_);
  const auto it = entries_.find(id);
  if (it == entries_.end() || it->second.terminal) return;
  it->second.terminal = true;
  it->second.terminal_at = policy_.clock();
  it->second.lru = lru_.insert(lru_.end(), id);
  enforce_locked();
}

std::size_t RunTable::sweep() {
  MutexLock lock(mutex_);
  return enforce_locked();
}

std::vector<std::shared_ptr<api::RunState>> RunTable::list_after(api::RunId after) const {
  MutexLock lock(mutex_);
  std::vector<std::shared_ptr<api::RunState>> out;
  for (auto it = entries_.upper_bound(after); it != entries_.end(); ++it) {
    out.push_back(it->second.state);
  }
  return out;
}

std::size_t RunTable::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

std::size_t RunTable::terminal_count() const {
  MutexLock lock(mutex_);
  return lru_.size();
}

std::uint64_t RunTable::evictions() const {
  MutexLock lock(mutex_);
  return evictions_;
}

}  // namespace qon::core
