#include "core/run_table.hpp"

namespace qon::core {

RunTable::RunTable(RunRetentionPolicy policy) : policy_(policy) {}

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
  return id;
}

std::shared_ptr<api::RunState> RunTable::find(api::RunId id) {
  MutexLock lock(mutex_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) return nullptr;
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
  it->second.lru = lru_.insert(lru_.end(), id);
  // Only a new terminal run can push the table over its bound.
  if (policy_.max_terminal_runs == 0) return;
  while (lru_.size() > policy_.max_terminal_runs) {
    entries_.erase(lru_.front());
    lru_.pop_front();
    ++evictions_;
  }
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
