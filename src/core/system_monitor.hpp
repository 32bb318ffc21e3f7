#pragma once
// System monitor (§4.1): the per-QPU flags no other component owns — the
// device manager's health flag (`online`) and the §7 reservation flag
// (`reserved`). It copies no fact owned elsewhere: static and calibration
// data live on the fleet's backends, queue waits on the orchestrator's
// virtual timeline, run status in the RunTable. The table is typed and
// built once from the fleet's QPU names. With `replicated` on, every flag
// write is also journalled through the Raft-replicated KV store (2f+1
// quorum, §4.1 fault tolerance); reads always come from the typed table.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_safety.hpp"
#include "raft/kv_store.hpp"

namespace qon::core {

/// One QPU's externally-owned flags.
struct QpuInfo {
  std::string name;
  /// Health: false means the device manager took the QPU down (faults,
  /// maintenance). Distinct from `reserved` — releasing a reservation
  /// must not bring a faulted QPU back into rotation.
  bool online = true;
  /// §7 reservation (reserveQpu/releaseQpu). Scheduling snapshots offer a
  /// QPU only when it is online AND not reserved.
  bool reserved = false;
};

/// Thread-safe: device managers, reservation calls, scheduling snapshots
/// and health probes hit the monitor concurrently; one internal mutex
/// serializes the table and (when replicated) the journal.
class SystemMonitor {
 public:
  /// `qpu_names` fixes the table's membership and order (every flag starts
  /// online and unreserved). `replicated` journals flag writes through the
  /// Raft-backed store (slower, fault tolerant).
  explicit SystemMonitor(const std::vector<std::string>& qpu_names,
                         bool replicated = false, std::size_t replicas = 3);

  /// Atomically flips only the health flag; returns the previous value,
  /// nullopt for unknown names.
  std::optional<bool> set_qpu_online(const std::string& name, bool online);
  /// Atomically flips only the §7 reservation flag (reserveQpu/releaseQpu
  /// sit on top); same contract as set_qpu_online.
  std::optional<bool> set_qpu_reserved(const std::string& name, bool reserved);
  std::optional<QpuInfo> qpu(const std::string& name) const;
  /// Every QPU's flags in table order, read under one lock.
  std::vector<QpuInfo> qpus() const;
  std::vector<std::string> qpu_names() const;

  bool replicated() const {
    // store_ is immutable after construction, but the lock keeps the
    // guarded_by contract uniform (this is a cold query path).
    MutexLock lock(mutex_);
    return store_ != nullptr;
  }

 private:
  std::optional<bool> set_flag(const std::string& name, bool QpuInfo::*flag,
                               const char* key, bool value) EXCLUDES(mutex_);

  mutable Mutex mutex_{LockRank::kMonitor, "SystemMonitor::mutex_"};
  std::vector<QpuInfo> qpus_ GUARDED_BY(mutex_);  ///< fleet order
  /// Write-only journal, null unless replicated. The ReplicatedKvStore
  /// (and the whole raft:: simulation under it) is thread-compatible, not
  /// thread-safe — every access is serialized behind mutex_ here.
  std::unique_ptr<raft::ReplicatedKvStore> store_ GUARDED_BY(mutex_);
};

}  // namespace qon::core
