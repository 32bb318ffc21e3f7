#pragma once
// System monitor (§4.1): the per-QPU state no other component owns — the
// device manager's health flag (`online`) and the §7 reservation
// (`reserved`, plus the auto-release instant of a windowed one). It copies
// no fact owned elsewhere: static and calibration data live on the fleet's
// backends, queue waits on the orchestrator's virtual timeline, run status
// in the RunTable. The table is typed and built once from the fleet's QPU
// names; it is the only store of these flags.

#include <optional>
#include <string>
#include <vector>

#include "common/thread_safety.hpp"

namespace qon::core {

/// One QPU's externally-owned state.
struct QpuInfo {
  std::string name;
  /// Health: false means the device manager took the QPU down (faults,
  /// maintenance). Distinct from `reserved` — releasing a reservation
  /// must not bring a faulted QPU back into rotation.
  bool online = true;
  /// §7 reservation (reserveQpu/releaseQpu).
  bool reserved = false;
  /// Fleet-clock instant a windowed reservation auto-releases; set only
  /// while such a reservation holds (open-ended ones carry none).
  std::optional<double> release_at;

  /// Scheduling snapshots offer a QPU only when it is online AND not
  /// reserved (§7).
  bool schedulable() const { return online && !reserved; }
};

/// Thread-safe: device managers, reservation calls, scheduling snapshots
/// and health probes hit the monitor concurrently; one internal mutex
/// serializes the table, so a reservation's flag and window always change
/// together.
class SystemMonitor {
 public:
  /// `qpu_names` fixes the table's membership and order (every QPU starts
  /// online and unreserved).
  explicit SystemMonitor(const std::vector<std::string>& qpu_names);

  /// Atomically flips only the health flag; returns the previous value,
  /// nullopt for unknown names.
  std::optional<bool> set_qpu_online(const std::string& name, bool online);
  /// Reserves the QPU, auto-releasing at `release_at` when given; returns
  /// the previous reservation flag, nullopt for unknown names. An already
  /// reserved QPU keeps its reservation and window unchanged.
  std::optional<bool> reserve(const std::string& name,
                              std::optional<double> release_at = std::nullopt);
  /// Clears the reservation and its window, leaving the health flag alone;
  /// same contract as set_qpu_online.
  std::optional<bool> release(const std::string& name);
  /// The scheduling snapshot at fleet-clock `now`: releases every windowed
  /// reservation due at/before `now`, then returns every QPU's state in
  /// table order — one critical section, so a reservation made or ended
  /// concurrently is never half-expired.
  std::vector<QpuInfo> release_due(double now);
  std::optional<QpuInfo> qpu(const std::string& name) const;
  /// Every QPU's state in table order, read under one lock.
  std::vector<QpuInfo> qpus() const;
  std::vector<std::string> qpu_names() const;

 private:
  /// `name`'s row, null for unknown names.
  QpuInfo* find_locked(const std::string& name) REQUIRES(mutex_);

  mutable Mutex mutex_{LockRank::kMonitor, "SystemMonitor::mutex_"};
  std::vector<QpuInfo> qpus_ GUARDED_BY(mutex_);  ///< fleet order
};

}  // namespace qon::core
