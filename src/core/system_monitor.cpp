#include "core/system_monitor.hpp"

#include <utility>

namespace qon::core {

SystemMonitor::SystemMonitor(const std::vector<std::string>& qpu_names) {
  MutexLock lock(mutex_);
  for (const std::string& name : qpu_names) qpus_.emplace_back().name = name;
}

QpuInfo* SystemMonitor::find_locked(const std::string& name) {
  for (QpuInfo& qpu : qpus_) {
    if (qpu.name == name) return &qpu;
  }
  return nullptr;
}

std::optional<bool> SystemMonitor::set_qpu_online(const std::string& name, bool online) {
  MutexLock lock(mutex_);
  QpuInfo* qpu = find_locked(name);
  if (qpu == nullptr) return std::nullopt;
  return std::exchange(qpu->online, online);
}

std::optional<bool> SystemMonitor::reserve(const std::string& name,
                                           std::optional<double> release_at) {
  MutexLock lock(mutex_);
  QpuInfo* qpu = find_locked(name);
  if (qpu == nullptr) return std::nullopt;
  if (!qpu->reserved) qpu->release_at = release_at;  // a held one keeps its window
  return std::exchange(qpu->reserved, true);
}

std::optional<bool> SystemMonitor::release(const std::string& name) {
  MutexLock lock(mutex_);
  QpuInfo* qpu = find_locked(name);
  if (qpu == nullptr) return std::nullopt;
  qpu->release_at.reset();
  return std::exchange(qpu->reserved, false);
}

std::vector<QpuInfo> SystemMonitor::release_due(double now) {
  MutexLock lock(mutex_);
  for (QpuInfo& qpu : qpus_) {
    if (qpu.release_at && *qpu.release_at <= now) {
      qpu.reserved = false;
      qpu.release_at.reset();
    }
  }
  return qpus_;
}

std::optional<QpuInfo> SystemMonitor::qpu(const std::string& name) const {
  for (QpuInfo& q : qpus()) {
    if (q.name == name) return std::move(q);
  }
  return std::nullopt;
}

std::vector<QpuInfo> SystemMonitor::qpus() const {
  MutexLock lock(mutex_);
  return qpus_;
}

std::vector<std::string> SystemMonitor::qpu_names() const {
  std::vector<std::string> names;
  for (QpuInfo& q : qpus()) names.push_back(std::move(q.name));
  return names;
}

}  // namespace qon::core
