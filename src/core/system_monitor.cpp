#include "core/system_monitor.hpp"

#include <algorithm>

namespace qon::core {

SystemMonitor::SystemMonitor(const std::vector<std::string>& qpu_names,
                             bool replicated, std::size_t replicas) {
  MutexLock lock(mutex_);
  qpus_.reserve(qpu_names.size());
  for (const std::string& name : qpu_names) qpus_.push_back(QpuInfo{name});
  if (replicated) store_ = std::make_unique<raft::ReplicatedKvStore>(replicas);
}

std::optional<bool> SystemMonitor::set_flag(const std::string& name,
                                            bool QpuInfo::*flag, const char* key,
                                            bool value) {
  MutexLock lock(mutex_);
  const auto it = std::find_if(qpus_.begin(), qpus_.end(),
                               [&](const QpuInfo& q) { return q.name == name; });
  if (it == qpus_.end()) return std::nullopt;
  const bool previous = (*it).*flag;
  (*it).*flag = value;
  if (store_) store_->set("qpu/" + name + "/" + key, value ? "1" : "0");
  return previous;
}

std::optional<bool> SystemMonitor::set_qpu_online(const std::string& name, bool online) {
  return set_flag(name, &QpuInfo::online, "online", online);
}

std::optional<bool> SystemMonitor::set_qpu_reserved(const std::string& name, bool reserved) {
  return set_flag(name, &QpuInfo::reserved, "reserved", reserved);
}

std::optional<QpuInfo> SystemMonitor::qpu(const std::string& name) const {
  MutexLock lock(mutex_);
  for (const QpuInfo& q : qpus_) {
    if (q.name == name) return q;
  }
  return std::nullopt;
}

std::vector<QpuInfo> SystemMonitor::qpus() const {
  MutexLock lock(mutex_);
  return qpus_;
}

std::vector<std::string> SystemMonitor::qpu_names() const {
  MutexLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(qpus_.size());
  for (const QpuInfo& q : qpus_) names.push_back(q.name);
  return names;
}

}  // namespace qon::core
