#include "api/types.hpp"

namespace qon::api {

const char* run_status_name(RunStatus status) {
  switch (status) {
    case RunStatus::kPending: return "pending";
    case RunStatus::kRunning: return "running";
    case RunStatus::kCompleted: return "completed";
    case RunStatus::kFailed: return "failed";
    case RunStatus::kCancelled: return "cancelled";
  }
  return "?";
}

const char* priority_name(Priority priority) {
  switch (priority) {
    case Priority::kBatch: return "batch";
    case Priority::kStandard: return "standard";
    case Priority::kInteractive: return "interactive";
  }
  return "?";
}

const char* cycle_trigger_name(CycleTrigger trigger) {
  switch (trigger) {
    case CycleTrigger::kThreshold: return "threshold";
    case CycleTrigger::kTimer: return "timer";
    case CycleTrigger::kFlush: return "flush";
  }
  return "?";
}

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

const char* health_status_name(HealthStatus status) {
  switch (status) {
    case HealthStatus::kHealthy: return "healthy";
    case HealthStatus::kDegraded: return "degraded";
    case HealthStatus::kUnhealthy: return "unhealthy";
  }
  return "?";
}

const char* alert_state_name(AlertState state) {
  switch (state) {
    case AlertState::kInactive: return "inactive";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
    case AlertState::kResolved: return "resolved";
  }
  return "?";
}

}  // namespace qon::api
