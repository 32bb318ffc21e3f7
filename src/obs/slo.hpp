#pragma once
// Online SLO burn-rate tracking — the second half of the health pillar.
// Settled runs feed a per-priority-class sliding-window SLI ring (windowed
// good/total counts on the fleet VIRTUAL clock, so campaign alert
// timelines are deterministic); burn-rate rules evaluate two windows (the
// SRE fast/slow multi-window pattern) and drive a
// pending -> firing -> resolved alert state machine with hysteresis:
//
//   burn = (bad / total) / (1 - attainment_target)
//
// burn == 1 consumes the error budget exactly at the sustainable rate;
// a rule fires when BOTH windows burn at >= burn_threshold (the fast
// window for responsiveness, the slow window to reject blips) and resolves
// when the fast window drops below clear_threshold (< burn_threshold, so
// a rate hovering at the threshold cannot flap the alert).
//
// Everything is virtual-time driven and lock-cheap: record() is a bucket
// increment under the kSlo mutex, evaluate() sums at most
// slow_window/bucket buckets per rule. The campaign driver owns one
// monitor fed from its deterministic reap order; the orchestrator owns
// another fed from settle_run for the live getHealth surface.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "api/types.hpp"
#include "common/thread_safety.hpp"

namespace qon::obs {

/// One multi-window burn-rate rule over a priority class's SLO.
struct SloRule {
  std::string name;  ///< names the alert in timelines and getHealth
  api::Priority priority = api::Priority::kStandard;
  /// Target fraction of runs inside the class SLO, in (0, 1); the error
  /// budget is 1 - attainment_target.
  double attainment_target = 0.99;
  double fast_window_seconds = 300.0;   ///< virtual; responsiveness window
  double slow_window_seconds = 3600.0;  ///< virtual; blip-rejection window
  /// Fire when both windows burn at >= this multiple of the budget rate.
  double burn_threshold = 2.0;
  /// Resolve when the fast burn drops below this (must be <= burn_threshold;
  /// strictly smaller gives hysteresis).
  double clear_threshold = 1.0;
  /// Minimum fast-window sample count before any verdict — a single bad
  /// run in an empty window must not page.
  std::uint64_t min_samples = 10;
};

/// One alert state transition, emitted by evaluate() in rule order — the
/// campaign driver streams these as the deterministic alert timeline.
struct AlertTransition {
  std::string rule;
  api::Priority priority = api::Priority::kStandard;
  api::AlertState state = api::AlertState::kInactive;  ///< state ENTERED
  double at_virtual = 0.0;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
};

/// The longest alert window a rule may ask for: 30 days. The SLI ring holds
/// one bucket per `bucket_seconds` of the longest window, so this caps it
/// at 43,201 buckets per class at the default 60 s granularity.
inline constexpr double kMaxSloWindowSeconds = 30.0 * 24 * 3600;

/// The one validator of an SLO configuration (orchestrator health config
/// and campaign profiles alike): class targets finite and >= 0 (0 leaves
/// the class untracked); every rule on a tracked class, with windows in
/// (0, kMaxSloWindowSeconds], fast <= slow, attainment in (0, 1), burn > 0
/// and clear in [0, burn]. kInvalidArgument naming the offender; kOk
/// otherwise.
api::Status validate_slo_config(
    const std::array<double, api::kNumPriorities>& slo_seconds,
    const std::vector<SloRule>& rules);

class SloMonitor {
 public:
  /// `slo_seconds[p]` is the class latency target (0 = class untracked);
  /// `bucket_seconds` is the SLI ring granularity (virtual seconds). The
  /// configuration must pass validate_slo_config (the ring is sized from
  /// the longest window).
  SloMonitor(std::array<double, api::kNumPriorities> slo_seconds,
             std::vector<SloRule> rules, double bucket_seconds = 60.0);

  /// Feed one settled run at its terminal virtual instant. Good means the
  /// run completed within its class target; failed/cancelled runs and late
  /// completions burn budget. No-op for untracked classes.
  void record(api::Priority priority, double latency_seconds,
              double now_virtual, bool completed);

  /// Advance every rule's state machine to `now_virtual`; returns the
  /// transitions that happened (rule order, possibly empty). A kResolved
  /// rule decays to kInactive silently on its next evaluation.
  std::vector<AlertTransition> evaluate(double now_virtual);

  /// Current per-rule alert states (registration order) with burns as of
  /// `now_virtual` — the getHealth view.
  std::vector<api::AlertInfo> alerts(double now_virtual) const;

  /// Windowed burn rate of one class, for tests and ad-hoc introspection.
  struct Burn {
    double rate = 0.0;
    std::uint64_t good = 0;
    std::uint64_t total = 0;
  };
  Burn burn(api::Priority priority, double window_seconds, double target,
            double now_virtual) const;

  std::uint64_t recorded_total() const;

 private:
  struct Bucket {
    std::int64_t index = -1;  ///< floor(virtual / bucket_seconds); -1 = empty
    std::uint64_t good = 0;
    std::uint64_t total = 0;
  };
  struct RuleState {
    SloRule rule;
    api::AlertState state = api::AlertState::kInactive;
    double since_virtual = 0.0;  ///< instant of the last transition
  };

  Burn burn_locked(api::Priority priority, double window_seconds,
                   double target, double now_virtual) const REQUIRES(mutex_);

  const double bucket_seconds_;
  const std::array<double, api::kNumPriorities> slo_seconds_;

  mutable Mutex mutex_{LockRank::kSlo, "slo_monitor"};
  /// Per-class ring sized for the longest rule window.
  std::array<std::vector<Bucket>, api::kNumPriorities> rings_ GUARDED_BY(mutex_);
  std::vector<RuleState> rules_ GUARDED_BY(mutex_);
  std::uint64_t recorded_ GUARDED_BY(mutex_) = 0;
};

}  // namespace qon::obs
