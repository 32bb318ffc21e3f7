#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace qon::obs {

namespace {

std::size_t priority_index(api::Priority priority) {
  return static_cast<std::size_t>(priority);
}

}  // namespace

api::Status validate_slo_config(
    const std::array<double, api::kNumPriorities>& slo_seconds,
    const std::vector<SloRule>& rules) {
  for (std::size_t p = 0; p < api::kNumPriorities; ++p) {
    if (!(std::isfinite(slo_seconds[p]) && slo_seconds[p] >= 0.0)) {
      return api::InvalidArgument(
          std::string("slo: ") + api::priority_name(static_cast<api::Priority>(p)) +
          "_seconds must be finite and >= 0");
    }
  }
  for (const SloRule& rule : rules) {
    const std::string where = "alert '" + rule.name + "': ";
    const char* priority = api::priority_name(rule.priority);
    if (!(slo_seconds[priority_index(rule.priority)] > 0.0)) {
      // A burn rule without a latency target has no good/bad verdict to
      // burn against: it could never fire.
      return api::InvalidArgument(where + "priority class '" + priority +
                                  "' has no slo target (set slo." + priority +
                                  "_seconds)");
    }
    if (!(rule.attainment_target > 0.0 && rule.attainment_target < 1.0)) {
      return api::InvalidArgument(where + "attainment_target must be in (0, 1)");
    }
    // The negated comparisons also reject NaN; an infinite window would
    // size the SLI ring without bound, and a finite but huge one would
    // still try to allocate it.
    if (!(rule.fast_window_seconds > 0.0 && std::isfinite(rule.fast_window_seconds)) ||
        !(rule.slow_window_seconds > 0.0 && std::isfinite(rule.slow_window_seconds))) {
      return api::InvalidArgument(where + "windows must be finite and > 0");
    }
    if (rule.slow_window_seconds > kMaxSloWindowSeconds) {
      return api::InvalidArgument(where + "windows must be at most 30 days (" +
                                  std::to_string(static_cast<long>(kMaxSloWindowSeconds)) +
                                  " s)");
    }
    if (rule.fast_window_seconds > rule.slow_window_seconds) {
      return api::InvalidArgument(where +
                                  "fast_window_seconds must be <= slow_window_seconds");
    }
    if (!(rule.burn_threshold > 0.0)) {
      return api::InvalidArgument(where + "burn_threshold must be > 0");
    }
    if (!(rule.clear_threshold >= 0.0 && rule.clear_threshold <= rule.burn_threshold)) {
      return api::InvalidArgument(where + "clear_threshold must be in [0, burn_threshold]");
    }
  }
  return api::Status::Ok();
}

SloMonitor::SloMonitor(std::array<double, api::kNumPriorities> slo_seconds,
                       std::vector<SloRule> rules, double bucket_seconds)
    : bucket_seconds_(bucket_seconds > 0.0 ? bucket_seconds : 60.0),
      slo_seconds_(slo_seconds) {
  // Ring must span the longest window a rule can ask for, plus one bucket
  // of slack so the partially filled "current" bucket never evicts the
  // oldest one still inside the window.
  double longest = 3600.0;
  for (const SloRule& rule : rules) {
    longest = std::max({longest, rule.fast_window_seconds,
                        rule.slow_window_seconds});
  }
  const std::size_t size =
      static_cast<std::size_t>(std::ceil(longest / bucket_seconds_)) + 1;
  MutexLock lock(mutex_);
  for (auto& ring : rings_) {
    ring.assign(size, Bucket{});
  }
  rules_.reserve(rules.size());
  for (SloRule& rule : rules) {
    RuleState state;
    state.rule = std::move(rule);
    rules_.push_back(std::move(state));
  }
}

void SloMonitor::record(api::Priority priority, double latency_seconds,
                        double now_virtual, bool completed) {
  const std::size_t p = priority_index(priority);
  if (p >= api::kNumPriorities || slo_seconds_[p] <= 0.0) {
    return;  // untracked class
  }
  const bool good = completed && latency_seconds <= slo_seconds_[p];
  const std::int64_t index =
      static_cast<std::int64_t>(std::floor(std::max(0.0, now_virtual) /
                                           bucket_seconds_));
  MutexLock lock(mutex_);
  auto& ring = rings_[p];
  Bucket& bucket = ring[static_cast<std::size_t>(index) % ring.size()];
  if (bucket.index != index) {
    bucket.index = index;  // slot recycled from a lap ago (or first use)
    bucket.good = 0;
    bucket.total = 0;
  }
  bucket.total += 1;
  if (good) {
    bucket.good += 1;
  }
  recorded_ += 1;
}

SloMonitor::Burn SloMonitor::burn_locked(api::Priority priority,
                                         double window_seconds, double target,
                                         double now_virtual) const {
  Burn burn;
  const std::size_t p = priority_index(priority);
  if (p >= api::kNumPriorities) {
    return burn;
  }
  const auto& ring = rings_[p];
  for (const Bucket& bucket : ring) {
    if (bucket.index < 0) {
      continue;
    }
    const double start = static_cast<double>(bucket.index) * bucket_seconds_;
    // Count buckets overlapping (now - window, now]; stale slots a lap
    // behind fail the first test and are skipped.
    if (start <= now_virtual && start + bucket_seconds_ > now_virtual - window_seconds) {
      burn.good += bucket.good;
      burn.total += bucket.total;
    }
  }
  if (burn.total > 0) {
    const double budget = std::max(1e-9, 1.0 - target);
    const double bad = static_cast<double>(burn.total - burn.good);
    burn.rate = (bad / static_cast<double>(burn.total)) / budget;
  }
  return burn;
}

SloMonitor::Burn SloMonitor::burn(api::Priority priority, double window_seconds,
                                  double target, double now_virtual) const {
  MutexLock lock(mutex_);
  return burn_locked(priority, window_seconds, target, now_virtual);
}

std::vector<AlertTransition> SloMonitor::evaluate(double now_virtual) {
  std::vector<AlertTransition> transitions;
  MutexLock lock(mutex_);
  for (RuleState& state : rules_) {
    const SloRule& rule = state.rule;
    const Burn fast = burn_locked(rule.priority, rule.fast_window_seconds,
                                  rule.attainment_target, now_virtual);
    const Burn slow = burn_locked(rule.priority, rule.slow_window_seconds,
                                  rule.attainment_target, now_virtual);
    const auto transition = [&](api::AlertState next) {
      state.state = next;
      state.since_virtual = now_virtual;
      AlertTransition event;
      event.rule = rule.name;
      event.priority = rule.priority;
      event.state = next;
      event.at_virtual = now_virtual;
      event.fast_burn = fast.rate;
      event.slow_burn = slow.rate;
      transitions.push_back(std::move(event));
    };
    switch (state.state) {
      case api::AlertState::kResolved:
        // A resolved alert decays silently; then fall through to be
        // re-armed in the same evaluation if the burn is back.
        state.state = api::AlertState::kInactive;
        [[fallthrough]];
      case api::AlertState::kInactive:
        if (fast.total >= rule.min_samples && fast.rate >= rule.burn_threshold) {
          transition(api::AlertState::kPending);
        }
        break;
      case api::AlertState::kPending:
        if (fast.rate >= rule.burn_threshold &&
            slow.rate >= rule.burn_threshold) {
          transition(api::AlertState::kFiring);
        } else if (fast.rate < rule.clear_threshold) {
          transition(api::AlertState::kInactive);
        }
        break;
      case api::AlertState::kFiring:
        if (fast.rate < rule.clear_threshold) {
          transition(api::AlertState::kResolved);
        }
        break;
    }
  }
  return transitions;
}

std::vector<api::AlertInfo> SloMonitor::alerts(double now_virtual) const {
  std::vector<api::AlertInfo> out;
  MutexLock lock(mutex_);
  out.reserve(rules_.size());
  for (const RuleState& state : rules_) {
    const SloRule& rule = state.rule;
    api::AlertInfo info;
    info.rule = rule.name;
    info.priority = rule.priority;
    info.state = state.state;
    info.fast_burn = burn_locked(rule.priority, rule.fast_window_seconds,
                                 rule.attainment_target, now_virtual)
                         .rate;
    info.slow_burn = burn_locked(rule.priority, rule.slow_window_seconds,
                                 rule.attainment_target, now_virtual)
                         .rate;
    info.since_virtual = state.since_virtual;
    out.push_back(std::move(info));
  }
  return out;
}

std::uint64_t SloMonitor::recorded_total() const {
  MutexLock lock(mutex_);
  return recorded_;
}

}  // namespace qon::obs
