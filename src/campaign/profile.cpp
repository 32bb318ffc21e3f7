#include "campaign/profile.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "yamlite/yamlite.hpp"

namespace qon::campaign {

namespace {

/// Parse-time failures below yamlite level; wrapped into INVALID_ARGUMENT
/// by parse_profile's catch-all.
[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error(message);
}

/// Typo guard: every section rejects keys it does not know, so a profile
/// that misspells `queue_threshold` fails loudly instead of silently
/// running with the default.
void check_keys(const yaml::Node& node, const std::vector<std::string>& allowed,
                const std::string& section) {
  if (!node.is_mapping()) fail(section + ": expected a mapping");
  for (const auto& [key, value] : node.entries()) {
    (void)value;
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      fail(section + ": unknown key '" + key + "'");
    }
  }
}

double get_double(const yaml::Node& node, const std::string& key, double fallback) {
  return node.is_mapping() ? node.get(key).as_double_or(fallback) : fallback;
}

long long get_int(const yaml::Node& node, const std::string& key, long long fallback) {
  return node.is_mapping() ? node.get(key).as_int_or(fallback) : fallback;
}

std::string get_string(const yaml::Node& node, const std::string& key,
                       const std::string& fallback) {
  return node.is_mapping() ? node.get(key).as_string_or(fallback) : fallback;
}

std::size_t get_size(const yaml::Node& node, const std::string& key,
                     std::size_t fallback, const std::string& section) {
  const long long value = get_int(node, key, static_cast<long long>(fallback));
  if (value < 0) fail(section + ": " + key + " must be >= 0");
  return static_cast<std::size_t>(value);
}

ArrivalKind parse_arrival_kind(const std::string& name) {
  for (const ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kDiurnal, ArrivalKind::kPareto,
        ArrivalKind::kFlashCrowd}) {
    if (name == arrival_kind_name(kind)) return kind;
  }
  fail("arrivals: unknown process '" + name +
       "' (expected poisson | diurnal | pareto | flash_crowd)");
}

api::Priority parse_priority(const std::string& name,
                             const std::string& section = "tenant") {
  for (const api::Priority p : {api::Priority::kBatch, api::Priority::kStandard,
                                api::Priority::kInteractive}) {
    if (name == api::priority_name(p)) return p;
  }
  fail(section + ": unknown priority '" + name +
       "' (expected batch | standard | interactive)");
}

circuit::BenchmarkFamily parse_family(const std::string& name) {
  for (const auto family : circuit::all_benchmark_families()) {
    if (name == circuit::benchmark_family_name(family)) return family;
  }
  fail("tenant: unknown circuit family '" + name + "'");
}

ChurnAction parse_churn_action(const std::string& name) {
  for (const ChurnAction action :
       {ChurnAction::kQpuOffline, ChurnAction::kQpuOnline, ChurnAction::kRecalibrate}) {
    if (name == churn_action_name(action)) return action;
  }
  fail("churn: unknown action '" + name +
       "' (expected qpu_offline | qpu_online | recalibrate)");
}

void parse_campaign_section(const yaml::Node& node, CampaignProfile& profile) {
  check_keys(node,
             {"name", "seed", "duration_hours", "target_runs",
              "stats_interval_seconds", "pacing"},
             "campaign");
  profile.name = get_string(node, "name", profile.name);
  const long long seed = get_int(node, "seed", static_cast<long long>(profile.seed));
  if (seed < 0) fail("campaign: seed must be >= 0");
  profile.seed = static_cast<std::uint64_t>(seed);
  profile.duration_hours = get_double(node, "duration_hours", profile.duration_hours);
  const long long target = get_int(node, "target_runs", 0);
  if (target < 0) fail("campaign: target_runs must be >= 0");
  profile.target_runs = static_cast<std::uint64_t>(target);
  profile.stats_interval_seconds =
      get_double(node, "stats_interval_seconds", profile.stats_interval_seconds);
  const std::string pacing = get_string(node, "pacing", "lockstep");
  if (pacing == pacing_mode_name(PacingMode::kLockstep)) {
    profile.pacing = PacingMode::kLockstep;
  } else if (pacing == pacing_mode_name(PacingMode::kWindowed)) {
    profile.pacing = PacingMode::kWindowed;
  } else {
    fail("campaign: unknown pacing '" + pacing + "' (expected lockstep | windowed)");
  }
}

void parse_arrivals_section(const yaml::Node& node, CampaignProfile& profile) {
  check_keys(node,
             {"process", "rate_per_hour", "diurnal_low_ratio", "diurnal_high_ratio",
              "period_hours", "pareto_alpha", "spike_start_hours",
              "spike_duration_hours", "spike_multiplier"},
             "arrivals");
  ArrivalSpec& spec = profile.arrivals;
  spec.kind = parse_arrival_kind(get_string(node, "process", "poisson"));
  spec.rate_per_hour = get_double(node, "rate_per_hour", spec.rate_per_hour);
  spec.diurnal_low_ratio = get_double(node, "diurnal_low_ratio", spec.diurnal_low_ratio);
  spec.diurnal_high_ratio =
      get_double(node, "diurnal_high_ratio", spec.diurnal_high_ratio);
  spec.period_hours = get_double(node, "period_hours", spec.period_hours);
  spec.pareto_alpha = get_double(node, "pareto_alpha", spec.pareto_alpha);
  spec.spike_start_hours = get_double(node, "spike_start_hours", spec.spike_start_hours);
  spec.spike_duration_hours =
      get_double(node, "spike_duration_hours", spec.spike_duration_hours);
  spec.spike_multiplier = get_double(node, "spike_multiplier", spec.spike_multiplier);
}

void parse_fleet_section(const yaml::Node& node, CampaignProfile& profile) {
  check_keys(node,
             {"num_qpus", "executor_threads", "trajectory_width_limit",
              "max_terminal_runs"},
             "fleet");
  profile.num_qpus = get_size(node, "num_qpus", profile.num_qpus, "fleet");
  profile.executor_threads =
      get_size(node, "executor_threads", profile.executor_threads, "fleet");
  const long long width_limit =
      get_int(node, "trajectory_width_limit", profile.trajectory_width_limit);
  if (width_limit < 0) fail("fleet: trajectory_width_limit must be >= 0");
  profile.trajectory_width_limit = static_cast<int>(width_limit);
  profile.max_terminal_runs =
      get_size(node, "max_terminal_runs", profile.max_terminal_runs, "fleet");
}

void parse_scheduler_section(const yaml::Node& node, CampaignProfile& profile) {
  check_keys(node,
             {"queue_threshold", "interval_seconds", "queue_capacity",
              "max_batch_size", "aging_seconds", "stats_cycle_history"},
             "scheduler");
  auto& sched = profile.scheduler;
  sched.queue_threshold =
      get_size(node, "queue_threshold", sched.queue_threshold, "scheduler");
  sched.interval_seconds = get_double(node, "interval_seconds", sched.interval_seconds);
  sched.queue_capacity =
      get_size(node, "queue_capacity", sched.queue_capacity, "scheduler");
  sched.max_batch_size =
      get_size(node, "max_batch_size", sched.max_batch_size, "scheduler");
  sched.aging_seconds = get_double(node, "aging_seconds", sched.aging_seconds);
  sched.stats_cycle_history =
      get_size(node, "stats_cycle_history", sched.stats_cycle_history, "scheduler");
}

void parse_admission_section(const yaml::Node& node, CampaignProfile& profile) {
  check_keys(node,
             {"max_live_runs", "shed_batch_at", "shed_standard_at",
              "retry_after_seconds"},
             "admission");
  auto& admission = profile.admission;
  admission.max_live_runs =
      get_size(node, "max_live_runs", admission.max_live_runs, "admission");
  admission.shed_batch_at = get_double(node, "shed_batch_at", admission.shed_batch_at);
  admission.shed_standard_at =
      get_double(node, "shed_standard_at", admission.shed_standard_at);
  admission.retry_after_seconds =
      get_double(node, "retry_after_seconds", admission.retry_after_seconds);
}

void parse_tenants_section(const yaml::Node& node, CampaignProfile& profile) {
  if (!node.is_sequence()) fail("tenants: expected a sequence");
  for (const auto& entry : node.items()) {
    check_keys(entry,
               {"name", "weight", "priority", "circuit", "width", "shots",
                "fidelity_weight", "deadline_offset_seconds",
                "deadline_offset_max_seconds"},
               "tenant");
    TenantSpec tenant;
    tenant.name = get_string(entry, "name", "");
    if (tenant.name.empty()) fail("tenant: name must be non-empty");
    tenant.weight = get_double(entry, "weight", tenant.weight);
    if (!(tenant.weight > 0.0)) fail("tenant '" + tenant.name + "': weight must be > 0");
    tenant.priority = parse_priority(get_string(entry, "priority", "standard"));
    tenant.family = parse_family(get_string(entry, "circuit", "ghz"));
    const long long width = get_int(entry, "width", tenant.width);
    if (width < 2 || width > 27) {
      fail("tenant '" + tenant.name + "': width must be in [2, 27]");
    }
    tenant.width = static_cast<int>(width);
    const long long shots = get_int(entry, "shots", tenant.shots);
    if (shots <= 0) fail("tenant '" + tenant.name + "': shots must be > 0");
    tenant.shots = static_cast<int>(shots);
    if (entry.is_mapping() && entry.has("fidelity_weight")) {
      const double weight = entry.at("fidelity_weight").as_double();
      if (weight < 0.0 || weight > 1.0) {
        fail("tenant '" + tenant.name + "': fidelity_weight must be in [0, 1]");
      }
      tenant.fidelity_weight = weight;
    }
    tenant.deadline_offset_min_seconds =
        get_double(entry, "deadline_offset_seconds", 0.0);
    tenant.deadline_offset_max_seconds = get_double(
        entry, "deadline_offset_max_seconds", tenant.deadline_offset_min_seconds);
    if (tenant.deadline_offset_min_seconds < 0.0 ||
        tenant.deadline_offset_max_seconds < tenant.deadline_offset_min_seconds) {
      fail("tenant '" + tenant.name +
           "': deadline offsets must satisfy 0 <= min <= max");
    }
    profile.tenants.push_back(std::move(tenant));
  }
}

void parse_slo_section(const yaml::Node& node, CampaignProfile& profile) {
  check_keys(node, {"batch_seconds", "standard_seconds", "interactive_seconds"},
             "slo");
  const auto set = [&](api::Priority p, const char* key) {
    profile.slo_seconds[static_cast<std::size_t>(p)] = get_double(node, key, 0.0);
  };
  set(api::Priority::kBatch, "batch_seconds");
  set(api::Priority::kStandard, "standard_seconds");
  set(api::Priority::kInteractive, "interactive_seconds");
}

void parse_churn_section(const yaml::Node& node, CampaignProfile& profile) {
  if (!node.is_sequence()) fail("churn: expected a sequence");
  for (const auto& entry : node.items()) {
    check_keys(entry, {"at_hours", "action", "qpu"}, "churn");
    ChurnEvent event;
    const double at_hours = get_double(entry, "at_hours", -1.0);
    if (at_hours < 0.0) fail("churn: at_hours must be >= 0");
    event.at_seconds = at_hours * 3600.0;
    event.action = parse_churn_action(get_string(entry, "action", ""));
    event.qpu = get_string(entry, "qpu", "");
    if (event.action != ChurnAction::kRecalibrate && event.qpu.empty()) {
      fail("churn: qpu_offline/qpu_online events need a qpu name");
    }
    profile.churn.push_back(std::move(event));
  }
  std::stable_sort(profile.churn.begin(), profile.churn.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) {
                     return a.at_seconds < b.at_seconds;
                   });
}

void parse_alerts_section(const yaml::Node& node, CampaignProfile& profile) {
  if (!node.is_sequence()) fail("alerts: expected a sequence");
  for (const auto& entry : node.items()) {
    check_keys(entry,
               {"name", "priority", "attainment_target", "fast_window_seconds",
                "slow_window_seconds", "burn_threshold", "clear_threshold",
                "min_samples"},
               "alert");
    obs::SloRule rule;
    rule.name = get_string(entry, "name", "");
    if (rule.name.empty()) fail("alert: name must be non-empty");
    rule.priority = parse_priority(get_string(entry, "priority", "standard"),
                                   "alert '" + rule.name + "'");
    rule.attainment_target =
        get_double(entry, "attainment_target", rule.attainment_target);
    rule.fast_window_seconds =
        get_double(entry, "fast_window_seconds", rule.fast_window_seconds);
    rule.slow_window_seconds =
        get_double(entry, "slow_window_seconds", rule.slow_window_seconds);
    rule.burn_threshold = get_double(entry, "burn_threshold", rule.burn_threshold);
    rule.clear_threshold =
        get_double(entry, "clear_threshold", rule.clear_threshold);
    rule.min_samples = get_size(entry, "min_samples", rule.min_samples, "alert");
    profile.alerts.push_back(std::move(rule));
  }
}

void validate_profile(const CampaignProfile& profile) {
  if (profile.name.empty()) fail("campaign: name must be non-empty");
  for (const char c : profile.name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' && c != '-') {
      // The name lands in artifact file names (BENCH_campaign_<name>.json).
      fail("campaign: name must match [A-Za-z0-9_-]+");
    }
  }
  if (!(profile.duration_hours > 0.0)) fail("campaign: duration_hours must be > 0");
  if (!(profile.stats_interval_seconds > 0.0)) {
    fail("campaign: stats_interval_seconds must be > 0");
  }
  try {
    ArrivalProcess probe(profile.arrivals);  // ctor validates the spec
  } catch (const std::invalid_argument& e) {
    fail(std::string("arrivals: ") + e.what());
  }
  if (profile.num_qpus == 0) fail("fleet: num_qpus must be > 0");
  if (profile.executor_threads == 0) fail("fleet: executor_threads must be > 0");
  if (profile.tenants.empty()) fail("tenants: at least one tenant is required");
  const api::Status sched_status = core::validate_scheduler_config(profile.scheduler);
  if (!sched_status.ok()) fail(sched_status.message());
  const api::Status admission_status =
      core::validate_admission_config(profile.admission);
  if (!admission_status.ok()) fail(admission_status.message());
  const api::Status slo_status =
      obs::validate_slo_config(profile.slo_seconds, profile.alerts);
  if (!slo_status.ok()) fail(slo_status.message());
  if (profile.pacing == PacingMode::kLockstep) {
    // The determinism contract: a full-queue cycle leaves nothing behind
    // for a racy timer fire. Any engine worker count is fine — the driver
    // serializes parks, and execution is order-independent.
    if (profile.scheduler.max_batch_size != 0) {
      fail("campaign: pacing lockstep requires max_batch_size == 0 "
           "(a capped cycle leaves a remainder for a nondeterministic timer fire)");
    }
    if (profile.admission.max_live_runs != 0 &&
        profile.admission.max_live_runs < profile.scheduler.queue_threshold) {
      // Live runs in lockstep equal the in-flight group; a gate tighter
      // than the group size means no group can ever fill — the campaign
      // would stall until the real-time linger fired nondeterministically.
      fail("campaign: pacing lockstep requires max_live_runs >= queue_threshold "
           "(a tighter gate starves the threshold group)");
    }
  }
}

}  // namespace

const char* pacing_mode_name(PacingMode mode) {
  switch (mode) {
    case PacingMode::kLockstep: return "lockstep";
    case PacingMode::kWindowed: return "windowed";
  }
  return "?";
}

const char* churn_action_name(ChurnAction action) {
  switch (action) {
    case ChurnAction::kQpuOffline: return "qpu_offline";
    case ChurnAction::kQpuOnline: return "qpu_online";
    case ChurnAction::kRecalibrate: return "recalibrate";
  }
  return "?";
}

api::Result<CampaignProfile> parse_profile(const std::string& text) {
  yaml::Node root;
  try {
    root = yaml::parse(text);
  } catch (const yaml::ParseError& e) {
    return api::InvalidArgument(std::string("campaign profile: ") + e.what());
  }
  try {
    if (!root.is_mapping()) {
      fail("top level must be a mapping with campaign/arrivals/tenants sections");
    }
    check_keys(root,
               {"campaign", "arrivals", "fleet", "scheduler", "admission",
                "tenants", "slo", "churn", "alerts"},
               "profile");
    CampaignProfile profile;
    if (root.has("campaign")) parse_campaign_section(root.at("campaign"), profile);
    if (root.has("arrivals")) parse_arrivals_section(root.at("arrivals"), profile);
    if (root.has("fleet")) parse_fleet_section(root.at("fleet"), profile);
    if (root.has("scheduler")) parse_scheduler_section(root.at("scheduler"), profile);
    if (root.has("admission")) parse_admission_section(root.at("admission"), profile);
    if (root.has("tenants")) parse_tenants_section(root.at("tenants"), profile);
    if (root.has("slo")) parse_slo_section(root.at("slo"), profile);
    if (root.has("churn")) parse_churn_section(root.at("churn"), profile);
    if (root.has("alerts")) parse_alerts_section(root.at("alerts"), profile);
    validate_profile(profile);
    return profile;
  } catch (const std::exception& e) {
    // yamlite accessor misuse (std::logic_error / std::out_of_range) and
    // the fail() paths above all land here: malformed profile, typed error.
    return api::InvalidArgument(std::string("campaign profile: ") + e.what());
  }
}

api::Result<CampaignProfile> load_profile_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return api::NotFound("campaign profile: cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return parse_profile(text.str());
}

core::QonductorConfig make_orchestrator_config(const CampaignProfile& profile) {
  core::QonductorConfig config;
  config.num_qpus = profile.num_qpus;
  config.seed = profile.seed;
  config.executor_threads = profile.executor_threads;
  config.trajectory_width_limit = profile.trajectory_width_limit;
  config.scheduler_service = profile.scheduler;
  if (profile.pacing == PacingMode::kLockstep) {
    // The linger is the real-time grace before a nondeterministic timer
    // fire; lockstep groups park within microseconds, so a large linger is
    // never actually waited on — it only guards cycle determinism against
    // a slow machine.
    config.scheduler_service.linger = std::chrono::milliseconds(10000);
  }
  config.admission = profile.admission;
  config.retention.max_terminal_runs = profile.max_terminal_runs;
  config.telemetry.tracing = false;
  config.telemetry.metrics = true;
  return config;
}

}  // namespace qon::campaign
