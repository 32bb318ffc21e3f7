#pragma once
// Declarative campaign profiles: the yamlite schema describing a scenario
// campaign — arrival process, tenant mix (per-tenant api::JobPreferences
// distributions), fleet/scheduler/admission knobs, churn events and SLO
// targets — plus the parser that turns profile text into a validated
// CampaignProfile. Malformed or out-of-range profiles surface as a typed
// INVALID_ARGUMENT (yamlite's ParseError never crosses this boundary).
//
// Schema (all sections optional except `tenants`; see profiles/README.md):
//
//   campaign:
//     name: heavy_tailed          # [a-zA-Z0-9_-]+, names the artifacts
//     seed: 42
//     duration_hours: 48          # virtual-time horizon
//     target_runs: 1000000        # stop after N arrivals; 0 = horizon only
//     stats_interval_seconds: 3600
//     pacing: lockstep            # lockstep | windowed
//   arrivals:
//     process: pareto             # poisson | diurnal | pareto | flash_crowd
//     rate_per_hour: 1500
//     pareto_alpha: 1.6           # per-process extras, see ArrivalSpec
//   fleet:
//     num_qpus: 4
//     executor_threads: 1
//     trajectory_width_limit: 0
//     max_terminal_runs: 2048
//   scheduler:                    # core::SchedulerServiceConfig knobs
//     queue_threshold: 500
//     interval_seconds: 120
//     queue_capacity: 4096
//   admission:                    # core::AdmissionConfig knobs
//     max_live_runs: 0
//   tenants:
//     - name: interactive-small
//       weight: 0.2
//       priority: interactive     # batch | standard | interactive
//       circuit: ghz              # benchmark family (circuit/library.hpp)
//       width: 4
//       shots: 512
//       fidelity_weight: 0.7
//       deadline_offset_seconds: 300        # fixed relative deadline
//       deadline_offset_max_seconds: 600    # optional: uniform in [min,max]
//   slo:
//     interactive_seconds: 600
//     standard_seconds: 1800
//     batch_seconds: 7200
//   churn:
//     - at_hours: 10
//       action: qpu_offline       # qpu_offline | qpu_online | recalibrate
//       qpu: auckland
//   alerts:                       # SLO burn-rate rules (see CampaignProfile)
//     - name: interactive-burn
//       priority: interactive
//       attainment_target: 0.9
//
// Determinism contract: with `pacing: lockstep` the whole campaign is a
// pure function of the profile (see campaign/driver.hpp) at any
// executor_threads. The parser enforces the structural part — lockstep
// requires max_batch_size == 0 so every scheduling cycle is a full-queue
// threshold cycle at a deterministic virtual instant.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/result.hpp"
#include "api/types.hpp"
#include "campaign/arrivals.hpp"
#include "circuit/library.hpp"
#include "core/orchestrator.hpp"

namespace qon::campaign {

/// How the driver paces arrivals against the real orchestrator.
///   kLockstep — deterministic: arrivals are admitted in groups of exactly
///               queue_threshold parked tasks, each group's scheduling
///               cycle settles fully before the next group starts.
///   kWindowed — throughput mode: arrivals stream with a bounded
///               outstanding window; cycle boundaries are real-time races
///               and two runs of the same seed may differ.
enum class PacingMode { kLockstep, kWindowed };

const char* pacing_mode_name(PacingMode mode);

/// One tenant class of the workload mix. Each tenant deploys one workflow
/// image (a single quantum task of the given benchmark circuit) at
/// campaign start; arrivals sample tenants by weight.
struct TenantSpec {
  std::string name;
  double weight = 1.0;
  api::Priority priority = api::Priority::kStandard;
  circuit::BenchmarkFamily family = circuit::BenchmarkFamily::kGhz;
  int width = 4;
  int shots = 1024;
  /// Per-job MCDM preference; unset = the deployment default.
  std::optional<double> fidelity_weight;
  /// Relative deadline drawn uniformly in [min, max] seconds after the
  /// arrival instant; max == 0 means no deadline.
  double deadline_offset_min_seconds = 0.0;
  double deadline_offset_max_seconds = 0.0;
};

enum class ChurnAction { kQpuOffline, kQpuOnline, kRecalibrate };

const char* churn_action_name(ChurnAction action);

/// One scheduled fleet event on the virtual clock.
struct ChurnEvent {
  double at_seconds = 0.0;
  ChurnAction action = ChurnAction::kRecalibrate;
  std::string qpu;  ///< monitor name; empty for kRecalibrate (whole fleet)
};

struct CampaignProfile {
  std::string name = "campaign";
  std::uint64_t seed = 2025;
  double duration_hours = 1.0;
  /// Stop after this many arrivals (0 = run to the horizon only).
  std::uint64_t target_runs = 0;
  /// Minimum virtual time between streamed stats rows.
  double stats_interval_seconds = 3600.0;
  PacingMode pacing = PacingMode::kLockstep;

  ArrivalSpec arrivals;

  // Fleet / orchestrator knobs the profile exposes.
  std::size_t num_qpus = 4;
  std::size_t executor_threads = 1;
  int trajectory_width_limit = 0;
  /// Run-table retention bound — what keeps a million-run campaign's
  /// resident memory flat.
  std::size_t max_terminal_runs = 2048;

  core::SchedulerServiceConfig scheduler;
  core::AdmissionConfig admission;

  std::vector<TenantSpec> tenants;
  /// Sorted by at_seconds (the parser sorts).
  std::vector<ChurnEvent> churn;

  /// Per-class end-to-end latency SLO, indexed by api::Priority; 0 = no
  /// target for that class.
  std::array<double, api::kNumPriorities> slo_seconds{};

  /// SLO burn-rate alert rules (`alerts:` section), evaluated by the
  /// driver at each stats interval on the virtual clock — the alert
  /// timeline is part of the deterministic byte-identical contract. Each
  /// rule's priority class must have a non-zero slo_seconds target.
  ///
  /// YAML schema (all fields except `name`/`priority` optional):
  ///   alerts:
  ///     - name: interactive-burn
  ///       priority: interactive
  ///       attainment_target: 0.9   # error budget = 1 - target
  ///       fast_window_seconds: 600
  ///       slow_window_seconds: 3600
  ///       burn_threshold: 2.0      # fire at >= this budget-burn multiple
  ///       clear_threshold: 1.0     # resolve below this (hysteresis)
  ///       min_samples: 20          # fast-window floor before any verdict
  std::vector<obs::SloRule> alerts;
};

/// Parses and validates profile text. Every failure — yamlite parse
/// errors, unknown enums, out-of-range knobs, lockstep constraint
/// violations — returns INVALID_ARGUMENT with a message naming the field.
api::Result<CampaignProfile> parse_profile(const std::string& text);

/// Reads `path` and parses it; NOT_FOUND when the file cannot be read.
api::Result<CampaignProfile> load_profile_file(const std::string& path);

/// The orchestrator configuration a campaign runs with: the profile's
/// fleet/scheduler/admission knobs plus the campaign hard-codes — tracing
/// off (a million traces would defeat the bounded-memory contract),
/// metrics on, and a lockstep-safe linger.
core::QonductorConfig make_orchestrator_config(const CampaignProfile& profile);

}  // namespace qon::campaign
