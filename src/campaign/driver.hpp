#pragma once
// The campaign driver: loads a CampaignProfile, stands up the REAL
// api::QonductorClient / orchestrator / scheduler-service stack, and
// drives profile arrivals through it on the fleet virtual clock — a
// million runs of virtual time in minutes of wall time, with per-interval
// stats streaming to a JSONL/CSV sink and a final CampaignReport.
//
// Pacing modes (see PacingMode in profile.hpp):
//
//   lockstep — the determinism contract. Arrivals are admitted in groups
//     of exactly queue_threshold parked tasks; after each admitted run the
//     driver waits for the park to land in the pending queue, and after
//     the group's threshold cycle fires it waits every member to settle
//     before advancing the clock again. Every scheduling cycle is a
//     threshold cycle at a deterministic virtual instant, the cycle books
//     each task's QPU window at dispatch, and each execution draws from its
//     own per-task stream — so two campaigns with the same profile produce
//     byte-identical stats streams and identical (wall-excluded) reports
//     at any number of engine workers.
//
//   windowed — throughput mode. Arrivals stream with a bounded window of
//     outstanding runs; real-time cycle races make outcomes vary run to
//     run. Use it to measure, not to reproduce.
//
// Memory stays bounded regardless of campaign length: the run table keeps
// max_terminal_runs terminal records, tracing is off, stats stream out
// through the batched sink, and latency distributions accumulate into
// fixed-size log-bucket grids.

#include <string>

#include "api/result.hpp"
#include "campaign/profile.hpp"
#include "campaign/report.hpp"
#include "campaign/sink.hpp"

namespace qon::campaign {

struct CampaignOptions {
  /// Per-interval stats stream destination; empty = no stream.
  std::string stats_path;
  StatsFormat stats_format = StatsFormat::kJsonl;
  /// Rows buffered per sink write (COutput-style batching).
  std::size_t sink_batch_rows = 64;
  /// Coarse progress lines on stderr (wall-clock side channel; never
  /// touches the stats stream).
  bool print_progress = false;
  /// Alert-timeline stream destination (one row per SLO alert state
  /// transition, same format as the stats stream); empty = no stream.
  /// Only written when the profile configures `alerts:` rules.
  std::string alerts_path;
};

/// The streamed row schema, in column order (all cells numeric).
const std::vector<std::string>& campaign_stats_columns();

/// The alert-timeline row schema, in column order (rule/priority/state
/// cells are JSON strings, the rest numeric).
const std::vector<std::string>& campaign_alert_columns();

/// Runs the campaign described by `profile` end to end. FAILED_PRECONDITION
/// naming the path when the stats or alerts stream cannot be opened (checked
/// before the stack stands up); INVALID_ARGUMENT for churn events naming
/// unknown QPUs; INTERNAL when the stack fails to stand up; otherwise the
/// final report.
api::Result<CampaignReport> run_campaign(const CampaignProfile& profile,
                                         const CampaignOptions& options = {});

}  // namespace qon::campaign
