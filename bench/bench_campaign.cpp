// Campaign harness entry point: load a profile, run it against the real
// orchestrator stack, stream per-interval stats, and write the final
// BENCH_campaign_<profile>.json report.
//
//   bench_campaign [profile.yaml]        (default: profiles/diurnal.yaml)
//
// Artifacts land in $QON_BENCH_DIR (CI's upload directory) or the working
// directory:
//   BENCH_campaign_<name>.json           final report
//   BENCH_campaign_<name>_stats.jsonl    per-interval stream
//
// With `pacing: lockstep` profiles, two runs produce byte-identical stats
// streams and identical reports modulo lines containing "wall" — the CI
// smoke job asserts exactly that.

#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "bench_util.hpp"
#include "campaign/driver.hpp"

int main(int argc, char** argv) {
  using namespace qon;

  const std::string profile_path = argc > 1 ? argv[1] : "profiles/diurnal.yaml";
  const auto profile = campaign::load_profile_file(profile_path);
  if (!profile.ok()) {
    std::fprintf(stderr, "bench_campaign: %s\n", profile.status().to_string().c_str());
    return 1;
  }

  bench::print_header("campaign " + profile->name,
                      "profile-driven scenario campaign against the real "
                      "orchestrator (" +
                          std::string(campaign::arrival_kind_name(
                              profile->arrivals.kind)) +
                          " arrivals, pacing " +
                          campaign::pacing_mode_name(profile->pacing) + ")");

  campaign::CampaignOptions options;
  options.stats_path =
      bench::artifact_path("BENCH_campaign_" + profile->name + "_stats.jsonl");
  options.stats_format = campaign::StatsFormat::kJsonl;
  options.print_progress = true;
  // Only written when the profile has an `alerts:` section.
  options.alerts_path =
      bench::artifact_path("BENCH_campaign_" + profile->name + "_alerts.jsonl");

  const auto report = campaign::run_campaign(*profile, options);
  if (!report.ok()) {
    std::fprintf(stderr, "bench_campaign: %s\n", report.status().to_string().c_str());
    return 1;
  }

  campaign::print_slo_table(std::cout, *report);
  std::cout << "\narrivals " << report->arrivals << ", admitted " << report->admitted
            << ", shed " << report->shed << ", completed " << report->completed
            << ", failed " << report->failed << ", cycles " << report->sched_cycles
            << "\nvirtual duration " << report->virtual_duration_seconds / 3600.0
            << " h, wall " << report->wall_seconds << " s ("
            << (report->wall_seconds > 0.0
                    ? static_cast<double>(report->arrivals) / report->wall_seconds
                    : 0.0)
            << " runs/s wall)\n";

  const std::string report_path =
      bench::artifact_path("BENCH_campaign_" + profile->name + ".json");
  try {
    campaign::write_report_json(*report, report_path);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "bench_campaign: %s\n", e.what());
    return 1;
  }
  std::cout << "report: " << report_path << "\nstats:  " << options.stats_path
            << " (" << report->stats_rows << " rows)\n";
  return 0;
}
