#pragma once
// Shared helpers for the figure/table reproduction harnesses: consistent
// headers and "paper vs measured" comparison rows, so bench output can be
// diffed against EXPERIMENTS.md.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "api/client.hpp"
#include "common/table.hpp"

namespace qon::bench {

inline void print_header(const std::string& experiment, const std::string& description) {
  std::cout << "\n################################################################\n"
            << "# " << experiment << "\n"
            << "# " << description << "\n"
            << "################################################################\n";
}

/// One "paper reports X, we measure Y" comparison line.
inline void print_comparison(const std::string& metric, const std::string& paper,
                             const std::string& measured) {
  TextTable t({"metric", "paper", "measured"});
  t.add_row({metric, paper, measured});
  t.print(std::cout);
}

inline std::string pct(double fraction, int precision = 1) {
  return TextTable::num(100.0 * fraction, precision) + "%";
}

/// Where BENCH_*.json artifacts land: $QON_BENCH_DIR when set (CI points it
/// at the artifact upload directory), else the working directory — so local
/// runs keep their old behavior.
inline std::string artifact_path(const std::string& name) {
  const char* dir = std::getenv("QON_BENCH_DIR");
  if (dir == nullptr || *dir == '\0') return name;
  std::string path(dir);
  if (path.back() != '/') path += '/';
  return path + name;
}

/// The virtual queue waits (enqueue to cycle verdict, seconds) of run
/// `run`'s quantum tasks: the extents of the `queue_wait` spans in its
/// trace. Empty when the trace is unavailable (tracing off, or the run
/// evicted from the tracer's retention window).
inline std::vector<double> queue_waits(const api::QonductorClient& client, api::RunId run) {
  std::vector<double> waits;
  api::GetRunTraceRequest request;
  request.run = run;
  const auto response = client.getRunTrace(request);
  if (!response.ok()) return waits;
  for (const auto& span : response->trace.spans) {
    if (span.name == "queue_wait") waits.push_back(span.virtual_end - span.virtual_start);
  }
  return waits;
}

}  // namespace qon::bench
