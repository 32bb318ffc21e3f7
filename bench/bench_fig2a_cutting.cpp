// Figure 2a — Impact of circuit cutting: relative increase in classical
// runtime, quantum runtime and execution fidelity when 12- and 24-qubit
// circuits are cut in half and the fragments run sequentially on the same
// QPU. Paper (24q): classical ~2.5x, quantum ~12x, fidelity ~450x.
//
// Workload: QAOA over a clustered graph (two dense halves, one bridge
// edge) — the weakly-coupled structure circuit knitting targets. The
// fidelity gain comes from the fragments needing far less SWAP routing and
// idle time than the full-width circuit on the heavy-hex topology.

#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "circuit/library.hpp"
#include "mitigation/cutting.hpp"
#include "mitigation/pipeline.hpp"
#include "qpu/fleet.hpp"
#include "simulator/esp.hpp"
#include "transpiler/transpiler.hpp"

namespace {

using namespace qon;

// Two moderately dense clusters of size n/2 joined by a single bridge edge.
// Density 0.12 keeps the uncut 24-qubit fidelity around 1e-3..1e-4 — the
// regime where the paper observes the ~450x knitting uplift.
circuit::Graph clustered_graph(int n, std::uint64_t seed) {
  Rng rng(seed);
  circuit::Graph g;
  g.num_vertices = n;
  const int half = n / 2;
  auto add_cluster = [&](int lo, int hi) {
    // Connect a spanning chain first so each cluster is connected.
    for (int a = lo; a + 1 < hi; ++a) g.edges.emplace_back(a, a + 1);
    for (int a = lo; a < hi; ++a) {
      for (int b = a + 2; b < hi; ++b) {
        if (rng.bernoulli(0.12)) g.edges.emplace_back(a, b);
      }
    }
  };
  add_cluster(0, half);
  add_cluster(half, n);
  g.edges.emplace_back(half - 1, half);  // the single bridge
  return g;
}

struct CuttingImpact {
  double classical_x = 0.0;
  double quantum_x = 0.0;
  double fidelity_x = 0.0;
  std::size_t cuts = 0;
};

// Classical base processing (compilation + result aggregation) of one
// circuit execution; fragments pay it once each, plus knit reconstruction.
constexpr double kBaseClassicalSeconds = 0.6;

CuttingImpact measure(int width, std::uint64_t seed) {
  const auto fleet = qpu::make_ibm_like_fleet(1, seed);
  const auto& backend = *fleet.backends[0];
  const int shots = 4000;
  const auto circ = circuit::qaoa_maxcut(clustered_graph(width, seed), 1, seed);

  // --- baseline: the whole circuit -----------------------------------------
  const auto whole = transpiler::transpile(circ, backend);
  const double base_fid = sim::esp_fidelity(whole.circuit, backend, sim::HiddenNoise::none());
  const double base_qtime = transpiler::job_quantum_runtime(whole.schedule, shots);
  const double base_ctime = kBaseClassicalSeconds;

  // --- cut: two fragments, knitted ------------------------------------------
  // Cut exactly at the bridge: fragment = one cluster each.
  mitigation::CutPlan plan;
  for (int q = 0; q < width / 2; ++q) plan.group_a.push_back(q);
  for (int q = width / 2; q < width; ++q) plan.group_b.push_back(q);
  const auto cut = mitigation::cut_circuit(circ, plan);
  const auto frag_a = transpiler::transpile(cut.fragment_a, backend);
  const auto frag_b = transpiler::transpile(cut.fragment_b, backend);
  const double fid_a = sim::esp_fidelity(frag_a.circuit, backend, sim::HiddenNoise::none());
  const double fid_b = sim::esp_fidelity(frag_b.circuit, backend, sim::HiddenNoise::none());
  const double cut_fid = mitigation::knitted_fidelity(fid_a, fid_b, cut.crossing_gates);
  // Per quasi-probability sampling round, both fragments execute
  // sequentially on the same QPU at full shots (gamma^2 = 9 per cut).
  const double cut_qtime =
      (transpiler::job_quantum_runtime(frag_a.schedule, shots) +
       transpiler::job_quantum_runtime(frag_b.schedule, shots)) *
      cut.sampling_overhead;
  const double knit_seconds = 2e-3 * static_cast<double>(cut.circuit_variants) *
                              static_cast<double>(circ.depth());
  const double cut_ctime = 2.0 * kBaseClassicalSeconds + knit_seconds;

  CuttingImpact impact;
  impact.classical_x = cut_ctime / base_ctime;
  impact.quantum_x = cut_qtime / base_qtime;
  impact.fidelity_x = cut_fid / std::max(base_fid, 1e-12);
  impact.cuts = cut.crossing_gates;
  return impact;
}

}  // namespace

int main() {
  bench::print_header("Figure 2a",
                      "Circuit cutting: relative increase in classical runtime, quantum "
                      "runtime and fidelity (12q vs 24q)");

  qon::TextTable table(
      {"width", "cuts", "classical runtime (x)", "quantum runtime (x)", "fidelity (x)"});
  CuttingImpact impact24;
  for (const int width : {12, 24}) {
    const auto impact = measure(width, 7);
    if (width == 24) impact24 = impact;
    table.add_row({std::to_string(width) + " qubits", std::to_string(impact.cuts),
                   qon::TextTable::num(impact.classical_x, 2),
                   qon::TextTable::num(impact.quantum_x, 1),
                   qon::TextTable::num(impact.fidelity_x, 1)});
  }
  table.print(std::cout, "relative increase from cutting");

  bench::print_comparison("24q classical runtime increase", "~2.5x",
                          qon::TextTable::num(impact24.classical_x, 2) + "x");
  bench::print_comparison("24q quantum runtime increase", "~12x",
                          qon::TextTable::num(impact24.quantum_x, 1) + "x");
  bench::print_comparison("24q fidelity increase", "~450x",
                          qon::TextTable::num(impact24.fidelity_x, 0) + "x");
  return 0;
}
