// Tests for the circuit IR and the benchmark generator library.
// Several checks use the state-vector simulator to verify semantic
// properties (BV recovers its secret, GHZ is 50/50, W-state is uniform...).

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/circuit.hpp"
#include "circuit/library.hpp"
#include "simulator/metrics.hpp"
#include "simulator/statevector.hpp"

namespace qon::circuit {
namespace {

TEST(Circuit, RejectsBadQubits) {
  Circuit c(2);
  EXPECT_THROW(c.x(2), std::out_of_range);
  EXPECT_THROW(c.x(-1), std::out_of_range);
  EXPECT_THROW(c.cx(0, 0), std::invalid_argument);
  EXPECT_THROW(Circuit(0), std::invalid_argument);
}

TEST(Circuit, DepthCountsDependentChains) {
  Circuit c(3);
  c.h(0);
  c.h(1);      // parallel with h(0)
  c.cx(0, 1);  // depends on both
  c.x(2);      // parallel with everything above
  EXPECT_EQ(c.depth(), 2);
}

TEST(Circuit, BarrierSynchronizesDepth) {
  Circuit c(2);
  c.h(0);
  c.barrier();
  c.x(1);  // after the barrier, so below h(0)
  EXPECT_EQ(c.depth(), 2);
}

TEST(Circuit, GateCountsAndMetrics) {
  Circuit c(3);
  c.h(0);
  c.cx(0, 1);
  c.cx(1, 2);
  c.measure_all();
  EXPECT_EQ(c.two_qubit_gate_count(), 2u);
  EXPECT_EQ(c.operation_count(), 3u);
  EXPECT_EQ(c.measurement_count(), 3u);
  EXPECT_EQ(c.num_clbits(), 3);
  const auto counts = c.gate_counts();
  EXPECT_EQ(counts.at("cx"), 2u);
  EXPECT_EQ(counts.at("measure"), 3u);
}

TEST(Circuit, RespectsCoupling) {
  Circuit c(3);
  c.cx(0, 1);
  c.cx(1, 2);
  const std::vector<std::pair<int, int>> line = {{0, 1}, {1, 2}};
  EXPECT_TRUE(c.respects_coupling(line));
  Circuit far(3);
  far.cx(0, 2);
  EXPECT_FALSE(far.respects_coupling(line));
}

TEST(Circuit, RemappedMovesOperands) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  c.measure_all();
  const Circuit wide = c.remapped({5, 2}, 6);
  EXPECT_EQ(wide.num_qubits(), 6);
  EXPECT_EQ(wide.gates()[1].qubit(0), 5);
  EXPECT_EQ(wide.gates()[1].qubit(1), 2);
  // Classical bits are preserved under remapping.
  EXPECT_EQ(wide.gates()[2].qubits[1], 0);
  EXPECT_EQ(wide.num_clbits(), 2);
}

TEST(Circuit, ExtendAppendsGates) {
  Circuit a(2);
  a.h(0);
  Circuit b(2);
  b.cx(0, 1);
  a.extend(b);
  EXPECT_EQ(a.size(), 2u);
  Circuit wider(3);
  EXPECT_THROW(b.extend(wider), std::invalid_argument);
}

TEST(Circuit, WithoutMeasurementsDropsOnlyMeasures) {
  Circuit c(2);
  c.h(0);
  c.measure_all();
  const Circuit u = c.without_measurements();
  EXPECT_EQ(u.size(), 1u);
  EXPECT_EQ(u.measurement_count(), 0u);
}

// Inverse property: C followed by C.inverse() acts as identity on |0...0>.
class InverseProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InverseProperty, RoundTripsToZeroState) {
  const auto seed = GetParam();
  Circuit c = random_circuit(4, 6, seed).without_measurements();
  Circuit round_trip = c;
  round_trip.extend(c.inverse());
  sim::StateVector sv(4);
  sv.run(round_trip);
  EXPECT_NEAR(std::norm(sv.amplitudes()[0]), 1.0, 1e-9) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, InverseProperty, ::testing::Values(1, 2, 3, 7, 11, 42));

TEST(Library, GhzShape) {
  const Circuit c = ghz(5);
  EXPECT_EQ(c.num_qubits(), 5);
  EXPECT_EQ(c.two_qubit_gate_count(), 4u);
  EXPECT_EQ(c.measurement_count(), 5u);
}

TEST(Library, GhzDistributionIsHalfHalf) {
  const Circuit c = ghz(4);
  const auto dist = sim::ideal_distribution(c);
  ASSERT_EQ(dist.size(), 2u);
  EXPECT_NEAR(dist.at(0), 0.5, 1e-12);
  EXPECT_NEAR(dist.at(0b1111), 0.5, 1e-12);
}

TEST(Library, QftOnZeroIsUniform) {
  const Circuit c = qft(3);
  const auto dist = sim::ideal_distribution(c);
  ASSERT_EQ(dist.size(), 8u);
  for (const auto& [outcome, p] : dist) {
    (void)outcome;
    EXPECT_NEAR(p, 1.0 / 8.0, 1e-9);
  }
}

TEST(Library, BernsteinVaziraniRecoversSecret) {
  const std::vector<bool> secret = {true, false, true, true, false};
  const Circuit c = bernstein_vazirani(secret);
  EXPECT_EQ(c.num_qubits(), 6);  // 5 data + ancilla
  const auto dist = sim::ideal_distribution(c);
  // The data register must read the secret deterministically.
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < secret.size(); ++i) {
    if (secret[i]) expected |= (1ULL << i);
  }
  ASSERT_EQ(dist.size(), 1u);
  EXPECT_NEAR(dist.at(expected), 1.0, 1e-9);
}

TEST(Library, WStateIsUniformOverOneHotOutcomes) {
  const int n = 5;
  const Circuit c = w_state(n);
  const auto dist = sim::ideal_distribution(c);
  ASSERT_EQ(dist.size(), static_cast<std::size_t>(n));
  for (const auto& [outcome, p] : dist) {
    EXPECT_EQ(__builtin_popcountll(outcome), 1) << "outcome not one-hot";
    EXPECT_NEAR(p, 1.0 / n, 1e-9);
  }
}

TEST(Library, GroverTwoQubitFindsMarkedState) {
  // For 2 qubits one Grover iteration is exact: the marked state has
  // probability 1.
  const Circuit c = grover_like(2, 1, 99);
  const auto dist = sim::ideal_distribution(c);
  double max_p = 0.0;
  for (const auto& [outcome, p] : dist) {
    (void)outcome;
    max_p = std::max(max_p, p);
  }
  EXPECT_NEAR(max_p, 1.0, 1e-9);
}

TEST(Library, QaoaUsesGraphEdges) {
  const Graph g = random_graph(6, 0.4, 5);
  const Circuit c = qaoa_maxcut(g, 2, 5);
  EXPECT_EQ(c.num_qubits(), 6);
  // Each edge contributes one RZZ per layer.
  EXPECT_EQ(c.gate_counts().at("rzz"), 2u * g.edges.size());
}

TEST(Library, RandomGraphIsConnectedAndDeduplicated) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Graph g = random_graph(8, 0.2, seed);
    std::set<std::pair<int, int>> set(g.edges.begin(), g.edges.end());
    EXPECT_EQ(set.size(), g.edges.size());
    EXPECT_GE(g.edges.size(), 7u);  // at least a spanning chain
    for (const auto& [a, b] : g.edges) EXPECT_LT(a, b);
  }
}

TEST(Library, GeneratorsAreDeterministicInSeed) {
  const Circuit a = random_circuit(5, 8, 77);
  const Circuit b = random_circuit(5, 8, 77);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(a.gates()[i] == b.gates()[i]);
}

TEST(Library, MakeBenchmarkCoversAllFamilies) {
  for (const auto family : all_benchmark_families()) {
    const Circuit c = make_benchmark(family, 4, 11);
    EXPECT_GE(c.num_qubits(), 4) << benchmark_family_name(family);
    EXPECT_GT(c.measurement_count(), 0u) << benchmark_family_name(family);
  }
}

// Width sweep: every family produces measured circuits across widths.
class FamilyWidthSweep
    : public ::testing::TestWithParam<std::tuple<BenchmarkFamily, int>> {};

TEST_P(FamilyWidthSweep, ProducesValidCircuit) {
  const auto [family, width] = GetParam();
  const Circuit c = make_benchmark(family, width, 3);
  EXPECT_GE(c.num_qubits(), width);
  EXPECT_GT(c.size(), 0u);
  EXPECT_GT(c.depth(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Families, FamilyWidthSweep,
    ::testing::Combine(::testing::ValuesIn(all_benchmark_families()),
                       ::testing::Values(2, 5, 12, 27)));

}  // namespace
}  // namespace qon::circuit
