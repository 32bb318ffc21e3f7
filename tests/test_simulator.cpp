// Tests for the state-vector simulator, noise channels, trajectory execution
// and the analytic ESP fidelity model.

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/library.hpp"
#include "qpu/fleet.hpp"
#include "simulator/esp.hpp"
#include "simulator/metrics.hpp"
#include "simulator/noise.hpp"
#include "simulator/statevector.hpp"
#include "transpiler/transpiler.hpp"

namespace qon::sim {
namespace {

using circuit::Circuit;
using circuit::GateKind;

TEST(StateVector, InitializesToZeroState) {
  StateVector sv(3);
  EXPECT_EQ(sv.dimension(), 8u);
  EXPECT_NEAR(std::norm(sv.amplitudes()[0]), 1.0, 1e-15);
  EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(StateVector, RejectsBadWidths) {
  EXPECT_THROW(StateVector(0), std::invalid_argument);
  EXPECT_THROW(StateVector(29), std::invalid_argument);
}

TEST(StateVector, BellStateAmplitudes) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  StateVector sv(2);
  sv.run(c);
  const auto probs = sv.probabilities();
  EXPECT_NEAR(probs[0], 0.5, 1e-12);
  EXPECT_NEAR(probs[3], 0.5, 1e-12);
  EXPECT_NEAR(probs[1] + probs[2], 0.0, 1e-12);
}

TEST(StateVector, AllGateUnitariesPreserveNorm) {
  Circuit c(3);
  c.h(0);
  c.x(1);
  c.y(2);
  c.z(0);
  c.s(1);
  c.sdg(2);
  c.t(0);
  c.tdg(1);
  c.sx(2);
  c.rx(0, 0.3);
  c.ry(1, -1.2);
  c.rz(2, 2.2);
  c.cx(0, 1);
  c.cz(1, 2);
  c.swap(0, 2);
  c.rzz(0, 1, 0.7);
  StateVector sv(3);
  sv.run(c);
  EXPECT_NEAR(sv.norm(), 1.0, 1e-10);
}

TEST(StateVector, SwapGateExchangesQubits) {
  Circuit c(2);
  c.x(0);
  c.swap(0, 1);
  StateVector sv(2);
  sv.run(c);
  EXPECT_NEAR(std::norm(sv.amplitudes()[2]), 1.0, 1e-12);  // |10> (qubit1 set)
}

TEST(StateVector, CxControlConvention) {
  // Control is the first operand: CX(0, 1) with qubit 0 set flips qubit 1.
  Circuit c(2);
  c.x(0);
  c.cx(0, 1);
  StateVector sv(2);
  sv.run(c);
  EXPECT_NEAR(std::norm(sv.amplitudes()[3]), 1.0, 1e-12);
  // Reversed: CX(1, 0) with only qubit 0 set does nothing.
  Circuit d(2);
  d.x(0);
  d.cx(1, 0);
  StateVector sv2(2);
  sv2.run(d);
  EXPECT_NEAR(std::norm(sv2.amplitudes()[1]), 1.0, 1e-12);
}

TEST(StateVector, MeasuredDistributionUsesClbits) {
  Circuit c(2);
  c.x(0);
  c.measure(0, 1);  // qubit 0 -> clbit 1
  c.measure(1, 0);  // qubit 1 -> clbit 0
  StateVector sv(2);
  sv.run(c);
  const auto dist = sv.measured_distribution(c);
  ASSERT_EQ(dist.size(), 1u);
  EXPECT_NEAR(dist.at(0b10), 1.0, 1e-12);  // clbit 1 set
}

TEST(StateVector, PartialMeasurementTracesOut) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  c.measure(0);  // only qubit 0 measured
  StateVector sv(2);
  sv.run(c);
  const auto dist = sv.measured_distribution(c);
  ASSERT_EQ(dist.size(), 2u);
  EXPECT_NEAR(dist.at(0), 0.5, 1e-12);
  EXPECT_NEAR(dist.at(1), 0.5, 1e-12);
}

TEST(StateVector, SampleCountsTotalsShots) {
  Rng rng(3);
  const Circuit c = circuit::ghz(3);
  StateVector sv(3);
  sv.run(c);
  const auto counts = sv.sample_counts(c, 1000, rng);
  std::uint64_t total = 0;
  for (const auto& [k, v] : counts) {
    (void)k;
    total += v;
  }
  EXPECT_EQ(total, 1000u);
  // Only the two GHZ outcomes appear.
  for (const auto& [outcome, v] : counts) {
    (void)v;
    EXPECT_TRUE(outcome == 0 || outcome == 0b111);
  }
}

TEST(StateVector, MeasuredDistributionRequiresMeasurements) {
  Circuit c(1);
  c.h(0);
  StateVector sv(1);
  sv.run(c);
  EXPECT_THROW(sv.measured_distribution(c), std::invalid_argument);
}

TEST(Bitstring, FormatsQiskitOrder) {
  EXPECT_EQ(bitstring(0b101, 3), "101");
  EXPECT_EQ(bitstring(0b1, 4), "0001");
  EXPECT_EQ(bitstring(0, 2), "00");
}

TEST(Metrics, HellingerIdenticalIsOne) {
  std::map<std::uint64_t, double> p = {{0, 0.5}, {3, 0.5}};
  EXPECT_NEAR(hellinger_fidelity(p, p), 1.0, 1e-12);
}

TEST(Metrics, HellingerDisjointIsZero) {
  std::map<std::uint64_t, double> p = {{0, 1.0}};
  std::map<std::uint64_t, double> q = {{1, 1.0}};
  EXPECT_DOUBLE_EQ(hellinger_fidelity(p, q), 0.0);
}

TEST(Metrics, HellingerIsSymmetric) {
  std::map<std::uint64_t, double> p = {{0, 0.7}, {1, 0.3}};
  std::map<std::uint64_t, double> q = {{0, 0.4}, {1, 0.6}};
  EXPECT_NEAR(hellinger_fidelity(p, q), hellinger_fidelity(q, p), 1e-14);
}

TEST(Metrics, TvdProperties) {
  std::map<std::uint64_t, double> p = {{0, 1.0}};
  std::map<std::uint64_t, double> q = {{1, 1.0}};
  EXPECT_DOUBLE_EQ(total_variation_distance(p, q), 1.0);
  EXPECT_DOUBLE_EQ(total_variation_distance(p, p), 0.0);
}

TEST(Metrics, CountsToDistributionNormalizes) {
  Counts counts = {{0, 30}, {7, 70}};
  const auto dist = counts_to_distribution(counts);
  EXPECT_NEAR(dist.at(0), 0.3, 1e-12);
  EXPECT_NEAR(dist.at(7), 0.7, 1e-12);
}

TEST(Noise, IdlePauliRatesGrowWithTime) {
  const auto fast = idle_pauli_rates(1e-6, 100e-6, 80e-6);
  const auto slow = idle_pauli_rates(50e-6, 100e-6, 80e-6);
  EXPECT_GT(slow.total(), fast.total());
  EXPECT_DOUBLE_EQ(idle_pauli_rates(0.0, 1.0, 1.0).total(), 0.0);
  EXPECT_GE(fast.p_z, 0.0);
}

TEST(Noise, HiddenNoiseIsDeterministic) {
  const HiddenNoise h(42, 0.3);
  EXPECT_DOUBLE_EQ(h.factor("mumbai", 3, 7), h.factor("mumbai", 3, 7));
  EXPECT_NE(h.factor("mumbai", 3, 7), h.factor("mumbai", 4, 7));
  EXPECT_NE(h.factor("mumbai", 3, 7), h.factor("kolkata", 3, 7));
  EXPECT_DOUBLE_EQ(HiddenNoise::none().factor("x", 0, 0), 1.0);
}

TEST(Noise, HiddenFactorsCenterAroundOne) {
  const HiddenNoise h(7, 0.25);
  double log_acc = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    log_acc += std::log(h.factor("backend", 0, static_cast<std::uint64_t>(i)));
  }
  EXPECT_NEAR(log_acc / n, 0.0, 0.05);
}

class NoisyExecution : public ::testing::Test {
 protected:
  NoisyExecution() : fleet_(qpu::make_ibm_like_fleet(1, 12)), backend_(*fleet_.backends[0]) {}

  qpu::Fleet fleet_;
  const qpu::Backend& backend_;
};

TEST_F(NoisyExecution, GhzFidelityIsDegradedButUseful) {
  Rng rng(5);
  const Circuit c = circuit::ghz(5);
  const auto t = transpiler::transpile(c, backend_);
  const auto counts = run_noisy(t.circuit, backend_, 2000, rng, HiddenNoise(1, 0.2));
  const double fid = hellinger_fidelity(counts, ideal_distribution(c));
  EXPECT_LT(fid, 0.999);
  EXPECT_GT(fid, 0.3);
}

TEST_F(NoisyExecution, NoiseDisabledGivesNearPerfectFidelity) {
  Rng rng(7);
  const Circuit c = circuit::ghz(4);
  const auto t = transpiler::transpile(c, backend_);
  TrajectoryOptions opt;
  opt.gate_noise = false;
  opt.readout_noise = false;
  opt.idle_noise = false;
  const auto counts = run_noisy(t.circuit, backend_, 4000, rng, HiddenNoise::none(), opt);
  EXPECT_GT(hellinger_fidelity(counts, ideal_distribution(c)), 0.99);
}

TEST_F(NoisyExecution, MoreNoiseSourcesLowerFidelity) {
  Rng rng1(9);
  Rng rng2(9);
  const Circuit c = circuit::ghz(6);
  const auto t = transpiler::transpile(c, backend_);
  TrajectoryOptions readout_only;
  readout_only.gate_noise = false;
  readout_only.idle_noise = false;
  const auto partial = run_noisy(t.circuit, backend_, 4000, rng1, HiddenNoise::none(), readout_only);
  const auto full = run_noisy(t.circuit, backend_, 4000, rng2, HiddenNoise::none());
  const auto ideal = ideal_distribution(c);
  EXPECT_GT(hellinger_fidelity(partial, ideal), hellinger_fidelity(full, ideal));
}

TEST_F(NoisyExecution, SeededCountsArePinned) {
  // A circuit with a barrier, a delay, an identity, RZ, one- and two-qubit
  // gates: the per-call noise plan must leave the draw order untouched, so
  // the seeded counts and the generator's final state are pinned.
  Circuit c(4);
  c.h(0);
  c.cx(0, 1);
  c.cx(1, 2);
  c.barrier();
  c.delay(3, 2e-6);
  c.i(2);
  c.rz(1, 0.3);
  c.sx(3);
  c.cx(2, 3);
  c.measure_all();
  const auto t = transpiler::transpile(c, backend_);
  TrajectoryOptions opts;
  opts.delay_dephasing_residual = 0.4;
  Rng rng(21);
  const auto counts = run_noisy(t.circuit, backend_, 300, rng, HiddenNoise(3, 0.25), opts);
  const Counts expected = {{0u, 71u},  {2u, 4u},  {3u, 1u},  {4u, 4u},  {5u, 1u},
                           {6u, 1u},   {7u, 71u}, {8u, 67u}, {9u, 3u},  {10u, 3u},
                           {11u, 3u},  {12u, 3u}, {13u, 2u}, {14u, 3u}, {15u, 63u}};
  EXPECT_EQ(counts, expected);
  EXPECT_EQ(rng(), 15543770314490236498ULL);
}

TEST_F(NoisyExecution, RunIdealMatchesIdealDistribution) {
  Rng rng(11);
  const Circuit c = circuit::ghz(4);
  const auto t = transpiler::transpile(c, backend_);
  const auto counts = run_ideal(t.circuit, 4000, rng);
  EXPECT_GT(hellinger_fidelity(counts, ideal_distribution(c)), 0.99);
}

TEST_F(NoisyExecution, ValidatesArguments) {
  Rng rng(13);
  const Circuit c = circuit::ghz(3);
  const auto t = transpiler::transpile(c, backend_);
  EXPECT_THROW(run_noisy(t.circuit, backend_, 0, rng, HiddenNoise::none()),
               std::invalid_argument);
  Circuit no_meas(backend_.num_qubits());
  no_meas.sx(0);
  EXPECT_THROW(run_noisy(no_meas, backend_, 100, rng, HiddenNoise::none()),
               std::invalid_argument);
}

TEST_F(NoisyExecution, EspFidelityInUnitInterval) {
  const Circuit c = circuit::qft(8);
  const auto t = transpiler::transpile(c, backend_);
  const double f = esp_fidelity(t.circuit, backend_, HiddenNoise::none());
  EXPECT_GT(f, 0.0);
  EXPECT_LE(f, 1.0);
}

TEST_F(NoisyExecution, EspDecreasesWithCircuitSize) {
  const auto t_small = transpiler::transpile(circuit::ghz(4), backend_);
  const auto t_large = transpiler::transpile(circuit::ghz(20), backend_);
  EXPECT_GT(esp_fidelity(t_small.circuit, backend_, HiddenNoise::none()),
            esp_fidelity(t_large.circuit, backend_, HiddenNoise::none()));
}

TEST_F(NoisyExecution, EspTracksTrajectoryFidelity) {
  // The analytic model should be within coarse agreement of the trajectory
  // simulation for a mid-size GHZ (they share the same calibration).
  Rng rng(15);
  const Circuit c = circuit::ghz(6);
  const auto t = transpiler::transpile(c, backend_);
  const auto counts = run_noisy(t.circuit, backend_, 4000, rng, HiddenNoise::none());
  const double traj = hellinger_fidelity(counts, ideal_distribution(c));
  const double esp = esp_fidelity(t.circuit, backend_, HiddenNoise::none());
  // ESP's product form is systematically pessimistic (Z errors are partially
  // invisible in the computational basis), so only coarse agreement holds.
  EXPECT_NEAR(esp, traj, 0.3);
}

TEST_F(NoisyExecution, GroundTruthAddsShotNoise) {
  Rng rng(17);
  const auto t = transpiler::transpile(circuit::ghz(10), backend_);
  const HiddenNoise hidden(3, 0.25);
  const double base =
      esp_fidelity(t.circuit, backend_, hidden, EspOptions{.crosstalk_factor = 1.08});
  double spread = 0.0;
  for (int i = 0; i < 20; ++i) {
    spread = std::max(
        spread, std::abs(ground_truth_fidelity(t.circuit, backend_, hidden, 1000, rng) - base));
  }
  EXPECT_GT(spread, 0.0);
  EXPECT_LT(spread, 0.2);
}

TEST_F(NoisyExecution, HiddenNoiseShiftsGroundTruthAwayFromEstimate) {
  const auto t = transpiler::transpile(circuit::qft(10), backend_);
  const double published = esp_fidelity(t.circuit, backend_, HiddenNoise::none());
  const double truth = esp_fidelity(t.circuit, backend_, HiddenNoise(99, 0.35),
                                    EspOptions{.crosstalk_factor = 1.08});
  EXPECT_NE(published, truth);
}

}  // namespace
}  // namespace qon::sim
