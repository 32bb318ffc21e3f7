// Tests for the mitigation model: circuit cutting (fragment extraction and
// the knitted-fidelity model), PEC's gamma and the stacked pipeline
// signatures.

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <string>

#include "circuit/library.hpp"
#include "mitigation/cutting.hpp"
#include "mitigation/pipeline.hpp"
#include "qpu/fleet.hpp"
#include "simulator/esp.hpp"
#include "simulator/noise.hpp"
#include "transpiler/transpiler.hpp"

namespace qon::mitigation {
namespace {

using circuit::Circuit;

// Qubits [0, k) against [k, n).
CutPlan contiguous_plan(int n, int k) {
  CutPlan plan;
  for (int q = 0; q < k; ++q) plan.group_a.push_back(q);
  for (int q = k; q < n; ++q) plan.group_b.push_back(q);
  return plan;
}

TEST(Cutting, FragmentsHaveCorrectShape) {
  const Circuit c = circuit::ghz(8);
  const auto cut = cut_circuit(c, contiguous_plan(8, 4));
  EXPECT_EQ(cut.fragment_a.num_qubits() + cut.fragment_b.num_qubits(), 8);
  EXPECT_DOUBLE_EQ(cut.sampling_overhead, 9.0);  // one cut
  EXPECT_EQ(cut.circuit_variants, 4u);
  // Fragments keep their original clbits (no overlap).
  EXPECT_EQ(cut.fragment_a.measurement_count() + cut.fragment_b.measurement_count(), 8u);
}

TEST(Cutting, CountsCrossingGatesAndRejectsNonPartitions) {
  // Two independent Bell pairs: the cut between them crosses no gate; a cut
  // through one pair crosses its CX.
  Circuit c(4);
  c.h(0);
  c.cx(0, 1);
  c.h(2);
  c.cx(2, 3);
  c.measure_all();
  EXPECT_EQ(cut_circuit(c, contiguous_plan(4, 2)).crossing_gates, 0u);
  const auto cut = cut_circuit(c, contiguous_plan(4, 1));
  EXPECT_EQ(cut.crossing_gates, 1u);
  EXPECT_DOUBLE_EQ(cut.sampling_overhead, 9.0);
  EXPECT_EQ(cut.fragment_a.num_qubits(), 1);
  EXPECT_EQ(cut.fragment_b.num_qubits(), 3);

  EXPECT_THROW(cut_circuit(c, contiguous_plan(4, 0)), std::invalid_argument);
  EXPECT_THROW(cut_circuit(c, CutPlan{{0, 1}, {2}}), std::invalid_argument);
  EXPECT_THROW(cut_circuit(c, CutPlan{{0, 1}, {1, 2, 3}}), std::invalid_argument);
  EXPECT_THROW(cut_circuit(c, CutPlan{{0, 1}, {2, 4}}), std::invalid_argument);
}

TEST(Cutting, KnittedFidelityModel) {
  EXPECT_NEAR(knitted_fidelity(0.9, 0.9, 0), 0.81, 1e-12);
  EXPECT_LT(knitted_fidelity(0.9, 0.9, 2), knitted_fidelity(0.9, 0.9, 1));
}

TEST(Cutting, FragmentEspBeatsWholeCircuitEsp) {
  // The fidelity rationale of Fig. 2a: each fragment is narrower/shallower,
  // so its ESP is higher than the full circuit's.
  const auto fleet = qpu::make_ibm_like_fleet(1, 41);
  const auto& backend = *fleet.backends[0];
  const Circuit c = circuit::qft(16);
  const auto whole = transpiler::transpile(c, backend);
  const auto cut = cut_circuit(c, contiguous_plan(16, 8));
  const auto frag_a = transpiler::transpile(cut.fragment_a, backend);
  const double f_whole = sim::esp_fidelity(whole.circuit, backend, sim::HiddenNoise::none());
  const double f_frag = sim::esp_fidelity(frag_a.circuit, backend, sim::HiddenNoise::none());
  EXPECT_GT(f_frag, f_whole);
}

TEST(Pec, GammaGrowsWithError) {
  EXPECT_NEAR(pec_gamma(0.0), 1.0, 1e-12);
  EXPECT_GT(pec_gamma(0.1), pec_gamma(0.01));
  EXPECT_THROW(pec_gamma(1.0), std::invalid_argument);
  EXPECT_THROW(pec_gamma(-0.1), std::invalid_argument);
}

TEST(Pipeline, SignatureOfEmptyStackIsNeutral) {
  const auto sig = compute_signature({}, 8, 20, 10, 8, 1e-2, Accelerator::kCpu);
  EXPECT_DOUBLE_EQ(sig.error_residual, 1.0);
  EXPECT_DOUBLE_EQ(sig.quantum_runtime_multiplier, 1.0);
  EXPECT_FALSE(sig.cuts_circuit);
}

TEST(Pipeline, ZneSignatureMatchesConfig) {
  MitigationSpec spec;
  spec.stack = {Technique::kZne};
  const auto sig = compute_signature(spec, 8, 20, 10, 8, 1e-2, Accelerator::kCpu);
  EXPECT_DOUBLE_EQ(sig.circuit_instances, 3.0);          // factors {1,3,5}
  EXPECT_DOUBLE_EQ(sig.quantum_runtime_multiplier, 9.0); // 1+3+5
  EXPECT_LT(sig.error_residual, 1.0);
}

TEST(Pipeline, StackingMultipliesResiduals) {
  MitigationSpec zne;
  zne.stack = {Technique::kZne};
  MitigationSpec zne_rem;
  zne_rem.stack = {Technique::kZne, Technique::kRem};
  const auto a = compute_signature(zne, 8, 20, 10, 8, 1e-2, Accelerator::kCpu);
  const auto b = compute_signature(zne_rem, 8, 20, 10, 8, 1e-2, Accelerator::kCpu);
  EXPECT_LT(b.error_residual, a.error_residual);
  EXPECT_GT(b.classical_postprocess_seconds, a.classical_postprocess_seconds);
}

TEST(Pipeline, GpuAcceleratesPostprocessing) {
  MitigationSpec cutting;
  cutting.stack = {Technique::kCutting};
  const auto cpu = compute_signature(cutting, 16, 60, 40, 16, 1e-2, Accelerator::kCpu);
  const auto gpu = compute_signature(cutting, 16, 60, 40, 16, 1e-2, Accelerator::kGpu);
  EXPECT_GT(cpu.classical_postprocess_seconds, gpu.classical_postprocess_seconds);
  EXPECT_DOUBLE_EQ(cpu.quantum_runtime_multiplier, gpu.quantum_runtime_multiplier);
}

TEST(Pipeline, MitigatedFidelityReducesError) {
  MitigationSpec spec;
  spec.stack = {Technique::kZne, Technique::kRem, Technique::kDd};
  const auto sig = compute_signature(spec, 8, 20, 10, 8, 1e-2, Accelerator::kCpu);
  const double base = 0.6;
  const double mitigated = mitigated_fidelity(base, sig);
  EXPECT_GT(mitigated, base);
  EXPECT_LE(mitigated, 1.0);
}

TEST(Pipeline, DdSetsDephasingResidual) {
  MitigationSpec spec;
  spec.stack = {Technique::kDd};
  const auto sig = compute_signature(spec, 8, 20, 10, 8, 1e-2, Accelerator::kCpu);
  EXPECT_LT(sig.delay_dephasing_residual, 1.0);
}

TEST(Pipeline, MenuIsOrderedAndNamed) {
  const auto menu = standard_mitigation_menu();
  ASSERT_GE(menu.size(), 6u);
  EXPECT_EQ(menu.front().to_string(), "none");
  EXPECT_EQ(menu[4].to_string(), "zne");
  bool has_cutting = false;
  for (const auto& spec : menu) {
    if (spec.uses(Technique::kCutting)) has_cutting = true;
  }
  EXPECT_TRUE(has_cutting);
}

// Every field of every menu signature at one shape, on each accelerator.
// The other Pipeline tests check orderings only; this one compares exactly,
// so a model constant that moves by one ulp fails here.
TEST(Pipeline, StandardMenuSignaturesArePinned) {
  struct Expected {
    double circuit_instances;
    double quantum_runtime_multiplier;
    double classical_preprocess_seconds;
    double classical_postprocess_seconds;
    double error_residual;
    std::size_t cut_count;
    bool cuts_circuit;
    double delay_dephasing_residual;
  };
  // Rows in menu order, per accelerator.
  const Expected expected[] = {
      // ---- cpu ----
      // none
      {0x1p+0, 0x1p+0, 0x1.1a9fbe76c8b44p-9, 0x0p+0,
       0x1p+0, 0, false, 0x1p+0},
      // dd
      {0x1p+0, 0x1.051eb851eb852p+0, 0x1.1a9fbe76c8b44p-9, 0x0p+0,
       0x1.d70a3d70a3d71p-1, 0, false, 0x1.6666666666666p-2},
      // rem+dd
      {0x1.8p+1, 0x1.122d0e560418ap+0, 0x1.a7ef9db22d0e6p-8, 0x1.0c6f7a0b5ed8dp-11,
       0x1.90624dd2f1aap-1, 0, false, 0x1.6666666666666p-2},
      // twirling+rem
      {0x1.4p+3, 0x1.27ae147ae147cp+0, 0x1.6147ae147ae15p-6, 0x1.0c6f7a0b5ed8dp-11,
       0x1.a1cac083126e9p-1, 0, false, 0x1p+0},
      // zne
      {0x1.8p+1, 0x1.2p+3, 0x1.a7ef9db22d0e6p-8, 0x1.999999999999ap-5,
       0x1.199999999999ap-1, 0, false, 0x1p+0},
      // zne+rem+dd
      {0x1.4p+2, 0x1.3472b020c49bbp+3, 0x1.6147ae147ae15p-7, 0x1.9dcb5781c715p-5,
       0x1.b86c226809d4ap-2, 0, false, 0x1.6666666666666p-2},
      // pec
      {0x1.59d3635c7a2b4p+0, 0x1.59d3635c7a2b4p+0, 0x1.7dcaa709ef52ap-9, 0x1.baa82d432bbc8p-4,
       0x1.6666666666666p-2, 0, false, 0x1p+0},
      // cutting
      {0x1p+2, 0x1.2p+3, 0x1.1a9fbe76c8b44p-7, 0x1.47ae147ae147bp-2,
       0x1p+0, 1, true, 0x1p+0},
      // cutting+zne
      {0x1.8p+3, 0x1.44p+6, 0x1.a7ef9db22d0e6p-6, 0x1.7ae147ae147aep-2,
       0x1.199999999999ap-1, 1, true, 0x1p+0},
      // ---- gpu ----
      // none
      {0x1p+0, 0x1p+0, 0x1.1a9fbe76c8b44p-9, 0x0p+0,
       0x1p+0, 0, false, 0x1p+0},
      // dd
      {0x1p+0, 0x1.051eb851eb852p+0, 0x1.1a9fbe76c8b44p-9, 0x0p+0,
       0x1.d70a3d70a3d71p-1, 0, false, 0x1.6666666666666p-2},
      // rem+dd
      {0x1.8p+1, 0x1.122d0e560418ap+0, 0x1.a7ef9db22d0e6p-8, 0x1.0c6f7a0b5ed8dp-14,
       0x1.90624dd2f1aap-1, 0, false, 0x1.6666666666666p-2},
      // twirling+rem
      {0x1.4p+3, 0x1.27ae147ae147cp+0, 0x1.6147ae147ae15p-6, 0x1.0c6f7a0b5ed8dp-14,
       0x1.a1cac083126e9p-1, 0, false, 0x1p+0},
      // zne
      {0x1.8p+1, 0x1.2p+3, 0x1.a7ef9db22d0e6p-8, 0x1.999999999999ap-8,
       0x1.199999999999ap-1, 0, false, 0x1p+0},
      // zne+rem+dd
      {0x1.4p+2, 0x1.3472b020c49bbp+3, 0x1.6147ae147ae15p-7, 0x1.9dcb5781c715p-8,
       0x1.b86c226809d4ap-2, 0, false, 0x1.6666666666666p-2},
      // pec
      {0x1.59d3635c7a2b4p+0, 0x1.59d3635c7a2b4p+0, 0x1.7dcaa709ef52ap-9, 0x1.baa82d432bbc8p-7,
       0x1.6666666666666p-2, 0, false, 0x1p+0},
      // cutting
      {0x1p+2, 0x1.2p+3, 0x1.1a9fbe76c8b44p-7, 0x1.47ae147ae147bp-5,
       0x1p+0, 1, true, 0x1p+0},
      // cutting+zne
      {0x1.8p+3, 0x1.44p+6, 0x1.a7ef9db22d0e6p-6, 0x1.7ae147ae147aep-5,
       0x1.199999999999ap-1, 1, true, 0x1p+0},
      // ---- fpga ----
      // none
      {0x1p+0, 0x1p+0, 0x1.1a9fbe76c8b44p-9, 0x0p+0,
       0x1p+0, 0, false, 0x1p+0},
      // dd
      {0x1p+0, 0x1.051eb851eb852p+0, 0x1.1a9fbe76c8b44p-9, 0x0p+0,
       0x1.d70a3d70a3d71p-1, 0, false, 0x1.6666666666666p-2},
      // rem+dd
      {0x1.8p+1, 0x1.122d0e560418ap+0, 0x1.a7ef9db22d0e6p-8, 0x1.0c6f7a0b5ed8dp-13,
       0x1.90624dd2f1aap-1, 0, false, 0x1.6666666666666p-2},
      // twirling+rem
      {0x1.4p+3, 0x1.27ae147ae147cp+0, 0x1.6147ae147ae15p-6, 0x1.0c6f7a0b5ed8dp-13,
       0x1.a1cac083126e9p-1, 0, false, 0x1p+0},
      // zne
      {0x1.8p+1, 0x1.2p+3, 0x1.a7ef9db22d0e6p-8, 0x1.999999999999ap-7,
       0x1.199999999999ap-1, 0, false, 0x1p+0},
      // zne+rem+dd
      {0x1.4p+2, 0x1.3472b020c49bbp+3, 0x1.6147ae147ae15p-7, 0x1.9dcb5781c715p-7,
       0x1.b86c226809d4ap-2, 0, false, 0x1.6666666666666p-2},
      // pec
      {0x1.59d3635c7a2b4p+0, 0x1.59d3635c7a2b4p+0, 0x1.7dcaa709ef52ap-9, 0x1.baa82d432bbc8p-6,
       0x1.6666666666666p-2, 0, false, 0x1p+0},
      // cutting
      {0x1p+2, 0x1.2p+3, 0x1.1a9fbe76c8b44p-7, 0x1.47ae147ae147bp-4,
       0x1p+0, 1, true, 0x1p+0},
      // cutting+zne
      {0x1.8p+3, 0x1.44p+6, 0x1.a7ef9db22d0e6p-6, 0x1.7ae147ae147aep-4,
       0x1.199999999999ap-1, 1, true, 0x1p+0},
  };
  const auto menu = standard_mitigation_menu();
  ASSERT_EQ(menu.size(), 9u);
  std::size_t row = 0;
  for (const auto accelerator : {Accelerator::kCpu, Accelerator::kGpu, Accelerator::kFpga}) {
    for (const auto& spec : menu) {
      SCOPED_TRACE(std::string(accelerator_name(accelerator)) + " " + spec.to_string());
      const auto sig = compute_signature(spec, 8, 20, 10, 8, 1e-2, accelerator);
      const Expected& e = expected[row++];
      EXPECT_EQ(sig.circuit_instances, e.circuit_instances);
      EXPECT_EQ(sig.quantum_runtime_multiplier, e.quantum_runtime_multiplier);
      EXPECT_EQ(sig.classical_preprocess_seconds, e.classical_preprocess_seconds);
      EXPECT_EQ(sig.classical_postprocess_seconds, e.classical_postprocess_seconds);
      EXPECT_EQ(sig.error_residual, e.error_residual);
      EXPECT_EQ(sig.cut_count, e.cut_count);
      EXPECT_EQ(sig.cuts_circuit, e.cuts_circuit);
      EXPECT_EQ(sig.delay_dephasing_residual, e.delay_dephasing_residual);
    }
  }
  EXPECT_EQ(row, std::size(expected));
}

}  // namespace
}  // namespace qon::mitigation
