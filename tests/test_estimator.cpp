// Tests for the resource estimator: feature extraction, synthetic run
// archive, regression model training (R² targets), the numerical baseline
// comparison of Fig. 7b/c, resource-plan generation and the pricing model.

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/library.hpp"
#include "common/stats.hpp"
#include "estimator/dataset.hpp"
#include "estimator/execution_model.hpp"
#include "estimator/models.hpp"
#include "estimator/numerical.hpp"
#include "estimator/plans.hpp"
#include "estimator/pricing.hpp"
#include "qpu/fleet.hpp"
#include "transpiler/transpiler.hpp"

namespace qon::estimator {
namespace {

class EstimatorFixture : public ::testing::Test {
 protected:
  EstimatorFixture() : fleet_(qpu::make_ibm_like_fleet(4, 88)) {
    ArchiveConfig config;
    config.num_runs = 700;
    config.seed = 5;
    archive_ = generate_run_archive(fleet_, config);
  }

  qpu::Fleet fleet_;
  std::vector<RunRecord> archive_;
};

TEST_F(EstimatorFixture, ArchiveHasRequestedSizeAndSaneRanges) {
  EXPECT_EQ(archive_.size(), 700u);
  for (const auto& r : archive_) {
    EXPECT_GE(r.fidelity, 0.0);
    EXPECT_LE(r.fidelity, 1.0);
    EXPECT_GT(r.quantum_seconds, 0.0);
    EXPECT_GE(r.classical_seconds, 0.0);
    EXPECT_GE(r.features.width, 2.0);
  }
}

TEST_F(EstimatorFixture, ArchiveCoversMitigationVariety) {
  std::size_t mitigated = 0;
  for (const auto& r : archive_) {
    if (r.features.zne + r.features.pec + r.features.rem + r.features.dd +
            r.features.twirling + r.features.cutting >
        0.0) {
      ++mitigated;
    }
  }
  // The menu has 8 non-trivial stacks out of 9 entries.
  EXPECT_GT(mitigated, archive_.size() / 2);
  EXPECT_LT(mitigated, archive_.size());
}

TEST_F(EstimatorFixture, RuntimeModelReachesHighR2) {
  RuntimeEstimator model;
  const auto report = model.train(archive_);
  // Paper: R² 0.998 for execution time. Our synthetic labels are close to
  // polynomial in the features, so the bar is high.
  EXPECT_GT(report.cv_r2, 0.95) << "selected: " << report.selected_model;
  EXPECT_TRUE(model.trained());
}

TEST_F(EstimatorFixture, FidelityModelReachesUsefulR2) {
  FidelityEstimator model;
  const auto report = model.train(archive_);
  // Paper: R² 0.976 for fidelity; hidden noise bounds what is learnable.
  EXPECT_GT(report.cv_r2, 0.7) << "selected: " << report.selected_model;
}

TEST_F(EstimatorFixture, ModelSelectionReportsAllCandidates) {
  RuntimeEstimator model;
  const auto report = model.train(archive_);
  EXPECT_EQ(report.all_models.size(), 3u);
  // Results are sorted best-first.
  for (std::size_t i = 1; i < report.all_models.size(); ++i) {
    EXPECT_GE(report.all_models[i - 1].mean_r2, report.all_models[i].mean_r2);
  }
}

TEST_F(EstimatorFixture, EstimatesAreFiniteAndClamped) {
  FidelityEstimator fid;
  RuntimeEstimator run;
  fid.train(archive_);
  run.train(archive_);
  for (std::size_t i = 0; i < 50; ++i) {
    const auto& f = archive_[i].features;
    const double est_f = fid.estimate(f);
    const double est_t = run.estimate(f);
    EXPECT_GE(est_f, 0.0);
    EXPECT_LE(est_f, 1.0);
    EXPECT_GE(est_t, 0.0);
    EXPECT_TRUE(std::isfinite(est_t));
  }
}

TEST_F(EstimatorFixture, RegressionBeatsNumericalBaselineOnFidelity) {
  // Fig. 7b: the regression model sees mitigation effects and the learned
  // crosstalk bias; the numerical baseline does not.
  FidelityEstimator model;
  model.train(archive_);

  Rng rng(17);
  const sim::HiddenNoise hidden(1234, 0.25);
  std::vector<double> err_model;
  std::vector<double> err_numerical;
  const auto menu = mitigation::standard_mitigation_menu();
  for (int i = 0; i < 60; ++i) {
    const int width = static_cast<int>(rng.uniform_int(3, 20));
    const auto circ = circuit::make_benchmark(
        circuit::all_benchmark_families()[static_cast<std::size_t>(rng.uniform_int(0, 7))],
        width, rng());
    const auto& backend = *fleet_.backends[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    if (circ.num_qubits() > backend.num_qubits()) continue;
    const auto& spec = menu[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(menu.size()) - 1))];
    const auto t = transpiler::transpile(circ, backend);
    const auto sig = mitigation::compute_signature(
        spec, static_cast<std::size_t>(circ.num_qubits()),
        static_cast<std::size_t>(t.circuit.depth()), t.circuit.two_qubit_gate_count(),
        static_cast<std::size_t>(t.circuit.num_clbits()),
        backend.calibration().mean_gate_error_2q(), mitigation::Accelerator::kCpu);
    const double truth =
        executed_fidelity(t.circuit, backend, sig, hidden, 1.08, 4000, rng);
    const auto features = extract_features(t, 4000, spec, backend);
    err_model.push_back(std::abs(model.estimate(features) - truth));
    err_numerical.push_back(std::abs(numerical_fidelity_estimate(t.circuit, backend) - truth));
  }
  ASSERT_GT(err_model.size(), 30u);
  EXPECT_LT(mean(err_model), mean(err_numerical));
}

TEST(Features, VectorsHaveDeclaredArity) {
  JobFeatures f;
  EXPECT_EQ(runtime_feature_vector(f).size(), runtime_feature_count());
  EXPECT_EQ(fidelity_feature_vector(f).size(), fidelity_feature_count());
}

TEST(Features, ExtractionReflectsMitigationStack) {
  const auto fleet = qpu::make_ibm_like_fleet(1, 3);
  const auto& backend = *fleet.backends[0];
  const auto t = transpiler::transpile(circuit::ghz(5), backend);
  mitigation::MitigationSpec spec;
  spec.stack = {mitigation::Technique::kZne, mitigation::Technique::kDd};
  const auto f = extract_features(t, 2000, spec, backend);
  EXPECT_DOUBLE_EQ(f.zne, 1.0);
  EXPECT_DOUBLE_EQ(f.dd, 1.0);
  EXPECT_DOUBLE_EQ(f.pec, 0.0);
  EXPECT_DOUBLE_EQ(f.shots, 2000.0);
  EXPECT_EQ(static_cast<int>(f.width), 5);
  EXPECT_GT(f.mean_gate_error_2q, 0.0);
}

TEST(ExecutionModel, PredictionMatchesExecutionWithoutHiddenNoise) {
  const auto fleet = qpu::make_ibm_like_fleet(1, 5);
  const auto& backend = *fleet.backends[0];
  const auto t = transpiler::transpile(circuit::qft(8), backend);
  mitigation::MitigationSpec spec;
  spec.stack = {mitigation::Technique::kRem};
  const auto sig = mitigation::compute_signature(
      spec, 8, static_cast<std::size_t>(t.circuit.depth()), t.circuit.two_qubit_gate_count(),
      static_cast<std::size_t>(t.circuit.num_clbits()),
      backend.calibration().mean_gate_error_2q(), mitigation::Accelerator::kCpu);
  Rng rng(5);
  const double predicted = predicted_fidelity(t.circuit, backend, sig);
  // Ablation: prediction and ground truth share one execution model and
  // differ only by hidden noise, crosstalk and shot noise. With hidden noise
  // off and many shots, ground truth collapses onto the prediction up to
  // crosstalk.
  const double truth = executed_fidelity(t.circuit, backend, sig, sim::HiddenNoise::none(),
                                         1.0, 1000000, rng);
  EXPECT_NEAR(predicted, truth, 0.01);
}

TEST(ExecutionModel, ExecutedFidelityComposesMeanAndSample) {
  // executed_fidelity is sample_executed_fidelity over executed_fidelity_mean,
  // and both equal the single-function formula bit for bit: the pinned
  // values are what that formula drew for this seed.
  const auto fleet = qpu::make_ibm_like_fleet(1, 5);
  const auto& backend = *fleet.backends[0];
  const auto t = transpiler::transpile(circuit::qft(6), backend);
  mitigation::MitigationSpec spec;
  spec.stack = {mitigation::Technique::kZne, mitigation::Technique::kDd};
  const auto sig = mitigation::compute_signature(
      spec, 6, static_cast<std::size_t>(t.circuit.depth()), t.circuit.two_qubit_gate_count(),
      static_cast<std::size_t>(t.circuit.num_clbits()),
      backend.calibration().mean_gate_error_2q(), mitigation::Accelerator::kCpu);
  const sim::HiddenNoise hidden(77, 0.25);
  const double pinned[] = {0x1.1185aefd99d5ep-1, 0x1.08f9bc8d33e4p-1, 0x1.0dd81c4b915b5p-1};
  Rng whole(123);
  Rng split(123);
  const double mean = executed_fidelity_mean(t.circuit, backend, sig, hidden, 1.08);
  for (const double expected : pinned) {
    EXPECT_EQ(executed_fidelity(t.circuit, backend, sig, hidden, 1.08, 4000, whole), expected);
    EXPECT_EQ(sample_executed_fidelity(mean, 4000, split), expected);
  }
  // One normal draw per sample: both streams end in the same state.
  EXPECT_EQ(whole(), 6230968350287952094ULL);
  EXPECT_EQ(split(), 6230968350287952094ULL);
}

TEST(Plans, GeneratesParetoAndRecommendations) {
  const auto fleet = qpu::make_ibm_like_fleet(3, 21);
  const auto templates = fleet.template_backends();
  const auto plans = generate_resource_plans(circuit::qaoa_maxcut(12, 1, 7), templates, {});
  EXPECT_GT(plans.all.size(), 8u);
  EXPECT_FALSE(plans.pareto.empty());
  EXPECT_LE(plans.recommended.size(), 3u);
  EXPECT_GE(plans.recommended.size(), 1u);

  // Pareto members must be mutually non-dominated in (time, 1-fidelity).
  for (const auto& a : plans.pareto) {
    for (const auto& b : plans.pareto) {
      const bool dominates = a.est_total_seconds < b.est_total_seconds &&
                             a.est_fidelity > b.est_fidelity;
      EXPECT_FALSE(dominates);
    }
  }
  // Sorted by total time.
  for (std::size_t i = 1; i < plans.pareto.size(); ++i) {
    EXPECT_LE(plans.pareto[i - 1].est_total_seconds, plans.pareto[i].est_total_seconds);
  }
}

TEST(Plans, MitigatedPlansTradeTimeForFidelity) {
  const auto fleet = qpu::make_ibm_like_fleet(2, 23);
  const auto templates = fleet.template_backends();
  const auto plans = generate_resource_plans(circuit::qft(14), templates, {});
  const ResourcePlan* none = nullptr;
  const ResourcePlan* zne = nullptr;
  for (const auto& p : plans.all) {
    if (p.accelerator != mitigation::Accelerator::kCpu) continue;
    if (p.spec.to_string() == "none") none = &p;
    if (p.spec.to_string() == "zne") zne = &p;
  }
  ASSERT_NE(none, nullptr);
  ASSERT_NE(zne, nullptr);
  EXPECT_GT(zne->est_fidelity, none->est_fidelity);
  EXPECT_GT(zne->est_total_seconds, none->est_total_seconds);
  EXPECT_GT(zne->est_cost_dollars, none->est_cost_dollars);
}

TEST(Plans, RespectsQubitFilter) {
  const auto fleet = qpu::make_ibm_like_fleet(1, 25);
  const auto templates = fleet.template_backends();
  // 28-qubit circuit does not fit 27-qubit templates: no plans.
  circuit::Circuit big(28);
  big.h(0);
  big.measure_all();
  const auto plans = generate_resource_plans(big, templates, {});
  EXPECT_TRUE(plans.all.empty());
  EXPECT_THROW(generate_resource_plans(big, {}, {}), std::invalid_argument);
}

TEST(Pricing, Table1Ordering) {
  const PriceTable prices;
  // QPU-hours cost two orders of magnitude more than high-end VM-hours.
  EXPECT_GT(prices.qpu_per_hour / prices.highend_vm_per_hour, 100.0);
  EXPECT_GT(prices.highend_vm_per_hour, prices.standard_vm_per_hour);
  EXPECT_GT(prices.per_task(ResourceClass::kQpu), prices.per_task(ResourceClass::kHighEndVm));
}

TEST(Pricing, JobCostComposition) {
  const PriceTable prices;
  // 10 s of QPU + 60 s of standard VM.
  const double cost = job_cost_dollars(10.0, 60.0, mitigation::Accelerator::kCpu, prices);
  const double expected = prices.qpu_per_hour * 10.0 / 3600.0 +
                          prices.standard_vm_per_hour * 60.0 / 3600.0;
  EXPECT_NEAR(cost, expected, 1e-12);
  // GPU work is billed on high-end VMs.
  EXPECT_GT(job_cost_dollars(0.0, 60.0, mitigation::Accelerator::kGpu, prices),
            job_cost_dollars(0.0, 60.0, mitigation::Accelerator::kCpu, prices));
  EXPECT_THROW(job_cost_dollars(-1.0, 0.0, mitigation::Accelerator::kCpu, prices),
               std::invalid_argument);
}

TEST(Numerical, BaselineIgnoresMitigation) {
  const auto fleet = qpu::make_ibm_like_fleet(1, 27);
  const auto& backend = *fleet.backends[0];
  const auto t = transpiler::transpile(circuit::ghz(8), backend);
  // The numerical estimate depends only on the circuit and calibration.
  const double f = numerical_fidelity_estimate(t.circuit, backend);
  EXPECT_GT(f, 0.0);
  EXPECT_LT(f, 1.0);
  const double runtime = numerical_runtime_estimate(t, 4000);
  EXPECT_GT(runtime, 0.0);
}

}  // namespace
}  // namespace qon::estimator
