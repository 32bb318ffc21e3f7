#include "estimator/execution_model.hpp"

#include <algorithm>
#include <cmath>

#include "mitigation/cutting.hpp"
#include "simulator/esp.hpp"

namespace qon::estimator {

namespace {

// Base (unmitigated) ESP under the given noise knowledge, with the cutting
// adjustment: fragments are ~half width so their error exponent halves;
// knitting multiplies fragment fidelities and pays the per-cut penalty.
double base_fidelity(const circuit::Circuit& physical, const qpu::Backend& backend,
                     const mitigation::MitigationSignature& signature,
                     const sim::HiddenNoise& hidden, double crosstalk_factor) {
  sim::EspOptions opts;
  opts.crosstalk_factor = crosstalk_factor;
  opts.delay_dephasing_residual = signature.delay_dephasing_residual;
  double base = sim::esp_fidelity(physical, backend, hidden, opts);
  if (signature.cuts_circuit) {
    const double fragment = std::sqrt(std::max(base, 1e-12));
    base = mitigation::knitted_fidelity(fragment, fragment, signature.cut_count);
  }
  return base;
}

}  // namespace

double predicted_fidelity(const circuit::Circuit& physical, const qpu::Backend& backend,
                          const mitigation::MitigationSignature& signature) {
  return mitigation::mitigated_fidelity(
      base_fidelity(physical, backend, signature, sim::HiddenNoise::none(), 1.0), signature);
}

double executed_fidelity_mean(const circuit::Circuit& physical, const qpu::Backend& backend,
                              const mitigation::MitigationSignature& signature,
                              const sim::HiddenNoise& hidden, double crosstalk_factor) {
  return mitigation::mitigated_fidelity(
      base_fidelity(physical, backend, signature, hidden, crosstalk_factor), signature);
}

double sample_executed_fidelity(double mean, int shots, Rng& rng) {
  const double se =
      std::sqrt(std::max(mean * (1.0 - mean), 1e-6) / static_cast<double>(std::max(shots, 1)));
  return std::clamp(mean + rng.normal(0.0, se), 0.0, 1.0);
}

double executed_fidelity(const circuit::Circuit& physical, const qpu::Backend& backend,
                         const mitigation::MitigationSignature& signature,
                         const sim::HiddenNoise& hidden, double crosstalk_factor, int shots,
                         Rng& rng) {
  return sample_executed_fidelity(
      executed_fidelity_mean(physical, backend, signature, hidden, crosstalk_factor), shots, rng);
}

}  // namespace qon::estimator
