#pragma once
// Analytic fidelity model: Estimated Success Probability (ESP), the product
// of per-gate success probabilities, readout success and idle-decoherence
// survival. Two uses:
//
//  * esp_fidelity(..., HiddenNoise::none()) is the classic *numerical*
//    estimator baseline of Fig. 7b/c ("traversing the circuit DAG and
//    multiplying the noise errors").
//  * esp_fidelity(..., hidden) with a non-trivial HiddenNoise is the
//    ground-truth executor for circuits too wide to trajectory-simulate:
//    the same analytic form evaluated on the *true* (perturbed) rates,
//    plus sampling (shot) noise.

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "qpu/backend.hpp"
#include "simulator/noise.hpp"
#include "transpiler/scheduling.hpp"

namespace qon::sim {

/// Tunables of the analytic model.
struct EspOptions {
  double crosstalk_factor = 1.0;          ///< 2q error inflation (1.0 = none)
  double delay_dephasing_residual = 1.0;  ///< DD suppression on kDelay gates
};

/// Product-form success probability of a *physical* circuit on `backend`.
/// `hidden` perturbs each published rate into the true rate (pass
/// HiddenNoise::none() for the estimator-visible value).
double esp_fidelity(const circuit::Circuit& physical, const qpu::Backend& backend,
                    const HiddenNoise& hidden, const EspOptions& options = {});

/// Ground-truth fidelity for large circuits: true-rate ESP plus shot noise
/// (standard error ~ sqrt(f(1-f)/shots)), clamped to [0, 1].
double ground_truth_fidelity(const circuit::Circuit& physical, const qpu::Backend& backend,
                             const HiddenNoise& hidden, int shots, Rng& rng,
                             double crosstalk_factor = 1.08);

}  // namespace qon::sim
