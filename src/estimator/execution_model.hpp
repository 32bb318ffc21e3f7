#pragma once
// Shared analytic execution model: how a (transpiled circuit, mitigation
// signature, backend) triple maps to fidelity. Used in three places with
// different noise knowledge:
//  * predicted_fidelity(...)       — estimator-visible (published
//                                    calibration);
//  * executed_fidelity_mean(...)   — ground truth (hidden perturbation,
//                                    crosstalk), deterministic;
//  * sample_executed_fidelity(...) — shot noise around that mean.
// executed_fidelity(...) is the composition of the last two. The mean is a
// pure function of (transpiled circuit, backend calibration, signature), so
// the orchestrator computes it once per (prep, QPU, calibration generation)
// and an analytic execution only draws the shot noise. Keeping every term
// in one translation unit guarantees the estimator and the simulator agree
// on everything except the hidden terms.

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "mitigation/pipeline.hpp"
#include "qpu/backend.hpp"
#include "simulator/noise.hpp"

namespace qon::estimator {

/// Mitigated fidelity as the estimator would compute it from published
/// calibration only (no hidden noise, no crosstalk model).
double predicted_fidelity(const circuit::Circuit& physical, const qpu::Backend& backend,
                          const mitigation::MitigationSignature& signature);

/// Ground-truth mitigated fidelity before shot noise: true rates (hidden
/// perturbation + crosstalk). Draws nothing.
double executed_fidelity_mean(const circuit::Circuit& physical, const qpu::Backend& backend,
                              const mitigation::MitigationSignature& signature,
                              const sim::HiddenNoise& hidden, double crosstalk_factor);

/// One measured fidelity: `mean` plus the shot noise of `shots` samples
/// (one normal draw), clamped to [0, 1].
double sample_executed_fidelity(double mean, int shots, Rng& rng);

/// Ground-truth mitigated fidelity with shot noise:
/// sample_executed_fidelity(executed_fidelity_mean(...), shots, rng).
double executed_fidelity(const circuit::Circuit& physical, const qpu::Backend& backend,
                         const mitigation::MitigationSignature& signature,
                         const sim::HiddenNoise& hidden, double crosstalk_factor, int shots,
                         Rng& rng);

}  // namespace qon::estimator
