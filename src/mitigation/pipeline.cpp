#include "mitigation/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace qon::mitigation {

namespace {

// Model constants: residual error fraction per technique (multiplicative on
// 1 - fidelity), chosen to reproduce the paper's ordering of uplift:
// PEC > ZNE > REM > DD > twirling.
constexpr double kZneResidual = 0.55;
constexpr double kPecResidual = 0.35;
constexpr double kRemResidual = 0.85;
constexpr double kDdResidual = 0.92;
constexpr double kTwirlResidual = 0.96;

// The one configuration each technique runs at.
// ZNE folds the circuit at noise factors 1, 3 and 5: three instances whose
// runtimes sum to nine times the unfolded circuit's.
constexpr double kZneInstances = 3.0;
constexpr double kZneRuntimeMultiplier = 1.0 + 3.0 + 5.0;
// Fraction of idle dephasing that survives on DD-protected qubits, consumed
// by the noise and ESP models through the signature.
constexpr double kDdDephasingResidual = 0.35;
// Pauli-twirled instances per circuit.
constexpr double kTwirlInstances = 8.0;

// Classical cost bases (seconds, CPU): per circuit instance generated and
// per unit of post-processing work.
constexpr double kPreprocessPerInstance = 2e-3;
constexpr double kZneInferenceBase = 0.05;
constexpr double kPecCombineBase = 0.08;
constexpr double kRemInversionPerOutcomeDim = 2e-6;  // x 2^clbits (capped)
constexpr double kKnitPerVariant = 4e-3;

}  // namespace

const char* technique_name(Technique t) {
  switch (t) {
    case Technique::kZne: return "zne";
    case Technique::kPec: return "pec";
    case Technique::kRem: return "rem";
    case Technique::kDd: return "dd";
    case Technique::kTwirling: return "twirling";
    case Technique::kCutting: return "cutting";
  }
  return "?";
}

const char* accelerator_name(Accelerator a) {
  switch (a) {
    case Accelerator::kCpu: return "cpu";
    case Accelerator::kGpu: return "gpu";
    case Accelerator::kFpga: return "fpga";
  }
  return "?";
}

double accelerator_speedup(Accelerator a) {
  switch (a) {
    case Accelerator::kCpu: return 1.0;
    case Accelerator::kGpu: return 8.0;   // circuit-knitting tensor work
    case Accelerator::kFpga: return 4.0;  // readout classification pipelines
  }
  return 1.0;
}

double pec_gamma(double error_probability) {
  if (error_probability < 0.0 || error_probability >= 1.0) {
    throw std::invalid_argument("pec_gamma: error probability out of range");
  }
  return (1.0 + error_probability / 2.0) / (1.0 - error_probability);
}

bool MitigationSpec::uses(Technique t) const {
  return std::find(stack.begin(), stack.end(), t) != stack.end();
}

std::string MitigationSpec::to_string() const {
  if (stack.empty()) return "none";
  std::ostringstream oss;
  for (std::size_t i = 0; i < stack.size(); ++i) {
    if (i) oss << "+";
    oss << technique_name(stack[i]);
  }
  return oss.str();
}

MitigationSignature compute_signature(const MitigationSpec& spec, std::size_t num_qubits,
                                      std::size_t depth, std::size_t two_qubit_gates,
                                      std::size_t num_clbits, double mean_gate_error_2q,
                                      Accelerator accelerator) {
  MitigationSignature sig;
  const double speedup = accelerator_speedup(accelerator);

  for (const Technique t : spec.stack) {
    switch (t) {
      case Technique::kZne: {
        sig.circuit_instances *= kZneInstances;
        sig.quantum_runtime_multiplier *= kZneRuntimeMultiplier;
        sig.classical_postprocess_seconds += kZneInferenceBase / speedup;
        sig.error_residual *= kZneResidual;
        break;
      }
      case Technique::kPec: {
        // Overhead grows with circuit size; cap it so the scheduler still
        // sees PEC as an (expensive) option rather than infinity.
        const double per_gate_gamma2 =
            std::pow(pec_gamma(std::min(mean_gate_error_2q, 0.4)), 2.0);
        const double overhead =
            std::min(std::pow(per_gate_gamma2, static_cast<double>(two_qubit_gates)), 64.0);
        sig.circuit_instances *= std::min(overhead, 32.0);
        sig.quantum_runtime_multiplier *= overhead;
        sig.classical_postprocess_seconds += kPecCombineBase * overhead / speedup;
        sig.error_residual *= kPecResidual;
        break;
      }
      case Technique::kRem: {
        // Two calibration circuits amortized, plus tensored inversion.
        sig.circuit_instances += 2.0;
        sig.quantum_runtime_multiplier *= 1.05;
        const double dim = std::pow(2.0, std::min<std::size_t>(num_clbits, 20));
        sig.classical_postprocess_seconds += kRemInversionPerOutcomeDim * dim / speedup;
        sig.error_residual *= kRemResidual;
        break;
      }
      case Technique::kDd: {
        // Pulses add a little quantum time; benefit enters via the residual
        // and the delay-dephasing factor consumed by the noise/ESP models.
        sig.quantum_runtime_multiplier *= 1.02;
        sig.error_residual *= kDdResidual;
        sig.delay_dephasing_residual =
            std::min(sig.delay_dephasing_residual, kDdDephasingResidual);
        break;
      }
      case Technique::kTwirling: {
        sig.circuit_instances *= kTwirlInstances;
        // Shots are split across twirls; only per-instance overhead remains.
        sig.quantum_runtime_multiplier *= 1.1;
        sig.error_residual *= kTwirlResidual;
        break;
      }
      case Technique::kCutting: {
        // Cut count estimate: crossing gates scale with 2q density across a
        // balanced bipartition; conservatively 1 + 2q/(4*width).
        const std::size_t cuts =
            1 + two_qubit_gates / std::max<std::size_t>(4 * num_qubits, 1);
        sig.cut_count = cuts;
        sig.cuts_circuit = true;
        // Sampling overhead is capped at two effective cuts (81x), mirroring
        // production knitting toolboxes that refuse runs beyond a sampling
        // budget; beyond that the scheduler would never pick the plan anyway.
        const double variants = std::min(std::pow(4.0, static_cast<double>(cuts)), 16.0);
        sig.circuit_instances *= variants;
        sig.quantum_runtime_multiplier *= std::min(std::pow(9.0, static_cast<double>(cuts)), 81.0);
        sig.classical_postprocess_seconds += kKnitPerVariant * variants *
                                             static_cast<double>(std::max<std::size_t>(depth, 1)) /
                                             speedup;
        // The error residual is untouched: the fidelity benefit of narrower
        // fragments and the per-cut reconstruction penalty both enter
        // through knitted_fidelity() in estimator/execution_model.cpp.
        break;
      }
    }
  }
  sig.classical_preprocess_seconds +=
      kPreprocessPerInstance * sig.circuit_instances *
      (1.0 + static_cast<double>(depth) / 256.0);
  return sig;
}

double mitigated_fidelity(double base_fidelity, const MitigationSignature& signature) {
  const double f = 1.0 - (1.0 - base_fidelity) * signature.error_residual;
  return std::clamp(f, 0.0, 1.0);
}

std::vector<MitigationSpec> standard_mitigation_menu() {
  std::vector<MitigationSpec> menu;
  menu.push_back({});  // none

  MitigationSpec dd;
  dd.stack = {Technique::kDd};
  menu.push_back(dd);

  MitigationSpec rem_dd;
  rem_dd.stack = {Technique::kRem, Technique::kDd};
  menu.push_back(rem_dd);

  MitigationSpec twirl_rem;
  twirl_rem.stack = {Technique::kTwirling, Technique::kRem};
  menu.push_back(twirl_rem);

  MitigationSpec zne;
  zne.stack = {Technique::kZne};
  menu.push_back(zne);

  MitigationSpec zne_rem_dd;
  zne_rem_dd.stack = {Technique::kZne, Technique::kRem, Technique::kDd};
  menu.push_back(zne_rem_dd);

  MitigationSpec pec;
  pec.stack = {Technique::kPec};
  menu.push_back(pec);

  MitigationSpec cutting;
  cutting.stack = {Technique::kCutting};
  menu.push_back(cutting);

  MitigationSpec cutting_zne;
  cutting_zne.stack = {Technique::kCutting, Technique::kZne};
  menu.push_back(cutting_zne);

  return menu;
}

}  // namespace qon::mitigation
