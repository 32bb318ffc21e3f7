#pragma once
// Stacked mitigation model (§6 "Error mitigation"): a MitigationSpec lists
// the techniques applied to a job, and compute_signature() turns it into
// the resource signature the estimator and scheduler consume — how many
// circuit instances run, how much quantum runtime multiplies, what the
// classical pre/post-processing costs on a given accelerator, and what
// fraction of the base error survives.
//
// The signature is the whole mitigation model. Nothing here generates
// folded, twirled or decoupled circuits or post-processes counts: a plan's
// mitigation is a prediction of its cost and benefit, as in the paper's
// resource estimator. Each technique runs at one fixed configuration (ZNE
// at noise factors 1, 3 and 5; DD as X-X pulse pairs; eight twirls), whose
// costs are constants in pipeline.cpp. The residual-error constants there
// are model parameters chosen to reproduce the paper's qualitative uplift
// ordering — PEC > ZNE > REM > DD > twirling — with costs ordered the same
// way.

#include <string>
#include <vector>

namespace qon::mitigation {

/// Techniques the orchestrator can stack.
enum class Technique { kZne, kPec, kRem, kDd, kTwirling, kCutting };

const char* technique_name(Technique t);

/// Classical accelerators available for pre/post-processing (paper Fig. 1).
enum class Accelerator { kCpu, kGpu, kFpga };

const char* accelerator_name(Accelerator a);

/// Post-processing speedup of an accelerator relative to CPU.
double accelerator_speedup(Accelerator a);

/// A stacked mitigation configuration.
struct MitigationSpec {
  std::vector<Technique> stack;

  bool uses(Technique t) const;
  std::string to_string() const;
};

/// Resource signature of a mitigation stack applied to one circuit.
struct MitigationSignature {
  double circuit_instances = 1.0;          ///< generated circuit count
  double quantum_runtime_multiplier = 1.0; ///< on top of shots x duration
  double classical_preprocess_seconds = 0.0;
  double classical_postprocess_seconds = 0.0;
  double error_residual = 1.0;             ///< multiplies (1 - fidelity)
  std::size_t cut_count = 0;               ///< wire/gate cuts (0 = uncut)
  bool cuts_circuit = false;
  double delay_dephasing_residual = 1.0;   ///< DD suppression, for noise/ESP
};

/// gamma of the inverse depolarizing channel with error probability p:
/// gamma = (1 + p/2) / (1 - p) for the Pauli-twirled single/two-qubit case
/// (approximation; grows as errors grow). PEC's sampling overhead is gamma²
/// per gate.
double pec_gamma(double error_probability);

/// Computes the signature of `spec` for a circuit with the given metrics.
/// `two_qubit_gates`/`depth`/`num_qubits`/`num_clbits` describe the
/// transpiled circuit; `mean_gate_error_2q` parameterizes the PEC overhead.
MitigationSignature compute_signature(const MitigationSpec& spec, std::size_t num_qubits,
                                      std::size_t depth, std::size_t two_qubit_gates,
                                      std::size_t num_clbits, double mean_gate_error_2q,
                                      Accelerator accelerator);

/// Applies a signature's residual to a base (unmitigated) fidelity:
/// f' = 1 - (1 - f) * residual, clamped to [0, 1].
double mitigated_fidelity(double base_fidelity, const MitigationSignature& signature);

/// All stacks the resource estimator enumerates when generating plans,
/// ordered roughly by cost (none first).
std::vector<MitigationSpec> standard_mitigation_menu();

}  // namespace qon::mitigation
