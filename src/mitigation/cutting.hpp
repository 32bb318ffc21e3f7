#pragma once
// Circuit cutting (§6, Fig. 2a): splits a circuit's qubits into two groups,
// removes the two-qubit gates that cross between them, and returns the two
// fragments for independent execution. Each removed gate is accounted as
// one quasi-probability cut with sampling overhead 9 (the QPD gamma² of
// CX), multiplying quantum runtime and classical reconstruction cost.
//
// Nothing here reconstructs a full-register distribution from fragment
// results: like the rest of the mitigation model, cutting is predicted, not
// executed. Its fidelity *benefit* comes from the fragments being narrower
// and shallower, which the ESP/trajectory models capture directly, minus a
// per-cut reconstruction penalty (knitted_fidelity).

#include <cstddef>
#include <vector>

#include "circuit/circuit.hpp"

namespace qon::mitigation {

/// A bipartition of circuit qubits: every logical qubit in exactly one
/// group, both groups non-empty.
struct CutPlan {
  std::vector<int> group_a;  ///< logical qubits of fragment A
  std::vector<int> group_b;
};

/// The two fragments of a cut.
struct CutResult {
  circuit::Circuit fragment_a;  ///< width = |group_a|
  circuit::Circuit fragment_b;
  /// Two-qubit gates spanning the cut, i.e. the number of cuts.
  std::size_t crossing_gates = 0;
  /// Sampling overhead gamma^2 per cut: 9^crossing_gates (capped at 1e9).
  double sampling_overhead = 1.0;
  /// Number of fragment-circuit variants to execute (4^cuts, capped 4096).
  std::size_t circuit_variants = 1;
};

/// Cuts `circ` along `plan`, counting the crossing gates as it extracts the
/// fragments. Measurement clbits keep their original logical indices.
/// Throws std::invalid_argument unless `plan` partitions the qubits.
CutResult cut_circuit(const circuit::Circuit& circ, const CutPlan& plan);

/// Fidelity model of a knitted execution: the product of fragment
/// fidelities times a 2% penalty per cut reflecting reconstruction variance.
double knitted_fidelity(double fidelity_a, double fidelity_b, std::size_t cuts);

}  // namespace qon::mitigation
