#pragma once
// Dense state-vector simulator. Qubit 0 is the least-significant bit of the
// basis-state index. Supports every unitary GateKind; measurements are
// terminal and handled by sampling from the final distribution.
//
// Gate application is a plain sequential loop: one simulation runs on one
// thread, and the serving path gets its parallelism from the run-engine
// workers executing many tasks at once.

#include <complex>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"

namespace qon::sim {

using cplx = std::complex<double>;

/// Measurement outcome histogram keyed by the packed classical register
/// (clbit 0 = least-significant bit).
using Counts = std::map<std::uint64_t, std::uint64_t>;

/// Renders a packed outcome as a bitstring, clbit 0 rightmost (Qiskit order).
std::string bitstring(std::uint64_t outcome, int width);

/// Normalizes counts into a probability map.
std::map<std::uint64_t, double> counts_to_distribution(const Counts& counts);

/// 2x2 unitary of a one-qubit gate (row-major). Throws for non-1q kinds.
std::array<cplx, 4> gate_unitary_1q(circuit::GateKind kind, double param);

/// 4x4 unitary of a two-qubit gate (row-major, basis |q1 q0> with qubit
/// order (first operand = index 0)). Throws for non-2q kinds.
std::array<cplx, 16> gate_unitary_2q(circuit::GateKind kind, double param);

/// Dense state vector over n qubits, initialized to |0...0>.
class StateVector {
 public:
  explicit StateVector(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  std::size_t dimension() const { return amps_.size(); }
  const std::vector<cplx>& amplitudes() const { return amps_; }

  /// Applies a unitary gate. kMeasure/kBarrier/kDelay/kI are no-ops here
  /// (noise for delays is handled by the trajectory runner).
  void apply(const circuit::Gate& gate);

  /// Applies an explicit 2x2 unitary to qubit q.
  void apply_unitary_1q(int q, const std::array<cplx, 4>& u);

  /// Applies an explicit 4x4 unitary to (q0, q1); q0 is the low-order axis.
  void apply_unitary_2q(int q0, int q1, const std::array<cplx, 16>& u);

  /// Applies every unitary gate of `circ` in order.
  void run(const circuit::Circuit& circ);

  /// |amplitude|^2 for every basis state.
  std::vector<double> probabilities() const;

  /// Probability of each *measured* register outcome according to the
  /// circuit's measure gates (qubit -> clbit). Qubits never measured are
  /// traced out.
  std::map<std::uint64_t, double> measured_distribution(const circuit::Circuit& circ) const;

  /// Samples `shots` outcomes of the measured register.
  Counts sample_counts(const circuit::Circuit& circ, int shots, Rng& rng) const;

  /// L2 norm (should stay 1 within numerical tolerance).
  double norm() const;

 private:
  int num_qubits_;
  std::vector<cplx> amps_;
};

/// Convenience: exact (noiseless) measured distribution of a circuit.
std::map<std::uint64_t, double> ideal_distribution(const circuit::Circuit& circ);

}  // namespace qon::sim
