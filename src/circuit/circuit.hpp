#pragma once
// The Circuit IR: an ordered gate list over `num_qubits` qubits, plus the
// structural metrics (depth, two-qubit count, ...) the estimator and
// scheduler consume.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "circuit/gate.hpp"

namespace qon::circuit {

/// A quantum circuit. Gates execute in list order.
class Circuit {
 public:
  Circuit() = default;
  explicit Circuit(int num_qubits, std::string name = "circuit");

  int num_qubits() const { return num_qubits_; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const std::vector<Gate>& gates() const { return gates_; }
  std::size_t size() const { return gates_.size(); }
  bool empty() const { return gates_.empty(); }

  /// Appends a raw gate; validates qubit indices.
  void append(const Gate& gate);
  /// Appends all gates of `other` (same width required).
  void extend(const Circuit& other);

  // -- builder helpers ------------------------------------------------------
  void i(int q) { append({GateKind::kI, {q, 0}, 0.0}); }
  void x(int q) { append({GateKind::kX, {q, 0}, 0.0}); }
  void y(int q) { append({GateKind::kY, {q, 0}, 0.0}); }
  void z(int q) { append({GateKind::kZ, {q, 0}, 0.0}); }
  void h(int q) { append({GateKind::kH, {q, 0}, 0.0}); }
  void s(int q) { append({GateKind::kS, {q, 0}, 0.0}); }
  void sdg(int q) { append({GateKind::kSdg, {q, 0}, 0.0}); }
  void t(int q) { append({GateKind::kT, {q, 0}, 0.0}); }
  void tdg(int q) { append({GateKind::kTdg, {q, 0}, 0.0}); }
  void sx(int q) { append({GateKind::kSX, {q, 0}, 0.0}); }
  void rx(int q, double theta) { append({GateKind::kRX, {q, 0}, theta}); }
  void ry(int q, double theta) { append({GateKind::kRY, {q, 0}, theta}); }
  void rz(int q, double theta) { append({GateKind::kRZ, {q, 0}, theta}); }
  void cx(int control, int target) { append({GateKind::kCX, {control, target}, 0.0}); }
  void cz(int a, int b) { append({GateKind::kCZ, {a, b}, 0.0}); }
  void swap(int a, int b) { append({GateKind::kSwap, {a, b}, 0.0}); }
  void rzz(int a, int b, double theta) { append({GateKind::kRZZ, {a, b}, theta}); }
  /// Measures qubit q into classical bit `clbit` (default: clbit = q).
  /// For kMeasure gates, qubits[1] stores the classical bit; the transpiler
  /// remaps the qubit operand but preserves the classical bit, so counts
  /// remain keyed by logical qubit order.
  void measure(int q, int clbit = -1) {
    append({GateKind::kMeasure, {q, clbit < 0 ? q : clbit}, 0.0});
  }
  void barrier() { append({GateKind::kBarrier, {0, 0}, 0.0}); }
  void delay(int q, double seconds) { append({GateKind::kDelay, {q, 0}, seconds}); }

  /// Appends a measurement on every qubit.
  void measure_all();

  // -- metrics --------------------------------------------------------------
  /// Circuit depth: the longest chain of dependent gates. Barriers
  /// synchronize all qubits; measure/delay count as regular slots.
  int depth() const;

  /// Number of two-qubit gates.
  std::size_t two_qubit_gate_count() const;

  /// Number of non-barrier, non-measure gates.
  std::size_t operation_count() const;

  /// Number of measurement gates.
  std::size_t measurement_count() const;

  /// Width of the classical register: 1 + the largest classical bit any
  /// measurement writes to (0 when unmeasured).
  int num_clbits() const;

  /// Per-gate-kind counts (keyed by display name).
  std::map<std::string, std::size_t> gate_counts() const;

  /// True if every multi-qubit gate's operand pair appears in `edges`
  /// (undirected adjacency given as sorted pair list).
  bool respects_coupling(const std::vector<std::pair<int, int>>& edges) const;

  // -- transformations ------------------------------------------------------
  /// Returns a copy with all measurements removed (used before unitary
  /// simulation and by noise-scaling passes that fold unitaries only).
  Circuit without_measurements() const;

  /// Returns the circuit with qubit q replaced by mapping[q]. `new_width`
  /// must cover the mapped indices.
  Circuit remapped(const std::vector<int>& mapping, int new_width) const;

  /// Adjoint of the unitary part (reversed order, inverted gates).
  /// Measurements/barriers are dropped. Throws for non-invertible kinds.
  Circuit inverse() const;

 private:
  int num_qubits_ = 0;
  std::string name_ = "circuit";
  std::vector<Gate> gates_;
};

}  // namespace qon::circuit
