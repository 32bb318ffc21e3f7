#include "simulator/statevector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qon::sim {

using circuit::GateKind;

std::string bitstring(std::uint64_t outcome, int width) {
  std::string s(static_cast<std::size_t>(width), '0');
  for (int b = 0; b < width; ++b) {
    if (outcome & (1ULL << b)) s[static_cast<std::size_t>(width - 1 - b)] = '1';
  }
  return s;
}

std::map<std::uint64_t, double> counts_to_distribution(const Counts& counts) {
  std::uint64_t total = 0;
  for (const auto& [k, v] : counts) {
    (void)k;
    total += v;
  }
  std::map<std::uint64_t, double> dist;
  if (total == 0) return dist;
  for (const auto& [k, v] : counts) {
    dist[k] = static_cast<double>(v) / static_cast<double>(total);
  }
  return dist;
}

std::array<cplx, 4> gate_unitary_1q(circuit::GateKind kind, double param) {
  const cplx i(0.0, 1.0);
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  switch (kind) {
    case GateKind::kI:
      return {1, 0, 0, 1};
    case GateKind::kX:
      return {0, 1, 1, 0};
    case GateKind::kY:
      return {0, -i, i, 0};
    case GateKind::kZ:
      return {1, 0, 0, -1};
    case GateKind::kH:
      return {inv_sqrt2, inv_sqrt2, inv_sqrt2, -inv_sqrt2};
    case GateKind::kS:
      return {1, 0, 0, i};
    case GateKind::kSdg:
      return {1, 0, 0, -i};
    case GateKind::kT:
      return {1, 0, 0, std::exp(i * (M_PI / 4.0))};
    case GateKind::kTdg:
      return {1, 0, 0, std::exp(-i * (M_PI / 4.0))};
    case GateKind::kSX:
      return {0.5 * cplx(1, 1), 0.5 * cplx(1, -1), 0.5 * cplx(1, -1), 0.5 * cplx(1, 1)};
    case GateKind::kRX: {
      const double c = std::cos(param / 2.0);
      const double s = std::sin(param / 2.0);
      return {c, -i * s, -i * s, c};
    }
    case GateKind::kRY: {
      const double c = std::cos(param / 2.0);
      const double s = std::sin(param / 2.0);
      return {c, -s, s, c};
    }
    case GateKind::kRZ:
      return {std::exp(-i * (param / 2.0)), 0, 0, std::exp(i * (param / 2.0))};
    default:
      throw std::invalid_argument("gate_unitary_1q: not a one-qubit unitary");
  }
}

std::array<cplx, 16> gate_unitary_2q(circuit::GateKind kind, double param) {
  const cplx i(0.0, 1.0);
  // Basis order |q1 q0>: index = 2*q1 + q0, where q0 is the first operand.
  switch (kind) {
    case GateKind::kCX: {
      // First operand (q0 axis... operand 0) is the CONTROL.
      // Control = operand 0 -> bit 0 of the basis index; target = bit 1.
      // States: |00>,|01>,|10>,|11> as (q1 q0). Control set = q0 = 1.
      return {1, 0, 0, 0,
              0, 0, 0, 1,
              0, 0, 1, 0,
              0, 1, 0, 0};
    }
    case GateKind::kCZ:
      return {1, 0, 0, 0,
              0, 1, 0, 0,
              0, 0, 1, 0,
              0, 0, 0, -1};
    case GateKind::kSwap:
      return {1, 0, 0, 0,
              0, 0, 1, 0,
              0, 1, 0, 0,
              0, 0, 0, 1};
    case GateKind::kRZZ: {
      const cplx em = std::exp(-i * (param / 2.0));
      const cplx ep = std::exp(i * (param / 2.0));
      return {em, 0, 0, 0,
              0, ep, 0, 0,
              0, 0, ep, 0,
              0, 0, 0, em};
    }
    default:
      throw std::invalid_argument("gate_unitary_2q: not a two-qubit unitary");
  }
}

StateVector::StateVector(int num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits < 1 || num_qubits > 28) {
    throw std::invalid_argument("StateVector: supports 1..28 qubits");
  }
  amps_.assign(std::size_t{1} << num_qubits, cplx(0.0, 0.0));
  amps_[0] = cplx(1.0, 0.0);
}

void StateVector::apply_unitary_1q(int q, const std::array<cplx, 4>& u) {
  if (q < 0 || q >= num_qubits_) throw std::out_of_range("apply_unitary_1q: bad qubit");
  const std::size_t mask = std::size_t{1} << q;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    if (i & mask) continue;
    const std::size_t j = i | mask;
    const cplx a0 = amps_[i];
    const cplx a1 = amps_[j];
    amps_[i] = u[0] * a0 + u[1] * a1;
    amps_[j] = u[2] * a0 + u[3] * a1;
  }
}

void StateVector::apply_unitary_2q(int q0, int q1, const std::array<cplx, 16>& u) {
  if (q0 < 0 || q1 < 0 || q0 >= num_qubits_ || q1 >= num_qubits_ || q0 == q1) {
    throw std::out_of_range("apply_unitary_2q: bad qubits");
  }
  const std::size_t m0 = std::size_t{1} << q0;
  const std::size_t m1 = std::size_t{1} << q1;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    if (i & (m0 | m1)) continue;
    const std::size_t i00 = i;
    const std::size_t i01 = i | m0;  // q0 = 1
    const std::size_t i10 = i | m1;  // q1 = 1
    const std::size_t i11 = i | m0 | m1;
    const cplx a00 = amps_[i00];
    const cplx a01 = amps_[i01];
    const cplx a10 = amps_[i10];
    const cplx a11 = amps_[i11];
    // Basis order within the 4-block: (q1 q0) = 00, 01, 10, 11.
    amps_[i00] = u[0] * a00 + u[1] * a01 + u[2] * a10 + u[3] * a11;
    amps_[i01] = u[4] * a00 + u[5] * a01 + u[6] * a10 + u[7] * a11;
    amps_[i10] = u[8] * a00 + u[9] * a01 + u[10] * a10 + u[11] * a11;
    amps_[i11] = u[12] * a00 + u[13] * a01 + u[14] * a10 + u[15] * a11;
  }
}

void StateVector::apply(const circuit::Gate& gate) {
  switch (gate.kind) {
    case GateKind::kMeasure:
    case GateKind::kBarrier:
    case GateKind::kDelay:
    case GateKind::kI:
      return;
    default:
      break;
  }
  if (circuit::is_two_qubit(gate.kind)) {
    apply_unitary_2q(gate.qubit(0), gate.qubit(1), gate_unitary_2q(gate.kind, gate.param));
  } else {
    apply_unitary_1q(gate.qubit(0), gate_unitary_1q(gate.kind, gate.param));
  }
}

void StateVector::run(const circuit::Circuit& circ) {
  if (circ.num_qubits() != num_qubits_) throw std::invalid_argument("StateVector::run: width");
  for (const auto& g : circ.gates()) apply(g);
}

std::vector<double> StateVector::probabilities() const {
  std::vector<double> probs(amps_.size());
  for (std::size_t i = 0; i < amps_.size(); ++i) probs[i] = std::norm(amps_[i]);
  return probs;
}

std::map<std::uint64_t, double> StateVector::measured_distribution(
    const circuit::Circuit& circ) const {
  // Gather qubit -> clbit pairs from measure gates.
  std::vector<std::pair<int, int>> meas;  // (qubit, clbit)
  for (const auto& g : circ.gates()) {
    if (g.kind == GateKind::kMeasure) meas.emplace_back(g.qubit(0), g.qubits[1]);
  }
  if (meas.empty()) throw std::invalid_argument("measured_distribution: no measurements");

  std::map<std::uint64_t, double> dist;
  const auto probs = probabilities();
  for (std::size_t state = 0; state < probs.size(); ++state) {
    if (probs[state] < 1e-18) continue;
    std::uint64_t outcome = 0;
    for (const auto& [q, c] : meas) {
      if (state & (std::size_t{1} << q)) outcome |= (1ULL << c);
    }
    dist[outcome] += probs[state];
  }
  return dist;
}

Counts StateVector::sample_counts(const circuit::Circuit& circ, int shots, Rng& rng) const {
  if (shots <= 0) throw std::invalid_argument("sample_counts: shots must be > 0");
  const auto dist = measured_distribution(circ);
  // Build a CDF over the measured outcomes.
  std::vector<std::pair<double, std::uint64_t>> cdf;
  cdf.reserve(dist.size());
  double acc = 0.0;
  for (const auto& [outcome, p] : dist) {
    acc += p;
    cdf.emplace_back(acc, outcome);
  }
  Counts counts;
  for (int s = 0; s < shots; ++s) {
    const double u = rng.uniform() * acc;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u,
                                     [](const auto& e, double v) { return e.first < v; });
    counts[it == cdf.end() ? cdf.back().second : it->second]++;
  }
  return counts;
}

double StateVector::norm() const {
  double acc = 0.0;
  for (const auto& a : amps_) acc += std::norm(a);
  return std::sqrt(acc);
}

std::map<std::uint64_t, double> ideal_distribution(const circuit::Circuit& circ) {
  StateVector sv(circ.num_qubits());
  sv.run(circ);
  return sv.measured_distribution(circ);
}

}  // namespace qon::sim
