#include "circuit/circuit.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qon::circuit {

Circuit::Circuit(int num_qubits, std::string name)
    : num_qubits_(num_qubits), name_(std::move(name)) {
  if (num_qubits <= 0) throw std::invalid_argument("Circuit: num_qubits must be > 0");
}

void Circuit::append(const Gate& gate) {
  const int arity = gate.arity();
  for (int i = 0; i < arity; ++i) {
    const int q = gate.qubit(i);
    if (q < 0 || q >= num_qubits_) {
      throw std::out_of_range("Circuit::append: qubit index out of range: " + gate.to_string());
    }
  }
  if (arity == 2 && gate.qubit(0) == gate.qubit(1)) {
    throw std::invalid_argument("Circuit::append: duplicate operand qubits: " + gate.to_string());
  }
  gates_.push_back(gate);
}

void Circuit::extend(const Circuit& other) {
  if (other.num_qubits_ > num_qubits_) {
    throw std::invalid_argument("Circuit::extend: other circuit is wider");
  }
  for (const auto& g : other.gates_) append(g);
}

void Circuit::measure_all() {
  for (int q = 0; q < num_qubits_; ++q) measure(q);
}

int Circuit::depth() const {
  std::vector<int> level(static_cast<std::size_t>(num_qubits_), 0);
  int max_level = 0;
  for (const auto& g : gates_) {
    if (g.kind == GateKind::kBarrier) {
      const int sync = *std::max_element(level.begin(), level.end());
      std::fill(level.begin(), level.end(), sync);
      continue;
    }
    int start = 0;
    for (int i = 0; i < g.arity(); ++i) {
      start = std::max(start, level[static_cast<std::size_t>(g.qubit(i))]);
    }
    const int finish = start + 1;
    for (int i = 0; i < g.arity(); ++i) {
      level[static_cast<std::size_t>(g.qubit(i))] = finish;
    }
    max_level = std::max(max_level, finish);
  }
  return max_level;
}

std::size_t Circuit::two_qubit_gate_count() const {
  std::size_t n = 0;
  for (const auto& g : gates_) {
    if (is_two_qubit(g.kind)) ++n;
  }
  return n;
}

std::size_t Circuit::operation_count() const {
  std::size_t n = 0;
  for (const auto& g : gates_) {
    if (g.kind != GateKind::kBarrier && g.kind != GateKind::kMeasure) ++n;
  }
  return n;
}

std::size_t Circuit::measurement_count() const {
  std::size_t n = 0;
  for (const auto& g : gates_) {
    if (g.kind == GateKind::kMeasure) ++n;
  }
  return n;
}

int Circuit::num_clbits() const {
  int width = 0;
  for (const auto& g : gates_) {
    if (g.kind == GateKind::kMeasure) width = std::max(width, g.qubits[1] + 1);
  }
  return width;
}

std::map<std::string, std::size_t> Circuit::gate_counts() const {
  std::map<std::string, std::size_t> counts;
  for (const auto& g : gates_) ++counts[gate_name(g.kind)];
  return counts;
}

bool Circuit::respects_coupling(const std::vector<std::pair<int, int>>& edges) const {
  auto connected = [&edges](int a, int b) {
    if (a > b) std::swap(a, b);
    return std::find(edges.begin(), edges.end(), std::make_pair(a, b)) != edges.end();
  };
  for (const auto& g : gates_) {
    if (!is_two_qubit(g.kind)) continue;
    if (!connected(g.qubit(0), g.qubit(1))) return false;
  }
  return true;
}

Circuit Circuit::without_measurements() const {
  Circuit out(num_qubits_, name_);
  for (const auto& g : gates_) {
    if (g.kind != GateKind::kMeasure) out.gates_.push_back(g);
  }
  return out;
}

Circuit Circuit::remapped(const std::vector<int>& mapping, int new_width) const {
  if (mapping.size() != static_cast<std::size_t>(num_qubits_)) {
    throw std::invalid_argument("Circuit::remapped: mapping size mismatch");
  }
  Circuit out(new_width, name_);
  for (const auto& g : gates_) {
    Gate mapped = g;
    for (int i = 0; i < g.arity(); ++i) {
      const int target = mapping[static_cast<std::size_t>(g.qubit(i))];
      if (target < 0 || target >= new_width) {
        throw std::out_of_range("Circuit::remapped: mapped index out of range");
      }
      mapped.qubits[static_cast<std::size_t>(i)] = target;
    }
    out.gates_.push_back(mapped);
  }
  return out;
}

Circuit Circuit::inverse() const {
  Circuit out(num_qubits_, name_ + "_dg");
  for (auto it = gates_.rbegin(); it != gates_.rend(); ++it) {
    Gate g = *it;
    switch (g.kind) {
      case GateKind::kMeasure:
      case GateKind::kBarrier:
        continue;
      case GateKind::kS:
        g.kind = GateKind::kSdg;
        break;
      case GateKind::kSdg:
        g.kind = GateKind::kS;
        break;
      case GateKind::kT:
        g.kind = GateKind::kTdg;
        break;
      case GateKind::kTdg:
        g.kind = GateKind::kT;
        break;
      case GateKind::kSX:
        // SX⁻¹ = RX(-π/2) up to global phase.
        g.kind = GateKind::kRX;
        g.param = -M_PI / 2.0;
        break;
      case GateKind::kRX:
      case GateKind::kRY:
      case GateKind::kRZ:
      case GateKind::kRZZ:
        g.param = -g.param;
        break;
      case GateKind::kI:
      case GateKind::kX:
      case GateKind::kY:
      case GateKind::kZ:
      case GateKind::kH:
      case GateKind::kCX:
      case GateKind::kCZ:
      case GateKind::kSwap:
      case GateKind::kDelay:
        break;  // self-inverse (delay is noise-only, keep as-is)
    }
    out.gates_.push_back(g);
  }
  return out;
}

}  // namespace qon::circuit
