#include "mitigation/cutting.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace qon::mitigation {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

namespace {

// Fidelity lost to reconstruction variance, per cut.
constexpr double kPerCutPenalty = 0.02;

}  // namespace

CutResult cut_circuit(const Circuit& circ, const CutPlan& plan) {
  if (plan.group_a.empty() || plan.group_b.empty()) {
    throw std::invalid_argument("cut_circuit: both groups must be non-empty");
  }
  // Each logical qubit's fragment (0 = A, 1 = B) and its index there.
  const auto width = static_cast<std::size_t>(circ.num_qubits());
  std::vector<int> fragment_of(width, -1);
  std::vector<int> local(width, -1);
  const std::vector<int>* groups[] = {&plan.group_a, &plan.group_b};
  for (int f = 0; f < 2; ++f) {
    const auto& group = *groups[f];
    for (std::size_t i = 0; i < group.size(); ++i) {
      const int q = group[i];
      if (q < 0 || static_cast<std::size_t>(q) >= width ||
          fragment_of[static_cast<std::size_t>(q)] >= 0) {
        throw std::invalid_argument("cut_circuit: qubit " + std::to_string(q) +
                                    " is out of range or in both groups");
      }
      fragment_of[static_cast<std::size_t>(q)] = f;
      local[static_cast<std::size_t>(q)] = static_cast<int>(i);
    }
  }
  if (plan.group_a.size() + plan.group_b.size() != width) {
    throw std::invalid_argument("cut_circuit: the groups must cover every qubit");
  }

  CutResult result;
  Circuit fragments[] = {Circuit(static_cast<int>(plan.group_a.size()), circ.name() + "_cutA"),
                         Circuit(static_cast<int>(plan.group_b.size()), circ.name() + "_cutB")};
  for (const auto& g : circ.gates()) {
    if (g.kind == GateKind::kBarrier) {
      fragments[0].barrier();
      fragments[1].barrier();
      continue;
    }
    const int f = fragment_of[static_cast<std::size_t>(g.qubit(0))];
    Gate mapped = g;
    bool crosses = false;
    for (int i = 0; i < g.arity(); ++i) {
      const auto q = static_cast<std::size_t>(g.qubit(i));
      crosses = crosses || fragment_of[q] != f;
      mapped.qubits[static_cast<std::size_t>(i)] = local[q];
    }
    if (crosses) {
      ++result.crossing_gates;
      continue;
    }
    fragments[f].append(mapped);  // measure keeps its original clbit
  }
  result.fragment_a = std::move(fragments[0]);
  result.fragment_b = std::move(fragments[1]);
  const double cuts = static_cast<double>(result.crossing_gates);
  result.sampling_overhead = std::min(std::pow(9.0, cuts), 1e9);
  result.circuit_variants =
      static_cast<std::size_t>(std::min(std::pow(4.0, cuts), 4096.0));
  if (result.circuit_variants == 0) result.circuit_variants = 1;
  return result;
}

double knitted_fidelity(double fidelity_a, double fidelity_b, std::size_t cuts) {
  const double base = fidelity_a * fidelity_b;
  return base * std::pow(1.0 - kPerCutPenalty, static_cast<double>(cuts));
}

}  // namespace qon::mitigation
