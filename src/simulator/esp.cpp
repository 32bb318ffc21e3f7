#include "simulator/esp.hpp"

#include <algorithm>
#include <cmath>

namespace qon::sim {

using circuit::GateKind;

namespace {

std::uint64_t tag_1q(int q) { return 0x1000 + static_cast<std::uint64_t>(q); }
std::uint64_t tag_2q(int a, int b) {
  if (a > b) std::swap(a, b);
  return 0x2000 + static_cast<std::uint64_t>(a) * 1000 + static_cast<std::uint64_t>(b);
}
std::uint64_t tag_readout(int q) { return 0x3000 + static_cast<std::uint64_t>(q); }

}  // namespace

double esp_fidelity(const circuit::Circuit& physical, const qpu::Backend& backend,
                    const HiddenNoise& hidden, const EspOptions& options) {
  const double crosstalk_factor = options.crosstalk_factor;
  const auto& cal = backend.calibration();
  const std::string& name = backend.name();
  double esp = 1.0;
  for (const auto& g : physical.gates()) {
    switch (g.kind) {
      case GateKind::kBarrier:
      case GateKind::kRZ:
      case GateKind::kI:
        break;
      case GateKind::kDelay: {
        if (g.param > 0.0) {
          const auto& qc = cal.qubits[static_cast<std::size_t>(g.qubit(0))];
          esp *= std::exp(-g.param / qc.t1) *
                 std::exp(-g.param * options.delay_dephasing_residual / (2.0 * qc.t2));
        }
        break;
      }
      case GateKind::kMeasure: {
        const int q = g.qubit(0);
        double err = cal.qubits[static_cast<std::size_t>(q)].readout_error *
                     hidden.factor(name, cal.cycle, tag_readout(q));
        esp *= 1.0 - std::min(err, 0.5);
        break;
      }
      case GateKind::kCX:
      case GateKind::kCZ:
      case GateKind::kSwap:
      case GateKind::kRZZ: {
        double err = cal.edge(g.qubit(0), g.qubit(1)).gate_error_2q *
                     hidden.factor(name, cal.cycle, tag_2q(g.qubit(0), g.qubit(1))) *
                     crosstalk_factor;
        esp *= 1.0 - std::min(err, 0.75);
        break;
      }
      default: {
        const int q = g.qubit(0);
        double err = cal.qubits[static_cast<std::size_t>(q)].gate_error_1q *
                     hidden.factor(name, cal.cycle, tag_1q(q));
        esp *= 1.0 - std::min(err, 0.75);
        break;
      }
    }
  }
  // Idle decoherence survival per active qubit.
  const auto schedule = transpiler::asap_schedule(physical, backend);
  for (std::size_t q = 0; q < schedule.qubit_idle.size(); ++q) {
    if (!schedule.qubit_active[q]) continue;
    const double idle = schedule.qubit_idle[q];
    if (idle <= 0.0) continue;
    const auto& qc = cal.qubits[q];
    // Survival of both relaxation and dephasing during idle windows.
    esp *= std::exp(-idle / qc.t1) * std::exp(-idle / (2.0 * qc.t2));
  }
  return std::clamp(esp, 0.0, 1.0);
}

double ground_truth_fidelity(const circuit::Circuit& physical, const qpu::Backend& backend,
                             const HiddenNoise& hidden, int shots, Rng& rng,
                             double crosstalk_factor) {
  const double f =
      esp_fidelity(physical, backend, hidden, EspOptions{.crosstalk_factor = crosstalk_factor});
  const double se = std::sqrt(std::max(f * (1.0 - f), 1e-6) / std::max(shots, 1));
  return std::clamp(f + rng.normal(0.0, se), 0.0, 1.0);
}

}  // namespace qon::sim
