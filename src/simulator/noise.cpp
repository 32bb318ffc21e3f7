#include "simulator/noise.hpp"

#include "transpiler/scheduling.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qon::sim {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

PauliErrorRates idle_pauli_rates(double idle_seconds, double t1, double t2) {
  if (idle_seconds <= 0.0) return {};
  const double relax = 1.0 - std::exp(-idle_seconds / t1);
  const double dephase = 1.0 - std::exp(-idle_seconds / t2);
  PauliErrorRates rates;
  rates.p_x = relax / 4.0;
  rates.p_y = relax / 4.0;
  rates.p_z = std::max(0.0, dephase / 2.0 - relax / 4.0);
  return rates;
}

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

std::uint64_t hash_string(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

HiddenNoise::HiddenNoise(std::uint64_t seed, double sigma) : seed_(seed), sigma_(sigma) {
  if (sigma < 0.0) throw std::invalid_argument("HiddenNoise: negative sigma");
}

HiddenNoise HiddenNoise::none() { return HiddenNoise(0, 0.0); }

double HiddenNoise::factor(const std::string& backend_name, std::uint64_t cycle,
                           std::uint64_t tag) const {
  if (sigma_ == 0.0) return 1.0;
  std::uint64_t h = mix64(seed_ ^ hash_string(backend_name));
  h = mix64(h ^ (cycle * 0x9e3779b97f4a7c15ULL));
  h = mix64(h ^ tag);
  // Two uniforms -> one standard normal (Box-Muller).
  const double u1 = std::max(1e-12, static_cast<double>(h >> 11) * 0x1.0p-53);
  const double u2 = static_cast<double>(mix64(h) >> 11) * 0x1.0p-53;
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return std::exp(sigma_ * z);
}

namespace {

// Tags for HiddenNoise::factor: disambiguate the error source.
std::uint64_t tag_1q(int q) { return 0x1000 + static_cast<std::uint64_t>(q); }
std::uint64_t tag_2q(int a, int b) {
  if (a > b) std::swap(a, b);
  return 0x2000 + static_cast<std::uint64_t>(a) * 1000 + static_cast<std::uint64_t>(b);
}
std::uint64_t tag_readout(int q) { return 0x3000 + static_cast<std::uint64_t>(q); }

// Applies a uniformly chosen non-identity Pauli to a compact qubit.
void apply_random_pauli(StateVector& sv, int q, Rng& rng) {
  static const std::array<GateKind, 3> kPaulis = {GateKind::kX, GateKind::kY, GateKind::kZ};
  const auto kind = kPaulis[static_cast<std::size_t>(rng.uniform_int(0, 2))];
  sv.apply_unitary_1q(q, gate_unitary_1q(kind, 0.0));
}

// Applies idle Pauli noise with the given rates.
void apply_idle_noise(StateVector& sv, int q, const PauliErrorRates& rates, Rng& rng) {
  const double u = rng.uniform();
  if (u < rates.p_x) {
    sv.apply_unitary_1q(q, gate_unitary_1q(GateKind::kX, 0.0));
  } else if (u < rates.p_x + rates.p_y) {
    sv.apply_unitary_1q(q, gate_unitary_1q(GateKind::kY, 0.0));
  } else if (u < rates.total()) {
    sv.apply_unitary_1q(q, gate_unitary_1q(GateKind::kZ, 0.0));
  }
}

}  // namespace

Counts run_noisy(const Circuit& physical, const qpu::Backend& backend, int shots, Rng& rng,
                 const HiddenNoise& hidden, const TrajectoryOptions& options) {
  if (shots <= 0) throw std::invalid_argument("run_noisy: shots must be > 0");
  const auto& cal = backend.calibration();

  // Compact the circuit onto its active qubits to keep the state vector small.
  std::vector<int> phys_of_compact;
  std::vector<int> compact_of_phys(static_cast<std::size_t>(physical.num_qubits()), -1);
  for (const auto& g : physical.gates()) {
    for (int i = 0; i < g.arity(); ++i) {
      const int p = g.qubit(i);
      if (compact_of_phys[static_cast<std::size_t>(p)] < 0) {
        compact_of_phys[static_cast<std::size_t>(p)] = static_cast<int>(phys_of_compact.size());
        phys_of_compact.push_back(p);
      }
    }
  }
  const int n_active = static_cast<int>(phys_of_compact.size());
  if (n_active == 0) throw std::invalid_argument("run_noisy: circuit has no gates");
  if (n_active > 22) {
    throw std::invalid_argument("run_noisy: too many active qubits for trajectory simulation (" +
                                std::to_string(n_active) + ")");
  }

  Circuit compact(n_active, physical.name());
  for (const auto& g : physical.gates()) {
    Gate mapped = g;
    for (int i = 0; i < g.arity(); ++i) {
      mapped.qubits[static_cast<std::size_t>(i)] =
          compact_of_phys[static_cast<std::size_t>(g.qubit(i))];
    }
    compact.append(mapped);
  }

  // Measured register description (compact qubit, clbit, true flip prob).
  struct MeasureSpec {
    int compact_q;
    int clbit;
    double flip_prob;
  };
  std::vector<MeasureSpec> meas;
  for (const auto& g : physical.gates()) {
    if (g.kind != GateKind::kMeasure) continue;
    const int p = g.qubit(0);
    double flip = cal.qubits[static_cast<std::size_t>(p)].readout_error *
                  hidden.factor(backend.name(), cal.cycle, tag_readout(p));
    flip = std::clamp(flip, 0.0, 0.5);
    meas.push_back({compact_of_phys[static_cast<std::size_t>(p)], g.qubits[1],
                    options.readout_noise ? flip : 0.0});
  }
  if (meas.empty()) throw std::invalid_argument("run_noisy: circuit has no measurements");

  // The noise plan: everything about a gate that does not depend on the
  // draws — the ASAP timeline (so each operand's idle gap), the idle and
  // delay Pauli rates and the true gate error rate — computed once per call.
  // The trajectory loop below only draws, in the same order per gate: idle
  // operands, then the delay, then the gate, then its error.
  enum class GateNoise : unsigned char { kNone, kOneQubit, kTwoQubit };
  struct IdleStep {
    int compact_q;
    PauliErrorRates rates;
  };
  struct GateStep {
    const Gate* gate;  ///< compact gate
    std::size_t idle_end;  ///< idle steps [previous idle_end, idle_end)
    double error_prob;
    GateNoise noise;
    bool unitary;
  };
  std::vector<IdleStep> idle_steps;
  std::vector<GateStep> plan;
  plan.reserve(compact.gates().size());
  {
    std::vector<double> ready(static_cast<std::size_t>(n_active), 0.0);
    for (std::size_t gi = 0; gi < compact.gates().size(); ++gi) {
      const Gate& g = compact.gates()[gi];
      const Gate& pg = physical.gates()[gi];
      if (g.kind == GateKind::kBarrier) {
        const double sync = *std::max_element(ready.begin(), ready.end());
        std::fill(ready.begin(), ready.end(), sync);
        continue;
      }
      const double dur = transpiler::gate_duration(pg, backend);
      double start = 0.0;
      for (int i = 0; i < g.arity(); ++i) {
        start = std::max(start, ready[static_cast<std::size_t>(g.qubit(i))]);
      }
      // Idle decoherence on each operand between its last activity and now.
      if (options.idle_noise) {
        for (int i = 0; i < g.arity(); ++i) {
          const int cq = g.qubit(i);
          const int p = pg.qubit(i);
          const double gap = start - ready[static_cast<std::size_t>(cq)];
          if (gap > 0.0) {
            const auto& qc = cal.qubits[static_cast<std::size_t>(p)];
            idle_steps.push_back({cq, idle_pauli_rates(gap, qc.t1, qc.t2)});
          }
        }
      }
      // Explicit delays are idle time; dephasing may be DD-suppressed.
      if (g.kind == GateKind::kDelay && options.idle_noise && g.param > 0.0) {
        const auto& qc = cal.qubits[static_cast<std::size_t>(pg.qubit(0))];
        auto rates = idle_pauli_rates(g.param, qc.t1, qc.t2);
        rates.p_z *= options.delay_dephasing_residual;
        idle_steps.push_back({g.qubit(0), rates});
      }
      GateStep step{&g, idle_steps.size(), 0.0, GateNoise::kNone,
                    g.kind != GateKind::kMeasure && g.kind != GateKind::kDelay &&
                        g.kind != GateKind::kI};
      if (options.gate_noise) {
        if (circuit::is_two_qubit(g.kind)) {
          double err = cal.edge(pg.qubit(0), pg.qubit(1)).gate_error_2q *
                       hidden.factor(backend.name(), cal.cycle, tag_2q(pg.qubit(0), pg.qubit(1))) *
                       options.crosstalk_factor;
          step.error_prob = std::min(err, 0.75);
          step.noise = GateNoise::kTwoQubit;
        } else if (g.kind != GateKind::kMeasure && g.kind != GateKind::kRZ &&
                   g.kind != GateKind::kDelay && g.kind != GateKind::kBarrier) {
          const int p = pg.qubit(0);
          double err = cal.qubits[static_cast<std::size_t>(p)].gate_error_1q *
                       hidden.factor(backend.name(), cal.cycle, tag_1q(p));
          step.error_prob = std::min(err, 0.75);
          step.noise = GateNoise::kOneQubit;
        }
      }
      plan.push_back(step);
      const double finish = start + dur;
      for (int i = 0; i < g.arity(); ++i) {
        ready[static_cast<std::size_t>(g.qubit(i))] = finish;
      }
    }
  }

  const int n_traj = std::max(1, std::min(options.trajectories, shots));
  Counts counts;
  for (int t = 0; t < n_traj; ++t) {
    StateVector sv(n_active);
    std::size_t idle = 0;
    for (const GateStep& step : plan) {
      for (; idle < step.idle_end; ++idle) {
        apply_idle_noise(sv, idle_steps[idle].compact_q, idle_steps[idle].rates, rng);
      }
      const Gate& g = *step.gate;
      // The gate itself (unitaries only; measure handled at sampling).
      if (step.unitary) sv.apply(g);
      // Stochastic gate error.
      if (step.noise == GateNoise::kTwoQubit) {
        if (rng.bernoulli(step.error_prob)) {
          // Uniform non-identity two-qubit Pauli: at least one leg non-I.
          const int combo = static_cast<int>(rng.uniform_int(1, 15));
          const int leg0 = combo & 3;
          const int leg1 = (combo >> 2) & 3;
          static const std::array<GateKind, 4> kP = {GateKind::kI, GateKind::kX, GateKind::kY,
                                                     GateKind::kZ};
          if (leg0 != 0) sv.apply_unitary_1q(g.qubit(0), gate_unitary_1q(kP[static_cast<std::size_t>(leg0)], 0.0));
          if (leg1 != 0) sv.apply_unitary_1q(g.qubit(1), gate_unitary_1q(kP[static_cast<std::size_t>(leg1)], 0.0));
        }
      } else if (step.noise == GateNoise::kOneQubit) {
        if (rng.bernoulli(step.error_prob)) apply_random_pauli(sv, g.qubit(0), rng);
      }
    }

    // Sample this trajectory's share of shots with readout flips.
    const int share = shots / n_traj + (t < shots % n_traj ? 1 : 0);
    if (share == 0) continue;
    const Counts raw = sv.sample_counts(compact, share, rng);
    for (const auto& [outcome, n] : raw) {
      for (std::uint64_t s = 0; s < n; ++s) {
        std::uint64_t flipped = outcome;
        for (const auto& m : meas) {
          if (m.flip_prob > 0.0 && rng.bernoulli(m.flip_prob)) {
            flipped ^= (1ULL << m.clbit);
          }
        }
        ++counts[flipped];
      }
    }
  }
  return counts;
}

Counts run_ideal(const Circuit& physical, int shots, Rng& rng) {
  // Compact exactly as run_noisy does, then sample without noise.
  std::vector<int> compact_of_phys(static_cast<std::size_t>(physical.num_qubits()), -1);
  int n_active = 0;
  for (const auto& g : physical.gates()) {
    for (int i = 0; i < g.arity(); ++i) {
      const int p = g.qubit(i);
      if (compact_of_phys[static_cast<std::size_t>(p)] < 0) {
        compact_of_phys[static_cast<std::size_t>(p)] = n_active++;
      }
    }
  }
  if (n_active == 0 || n_active > 24) {
    throw std::invalid_argument("run_ideal: unsupported active width");
  }
  Circuit compact(n_active, physical.name());
  for (const auto& g : physical.gates()) {
    Gate mapped = g;
    for (int i = 0; i < g.arity(); ++i) {
      mapped.qubits[static_cast<std::size_t>(i)] =
          compact_of_phys[static_cast<std::size_t>(g.qubit(i))];
    }
    compact.append(mapped);
  }
  StateVector sv(n_active);
  sv.run(compact);
  return sv.sample_counts(compact, shots, rng);
}

}  // namespace qon::sim
