// Per-layer figures: what one run's trace says about where its wall time
// went, and single layers timed in isolation on the workload's own inputs.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "estimator/execution_model.hpp"
#include "simulator/noise.hpp"
#include "transpiler/transpiler.hpp"

namespace perfbench {

namespace {

namespace api = qon::api;
using Clock = std::chrono::steady_clock;

double ms(double us) { return us / 1e3; }

int active_qubits(const qon::circuit::Circuit& physical) {
  std::vector<bool> active(static_cast<std::size_t>(physical.num_qubits()), false);
  int count = 0;
  for (const auto& gate : physical.gates()) {
    for (int i = 0; i < gate.arity(); ++i) {
      const auto q = static_cast<std::size_t>(gate.qubit(i));
      if (!active[q]) {
        active[q] = true;
        ++count;
      }
    }
  }
  return count;
}

/// Repeats `pass` (which reports how many operations it did) until at
/// least `min_seconds` elapsed; returns wall seconds per operation.
template <typename Pass>
double seconds_per_op(double min_seconds, Pass pass) {
  const auto start = Clock::now();
  std::size_t ops = 0;
  double elapsed = 0.0;
  do {
    ops += pass();
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds);
  return ops > 0 ? elapsed / static_cast<double>(ops) : 0.0;
}

}  // namespace

double percentile_of(std::vector<double> xs, double p) {
  return xs.empty() ? 0.0 : qon::percentile(std::move(xs), p);
}

double mean_of(const std::vector<double>& xs) { return qon::mean(xs); }

void LogHistogram::add(double x) {
  ++count_;
  sum_ += x;
  std::size_t bucket = 0;
  if (x > kMin) {
    bucket = std::min(kBuckets - 1,
                      1 + static_cast<std::size_t>(std::log(x / kMin) / std::log(kGrowth)));
  }
  ++counts_[bucket];
}

double LogHistogram::quantile(double p) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    // The bucket's geometric middle: b covers [kMin g^(b-1), kMin g^b).
    if (seen >= rank) return b == 0 ? kMin : kMin * std::pow(kGrowth, static_cast<double>(b) - 0.5);
  }
  return kMin * std::pow(kGrowth, static_cast<double>(kBuckets) - 1.5);
}

void absorb_trace(const api::RunTrace& trace, TraceStats& stats) {
  ++stats.runs;
  double submit = -1.0;
  double settle = -1.0;
  std::vector<const api::TraceSpan*> steps;
  std::vector<const api::TraceSpan*> execs;
  std::vector<const api::TraceSpan*> waits;
  for (const auto& span : trace.spans) {
    if (span.name == "submit") {
      submit = span.wall_start_us;
    } else if (span.name == "settle") {
      settle = span.wall_start_us;
    } else if (span.name == "engine_step") {
      steps.push_back(&span);
    } else if (span.name == "qpu_exec") {
      execs.push_back(&span);
    } else if (span.name == "queue_wait") {
      waits.push_back(&span);
    }
  }
  if (submit < 0.0 || settle < 0.0 || steps.empty() || trace.dropped > 0) {
    ++stats.irregular;
    return;
  }
  const auto by_start = [](const api::TraceSpan* a, const api::TraceSpan* b) {
    return a->wall_start_us < b->wall_start_us;
  };
  std::sort(steps.begin(), steps.end(), by_start);

  stats.first_step_lag_ms.push_back(ms(steps.front()->wall_start_us - submit));
  for (const auto* wait : waits) {
    stats.queue_wait_ms.push_back(ms(wait->wall_end_us - wait->wall_start_us));
    const auto resume = std::find_if(steps.begin(), steps.end(), [wait](const auto* step) {
      return step->wall_start_us >= wait->wall_end_us;
    });
    if (resume != steps.end()) {
      stats.resume_lag_ms.push_back(ms((*resume)->wall_start_us - wait->wall_end_us));
    }
  }
  double self_us = 0.0;
  for (const auto* step : steps) {
    self_us += step->wall_end_us - step->wall_start_us;
    for (const auto* exec : execs) {
      if (exec->wall_start_us >= step->wall_start_us && exec->wall_end_us <= step->wall_end_us) {
        self_us -= exec->wall_end_us - exec->wall_start_us;
      }
    }
  }
  stats.step_self_ms.push_back(ms(self_us));
  double last_exec_end = -1.0;
  for (const auto* exec : execs) {
    stats.exec_wall_ms.push_back(ms(exec->wall_end_us - exec->wall_start_us));
    last_exec_end = std::max(last_exec_end, exec->wall_end_us);
  }
  if (last_exec_end >= 0.0) stats.settle_lag_ms.push_back(ms(settle - last_exec_end));

  // The phase partition needs the single-quantum-task shape: a parking
  // step, one queue wait, a resume step holding the one execution.
  if (steps.size() != 2 || waits.size() != 1 || execs.size() != 1) {
    ++stats.irregular;
    return;
  }
  const double cuts[] = {submit,
                         steps[0]->wall_start_us,
                         waits[0]->wall_start_us,
                         waits[0]->wall_end_us,
                         steps[1]->wall_start_us,
                         execs[0]->wall_start_us,
                         execs[0]->wall_end_us,
                         settle};
  static const char* const kPhases[] = {"front", "park",     "queue", "resume",
                                        "pre_exec", "exec", "tail"};
  for (std::size_t i = 0; i + 1 < std::size(cuts); ++i) {
    if (cuts[i + 1] < cuts[i]) {
      ++stats.irregular;
      return;
    }
  }
  for (std::size_t i = 0; i + 1 < std::size(cuts); ++i) {
    stats.phase_sum_ms[kPhases[i]] += ms(cuts[i + 1] - cuts[i]);
  }
  stats.lifetime_sum_ms += ms(settle - submit);
}

IsolatedLayers time_isolated_layers(const api::QonductorClient& client,
                                    const std::vector<qon::circuit::Circuit>& circuits,
                                    std::size_t batch, int shots, int width_limit,
                                    std::uint64_t seed) {
  IsolatedLayers out;
  if (circuits.empty()) return out;
  const auto& backends = client.backend().fleet().backends;

  std::vector<std::vector<qon::transpiler::TranspileResult>> transpiled(circuits.size());
  out.transpile_ms = 1e3 * seconds_per_op(0.2, [&] {
                       for (std::size_t c = 0; c < circuits.size(); ++c) {
                         transpiled[c].clear();
                         for (const auto& backend : backends) {
                           transpiled[c].push_back(
                               qon::transpiler::transpile(circuits[c], *backend));
                         }
                       }
                       return circuits.size() * backends.size();
                     });

  // The estimator half of a prep: mitigation signature, predicted fidelity
  // and runtime for every (circuit, backend).
  std::vector<std::vector<double>> fidelity(circuits.size(), std::vector<double>(backends.size()));
  std::vector<std::vector<double>> runtime(circuits.size(), std::vector<double>(backends.size()));
  out.predict_us = 1e6 * seconds_per_op(0.1, [&] {
                     for (std::size_t c = 0; c < circuits.size(); ++c) {
                       for (std::size_t b = 0; b < backends.size(); ++b) {
                         const auto& t = transpiled[c][b];
                         const auto& backend = *backends[b];
                         const auto sig = qon::mitigation::compute_signature(
                             {}, static_cast<std::size_t>(circuits[c].num_qubits()),
                             static_cast<std::size_t>(t.circuit.depth()),
                             t.circuit.two_qubit_gate_count(),
                             static_cast<std::size_t>(t.circuit.num_clbits()),
                             backend.calibration().mean_gate_error_2q(),
                             qon::mitigation::Accelerator::kCpu);
                         fidelity[c][b] = qon::estimator::predicted_fidelity(t.circuit, backend, sig);
                         runtime[c][b] =
                             qon::transpiler::job_quantum_runtime(t.schedule, shots, backend) *
                             sig.quantum_runtime_multiplier;
                       }
                     }
                     return circuits.size() * backends.size();
                   });

  qon::sched::SchedulingInput input;
  for (const auto& backend : backends) {
    qon::sched::QpuState qpu;
    qpu.name = backend->name();
    qpu.size = backend->num_qubits();
    input.qpus.push_back(std::move(qpu));
  }
  for (std::size_t i = 0; i < batch; ++i) {
    const std::size_t c = i % circuits.size();
    qon::sched::QuantumJob job;
    job.id = i + 1;
    job.qubits = circuits[c].num_qubits();
    job.shots = shots;
    job.fidelity_weight = kFidelityWeights[i % std::size(kFidelityWeights)];
    job.est_fidelity = fidelity[c];
    job.est_exec_seconds = runtime[c];
    input.jobs.push_back(std::move(job));
  }
  std::vector<double> schedule_ms;
  const auto schedule_start = Clock::now();
  while (schedule_ms.size() < 3 ||
         std::chrono::duration<double>(Clock::now() - schedule_start).count() < 0.3) {
    const auto t0 = Clock::now();
    const auto decision = client.generateSchedule(input);
    schedule_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    if (!decision.ok()) break;
  }
  out.generate_schedule_ms = percentile_of(schedule_ms, 50.0);

  // Trajectory simulation of what the engine would simulate: transpiled
  // circuits whose active width fits the trajectory limit.
  std::vector<const qon::circuit::Circuit*> simulable;
  for (const auto& per_backend : transpiled) {
    if (active_qubits(per_backend.front().circuit) <= width_limit) {
      simulable.push_back(&per_backend.front().circuit);
    }
  }
  if (!simulable.empty()) {
    qon::Rng rng(seed);
    const qon::sim::HiddenNoise hidden(seed ^ 0x9d17ULL);
    out.run_noisy_ms = 1e3 * seconds_per_op(0.3, [&] {
                         for (const auto* physical : simulable) {
                           qon::sim::run_noisy(*physical, *backends.front(), shots, rng, hidden);
                         }
                         return simulable.size();
                       });
  }
  return out;
}

}  // namespace perfbench
