#pragma once
// Fleet factory: builds an IBM-like heterogeneous set of named 27-qubit
// heavy-hex backends with distinct quality factors (the persistent
// performance spread behind Fig. 2b) and a shared drift process.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "qpu/backend.hpp"

namespace qon::qpu {

/// A fleet of QPU backends plus the model registry and drift process.
struct Fleet {
  std::vector<std::shared_ptr<const QpuModel>> models;
  std::vector<std::shared_ptr<Backend>> backends;
  CalibrationDrift drift{CalibrationProfile{}};

  /// Backend lookup by name; throws std::out_of_range when absent.
  std::shared_ptr<Backend> backend(const std::string& name) const;

  /// One template backend per model, averaging current calibrations.
  std::vector<Backend> template_backends() const;

  /// Advances every backend one calibration cycle.
  void recalibrate_all(Rng& rng, double timestamp);

  /// The fleet one calibration cycle later, on fresh backend objects: this
  /// fleet (and every reader of its backends) is left untouched.
  Fleet recalibrated(Rng& rng, double timestamp) const;
};

/// A fleet published as immutable calibration generations. A generation is
/// never written after it is published and is retained for the owner's
/// lifetime (as the image registry retains images), so a reader holding one
/// — or a `const Fleet&` into one — never sees it change or freed.
/// Publishing is lock-free; racing publishers each derive from the
/// generation they displace, so no recalibration is lost.
class FleetGenerations {
 public:
  struct Generation {
    std::uint64_t number = 0;
    Fleet fleet;
    const Generation* previous = nullptr;  ///< retention chain, newest first
  };

  explicit FleetGenerations(Fleet initial);
  ~FleetGenerations();
  FleetGenerations(const FleetGenerations&) = delete;
  FleetGenerations& operator=(const FleetGenerations&) = delete;

  const Generation& current() const { return *current_.load(std::memory_order_acquire); }

  /// Publishes generation current().number + 1 with fleet `next(current())`;
  /// `next` is called again on the winner when a concurrent publish lands
  /// first, so it must be a pure function of its argument.
  void publish(const std::function<Fleet(const Generation&)>& next);

 private:
  std::atomic<const Generation*> current_;
};

/// The paper's recurring IBM device names, in the order used by Fig. 8c.
const std::vector<std::string>& ibm_device_names();

/// Builds `count` 27-qubit Falcon-like backends. Quality factors are spaced
/// log-uniformly in [best_quality, worst_quality] and shuffled by seed, so
/// fleets exhibit the ~38% best-to-worst fidelity spread of Fig. 2b.
Fleet make_ibm_like_fleet(std::size_t count, std::uint64_t seed, double best_quality = 0.72,
                          double worst_quality = 1.55);

}  // namespace qon::qpu
