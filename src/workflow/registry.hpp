#pragma once
// Hybrid workflow images and the workflow registry (§5): packaged,
// reusable, distributable workflow definitions keyed by image id. Images
// bundle the task DAG with the YAML deployment configuration (Listing 1).

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "workflow/dag.hpp"
#include "yamlite/yamlite.hpp"

namespace qon::workflow {

using ImageId = std::uint64_t;

/// A packaged hybrid workflow.
struct WorkflowImage {
  ImageId id = 0;
  std::string name;
  WorkflowDag dag;
  /// The run engine's execution order: `dag` topologically sorted once, at
  /// registration, instead of once per run.
  std::vector<TaskId> order;
  yaml::Node config;  ///< deployment configuration (accelerator/QPU prefs)
};

/// In-memory image repository.
class WorkflowRegistry {
 public:
  /// Registers an image and assigns its id. Names need not be unique;
  /// lookup by name returns the latest registration.
  ImageId register_image(std::string name, WorkflowDag dag, yaml::Node config);

  /// Fetch by id; nullptr when absent. The registry is append-only, so the
  /// returned pointer stays valid for the registry's lifetime.
  const WorkflowImage* find(ImageId id) const;

  /// Latest image registered under `name`, if any.
  std::optional<ImageId> find_by_name(const std::string& name) const;

  /// All registered images, oldest first.
  std::vector<ImageId> list() const;

  std::size_t size() const { return images_.size(); }

 private:
  std::map<ImageId, WorkflowImage> images_;
  ImageId next_id_ = 1;
};

}  // namespace qon::workflow
