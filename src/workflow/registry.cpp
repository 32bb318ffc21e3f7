#include "workflow/registry.hpp"

#include <utility>

namespace qon::workflow {

ImageId WorkflowRegistry::register_image(std::string name, WorkflowDag dag, yaml::Node config) {
  WorkflowImage image;
  image.id = next_id_++;
  image.name = std::move(name);
  image.dag = std::move(dag);
  image.order = image.dag.topological_order();
  image.config = std::move(config);
  const ImageId id = image.id;
  images_.emplace(id, std::move(image));
  return id;
}

const WorkflowImage* WorkflowRegistry::find(ImageId id) const {
  const auto it = images_.find(id);
  return it == images_.end() ? nullptr : &it->second;
}

std::optional<ImageId> WorkflowRegistry::find_by_name(const std::string& name) const {
  std::optional<ImageId> latest;
  for (const auto& [id, image] : images_) {
    if (image.name == name) latest = id;
  }
  return latest;
}

std::vector<ImageId> WorkflowRegistry::list() const {
  std::vector<ImageId> ids;
  ids.reserve(images_.size());
  for (const auto& [id, image] : images_) {
    (void)image;
    ids.push_back(id);
  }
  return ids;
}

}  // namespace qon::workflow
