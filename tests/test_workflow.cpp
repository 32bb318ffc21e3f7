// Tests for the workflow programming model: tasks, DAG invariants, the
// chain builder and the workflow registry.

#include <gtest/gtest.h>

#include "circuit/library.hpp"
#include "workflow/dag.hpp"
#include "workflow/registry.hpp"
#include "workflow/task.hpp"

namespace qon::workflow {
namespace {

TEST(Task, QuantumConstructorCapturesCircuit) {
  auto task = HybridTask::quantum("qaoa", circuit::qaoa_maxcut(6, 1, 3), 2000);
  EXPECT_EQ(task.kind, TaskKind::kQuantum);
  EXPECT_EQ(task.circ.num_qubits(), 6);
  EXPECT_EQ(task.shots, 2000);
  EXPECT_EQ(task.min_qubits, 6);
  EXPECT_STREQ(task_kind_name(task.kind), "quantum");
}

TEST(Task, ClassicalConstructorSetsRequest) {
  auto task = HybridTask::classical("zne-inference", 1.5, mitigation::Accelerator::kGpu);
  EXPECT_EQ(task.kind, TaskKind::kClassical);
  EXPECT_DOUBLE_EQ(task.estimated_seconds, 1.5);
  EXPECT_EQ(task.request.gpus, 1);
}

TEST(Dag, AddTaskAndDependencies) {
  WorkflowDag dag;
  const auto a = dag.add_task(HybridTask::classical("pre", 0.1));
  const auto b = dag.add_task(HybridTask::quantum("run", circuit::ghz(3)));
  const auto c = dag.add_task(HybridTask::classical("post", 0.2));
  dag.add_dependency(a, b);
  dag.add_dependency(b, c);
  EXPECT_EQ(dag.size(), 3u);
  EXPECT_EQ(dag.dependencies(c), (std::vector<TaskId>{b}));
  EXPECT_TRUE(dag.reaches(a, c));
  EXPECT_FALSE(dag.reaches(c, a));
}

TEST(Dag, RejectsCyclesAndSelfEdges) {
  WorkflowDag dag;
  const auto a = dag.add_task(HybridTask::classical("a", 0.1));
  const auto b = dag.add_task(HybridTask::classical("b", 0.1));
  dag.add_dependency(a, b);
  EXPECT_THROW(dag.add_dependency(b, a), std::invalid_argument);  // cycle
  EXPECT_THROW(dag.add_dependency(a, a), std::invalid_argument);  // self
  EXPECT_THROW(dag.add_dependency(a, 99), std::invalid_argument); // unknown
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  WorkflowDag dag;
  const auto a = dag.add_task(HybridTask::classical("a", 0.1));
  const auto b = dag.add_task(HybridTask::classical("b", 0.1));
  const auto c = dag.add_task(HybridTask::classical("c", 0.1));
  const auto d = dag.add_task(HybridTask::classical("d", 0.1));
  dag.add_dependency(a, c);
  dag.add_dependency(b, c);
  dag.add_dependency(c, d);
  const auto order = dag.topological_order();
  ASSERT_EQ(order.size(), 4u);
  auto pos = [&order](TaskId t) {
    return std::find(order.begin(), order.end(), t) - order.begin();
  };
  EXPECT_LT(pos(a), pos(c));
  EXPECT_LT(pos(b), pos(c));
  EXPECT_LT(pos(c), pos(d));
}

TEST(Dag, ChainWorkflowIsLinear) {
  std::vector<HybridTask> tasks;
  tasks.push_back(HybridTask::classical("pre", 0.1));
  tasks.push_back(HybridTask::quantum("q", circuit::ghz(3)));
  tasks.push_back(HybridTask::classical("post", 0.1));
  const auto dag = chain_workflow(std::move(tasks));
  EXPECT_EQ(dag.size(), 3u);
  EXPECT_EQ(dag.edges().size(), 2u);
  const auto order = dag.topological_order();
  EXPECT_EQ(order, (std::vector<TaskId>{0, 1, 2}));
}

TEST(Registry, RegisterAndFetch) {
  WorkflowRegistry registry;
  const auto id = registry.register_image("qaoa-ready", chain_workflow({}), yaml::Node());
  EXPECT_EQ(registry.size(), 1u);
  ASSERT_NE(registry.find(id), nullptr);
  EXPECT_EQ(registry.find(id)->name, "qaoa-ready");
}

TEST(Registry, FindIsNonThrowing) {
  WorkflowRegistry registry;
  const auto id = registry.register_image("lookup", chain_workflow({}), yaml::Node());
  const WorkflowImage* image = registry.find(id);
  ASSERT_NE(image, nullptr);
  EXPECT_EQ(image->name, "lookup");
  EXPECT_EQ(image->id, id);
  EXPECT_EQ(registry.find(id + 42), nullptr);
  // The registry is append-only: pointers survive later registrations.
  registry.register_image("later", chain_workflow({}), yaml::Node());
  EXPECT_EQ(registry.find(id), image);
}

TEST(Registry, ImageCarriesTopologicalOrder) {
  WorkflowDag dag;
  const auto late = dag.add_task(HybridTask::classical("late", 0.1));
  const auto early = dag.add_task(HybridTask::classical("early", 0.1));
  dag.add_dependency(early, late);
  const auto expected = dag.topological_order();
  WorkflowRegistry registry;
  const auto id = registry.register_image("ordered", std::move(dag), yaml::Node());
  ASSERT_NE(registry.find(id), nullptr);
  EXPECT_EQ(registry.find(id)->order, expected);
  EXPECT_EQ(registry.find(id)->order, (std::vector<TaskId>{early, late}));
}

TEST(Registry, FindByNameReturnsLatest) {
  WorkflowRegistry registry;
  registry.register_image("vqe", chain_workflow({}), yaml::Node());
  const auto second = registry.register_image("vqe", chain_workflow({}), yaml::Node());
  const auto found = registry.find_by_name("vqe");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, second);
  EXPECT_FALSE(registry.find_by_name("absent").has_value());
}

TEST(Registry, ListPreservesRegistrationOrder) {
  WorkflowRegistry registry;
  const auto a = registry.register_image("a", chain_workflow({}), yaml::Node());
  const auto b = registry.register_image("b", chain_workflow({}), yaml::Node());
  EXPECT_EQ(registry.list(), (std::vector<ImageId>{a, b}));
}

TEST(Registry, ImagesCarryDeploymentConfig) {
  WorkflowRegistry registry;
  const auto config = yaml::parse(
      "resources:\n"
      "  limits:\n"
      "    qubits: 20\n");
  const auto id = registry.register_image("with-config", chain_workflow({}), config);
  ASSERT_NE(registry.find(id), nullptr);
  EXPECT_EQ(registry.find(id)->config.at("resources").at("limits").at("qubits").as_int(), 20);
}

}  // namespace
}  // namespace qon::workflow
