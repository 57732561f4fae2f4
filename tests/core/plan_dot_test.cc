#include "core/plan_dot.h"

#include <gtest/gtest.h>

#include "core/select_chain.h"

namespace kf::core {
namespace {

TEST(PlanDot, PlainGraphListsNodesAndEdges) {
  const SelectChain chain = MakeSelectChain(100, std::vector<double>{0.5, 0.5});
  FusionOptions unfused;
  unfused.enabled = false;
  const std::string dot = ToDot(chain.graph, PlanFusion(chain.graph, unfused));
  EXPECT_NE(dot.find("digraph plan"), std::string::npos);
  EXPECT_NE(dot.find("select1"), std::string::npos);
  EXPECT_NE(dot.find("select2"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("n1 -> n2"), std::string::npos);
  EXPECT_NE(dot.find("cylinder"), std::string::npos);  // source shape
}

TEST(PlanDot, FusionPlanDrawsClusters) {
  const SelectChain chain = MakeSelectChain(100, std::vector<double>{0.5, 0.5});
  const FusionPlan plan = PlanFusion(chain.graph);
  const std::string dot = ToDot(chain.graph, plan);
  EXPECT_NE(dot.find("subgraph cluster_0"), std::string::npos);
  EXPECT_NE(dot.find("fused kernel 0"), std::string::npos);
  EXPECT_NE(dot.find("#d7f0d7"), std::string::npos);  // fused shading
}

TEST(PlanDot, JoinEdgesLabeledProbeAndBuild) {
  OpGraph g;
  using relational::DataType;
  const NodeId a = g.AddSource("a", {{{"k", DataType::kInt64}}}, 1);
  const NodeId b = g.AddSource("b", {{{"k", DataType::kInt64}}}, 1);
  g.AddOperator(relational::OperatorDesc::Join(), a, b);
  const std::string dot = ToDot(g, PlanFusion(g));
  EXPECT_NE(dot.find("probe"), std::string::npos);
  EXPECT_NE(dot.find("build"), std::string::npos);
}

TEST(PlanDot, EscapesLabels) {
  OpGraph g;
  using relational::DataType;
  g.AddSource("weird \"name\"", {{{"k", DataType::kInt64}}}, 1);
  const std::string dot = ToDot(g, PlanFusion(g));
  EXPECT_NE(dot.find("weird \\\"name\\\""), std::string::npos);
}

}  // namespace
}  // namespace kf::core
