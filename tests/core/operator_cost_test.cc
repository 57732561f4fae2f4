#include "core/operator_cost.h"

#include <gtest/gtest.h>

#include "core/fusion_planner.h"
#include "sim/device_simulator.h"

namespace kf::core {
namespace {

using relational::AggregateSpec;
using relational::DataType;
using relational::Expr;
using relational::OperatorDesc;
using relational::Schema;

Schema I32() { return Schema{{"v", DataType::kInt32}}; }

RealizedSizes SelectSizes(std::uint64_t n, double selectivity) {
  RealizedSizes s;
  s.input_rows = n;
  s.input_row_bytes = 4;
  s.output_rows = static_cast<std::uint64_t>(n * selectivity);
  s.output_row_bytes = 4;
  return s;
}

struct ChainFixture {
  OpGraph graph;
  NodeId src, s1, s2;
  FusionPlan plan;
};

ChainFixture MakeChain() {
  ChainFixture f;
  f.src = f.graph.AddSource("in", I32(), 0);
  f.s1 = f.graph.AddOperator(
      OperatorDesc::Select(Expr::Lt(Expr::FieldRef(0), Expr::Lit(5)), "s1"), f.src);
  f.s2 = f.graph.AddOperator(
      OperatorDesc::Select(Expr::Lt(Expr::FieldRef(0), Expr::Lit(2)), "s2"), f.s1);
  f.plan = PlanFusion(f.graph);
  return f;
}

TEST(OperatorCost, UnfusedSelectIsComputePlusGather) {
  OperatorCostModel model;
  ChainFixture f = MakeChain();
  const auto profiles = model.UnfusedProfiles(f.graph.node(f.s1), SelectSizes(1000000, 0.5));
  ASSERT_EQ(profiles.size(), 2u);
  EXPECT_EQ(profiles[0].global_bytes_read, 4000000u);
  EXPECT_EQ(profiles[0].global_bytes_written, 2000000u);
  EXPECT_EQ(profiles[1].global_bytes_read, 2000000u);
  EXPECT_EQ(profiles[1].global_bytes_written, 2000000u);
}

TEST(OperatorCost, FusedChainEliminatesIntermediateTraffic) {
  OperatorCostModel model;
  ChainFixture f = MakeChain();
  ASSERT_EQ(f.plan.clusters.size(), 1u);
  std::vector<RealizedSizes> members = {SelectSizes(1000000, 0.5),
                                        SelectSizes(500000, 0.5)};
  const auto fused = model.FusedProfiles(f.graph, f.plan.clusters[0], members);
  ASSERT_EQ(fused.size(), 2u);  // one compute + one gather
  // Reads the input once; writes only the final 25%.
  EXPECT_EQ(fused[0].global_bytes_read, 4000000u);
  EXPECT_EQ(fused[0].global_bytes_written, 1000000u);

  // Total fused traffic is well below the unfused chain's.
  auto total_traffic = [](const std::vector<sim::KernelProfile>& profiles) {
    std::uint64_t t = 0;
    for (const auto& p : profiles) t += p.global_bytes_read + p.global_bytes_written;
    return t;
  };
  std::uint64_t unfused_traffic =
      total_traffic(model.UnfusedProfiles(f.graph.node(f.s1), members[0])) +
      total_traffic(model.UnfusedProfiles(f.graph.node(f.s2), members[1]));
  EXPECT_LT(total_traffic(fused), unfused_traffic / 2);
}

TEST(OperatorCost, FusedKernelCarriesClusterRegisterPressure) {
  OperatorCostModel model;
  ChainFixture f = MakeChain();
  std::vector<RealizedSizes> members = {SelectSizes(1000, 0.5), SelectSizes(500, 0.5)};
  const auto fused = model.FusedProfiles(f.graph, f.plan.clusters[0], members);
  EXPECT_EQ(fused[0].registers_per_thread,
            std::max(16, f.plan.clusters[0].register_estimate));
}

TEST(OperatorCost, SortHasMultiplePasses) {
  OperatorCostModel model;
  OpGraph g;
  const NodeId src = g.AddSource("in", I32(), 0);
  const NodeId sort = g.AddOperator(OperatorDesc::Sort({0}), src);
  RealizedSizes s = SelectSizes(1000000, 1.0);
  const auto profiles = model.UnfusedProfiles(g.node(sort), s);
  EXPECT_EQ(profiles.size(), static_cast<std::size_t>(OperatorCostModel::kSortPasses));
  // Radix sort traffic: passes x (read + write everything).
  std::uint64_t traffic = 0;
  for (const auto& p : profiles) traffic += p.global_bytes_read + p.global_bytes_written;
  EXPECT_EQ(traffic,
            static_cast<std::uint64_t>(OperatorCostModel::kSortPasses) * 2 * 4000000);
}

TEST(OperatorCost, AggregationWritesOnlyPartials) {
  OperatorCostModel model;
  OpGraph g;
  const NodeId src = g.AddSource("in", I32(), 0);
  const NodeId agg = g.AddOperator(
      OperatorDesc::Aggregate({}, {AggregateSpec{AggregateSpec::Func::kSum, 0, "s"}}),
      src);
  RealizedSizes s;
  s.input_rows = 1000000;
  s.input_row_bytes = 4;
  s.output_rows = 1;
  s.output_row_bytes = 8;
  const auto profiles = model.UnfusedProfiles(g.node(agg), s);
  ASSERT_EQ(profiles.size(), 2u);
  EXPECT_LT(profiles[0].global_bytes_written, 100000u);  // partials only
}

TEST(OperatorCost, JoinChargesBuildSideAndRandomAccess) {
  OperatorCostModel model;
  OpGraph g;
  const NodeId a = g.AddSource("a", I32(), 0);
  const NodeId b = g.AddSource("b", I32(), 0);
  const NodeId j = g.AddOperator(OperatorDesc::Join(), a, b);
  RealizedSizes s = SelectSizes(1000000, 1.0);
  s.build_bytes = 400000;
  const auto profiles = model.UnfusedProfiles(g.node(j), s);
  EXPECT_EQ(profiles[0].global_bytes_read, 4000000u + 400000u);
  EXPECT_EQ(profiles[0].memory_access_efficiency,
            OperatorCostModel::kProbeAccessEfficiency);
}

TEST(OperatorCost, SizeMismatchThrows) {
  OperatorCostModel model;
  ChainFixture f = MakeChain();
  std::vector<RealizedSizes> wrong = {SelectSizes(10, 0.5)};  // cluster has 2 members
  EXPECT_THROW(model.FusedProfiles(f.graph, f.plan.clusters[0], wrong), kf::Error);
}

}  // namespace
}  // namespace kf::core
