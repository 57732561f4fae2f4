#include "tpch/q21.h"

#include <gtest/gtest.h>

#include "core/query_executor.h"

namespace kf::tpch {
namespace {

using core::ExecutorOptions;
using core::Strategy;

TpchData SmallData() {
  TpchConfig config;
  config.order_count = 600;
  config.supplier_count = 50;
  return MakeTpchData(config);
}

TEST(Q21, PlanHasManyRelationalOperators) {
  const TpchData data = SmallData();
  const QueryPlan plan = BuildQ21Plan(data);
  // 4 sources + 13 operators.
  EXPECT_EQ(plan.graph.Sources().size(), 4u);
  EXPECT_GE(plan.graph.node_count(), 16u);
}

TEST(Q21, SortsFragmentTheFusionPlan) {
  // "SORTs form a boundary for the application of kernel fusion": Q21 fuses
  // less than Q1 — multiple clusters, at least two of them fused.
  const TpchData data = SmallData();
  const QueryPlan plan = BuildQ21Plan(data);
  const core::FusionPlan fusion = PlanFusion(plan.graph);
  EXPECT_GE(fusion.clusters.size(), 5u);
  EXPECT_GE(fusion.fused_cluster_count(), 2u);
  // The big fused block streams the lineitem source with the late filter,
  // both per-order aggregations, and the probe joins.
  std::size_t biggest = 0;
  const core::FusionCluster* big_cluster = nullptr;
  for (const auto& cluster : fusion.clusters) {
    if (cluster.nodes.size() > biggest) {
      biggest = cluster.nodes.size();
      big_cluster = &cluster;
    }
  }
  ASSERT_GE(biggest, 4u);
  // That block is a single fused kernel containing TWO terminal reductions
  // (the per-order and per-late counts) alongside the streaming chain — a
  // multi-output fused kernel, pattern (c) + (g) composed.
  int reductions = 0;
  for (core::NodeId member : big_cluster->nodes) {
    if (core::Classify(plan.graph.node(member).desc.kind) ==
        core::FusionClass::kReduction) {
      ++reductions;
    }
  }
  EXPECT_EQ(reductions, 2);
  EXPECT_GE(big_cluster->outputs.size(), 3u);  // chain exit + both counts
}

class Q21Execution : public ::testing::TestWithParam<Strategy> {};

TEST_P(Q21Execution, MatchesScalarReference) {
  const TpchData data = SmallData();
  const QueryPlan plan = BuildQ21Plan(data);
  sim::DeviceSimulator device;
  core::QueryExecutor executor(device);
  ExecutorOptions options;
  options.strategy = GetParam();
  options.chunk_count = 8;
  const auto report = executor.Execute(plan.graph, plan.sources, options);
  ASSERT_EQ(report.sink_results.count(plan.sink), 1u);
  const relational::Table reference = ReferenceQ21(data);
  EXPECT_TRUE(relational::SameRowMultiset(report.sink_results.at(plan.sink), reference))
      << "strategy " << ToString(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, Q21Execution,
                         ::testing::Values(Strategy::kSerial, Strategy::kFused,
                                           Strategy::kFission,
                                           Strategy::kFusedFission),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case Strategy::kSerial: return "Serial";
                             case Strategy::kFused: return "Fused";
                             case Strategy::kFission: return "Fission";
                             default: return "FusedFission";
                           }
                         });

TEST(Q21, ReferenceFindsSomeWaitingSuppliers) {
  const TpchData data = SmallData();
  const relational::Table reference = ReferenceQ21(data);
  EXPECT_GT(reference.row_count(), 0u);
  EXPECT_LT(reference.row_count(), data.supplier.row_count());
}

TEST(Q21, FusionGainSmallerThanQ1) {
  // Fig 18: Q21 gains ~13% vs Q1's ~26% — the mechanism is the unfusable
  // SORT/AGGREGATE fraction. We assert the qualitative relation.
  sim::DeviceSimulator device;
  core::QueryExecutor executor(device);
  auto gain = [&](const QueryPlan& plan) {
    ExecutorOptions serial;
    serial.strategy = Strategy::kSerial;
    serial.chunk_count = 8;
    serial.fusion.register_budget = 63;
    ExecutorOptions fused = serial;
    fused.strategy = Strategy::kFused;
    const double base = executor.Execute(plan.graph, plan.sources, serial).makespan;
    const double opt = executor.Execute(plan.graph, plan.sources, fused).makespan;
    return base / opt;
  };
  const TpchData data = SmallData();
  const QueryPlan q1 = BuildQ1Plan(data);
  const QueryPlan q21 = BuildQ21Plan(data);
  EXPECT_GT(gain(q1), 1.0);
  EXPECT_GT(gain(q21), 1.0);
}

}  // namespace
}  // namespace kf::tpch
