// Capacity-pressure behaviour of the executor: when retained intermediates
// exceed device memory, the executor must spill them to host memory (the
// forced round trip of paper Fig 7(a)) instead of failing — and reload them
// for their consumers.
#include <gtest/gtest.h>

#include "core/query_executor.h"
#include "core/select_chain.h"
#include "relational/operators.h"

namespace kf::core {
namespace {

using relational::DataType;
using relational::Expr;
using relational::OperatorDesc;
using relational::Schema;

// A graph whose intermediates all stay retained: three branches off one
// source, consumed again at the end, so the peak retained set (source +
// current sort output + three branch results) far exceeds any single
// operator's own working set.
//   src -> sort_i -> sel_i  (i = 1..3),  union(sel1, union(sel2, sel3))
OpGraph RetentionHeavyGraph(std::uint64_t rows) {
  OpGraph g;
  const NodeId src = g.AddSource("in", Schema{{"v", DataType::kInt32}}, rows);
  std::vector<NodeId> branches;
  for (int i = 1; i <= 3; ++i) {
    const NodeId sorted = g.AddOperator(
        OperatorDesc::Sort({0}, "sort" + std::to_string(i)), src);
    branches.push_back(g.AddOperator(
        OperatorDesc::Select(Expr::Ge(Expr::FieldRef(0), Expr::Lit(i - 1)),
                             "sel" + std::to_string(i)),
        sorted));
  }
  const NodeId inner =
      g.AddOperator(OperatorDesc::Union("union_inner"), branches[1], branches[2]);
  g.AddOperator(OperatorDesc::Union("union_outer"), branches[0], inner);
  return g;
}

TEST(ExecutorSpill, TinyDeviceForcesRoundTripsButStaysCorrect) {
  // 64 MiB device; 5M int32 rows = 20 MB per materialized relation, and the
  // graph retains several at once (the union's inputs + output still fit,
  // but the full retained set does not).
  sim::DeviceSimulator tiny(sim::DeviceSpec::TinyTestDevice());
  QueryExecutor executor(tiny);
  const std::uint64_t rows = 5'000'000;
  const OpGraph graph = RetentionHeavyGraph(rows);

  ExecutorOptions options;
  options.strategy = Strategy::kSerial;
  std::map<NodeId, std::uint64_t> counts;
  for (NodeId id = 0; id < graph.node_count(); ++id) counts[id] = rows;
  const ExecutionReport report = executor.EstimateOnly(graph, counts, options);

  // The working set exceeded capacity, so intermediates round-tripped.
  EXPECT_GT(report.round_trip_time, 0.0);
  EXPECT_LE(report.peak_device_bytes, tiny.spec().mem_capacity_bytes);
}

TEST(ExecutorSpill, BigDeviceNeedsNoRoundTrips) {
  sim::DeviceSimulator big;  // 6 GB
  QueryExecutor executor(big);
  const std::uint64_t rows = 5'000'000;
  const OpGraph graph = RetentionHeavyGraph(rows);
  ExecutorOptions options;
  options.strategy = Strategy::kSerial;
  std::map<NodeId, std::uint64_t> counts;
  for (NodeId id = 0; id < graph.node_count(); ++id) counts[id] = rows;
  const ExecutionReport report = executor.EstimateOnly(graph, counts, options);
  EXPECT_DOUBLE_EQ(report.round_trip_time, 0.0);
}

TEST(ExecutorSpill, SpillingIsFunctionallyInvisible) {
  // Same query on the tiny and the big device: identical results.
  sim::DeviceSimulator tiny(sim::DeviceSpec::TinyTestDevice());
  sim::DeviceSimulator big;
  const std::uint64_t rows = 20000;
  const OpGraph graph = RetentionHeavyGraph(rows);
  const relational::Table data = MakeUniformInt32Table(rows);
  const std::map<NodeId, relational::Table> sources{{graph.Sources()[0], data}};
  ExecutorOptions options;
  options.strategy = Strategy::kSerial;
  options.chunk_count = 4;
  const auto tiny_report = QueryExecutor(tiny).Execute(graph, sources, options);
  const auto big_report = QueryExecutor(big).Execute(graph, sources, options);
  ASSERT_EQ(tiny_report.sink_results.size(), 1u);
  EXPECT_TRUE(relational::SameRowMultiset(
      tiny_report.sink_results.begin()->second,
      big_report.sink_results.begin()->second));
}

// --- Fission segmentation edge cases -----------------------------------
// Degenerate inputs for the segmented pipeline: more segments than rows,
// empty and single-element inputs, and a working set landing exactly on the
// device-memory segmentation boundary.

OpGraph SmallChainGraph() {
  OpGraph g;
  const NodeId src = g.AddSource("in", Schema{{"v", DataType::kInt32}}, 0);
  const NodeId sel = g.AddOperator(
      OperatorDesc::Select(Expr::Ge(Expr::FieldRef(0), Expr::Lit(0)), "keep"),
      src);
  const NodeId sorted = g.AddOperator(OperatorDesc::Sort({0}, "sort"), sel);
  g.AddOperator(
      OperatorDesc::Select(
          Expr::Lt(Expr::FieldRef(0), Expr::Lit(std::int64_t{1} << 31)), "cap"),
      sorted);
  return g;
}

TEST(FissionEdgeCases, MoreSegmentsThanRows) {
  // 5 rows through a 12-segment fission pipeline: most segments are empty,
  // results must still match the serial strategy exactly.
  sim::DeviceSimulator device;
  QueryExecutor executor(device);
  const OpGraph graph = SmallChainGraph();
  const std::map<NodeId, relational::Table> sources{
      {graph.Sources()[0], MakeUniformInt32Table(5)}};

  ExecutorOptions serial;
  serial.strategy = Strategy::kSerial;
  const auto expected = executor.Execute(graph, sources, serial);

  for (Strategy strategy : {Strategy::kFission, Strategy::kFusedFission}) {
    ExecutorOptions options;
    options.strategy = strategy;
    options.fission_segments = 12;
    const auto report = executor.Execute(graph, sources, options);
    ASSERT_EQ(report.sink_results.size(), 1u) << ToString(strategy);
    EXPECT_TRUE(relational::SameRowMultiset(
        report.sink_results.begin()->second,
        expected.sink_results.begin()->second))
        << ToString(strategy);
    EXPECT_GT(report.makespan, 0.0) << ToString(strategy);
  }
}

TEST(FissionEdgeCases, EmptyInput) {
  sim::DeviceSimulator device;
  QueryExecutor executor(device);
  const OpGraph graph = SmallChainGraph();
  const std::map<NodeId, relational::Table> sources{
      {graph.Sources()[0], MakeUniformInt32Table(0)}};

  for (Strategy strategy : {Strategy::kSerial, Strategy::kFused,
                            Strategy::kFission, Strategy::kFusedFission}) {
    ExecutorOptions options;
    options.strategy = strategy;
    const auto report = executor.Execute(graph, sources, options);
    ASSERT_EQ(report.sink_results.size(), 1u) << ToString(strategy);
    EXPECT_EQ(report.sink_results.begin()->second.row_count(), 0u)
        << ToString(strategy);
  }
}

TEST(FissionEdgeCases, SingleElementInput) {
  sim::DeviceSimulator device;
  QueryExecutor executor(device);
  const OpGraph graph = SmallChainGraph();
  const relational::Table one = MakeUniformInt32Table(1);
  const std::map<NodeId, relational::Table> sources{{graph.Sources()[0], one}};

  for (Strategy strategy : {Strategy::kSerial, Strategy::kFused,
                            Strategy::kFission, Strategy::kFusedFission}) {
    ExecutorOptions options;
    options.strategy = strategy;
    options.fission_segments = 4;
    const auto report = executor.Execute(graph, sources, options);
    ASSERT_EQ(report.sink_results.size(), 1u) << ToString(strategy);
    // v >= 0 keeps the uniform-domain value; the row survives both selects.
    EXPECT_EQ(report.sink_results.begin()->second.row_count(), 1u)
        << ToString(strategy);
  }
}

TEST(FissionEdgeCases, SegmentBoundaryExactlyAtDeviceCapacity) {
  // Row counts chosen so the working set lands exactly ON the segmentation
  // threshold (budget fraction x capacity), and one row past it. Both must
  // execute without throwing and respect the capacity invariant — the
  // boundary is where an off-by-one in segment sizing would surface.
  sim::DeviceSimulator tiny(sim::DeviceSpec::TinyTestDevice());
  QueryExecutor executor(tiny);
  OpGraph g;
  const NodeId src = g.AddSource("in", Schema{{"v", DataType::kInt32}}, 0);
  g.AddOperator(
      OperatorDesc::Select(Expr::Ge(Expr::FieldRef(0), Expr::Lit(0)), "keep"),
      src);

  ExecutorOptions options;
  options.strategy = Strategy::kFission;
  // 0.45 x 64 MiB = 30,198,988 bytes; int32 rows -> exactly 7,549,747 rows
  // on the boundary.
  const auto budget = static_cast<std::uint64_t>(
      static_cast<double>(tiny.spec().mem_capacity_bytes) *
      ExecutorOptions::kDeviceMemoryBudget);
  const std::uint64_t boundary_rows = budget / 4;
  ASSERT_EQ(boundary_rows * 4, budget);

  for (std::uint64_t rows : {boundary_rows, boundary_rows + 1}) {
    std::map<NodeId, std::uint64_t> counts;
    for (NodeId id = 0; id < g.node_count(); ++id) counts[id] = rows;
    const ExecutionReport report = executor.EstimateOnly(g, counts, options);
    EXPECT_GT(report.makespan, 0.0) << rows << " rows";
    EXPECT_LE(report.peak_device_bytes, tiny.spec().mem_capacity_bytes)
        << rows << " rows";
  }
}

TEST(ExecutorSpill, ImpossibleWorkingSetThrows) {
  // A single relation larger than the tiny device with pinned inputs on
  // both sides of a sort leaves nothing to spill mid-cluster.
  sim::DeviceSimulator tiny(sim::DeviceSpec::TinyTestDevice());
  QueryExecutor executor(tiny);
  OpGraph g;
  const NodeId src = g.AddSource("in", Schema{{"v", DataType::kInt32}}, 0);
  g.AddOperator(OperatorDesc::Sort({0}), src);
  std::map<NodeId, std::uint64_t> counts;
  // 40M rows = 160 MB >> 64 MiB: sort needs input + output resident at once.
  for (NodeId id = 0; id < g.node_count(); ++id) counts[id] = 40'000'000;
  ExecutorOptions options;
  options.strategy = Strategy::kSerial;
  EXPECT_THROW(executor.EstimateOnly(g, counts, options), kf::Error);
}

}  // namespace
}  // namespace kf::core
