// MultiDeviceExecutor: shardability analysis, differential byte-identity of
// sharded execution against the scalar reference (all strategies, with and
// without per-device faults), and the sharding edge cases
// (single device, more devices than rows, group-wide OOM host fallback).
#include "core/multi_device.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/random.h"
#include "core/calibration.h"
#include "core/select_chain.h"
#include "obs/metrics_registry.h"
#include "sim/device_group.h"
#include "sim/fault_injector.h"
#include "tests/core/byte_identical.h"
#include "tests/core/random_graph.h"

namespace kf::core {
namespace {

using relational::Expr;
using relational::OperatorDesc;
using relational::Table;
using relational::Value;

// Fact table {k, v}: keys land in [0, 30] so the dimension join always has
// matches; v is the selection column.
Table MakeFact(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  return RandomKV(rng, rows);
}

// Dimension {k, w}: one row per key, plus duplicated keys every 7th row so
// probe rows can fan out to several matches.
Table MakeDim(std::uint64_t seed) {
  Rng rng(seed);
  Table t(relational::Schema{{"k", relational::DataType::kInt64},
                             {"w", relational::DataType::kInt64}});
  for (std::int64_t k = 0; k <= 30; ++k) {
    t.AppendRow({Value::Int64(k), Value::Int64(rng.UniformInt(-9, 9))});
    if (k % 7 == 0) {
      t.AppendRow({Value::Int64(k), Value::Int64(rng.UniformInt(-9, 9))});
    }
  }
  return t;
}

// SELECT -> JOIN(broadcast dim) -> ARITH -> SELECT over one fact source:
// the fission-friendly probe-side chain sharding is built for.
RandomQuery MakeShardableJoinQuery(std::uint64_t seed, std::size_t rows) {
  RandomQuery q;
  const Table fact = MakeFact(rows, seed);
  const Table dim = MakeDim(seed + 1);
  const NodeId src = q.graph.AddSource("fact", fact.schema(), fact.row_count());
  const NodeId dim_src = q.graph.AddSource("dim", dim.schema(), dim.row_count());
  q.sources.emplace(src, fact);
  q.sources.emplace(dim_src, dim);

  NodeId node = q.graph.AddOperator(
      OperatorDesc::Select(Expr::Le(Expr::FieldRef(1), Expr::Lit(35))), src);
  node = q.graph.AddOperator(OperatorDesc::Join(0, 0), node, dim_src);
  node = q.graph.AddOperator(
      OperatorDesc::Arith(Expr::Add(Expr::FieldRef(1), Expr::FieldRef(2)), "s"),
      node);
  node = q.graph.AddOperator(
      OperatorDesc::Select(Expr::Ge(Expr::FieldRef(0), Expr::Lit(3))), node);
  return q;
}

// Plain SELECT chain over one source (no joins).
RandomQuery MakeShardableChain(std::uint64_t seed, std::size_t rows) {
  RandomQuery q;
  const Table fact = MakeFact(rows, seed);
  const NodeId src = q.graph.AddSource("fact", fact.schema(), fact.row_count());
  q.sources.emplace(src, fact);
  NodeId node = q.graph.AddOperator(
      OperatorDesc::Select(Expr::Le(Expr::FieldRef(1), Expr::Lit(30))), src);
  node = q.graph.AddOperator(
      OperatorDesc::Select(Expr::Ge(Expr::FieldRef(1), Expr::Lit(-30))), node);
  return q;
}

void ExpectAllSinksByteIdentical(const OpGraph& graph,
                                 const std::map<NodeId, Table>& actual,
                                 const std::map<NodeId, Table>& truth,
                                 const std::string& context) {
  for (NodeId sink : graph.Sinks()) {
    ASSERT_EQ(actual.count(sink), 1u) << context << " missing sink " << sink;
    EXPECT_TRUE(ByteIdentical(actual.at(sink), truth.at(sink)))
        << context << " sink " << sink;
  }
}

TEST(MultiDeviceShardable, AcceptsProbeSideChainsAndRejectsTheRest) {
  EXPECT_TRUE(MultiDeviceExecutor::Shardable(MakeShardableChain(1, 50).graph));
  EXPECT_TRUE(MultiDeviceExecutor::Shardable(MakeShardableJoinQuery(2, 50).graph));

  {
    // SORT in the chain: order depends on the whole input, not shardable.
    RandomQuery q = MakeShardableChain(3, 50);
    q.graph.AddOperator(OperatorDesc::Sort({0}), q.graph.Sinks().front());
    EXPECT_FALSE(MultiDeviceExecutor::Shardable(q.graph));
  }
  {
    // AGGREGATE folds across shards: not shardable.
    RandomQuery q = MakeShardableChain(4, 50);
    q.graph.AddOperator(
        OperatorDesc::Aggregate({}, {{relational::AggregateSpec::Func::kSum, 1, "s"}}),
        q.graph.Sinks().front());
    EXPECT_FALSE(MultiDeviceExecutor::Shardable(q.graph));
  }
  {
    // Build side fed by an operator (not a source): not shardable.
    RandomQuery q;
    const Table fact = MakeFact(40, 5);
    const Table dim = MakeDim(6);
    const NodeId src = q.graph.AddSource("fact", fact.schema(), 40);
    const NodeId dim_src = q.graph.AddSource("dim", dim.schema(), dim.row_count());
    const NodeId filtered = q.graph.AddOperator(
        OperatorDesc::Select(Expr::Ge(Expr::FieldRef(1), Expr::Lit(0))), dim_src);
    q.graph.AddOperator(OperatorDesc::Join(0, 0), src, filtered);
    EXPECT_FALSE(MultiDeviceExecutor::Shardable(q.graph));
  }
  {
    // Two sinks rooted at different sources: no single shard source.
    RandomQuery q;
    const Table a = MakeFact(30, 7);
    const Table b = MakeFact(30, 8);
    const NodeId sa = q.graph.AddSource("a", a.schema(), 30);
    const NodeId sb = q.graph.AddSource("b", b.schema(), 30);
    q.graph.AddOperator(
        OperatorDesc::Select(Expr::Ge(Expr::FieldRef(1), Expr::Lit(0))), sa);
    q.graph.AddOperator(
        OperatorDesc::Select(Expr::Ge(Expr::FieldRef(1), Expr::Lit(0))), sb);
    EXPECT_FALSE(MultiDeviceExecutor::Shardable(q.graph));
  }
  {
    // The shard source also feeds a build side: slicing it would drop
    // join matches, so the graph is rejected.
    RandomQuery q;
    const Table fact = MakeFact(30, 9);
    const NodeId src = q.graph.AddSource("fact", fact.schema(), 30);
    const NodeId sel = q.graph.AddOperator(
        OperatorDesc::Select(Expr::Ge(Expr::FieldRef(1), Expr::Lit(0))), src);
    q.graph.AddOperator(OperatorDesc::Join(0, 0), sel, src);
    EXPECT_FALSE(MultiDeviceExecutor::Shardable(q.graph));
  }
}

class MultiDeviceDifferential : public ::testing::TestWithParam<int> {};

TEST_P(MultiDeviceDifferential, ShardedByteIdenticalToScalarReference) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 733 + 17;
  for (const bool with_join : {false, true}) {
    const RandomQuery q = with_join ? MakeShardableJoinQuery(seed, 700)
                                    : MakeShardableChain(seed, 700);
    const std::map<NodeId, Table> truth = ReferenceResults(q);

    for (int devices : {1, 2, 3, 4}) {
      sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(devices);
      MultiDeviceExecutor executor(group);
      for (Strategy strategy : {Strategy::kSerial, Strategy::kFused,
                                Strategy::kFission, Strategy::kFusedFission}) {
        MultiDeviceOptions options;
        options.base.strategy = strategy;
        options.base.chunk_count = 4;
        const MultiDeviceReport report =
            executor.Execute(q.graph, q.sources, options);
        const std::string context =
            std::string(with_join ? "join" : "chain") + "/" +
            ToString(strategy) + "/devices=" + std::to_string(devices);
        EXPECT_EQ(report.devices_used, devices) << context;
        EXPECT_EQ(report.sharded, devices > 1) << context;
        EXPECT_EQ(report.combined.leaked_device_bytes, 0u) << context;
        ExpectAllSinksByteIdentical(q.graph, report.combined.sink_results,
                                    truth, context);
      }
    }
  }
}

TEST_P(MultiDeviceDifferential, PerDeviceFaultsStayByteIdentical) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 191 + 3;
  const RandomQuery q = MakeShardableJoinQuery(seed, 600);
  const std::map<NodeId, Table> truth = ReferenceResults(q);

  sim::FaultConfig config;
  config.seed = seed;
  config.copy_fault_rate = 0.5;
  config.kernel_fault_rate = 0.4;
  const sim::FaultInjector faulty(config);

  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(3);
  MultiDeviceExecutor executor(group);
  std::uint64_t dev1_faults = 0;
  for (Strategy strategy : {Strategy::kSerial, Strategy::kFission}) {
    // Faults only on device 1: its shard retries/degrades internally while
    // devices 0 and 2 run clean; the merged result must not change.
    MultiDeviceOptions options;
    options.base.strategy = strategy;
    options.base.chunk_count = 4;
    options.per_device_injectors = {nullptr, &faulty, nullptr};
    const MultiDeviceReport report = executor.Execute(q.graph, q.sources, options);
    ASSERT_EQ(report.shards.size(), 3u);
    EXPECT_EQ(report.shards[0].report.fault_count, 0u);
    EXPECT_EQ(report.shards[2].report.fault_count, 0u);
    dev1_faults += report.shards[1].report.fault_count;
    EXPECT_EQ(report.combined.leaked_device_bytes, 0u);
    ExpectAllSinksByteIdentical(q.graph, report.combined.sink_results, truth,
                                std::string("faulted/") + ToString(strategy));
  }
  // An individual strategy run can draw no faults; across both runs the
  // injector on dev1 must have fired at least once.
  EXPECT_GT(dev1_faults, 0u) << "fault injector on dev1 never fired";
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiDeviceDifferential, ::testing::Range(0, 4));

TEST(MultiDeviceEdge, OneDeviceDegeneratesToPlainExecutor) {
  const RandomQuery q = MakeShardableJoinQuery(11, 500);
  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(1);
  ExecutorOptions base;
  base.strategy = Strategy::kFission;

  QueryExecutor plain(group.device(0));
  const ExecutionReport expected = plain.Execute(q.graph, q.sources, base);

  MultiDeviceExecutor executor(group);
  MultiDeviceOptions options;
  options.base = base;
  const MultiDeviceReport report = executor.Execute(q.graph, q.sources, options);

  EXPECT_FALSE(report.sharded);
  EXPECT_EQ(report.devices_used, 1);
  EXPECT_DOUBLE_EQ(report.transfer_derating, 1.0);
  // Byte-for-byte the plain run: same simulated times, same bytes moved,
  // same results.
  EXPECT_DOUBLE_EQ(report.combined.makespan, expected.makespan);
  EXPECT_EQ(report.combined.h2d_bytes, expected.h2d_bytes);
  EXPECT_EQ(report.combined.d2h_bytes, expected.d2h_bytes);
  EXPECT_EQ(report.combined.kernel_launches, expected.kernel_launches);
  ExpectAllSinksByteIdentical(q.graph, report.combined.sink_results,
                              expected.sink_results, "degenerate");
}

TEST(MultiDeviceEdge, MoreDevicesThanRows) {
  // 4 devices, 3 rows: only 3 shards get rows; results still exact.
  RandomQuery q = MakeShardableChain(13, 3);
  const std::map<NodeId, Table> truth = ReferenceResults(q);
  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(4);
  MultiDeviceExecutor executor(group);
  MultiDeviceOptions options;
  const MultiDeviceReport report = executor.Execute(q.graph, q.sources, options);
  EXPECT_LE(report.devices_used, 3);
  ExpectAllSinksByteIdentical(q.graph, report.combined.sink_results, truth,
                              "tiny input");
}

TEST(MultiDeviceEdge, ShardCountAboveSegmentCount) {
  // More fission segments than any shard has chunks to fill: pipelines
  // degenerate gracefully and results stay exact.
  const RandomQuery q = MakeShardableChain(17, 64);
  const std::map<NodeId, Table> truth = ReferenceResults(q);
  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(4);
  MultiDeviceExecutor executor(group);
  MultiDeviceOptions options;
  options.base.strategy = Strategy::kFission;
  options.base.fission_segments = 48;  // far above 64/4 = 16 rows per shard
  const MultiDeviceReport report = executor.Execute(q.graph, q.sources, options);
  EXPECT_EQ(report.devices_used, 4);
  ExpectAllSinksByteIdentical(q.graph, report.combined.sink_results, truth,
                              "oversegmented");
}

TEST(MultiDeviceEdge, GroupWideOomFallsBackToHost) {
  // A broadcast join build table larger than every device's memory: no
  // shard can run on-device, so the whole query degrades to the host.
  RandomQuery q;
  const Table fact = MakeFact(2000, 19);
  Rng rng(23);
  Table dim(relational::Schema{{"k", relational::DataType::kInt64},
                               {"w", relational::DataType::kInt64}});
  for (std::int64_t r = 0; r < 8192; ++r) {
    dim.AppendRow({Value::Int64(r % 31), Value::Int64(rng.UniformInt(-9, 9))});
  }
  const NodeId src = q.graph.AddSource("fact", fact.schema(), fact.row_count());
  const NodeId dim_src = q.graph.AddSource("dim", dim.schema(), dim.row_count());
  q.sources.emplace(src, fact);
  q.sources.emplace(dim_src, dim);
  q.graph.AddOperator(OperatorDesc::Join(0, 0), src, dim_src);
  ASSERT_TRUE(MultiDeviceExecutor::Shardable(q.graph));
  const std::map<NodeId, Table> truth = ReferenceResults(q);

  sim::DeviceSpec tiny = sim::DeviceSpec::TinyTestDevice();
  tiny.mem_capacity_bytes = 64 * 1024;  // dim is 8192 * 16 B = 128 KiB
  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(2, tiny);
  MultiDeviceExecutor executor(group);
  obs::MetricsRegistry registry;
  MultiDeviceOptions options;
  options.base.metrics = &registry;
  const MultiDeviceReport report = executor.Execute(q.graph, q.sources, options);

  EXPECT_TRUE(report.host_fallback);
  EXPECT_FALSE(report.sharded);
  EXPECT_TRUE(report.combined.ran_on_host);
  EXPECT_EQ(report.combined.leaked_device_bytes, 0u);
  EXPECT_GE(registry.GetCounter("sim.group.host_fallbacks").value(), 1u);
  // The persistent devices never held a byte of this query.
  EXPECT_EQ(group.device(0).memory().used(), 0u);
  EXPECT_EQ(group.device(1).memory().used(), 0u);
  ExpectAllSinksByteIdentical(q.graph, report.combined.sink_results, truth,
                              "host fallback");

  // With the fallback disabled the capacity error surfaces typed.
  options.allow_host_fallback = false;
  EXPECT_THROW(executor.Execute(q.graph, q.sources, options),
               kf::CapacityExceeded);
}

TEST(MultiDeviceEdge, DeviceSubsetAndValidation) {
  const RandomQuery q = MakeShardableChain(29, 300);
  const std::map<NodeId, Table> truth = ReferenceResults(q);
  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(4);
  MultiDeviceExecutor executor(group);

  MultiDeviceOptions options;
  options.devices = {3, 1};  // shard order follows the caller's order
  const MultiDeviceReport report = executor.Execute(q.graph, q.sources, options);
  EXPECT_EQ(report.devices_used, 2);
  ASSERT_EQ(report.shards.size(), 2u);
  EXPECT_EQ(report.shards[0].device, 3);
  EXPECT_EQ(report.shards[1].device, 1);
  ExpectAllSinksByteIdentical(q.graph, report.combined.sink_results, truth,
                              "subset");

  options.devices = {0, 7};
  EXPECT_THROW(executor.Execute(q.graph, q.sources, options), kf::InvalidArgument);
  options.devices = {2, 2};
  EXPECT_THROW(executor.Execute(q.graph, q.sources, options), kf::InvalidArgument);
}

TEST(MultiDeviceEdge, HostPlacementsSumAcrossShards) {
  // Two learning calibrators with the true spec: once each has explored its
  // device, both shards place the bandwidth-bound SELECT on the host, and
  // the combined report counts both placements.
  const std::uint64_t rows = std::uint64_t{1} << 20;
  OpGraph graph;
  const NodeId source = graph.AddSource(
      "events", relational::Schema{{"k", relational::DataType::kInt64}}, rows);
  const NodeId select = graph.AddOperator(
      OperatorDesc::Select(Expr::Lt(Expr::FieldRef(0), Expr::Lit(0)), "sel"), source);
  const std::map<NodeId, std::uint64_t> row_counts{{source, rows}, {select, rows / 2}};

  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(2);
  MultiDeviceExecutor executor(group);
  CostModelCalibrator first;
  CostModelCalibrator second;
  MultiDeviceOptions options;
  options.base.strategy = Strategy::kFused;
  options.per_device_calibrations = {&first, &second};

  for (int call = 0; call < 3; ++call) {
    const MultiDeviceReport report = executor.EstimateOnly(graph, row_counts, options);
    ASSERT_TRUE(report.sharded);
    std::size_t shard_sum = 0;
    for (const ShardReport& shard : report.shards) {
      shard_sum += shard.report.host_placed_clusters;
    }
    EXPECT_EQ(report.combined.host_placed_clusters, shard_sum) << "call " << call;
    if (call > 0) {
      EXPECT_EQ(shard_sum, 2u) << "call " << call;
    }
  }
}

TEST(MultiDeviceEdge, EstimateOnlyScalesWithDevices) {
  // Timing-only strong scaling on the paper's SELECT chain: 4 devices must
  // beat 2 must beat 1 on a copy-dominated fission pipeline.
  const std::vector<double> selectivities{0.5, 0.5, 0.5, 0.5};
  const SelectChain chain = MakeSelectChain(40'000'000, selectivities);

  MultiDeviceOptions options;
  options.base.strategy = Strategy::kFusedFission;

  auto makespan_at = [&](int devices) {
    sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(devices);
    MultiDeviceExecutor executor(group);
    return executor.EstimateOnly(chain.graph, chain.expected_rows, options)
        .combined.makespan;
  };
  const double one = makespan_at(1);
  const double two = makespan_at(2);
  const double four = makespan_at(4);
  EXPECT_GT(one / two, 1.7);
  EXPECT_GT(one / four, 3.0);
}

TEST(MultiDeviceEdge, ShardViewsRecordContentionInTheRunsRegistry) {
  // Each shard runs on a contended view of its device; the run records one
  // view and the derating it applied per shard, in the registry it records
  // `sim.group.sharded_runs` into.
  const SelectChain chain = MakeSelectChain(40'000'000, std::vector<double>{0.5, 0.5});
  const sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(4);
  MultiDeviceExecutor executor(group);
  obs::MetricsRegistry run_metrics;
  MultiDeviceOptions options;
  options.base.strategy = Strategy::kFusedFission;
  options.base.metrics = &run_metrics;

  const MultiDeviceReport report =
      executor.EstimateOnly(chain.graph, chain.expected_rows, options);
  ASSERT_TRUE(report.sharded);
  ASSERT_EQ(report.devices_used, 4);
  EXPECT_EQ(run_metrics.GetCounter("sim.group.sharded_runs").value(), 1u);
  EXPECT_EQ(run_metrics.GetCounter("sim.group.contended_views").value(), 4u);
  EXPECT_DOUBLE_EQ(run_metrics.GetGauge("sim.group.transfer_derating").value(),
                   group.TransferDerating(4));
  EXPECT_DOUBLE_EQ(report.transfer_derating, group.TransferDerating(4));

  // A second sharded run adds its four views; an unsharded one adds none.
  (void)executor.EstimateOnly(chain.graph, chain.expected_rows, options);
  options.devices = {2};
  (void)executor.EstimateOnly(chain.graph, chain.expected_rows, options);
  EXPECT_EQ(run_metrics.GetCounter("sim.group.contended_views").value(), 8u);
}

}  // namespace
}  // namespace kf::core
