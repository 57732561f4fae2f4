// The fused kernel must be functionally identical to the unfused operator
// chain — the correctness contract of kernel fusion.
#include "core/fused_pipeline.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <vector>

#include "common/random.h"
#include "core/fusion_planner.h"
#include "core/integrity.h"
#include "core/query_executor.h"
#include "relational/operators.h"
#include "tests/core/byte_identical.h"

namespace kf::core {
namespace {

using relational::AggregateSpec;
using relational::ApplyOperator;
using relational::DataType;
using relational::Expr;
using relational::OperatorDesc;
using relational::Schema;
using relational::Table;
using relational::Value;

Table RandomKV(std::size_t rows, std::uint64_t seed, int key_range = 50) {
  Rng rng(seed);
  Table t(Schema{{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  for (std::size_t r = 0; r < rows; ++r) {
    t.AppendRow({Value::Int64(rng.UniformInt(0, key_range)),
                 Value::Int64(rng.UniformInt(0, 100))});
  }
  return t;
}

// Every node's output, operator at a time.
std::map<NodeId, Table> Reference(const OpGraph& g, const std::map<NodeId, Table>& sources) {
  std::map<NodeId, Table> reference;
  for (NodeId id : g.TopologicalOrder()) {
    const OpNode& node = g.node(id);
    if (node.is_source) {
      reference.emplace(id, sources.at(id));
      continue;
    }
    const Table& left = reference.at(node.inputs[0]);
    const Table* right = node.inputs.size() > 1 ? &reference.at(node.inputs[1]) : nullptr;
    reference.emplace(id, ApplyOperator(node.desc, left, right));
  }
  return reference;
}

// Every cluster output, through the fused pipeline.
std::map<NodeId, Table> Fused(const OpGraph& g, const std::map<NodeId, Table>& sources,
                              int chunk_count) {
  std::map<NodeId, Table> computed;
  auto lookup = [&](NodeId id) -> const Table& {
    auto it = sources.find(id);
    if (it != sources.end()) return it->second;
    return computed.at(id);
  };
  for (const FusionCluster& cluster : PlanFusion(g).clusters) {
    ClusterExecution exec = ExecuteCluster(g, cluster, lookup, chunk_count);
    for (auto& [id, table] : exec.outputs) computed.emplace(id, std::move(table));
  }
  return computed;
}

// Runs the graph unfused (operator at a time) and fused (cluster pipeline),
// requiring every cluster output to be byte-identical: same rows in the same
// order, same type tags and payloads. (Float sums, which a fused kernel takes
// per chunk, are pinned separately in tests/tpch/checksum_pin_test.cc.)
void CheckFusionEquivalence(const OpGraph& g,
                            const std::map<NodeId, Table>& sources,
                            int chunk_count = 16) {
  const std::map<NodeId, Table> reference = Reference(g, sources);
  for (const auto& [id, table] : Fused(g, sources, chunk_count)) {
    EXPECT_TRUE(ByteIdentical(table, reference.at(id)))
        << "node #" << id << " (" << g.node(id).name << ") differs, chunks="
        << chunk_count;
  }
}

TEST(FusedPipeline, SelectChain) {
  OpGraph g;
  const NodeId src = g.AddSource("in", RandomKV(1, 0).schema(), 0);
  const NodeId s1 = g.AddOperator(
      OperatorDesc::Select(Expr::Lt(Expr::FieldRef(0), Expr::Lit(30))), src);
  g.AddOperator(OperatorDesc::Select(Expr::Ge(Expr::FieldRef(1), Expr::Lit(20))), s1);
  CheckFusionEquivalence(g, {{src, RandomKV(5000, 1)}});
}

TEST(FusedPipeline, SelectProjectArith) {
  OpGraph g;
  const Table data = RandomKV(3000, 2);
  const NodeId src = g.AddSource("in", data.schema(), 0);
  const NodeId s = g.AddOperator(
      OperatorDesc::Select(Expr::Gt(Expr::FieldRef(1), Expr::Lit(10))), src);
  const NodeId ar = g.AddOperator(
      OperatorDesc::Arith(Expr::Mul(Expr::FieldRef(1), Expr::Lit(3)), "triple",
                          DataType::kInt64),
      s);
  g.AddOperator(OperatorDesc::Project({0, 2}), ar);
  CheckFusionEquivalence(g, {{src, data}});
}

TEST(FusedPipeline, JoinChainWithExpansion) {
  OpGraph g;
  const Table probe = RandomKV(2000, 3, 20);
  const Table build1 = RandomKV(100, 4, 20);  // duplicate keys -> expansion
  const Table build2 = RandomKV(50, 5, 20);
  const NodeId src = g.AddSource("probe", probe.schema(), 0);
  const NodeId b1 = g.AddSource("build1", build1.schema(), 0);
  const NodeId b2 = g.AddSource("build2", build2.schema(), 0);
  const NodeId j1 = g.AddOperator(OperatorDesc::Join(0, 0, "j1"), src, b1);
  g.AddOperator(OperatorDesc::Join(0, 0, "j2"), j1, b2);
  CheckFusionEquivalence(g, {{src, probe}, {b1, build1}, {b2, build2}});
}

TEST(FusedPipeline, ProductInsideCluster) {
  OpGraph g;
  const Table left = RandomKV(100, 6);
  const Table right = RandomKV(7, 7);
  const NodeId src = g.AddSource("l", left.schema(), 0);
  const NodeId b = g.AddSource("r", right.schema(), 0);
  const NodeId s = g.AddOperator(
      OperatorDesc::Select(Expr::Lt(Expr::FieldRef(0), Expr::Lit(25))), src);
  g.AddOperator(OperatorDesc::Product(), s, b);
  CheckFusionEquivalence(g, {{src, left}, {b, right}});
}

TEST(FusedPipeline, TerminalAggregationMatchesUnfused) {
  OpGraph g;
  const Table data = RandomKV(5000, 8, 5);
  const NodeId src = g.AddSource("in", data.schema(), 0);
  const NodeId s = g.AddOperator(
      OperatorDesc::Select(Expr::Lt(Expr::FieldRef(1), Expr::Lit(60))), src);
  g.AddOperator(
      OperatorDesc::Aggregate({0},
                              {AggregateSpec{AggregateSpec::Func::kSum, 1, "sum"},
                               AggregateSpec{AggregateSpec::Func::kAvg, 1, "avg"},
                               AggregateSpec{AggregateSpec::Func::kMin, 1, "min"},
                               AggregateSpec{AggregateSpec::Func::kMax, 1, "max"},
                               AggregateSpec{AggregateSpec::Func::kCount, 0, "n"}}),
      s);
  CheckFusionEquivalence(g, {{src, data}});
}

TEST(FusedPipeline, MultiOutputClusterPatternC) {
  OpGraph g;
  const Table data = RandomKV(2000, 9);
  const NodeId src = g.AddSource("in", data.schema(), 0);
  g.AddOperator(OperatorDesc::Select(Expr::Lt(Expr::FieldRef(0), Expr::Lit(10)), "s1"),
                src);
  g.AddOperator(OperatorDesc::Select(Expr::Ge(Expr::FieldRef(0), Expr::Lit(40)), "s2"),
                src);
  CheckFusionEquivalence(g, {{src, data}});
}

TEST(FusedPipeline, ResultsIndependentOfChunkCount) {
  OpGraph g;
  const Table data = RandomKV(3000, 10);
  const NodeId src = g.AddSource("in", data.schema(), 0);
  const NodeId s = g.AddOperator(
      OperatorDesc::Select(Expr::Lt(Expr::FieldRef(1), Expr::Lit(50))), src);
  g.AddOperator(
      OperatorDesc::Aggregate({0}, {AggregateSpec{AggregateSpec::Func::kSum, 1, "sum"}}),
      s);
  for (int chunks : {1, 3, 64, 448}) {
    CheckFusionEquivalence(g, {{src, data}}, chunks);
  }
}

TEST(FusedPipeline, ParallelChunksMatchSerial) {
  OpGraph g;
  const Table data = RandomKV(20000, 11);
  const NodeId src = g.AddSource("in", data.schema(), 0);
  const NodeId s1 = g.AddOperator(
      OperatorDesc::Select(Expr::Lt(Expr::FieldRef(0), Expr::Lit(40))), src);
  g.AddOperator(OperatorDesc::Select(Expr::Gt(Expr::FieldRef(1), Expr::Lit(5))), s1);
  const FusionPlan plan = PlanFusion(g);
  ASSERT_EQ(plan.clusters.size(), 1u);
  auto lookup = [&](NodeId) -> const Table& { return data; };
  ThreadPool pool(4);
  const ClusterExecution serial = ExecuteCluster(g, plan.clusters[0], lookup, 32);
  const ClusterExecution parallel =
      ExecuteCluster(g, plan.clusters[0], lookup, 32, &pool);
  for (const auto& [id, table] : serial.outputs) {
    EXPECT_TRUE(ByteIdentical(parallel.outputs.at(id), table)) << "node #" << id;
  }
  EXPECT_EQ(parallel.member_rows, serial.member_rows);
  EXPECT_EQ(parallel.output_rows, serial.output_rows);
}

TEST(FusedPipeline, MemberRowsTrackIntermediateCardinalities) {
  OpGraph g;
  const Table data = RandomKV(1000, 12);
  const NodeId src = g.AddSource("in", data.schema(), 0);
  const NodeId s1 = g.AddOperator(
      OperatorDesc::Select(Expr::Lt(Expr::FieldRef(0), Expr::Lit(25)), "half"), src);
  const NodeId s2 = g.AddOperator(
      OperatorDesc::Select(Expr::Lt(Expr::FieldRef(1), Expr::Lit(50)), "quarter"), s1);
  const FusionPlan plan = PlanFusion(g);
  auto lookup = [&](NodeId) -> const Table& { return data; };
  const ClusterExecution exec = ExecuteCluster(g, plan.clusters[0], lookup, 8);
  EXPECT_EQ(exec.primary_rows, data.row_count());
  EXPECT_GT(exec.member_rows.at(s1), exec.member_rows.at(s2));
  EXPECT_EQ(exec.member_rows.at(s2), exec.outputs.at(s2).row_count());
}

TEST(FusedPipeline, RejectsBarrierMembers) {
  // A barrier runs alone in its cluster; one that shares it is a planner bug.
  OpGraph g;
  const Table data = RandomKV(10, 13);
  const NodeId src = g.AddSource("in", data.schema(), 0);
  const NodeId sort = g.AddOperator(OperatorDesc::Sort({0}), src);
  const NodeId sel = g.AddOperator(
      OperatorDesc::Select(Expr::Lt(Expr::FieldRef(0), Expr::Lit(25))), sort);
  auto lookup = [&](NodeId) -> const Table& { return data; };
  FusionCluster bogus;
  bogus.nodes = {sort, sel};
  bogus.primary_input = src;
  bogus.outputs = {sel};
  EXPECT_THROW(ExecuteCluster(g, bogus, lookup, 4), kf::Error);

  FusionCluster alone;
  alone.nodes = {sort};
  alone.primary_input = src;
  alone.outputs = {sort};
  const ClusterExecution exec = ExecuteCluster(g, alone, lookup, 4);
  EXPECT_TRUE(
      ByteIdentical(exec.outputs.at(sort), ApplyOperator(OperatorDesc::Sort({0}), data)));
}

// Relation (k, v) with v == 0 on every third row.
Table KVWithZeros(std::size_t rows) {
  Table t(Schema{{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  for (std::size_t r = 0; r < rows; ++r) {
    t.AppendRow({Value::Int64(static_cast<std::int64_t>(r % 50)),
                 Value::Int64(static_cast<std::int64_t>(r % 3 == 0 ? 0 : r % 7 + 1))});
  }
  return t;
}

TEST(FusedPipeline, AndShortCircuitGuardsDivisionByZero) {
  // EvalExpr never evaluates the right side of an AND on rows its left side
  // rejects, so the division only ever sees non-zero divisors — in the fused
  // pipeline exactly as in the operator-at-a-time reference.
  OpGraph g;
  const Table data = KVWithZeros(3000);
  const NodeId src = g.AddSource("in", data.schema(), 0);
  const NodeId guarded = g.AddOperator(
      OperatorDesc::Select(
          Expr::And(Expr::Ne(Expr::FieldRef(1), Expr::Lit(0)),
                    Expr::Gt(Expr::Div(Expr::FieldRef(0), Expr::FieldRef(1)),
                             Expr::Lit(3))),
          "guarded"),
      src);
  g.AddOperator(OperatorDesc::Project({1, 0}), guarded);
  for (int chunks : {1, 16, 448}) CheckFusionEquivalence(g, {{src, data}}, chunks);
}

TEST(FusedPipeline, UnguardedDivisionByZeroThrowsUnderEveryStrategy) {
  OpGraph g;
  const Table data = KVWithZeros(500);
  const NodeId src = g.AddSource("in", data.schema(), data.row_count());
  const NodeId ratio = g.AddOperator(
      OperatorDesc::Select(
          Expr::Gt(Expr::Div(Expr::FieldRef(0), Expr::FieldRef(1)), Expr::Lit(3)),
          "ratio"),
      src);
  g.AddOperator(OperatorDesc::Select(Expr::Lt(Expr::FieldRef(0), Expr::Lit(40))),
                ratio);
  const std::map<NodeId, Table> sources{{src, data}};
  sim::DeviceSimulator device;
  ThreadPool pool(3);
  for (ThreadPool* use_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    QueryExecutor executor(device, OperatorCostModel{}, use_pool);
    for (Strategy strategy : {Strategy::kSerial, Strategy::kFused, Strategy::kFission,
                              Strategy::kFusedFission}) {
      ExecutorOptions options;
      options.strategy = strategy;
      options.chunk_count = 16;
      EXPECT_THROW((void)executor.Execute(g, sources, options), kf::Error)
          << ToString(strategy) << " pool=" << (use_pool != nullptr);
    }
  }
}

TEST(FusedPipeline, FloatKeysGroupAndJoinAsTheReferenceDoes) {
  // Group keys compare as the reference's row-key text: 0.0 and -0.0 are
  // two groups, and all NaNs of one sign are one. Join keys compare with
  // Value ==: 0.0 matches -0.0, and NaN matches nothing. Digests compare the
  // bytes, NaN payloads included.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double keys[] = {0.0, -0.0, nan, -nan, 1.5, 2.0};
  Table probe(Schema{{"f", DataType::kFloat64}, {"v", DataType::kInt64}});
  for (int r = 0; r < 600; ++r) {
    probe.AppendRow({Value::Float64(keys[r % 6]), Value::Int64(r % 11)});
  }
  Table build(Schema{{"k", DataType::kFloat64}, {"w", DataType::kInt64}});
  for (int r = 0; r < 12; ++r) {
    build.AppendRow({Value::Float64(keys[(r * 5) % 6]), Value::Int64(r)});
  }
  OpGraph g;
  const NodeId src = g.AddSource("probe", probe.schema(), 0);
  const NodeId b = g.AddSource("build", build.schema(), 0);
  const NodeId joined = g.AddOperator(OperatorDesc::Join(0, 0, "join"), src, b);
  const std::vector<AggregateSpec> aggregates = {
      AggregateSpec{AggregateSpec::Func::kSum, 1, "sum"},
      AggregateSpec{AggregateSpec::Func::kMin, 0, "min"},
      AggregateSpec{AggregateSpec::Func::kMax, 1, "max"},
      AggregateSpec{AggregateSpec::Func::kCount, 0, "n"}};
  g.AddOperator(OperatorDesc::Aggregate({0}, aggregates, "by_probe_key"), src);
  g.AddOperator(OperatorDesc::Aggregate({0, 2}, aggregates, "by_joined_key"), joined);
  const std::map<NodeId, Table> sources{{src, probe}, {b, build}};
  const std::map<NodeId, Table> reference = Reference(g, sources);
  for (int chunks : {1, 7, 448}) {
    const std::map<NodeId, Table> fused = Fused(g, sources, chunks);
    for (NodeId sink : g.Sinks()) {
      EXPECT_EQ(ChecksumTable(fused.at(sink)), ChecksumTable(reference.at(sink)))
          << g.node(sink).name << " chunks=" << chunks;
    }
  }
  // 0.0 and -0.0 group apart; the two NaN signs are two more groups.
  EXPECT_EQ(reference.at(g.Sinks()[0]).row_count(), 6u);
}

}  // namespace
}  // namespace kf::core
