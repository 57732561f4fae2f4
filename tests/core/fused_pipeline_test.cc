// The fused kernel must be functionally identical to the unfused operator
// chain — the correctness contract of kernel fusion.
#include "core/fused_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <string>
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

// (k, row): the given keys in order, each row numbered.
Table Keyed(DataType key_type, const std::vector<std::int64_t>& keys) {
  Table t(Schema{{"k", key_type}, {"row", DataType::kInt64}});
  for (std::size_t r = 0; r < keys.size(); ++r) {
    const Value key = key_type == DataType::kInt32
                          ? Value::Int32(static_cast<std::int32_t>(keys[r]))
                          : Value::Int64(keys[r]);
    t.AppendRow({key, Value::Int64(static_cast<std::int64_t>(r))});
  }
  return t;
}

// JOINs probe.k with build.k fused and operator at a time, and returns the
// number of joined rows.
std::size_t CheckJoin(const Table& probe, const Table& build) {
  OpGraph g;
  const NodeId src = g.AddSource("probe", probe.schema(), 0);
  const NodeId b = g.AddSource("build", build.schema(), 0);
  const NodeId join = g.AddOperator(OperatorDesc::Join(0, 0, "join"), src, b);
  for (int chunks : {1, 16}) {
    CheckFusionEquivalence(g, {{src, probe}, {b, build}}, chunks);
  }
  return ApplyOperator(g.node(join).desc, probe, &build).row_count();
}

constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

// Build keys spanning fewer than twice the build rows index a direct table,
// whose range check must reject min - 1 (an offset of 2^64 - 1) and max + 1.
TEST(FusedPipeline, DenseJoinKeysRejectProbesJustOutsideTheirRange) {
  std::vector<std::int64_t> build_keys;
  for (std::int64_t k = 100; k < 200; ++k) build_keys.push_back((k * 37) % 100 + 100);
  const Table probe = Keyed(
      DataType::kInt64, {98, 99, 100, 150, 199, 200, 201, 0, -1, kInt64Min, kInt64Max});
  EXPECT_EQ(CheckJoin(probe, Keyed(DataType::kInt64, build_keys)), 3u);
}

TEST(FusedPipeline, DenseJoinKeysStartingAtInt64Min) {
  const Table build =
      Keyed(DataType::kInt64, {kInt64Min + 3, kInt64Min, kInt64Min + 1, kInt64Min + 2,
                               kInt64Min + 5});
  // kInt64Max is min - 1 in 64-bit arithmetic.
  const Table probe =
      Keyed(DataType::kInt64, {kInt64Min, kInt64Min + 4, kInt64Min + 5, kInt64Max,
                               kInt64Min + 10, 0, -1, kInt64Min + 1});
  EXPECT_EQ(CheckJoin(probe, build), 3u);
}

TEST(FusedPipeline, DenseDuplicateJoinKeysKeepBuildOrder) {
  std::vector<std::int64_t> build_keys;
  for (std::int64_t r = 0; r < 60; ++r) build_keys.push_back((r * 7) % 20);
  std::vector<std::int64_t> probe_keys;
  for (std::int64_t k = -2; k < 25; ++k) probe_keys.push_back(k);
  EXPECT_EQ(
      CheckJoin(Keyed(DataType::kInt64, probe_keys), Keyed(DataType::kInt64, build_keys)),
      60u);
}

// n = 50 build rows: a key range of 2n - 1 indexes directly, one of 2n hashes.
TEST(FusedPipeline, JoinKeyRangesAtTheDirectIndexBound) {
  std::vector<std::int64_t> probe_keys;
  for (std::int64_t k = -1; k <= 101; ++k) probe_keys.push_back(k);
  const Table probe = Keyed(DataType::kInt64, probe_keys);
  for (std::int64_t max_key : {99, 100}) {
    std::vector<std::int64_t> build_keys;
    for (std::int64_t k = 0; k < 98; k += 2) build_keys.push_back(k);
    build_keys.push_back(max_key);
    ASSERT_EQ(build_keys.size(), 50u);
    EXPECT_EQ(CheckJoin(probe, Keyed(DataType::kInt64, build_keys)), 50u) << max_key;
  }
}

TEST(FusedPipeline, JoinOfAnEmptyBuildSideMatchesNothing) {
  for (DataType type : {DataType::kInt32, DataType::kInt64}) {
    EXPECT_EQ(CheckJoin(Keyed(DataType::kInt64, {0, 1, -1, kInt64Min, kInt64Max}),
                        Keyed(type, {})),
              0u);
  }
}

TEST(FusedPipeline, Int32AndInt64JoinKeysCompareByValue) {
  constexpr std::int64_t kTwo32 = std::int64_t{1} << 32;
  std::vector<std::int64_t> dense;
  for (std::int64_t k = -50; k < 50; ++k) dense.push_back(k);
  std::vector<std::int64_t> wide_probe{kTwo32 - 50, kTwo32, -kTwo32 + 10, kInt64Min,
                                       kInt64Max};
  for (std::int64_t k = -60; k <= 60; ++k) wide_probe.push_back(k);
  // int32 build keys probed by int64 keys: 2^32 - 50 must not match -50.
  EXPECT_EQ(
      CheckJoin(Keyed(DataType::kInt64, wide_probe), Keyed(DataType::kInt32, dense)),
      100u);
  // int64 build keys probed by int32 keys.
  std::vector<std::int64_t> narrow_probe{std::numeric_limits<std::int32_t>::min(),
                                         std::numeric_limits<std::int32_t>::max()};
  for (std::int64_t k = -60; k <= 60; ++k) narrow_probe.push_back(k);
  EXPECT_EQ(
      CheckJoin(Keyed(DataType::kInt32, narrow_probe), Keyed(DataType::kInt64, dense)),
      100u);
  // int32 build keys from INT32_MIN: int64 probes one below and far above.
  const std::int64_t lo = std::numeric_limits<std::int32_t>::min();
  EXPECT_EQ(CheckJoin(Keyed(DataType::kInt64, {lo - 1, lo, lo + 3, lo + 4, kTwo32 + lo}),
                      Keyed(DataType::kInt32, {lo + 3, lo, lo + 1, lo + 2})),
            2u);
}

// Probe keys k0 - 1 and k0 + n around a positional build side (row r holds
// k0 + r), at both ends of the int64 range.
TEST(FusedPipeline, PositionalJoinKeysAtTheEndsOfTheInt64Range) {
  for (const std::int64_t k0 : {kInt64Min, kInt64Max - 9}) {
    std::vector<std::int64_t> build_keys;
    for (std::int64_t r = 0; r < 10; ++r) build_keys.push_back(k0 + r);
    // k0 + 10 wraps to kInt64Min when k0 = kInt64Max - 9.
    const std::vector<std::int64_t> probe_keys{
        k0 + 3,  static_cast<std::int64_t>(static_cast<std::uint64_t>(k0) - 1),
        k0,      static_cast<std::int64_t>(static_cast<std::uint64_t>(k0) + 10),
        k0 + 9,  0,
        -1,      k0 + 5};
    EXPECT_EQ(CheckJoin(Keyed(DataType::kInt64, probe_keys),
                        Keyed(DataType::kInt64, build_keys)),
              4u)
        << k0;
  }
}

TEST(FusedPipeline, SwappedRowsAreNotPositional) {
  std::vector<std::int64_t> build_keys;
  for (std::int64_t k = 100; k < 140; ++k) build_keys.push_back(k);
  std::swap(build_keys[7], build_keys[8]);
  std::vector<std::int64_t> probe_keys;
  for (std::int64_t k = 98; k < 142; ++k) probe_keys.push_back(k);
  EXPECT_EQ(
      CheckJoin(Keyed(DataType::kInt64, probe_keys), Keyed(DataType::kInt64, build_keys)),
      40u);
}

TEST(FusedPipeline, OneRowAndEmptyPositionalBuildSides) {
  const Table probe = Keyed(DataType::kInt64, {6, 7, 8, 7, kInt64Min, kInt64Max});
  EXPECT_EQ(CheckJoin(probe, Keyed(DataType::kInt64, {7})), 2u);
  EXPECT_EQ(CheckJoin(probe, Keyed(DataType::kInt32, {7})), 2u);
  EXPECT_EQ(CheckJoin(probe, Keyed(DataType::kInt64, {})), 0u);
}

TEST(FusedPipeline, PositionalInt32AndInt64KeysCompareByValue) {
  constexpr std::int64_t kTwo32 = std::int64_t{1} << 32;
  std::vector<std::int64_t> keys;
  for (std::int64_t k = -20; k < 20; ++k) keys.push_back(k);
  std::vector<std::int64_t> wide{kTwo32 - 20, kTwo32, -kTwo32, kInt64Min, kInt64Max};
  for (std::int64_t k = -22; k < 22; ++k) wide.push_back(k);
  EXPECT_EQ(CheckJoin(Keyed(DataType::kInt64, wide), Keyed(DataType::kInt32, keys)), 40u);
  EXPECT_EQ(CheckJoin(Keyed(DataType::kInt32, keys), Keyed(DataType::kInt64, keys)), 40u);
}

// Probe -> JOIN build1 -> JOIN build2, fused and operator at a time.
void CheckJoinChain(const Table& probe, const Table& build1, const Table& build2) {
  OpGraph g;
  const NodeId src = g.AddSource("probe", probe.schema(), 0);
  const NodeId b1 = g.AddSource("build1", build1.schema(), 0);
  const NodeId b2 = g.AddSource("build2", build2.schema(), 0);
  const NodeId j1 = g.AddOperator(OperatorDesc::Join(0, 0, "j1"), src, b1);
  g.AddOperator(OperatorDesc::Join(0, 0, "j2"), j1, b2);
  for (int chunks : {1, 3}) {
    CheckFusionEquivalence(g, {{src, probe}, {b1, build1}, {b2, build2}}, chunks);
  }
}

// A JOIN whose probe rows each match one build row passes its probe columns
// on as they are; one where a row matches twice and another none emits as
// many rows, and must still gather them.
TEST(FusedPipeline, ProbeColumnsAliasOnlyWhenEveryRowMatchesOnce) {
  const Table probe = Keyed(DataType::kInt64, {3, 1, 2, 0, 2, 1});
  const Table positional = Keyed(DataType::kInt64, {0, 1, 2, 3});
  const Table hashed = Keyed(DataType::kInt64, {30, 3, 2, 0, 1, 20});
  // 2 matches twice, 1 never: six pairs from six probe rows.
  const Table twice = Keyed(DataType::kInt64, {0, 3, 2, 2});
  EXPECT_EQ(CheckJoin(probe, positional), 6u);
  EXPECT_EQ(CheckJoin(probe, hashed), 6u);
  EXPECT_EQ(CheckJoin(probe, twice), 6u);
  CheckJoinChain(probe, positional, twice);
  CheckJoinChain(probe, twice, positional);
  CheckJoinChain(probe, hashed, positional);
}

// GROUP BY `keys` of `data` with COUNT, SUM, AVG, MIN and MAX over every
// other column, fused at each of `chunk_counts` and operator at a time;
// returns the reference's group count.
std::size_t CheckGroupBy(const Table& data, const std::vector<int>& keys,
                         std::vector<int> chunk_counts = {1, 16}) {
  std::vector<AggregateSpec> aggregates{{AggregateSpec::Func::kCount, 0, "n"}};
  for (std::size_t c = 0; c < data.column_count(); ++c) {
    if (std::find(keys.begin(), keys.end(), static_cast<int>(c)) != keys.end()) continue;
    const int f = static_cast<int>(c);
    const std::string name = "c" + std::to_string(c);
    aggregates.push_back({AggregateSpec::Func::kSum, f, "sum_" + name});
    aggregates.push_back({AggregateSpec::Func::kAvg, f, "avg_" + name});
    aggregates.push_back({AggregateSpec::Func::kMin, f, "min_" + name});
    aggregates.push_back({AggregateSpec::Func::kMax, f, "max_" + name});
  }
  OpGraph g;
  const NodeId src = g.AddSource("in", data.schema(), 0);
  const NodeId agg = g.AddOperator(OperatorDesc::Aggregate(keys, aggregates, "agg"), src);
  for (int chunks : chunk_counts) CheckFusionEquivalence(g, {{src, data}}, chunks);
  return ApplyOperator(g.node(agg).desc, data).row_count();
}

// Int64 key columns from `rows` (one vector per row), then an int32, an
// int64 and a float64 value column.
Table KeyRows(const std::vector<std::vector<std::int64_t>>& rows) {
  std::vector<relational::Field> fields;
  for (std::size_t k = 0; k < rows.front().size(); ++k) {
    fields.push_back({"k" + std::to_string(k), DataType::kInt64});
  }
  fields.push_back({"i32", DataType::kInt32});
  fields.push_back({"i64", DataType::kInt64});
  fields.push_back({"f64", DataType::kFloat64});
  Table t{Schema(fields)};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    relational::Row row;
    for (std::int64_t k : rows[r]) row.push_back(Value::Int64(k));
    const auto v = static_cast<std::int64_t>((r * 37) % 23) - 11;
    row.push_back(Value::Int32(static_cast<std::int32_t>(v)));
    row.push_back(Value::Int64(v * 1000003));
    row.push_back(Value::Float64(static_cast<double>(v) / 4));
    t.AppendRow(row);
  }
  return t;
}

TEST(FusedPipeline, GroupKeysSpanningAllOfInt64Hash) {
  // max - min + 1 wraps to 0.
  const Table data =
      KeyRows({{kInt64Max}, {0}, {kInt64Min}, {kInt64Max}, {-1}, {kInt64Min}});
  EXPECT_EQ(CheckGroupBy(data, {0}, {1}), 4u);
}

// Spans multiplying to exactly 2 * rows index directly; one more hashes.
TEST(FusedPipeline, GroupKeySpansAtTheDirectIndexBound) {
  const std::vector<std::vector<std::int64_t>> spans{{12}, {3, 4}, {2, 3, 2}};
  for (const std::vector<std::int64_t>& span : spans) {
    for (std::int64_t extra : {0, 1}) {
      // Six rows (rows = 6, so 2 * rows = 12): the low corner, the high
      // corner pushed `extra` further on the last key, and four between.
      std::vector<std::vector<std::int64_t>> rows(6);
      for (std::size_t k = 0; k < span.size(); ++k) {
        const std::int64_t lo = -5 * static_cast<std::int64_t>(k) - 3;
        const std::int64_t hi = lo + span[k] - 1 + (k + 1 == span.size() ? extra : 0);
        rows[0].push_back(lo);
        rows[1].push_back(hi);
        for (std::size_t r = 2; r < 6; ++r) {
          rows[r].push_back(lo + static_cast<std::int64_t>(r * 7 + k) % span[k]);
        }
      }
      std::vector<int> keys(span.size());
      std::iota(keys.begin(), keys.end(), 0);
      CheckGroupBy(KeyRows(rows), keys, {1});
    }
  }
}

TEST(FusedPipeline, GroupKeySpansWhoseProductOverflowsHash) {
  // Spans 2^63 + 1 and 2: their product wraps to 2 in uint64, which would
  // send the last two rows to one offset.
  const Table data = KeyRows({{kInt64Min, 0}, {0, 1}, {kInt64Min + 1, 0}});
  EXPECT_EQ(CheckGroupBy(data, {0, 1}, {1}), 3u);
}

TEST(FusedPipeline, NegativeAndMixedWidthGroupKeys) {
  Table data(Schema{{"a", DataType::kInt32}, {"b", DataType::kInt64},
                    {"v", DataType::kInt32}, {"w", DataType::kFloat64}});
  for (int r = 0; r < 400; ++r) {
    data.AppendRow({Value::Int32(-1 - r % 5), Value::Int64(-(r % 3) - 7),
                    Value::Int32(r % 9 - 4), Value::Float64(r % 13 * 0.5)});
  }
  EXPECT_EQ(CheckGroupBy(data, {0, 1}), 15u);
  EXPECT_EQ(CheckGroupBy(data, {1, 0}), 15u);
}

// Chunk c of 10 rows holds keys c + 16 j: sparse in every chunk, dense over
// the 160 partial groups. Then keys 10^6 c + r % 4: dense in every chunk,
// sparse merged.
TEST(FusedPipeline, DenseAndSparsePartialsUnderTheOtherMerge) {
  std::vector<std::vector<std::int64_t>> sparse_partials, dense_partials;
  for (std::int64_t r = 0; r < 160; ++r) {
    sparse_partials.push_back({r / 10 + 16 * (r % 10)});
    dense_partials.push_back({1'000'000 * (r / 10) + r % 4});
  }
  EXPECT_EQ(CheckGroupBy(KeyRows(sparse_partials), {0}, {16}), 160u);
  EXPECT_EQ(CheckGroupBy(KeyRows(dense_partials), {0}, {16}), 64u);
}

// Every aggregate over int32, int64 and float64 values of dense keys, NaN
// and -0.0 included; in one chunk, since the chunks' fold order decides
// which values a NaN shadows.
TEST(FusedPipeline, EveryAggregateOverDenseKeysMatchesTheReference) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double values[] = {1.5, nan, -0.0, 0.0, -2.25, 8.0, nan, 3.0};
  Table data(Schema{{"k", DataType::kInt64}, {"i32", DataType::kInt32},
                    {"i64", DataType::kInt64}, {"f64", DataType::kFloat64}});
  for (int r = 0; r < 300; ++r) {
    data.AppendRow({Value::Int64(r % 7 - 3), Value::Int32(r % 11 - 5),
                    Value::Int64((r % 17 - 8) * 1'000'000'007LL),
                    Value::Float64(values[(r * 3) % 8])});
  }
  EXPECT_EQ(CheckGroupBy(data, {0}, {1}), 7u);
  // Without NaN every chunk count matches.
  for (std::size_t r = 0; r < data.row_count(); ++r) {
    double& v = data.column(3).AsFloat64()[r];
    if (v != v) v = 4.5;
  }
  EXPECT_EQ(CheckGroupBy(data, {0}, {1, 7, 16, 448}), 7u);
}

// A Q1-shaped cluster (SELECT, two positional JOINs, a dense GROUP BY) gives
// the same bytes from a 3-thread pool as serially, and through Execute
// under every strategy.
TEST(FusedPipeline, PositionalJoinsAndDenseGroupByMatchUnderAPool) {
  constexpr int kRows = 6000;
  Table dates(Schema{{"rowid", DataType::kInt64}, {"date", DataType::kInt32}});
  Table flags(Schema{{"rowid", DataType::kInt64}, {"flag", DataType::kInt32}});
  Table prices(Schema{{"rowid", DataType::kInt64}, {"price", DataType::kFloat64}});
  for (std::int32_t r = 0; r < kRows; ++r) {
    dates.AppendRow({Value::Int64(r), Value::Int32(r * 13 % 100)});
    flags.AppendRow({Value::Int64(r), Value::Int32(r % 3)});
    prices.AppendRow({Value::Int64(r), Value::Float64(r % 50 * 0.25)});
  }
  OpGraph g;
  const NodeId src = g.AddSource("dates", dates.schema(), kRows);
  const NodeId flag = g.AddSource("flags", flags.schema(), kRows);
  const NodeId price = g.AddSource("prices", prices.schema(), kRows);
  const NodeId sel = g.AddOperator(
      OperatorDesc::Select(Expr::Le(Expr::FieldRef(1), Expr::Lit(Value::Int32(90)))),
      src);
  const NodeId j1 = g.AddOperator(OperatorDesc::Join(0, 0, "join_flag"), sel, flag);
  const NodeId j2 = g.AddOperator(OperatorDesc::Join(0, 0, "join_price"), j1, price);
  const NodeId agg = g.AddOperator(
      OperatorDesc::Aggregate({2}, {{AggregateSpec::Func::kSum, 3, "sum"},
                                    {AggregateSpec::Func::kMax, 1, "max"},
                                    {AggregateSpec::Func::kCount, 0, "n"}}),
      j2);
  const std::map<NodeId, Table> sources{{src, dates}, {flag, flags}, {price, prices}};
  CheckFusionEquivalence(g, sources, 1);

  const FusionPlan plan = PlanFusion(g);
  ASSERT_EQ(plan.clusters.size(), 1u);
  ASSERT_EQ(plan.clusters[0].nodes, (std::vector<NodeId>{sel, j1, j2, agg}));
  auto lookup = [&](NodeId id) -> const Table& { return sources.at(id); };
  ThreadPool pool(3);
  const ClusterExecution serial = ExecuteCluster(g, plan.clusters[0], lookup, 24);
  const ClusterExecution parallel =
      ExecuteCluster(g, plan.clusters[0], lookup, 24, &pool);
  EXPECT_TRUE(ByteIdentical(parallel.outputs.at(agg), serial.outputs.at(agg)));
  EXPECT_EQ(parallel.member_rows, serial.member_rows);

  sim::DeviceSimulator device;
  const QueryExecutor serial_executor(device);
  const QueryExecutor pooled_executor(device, OperatorCostModel{}, &pool);
  for (Strategy strategy : {Strategy::kSerial, Strategy::kFused, Strategy::kFission,
                            Strategy::kFusedFission}) {
    ExecutorOptions options;
    options.strategy = strategy;
    options.chunk_count = 24;
    const ExecutionReport alone = serial_executor.Execute(g, sources, options);
    const ExecutionReport pooled = pooled_executor.Execute(g, sources, options);
    EXPECT_TRUE(ByteIdentical(pooled.sink_results.at(agg), alone.sink_results.at(agg)))
        << ToString(strategy);
    EXPECT_TRUE(ByteIdentical(alone.sink_results.at(agg), serial.outputs.at(agg)))
        << ToString(strategy);
  }
}

}  // namespace
}  // namespace kf::core
