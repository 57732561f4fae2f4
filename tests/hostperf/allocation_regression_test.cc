// Allocation-regression harness (hostperf): a warm fused cluster must
// allocate per cluster, never per chunk, and repeated executor runs must
// reach an allocation steady state. Counting comes from the global operator
// new/delete overrides in alloc_hooks.cc, which is why these tests live in
// their own binary.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "common/buffer_arena.h"
#include "core/fused_pipeline.h"
#include "core/fusion_planner.h"
#include "core/query_executor.h"
#include "core/select_chain.h"
#include "relational/operators.h"
#include "tests/hostperf/alloc_hooks.h"

namespace kf {
namespace {

using testing::AllocationCountingAvailable;
using testing::AllocationScope;

class AllocationRegressionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!AllocationCountingAvailable()) {
      GTEST_SKIP() << "allocation hooks disabled under sanitizers";
    }
  }
};

TEST_F(AllocationRegressionTest, ExecutorReachesAllocationSteadyState) {
  // Whole-query runs allocate (fresh result tables, reports), but once the
  // thread's arena is warm the per-run allocation count must stabilize: run N
  // and run N+1 are identical workloads, so any growth would be a leak of
  // warm-path pooling.
  sim::DeviceSimulator device;
  core::QueryExecutor executor(device);
  core::SelectChain chain =
      core::MakeSelectChain(50000, std::vector<double>{0.5, 0.5, 0.5});
  const relational::Table data = core::MakeUniformInt32Table(50000, 11);
  const std::map<core::NodeId, relational::Table> sources{
      {chain.source, data}};
  obs::MetricsRegistry registry;  // isolate from other tests' metric traffic
  core::ExecutorOptions options;
  options.strategy = core::Strategy::kFused;
  options.chunk_count = 16;
  options.metrics = &registry;

  auto measure = [&] {
    AllocationScope scope;
    (void)executor.Execute(chain.graph, sources, options);
    return scope.delta();
  };

  // Warm arena pools, metric entries, and cost tables; then the per-run
  // allocation count must settle. Metric histograms append samples with
  // amortized doubling, so consecutive runs only match between capacity
  // doublings — a pooling leak instead grows the delta monotonically and
  // never produces two equal consecutive runs.
  (void)measure();
  (void)measure();
  std::uint64_t prev = measure();
  bool steady = false;
  for (int run = 0; run < 20 && !steady; ++run) {
    const std::uint64_t delta = measure();
    steady = (delta == prev);
    prev = delta;
  }
  EXPECT_TRUE(steady) << "executor allocations still drifting after warmup";
}

TEST_F(AllocationRegressionTest, WarmFusedClusterAllocationsIgnoreChunkCount) {
  // A 64-row query in the default 448 chunks leaves most chunks empty. Warm,
  // the fused pipeline allocates per cluster (its plan and output tables),
  // never per chunk or per member: 448 chunks cost exactly what 4 cost.
  using relational::DataType;
  using relational::Expr;
  using relational::OperatorDesc;
  relational::Table data(relational::Schema{{"k", DataType::kInt64},
                                            {"v", DataType::kInt64}});
  for (std::int64_t r = 0; r < 64; ++r) {
    data.AppendRow({relational::Value::Int64(r % 9), relational::Value::Int64(r)});
  }
  core::OpGraph graph;
  const core::NodeId src = graph.AddSource("src", data.schema(), 64);
  const core::NodeId sel = graph.AddOperator(
      OperatorDesc::Select(Expr::Lt(Expr::FieldRef(0), Expr::Lit(6))), src);
  const core::NodeId calc = graph.AddOperator(
      OperatorDesc::Arith(Expr::Add(Expr::FieldRef(0), Expr::FieldRef(1)), "sum",
                          DataType::kInt64),
      sel);
  const core::NodeId keep = graph.AddOperator(
      OperatorDesc::Select(Expr::Ge(Expr::FieldRef(2), Expr::Lit(4))), calc);
  graph.AddOperator(OperatorDesc::Project({2, 0}), keep);
  const core::FusionPlan plan = core::PlanFusion(graph);
  ASSERT_EQ(plan.clusters.size(), 1u);
  auto lookup = [&](core::NodeId) -> const relational::Table& { return data; };
  auto measure = [&](int chunks) {
    AllocationScope scope;
    (void)core::ExecuteCluster(graph, plan.clusters[0], lookup, chunks);
    return scope.delta();
  };
  (void)measure(4);
  (void)measure(448);
  EXPECT_EQ(measure(448), measure(4));
}

// hostperf.arena_reused_bytes counts the heap capacity a pool hit hands
// back: a warm rerun of a SELECT over 2^16 int32 rows reuses at least the
// buffers its compacted column took.
TEST(ArenaReusedBytes, WarmSelectReusesItsColumnBytes) {
  constexpr std::uint64_t kRows = std::uint64_t{1} << 16;
  core::SelectChain chain = core::MakeSelectChain(kRows, std::vector<double>{0.5});
  const relational::Table data = core::MakeUniformInt32Table(kRows, 5);
  const core::FusionPlan plan = core::PlanFusion(chain.graph);
  ASSERT_EQ(plan.clusters.size(), 1u);
  auto lookup = [&](core::NodeId) -> const relational::Table& { return data; };
  auto reused = [&] {
    const auto& counter = HostPerfCounters::Global().arena_reused_bytes;
    const std::uint64_t before = counter.load();
    (void)core::ExecuteCluster(chain.graph, plan.clusters[0], lookup, 8);
    return counter.load() - before;
  };
  (void)reused();
  EXPECT_GE(reused(), kRows * sizeof(std::int32_t));
}

}  // namespace
}  // namespace kf
