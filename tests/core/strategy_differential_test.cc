// Differential sweep: random operator graphs executed under every
// ExecutionStrategy — and through the QueryScheduler serving path — must
// produce byte-identical results to the operator-at-a-time scalar reference.
// The property tests check multiset equality; this sweep pins down row order
// and exact values too, so a strategy that silently reorders or perturbs
// rows fails here even when the multiset still matches.
#include <gtest/gtest.h>

#include <atomic>

#include "common/buffer_arena.h"
#include "core/graph_merge.h"
#include "core/query_executor.h"
#include "core/select_chain.h"
#include "server/query_scheduler.h"
#include "tests/core/byte_identical.h"
#include "tests/core/random_graph.h"

namespace kf::core {
namespace {

using relational::Row;
using relational::Table;

class StrategyDifferential : public ::testing::TestWithParam<int> {};

TEST_P(StrategyDifferential, EveryStrategyByteIdenticalToScalarReference) {
  for (int trial = 0; trial < 4; ++trial) {
    const RandomQuery q = MakeRandomQuery(
        static_cast<std::uint64_t>(GetParam()) * 1543 + trial + 7);
    const std::map<NodeId, Table> truth = ReferenceResults(q);

    sim::DeviceSimulator device;
    QueryExecutor executor(device);
    for (Strategy strategy : {Strategy::kSerial, Strategy::kFused,
                              Strategy::kFission, Strategy::kFusedFission}) {
      for (std::size_t chunks : {std::size_t{1}, std::size_t{4}}) {
        ExecutorOptions options;
        options.strategy = strategy;
        options.chunk_count = chunks;
        const ExecutionReport report =
            executor.Execute(q.graph, q.sources, options);
        for (NodeId sink : q.graph.Sinks()) {
          ASSERT_EQ(report.sink_results.count(sink), 1u)
              << ToString(strategy) << " missing sink " << sink;
          EXPECT_TRUE(ByteIdentical(report.sink_results.at(sink), truth.at(sink)))
              << ToString(strategy) << " chunks=" << chunks << " sink " << sink
              << " trial " << trial << "\ngraph:\n" << q.graph.ToString();
        }
      }
    }
  }
}

TEST_P(StrategyDifferential, WarmThreadArenaRunsByteIdenticalToScalarReference) {
  // Same sweep as above, run twice: the second run takes its workspaces warm
  // from the thread's BufferArena, and pooled workspaces must never change a
  // byte of output.
  const RandomQuery q =
      MakeRandomQuery(static_cast<std::uint64_t>(GetParam()) * 911 + 5);
  const std::map<NodeId, Table> truth = ReferenceResults(q);

  sim::DeviceSimulator device;
  QueryExecutor executor(device);
  for (Strategy strategy : {Strategy::kSerial, Strategy::kFused,
                            Strategy::kFission, Strategy::kFusedFission}) {
    ExecutorOptions options;
    options.strategy = strategy;
    options.chunk_count = 4;
    for (int run = 0; run < 2; ++run) {  // second run reuses warm pools
      const ExecutionReport report =
          executor.Execute(q.graph, q.sources, options);
      for (NodeId sink : q.graph.Sinks()) {
        ASSERT_EQ(report.sink_results.count(sink), 1u);
        EXPECT_TRUE(ByteIdentical(report.sink_results.at(sink), truth.at(sink)))
            << ToString(strategy) << " arena run " << run << " sink " << sink;
      }
    }
  }
}

// Single-column int32 select chains. `compilable` picks expressions every
// one of which CompilePredicate can lower, so the fused pipeline filters with
// the typed FilterInt32 kernels; otherwise each chain gets at least one
// uncompilable predicate, which the pipeline evaluates with EvalExpr.
struct Int32Chain {
  OpGraph graph;
  std::map<NodeId, Table> sources;
  NodeId source = 0;
};

// A threshold predicate on int32 field `field`. Compilable shapes: a plain
// compare, a range conjunction, a negation, a literal on the left. The
// uncompilable one hides the same threshold behind arithmetic, which
// CompilePredicate rejects but EvalExpr evaluates identically.
relational::Expr Int32Predicate(Rng& rng, int field, bool compilable) {
  using relational::Expr;
  const Expr v = Expr::FieldRef(field);
  if (!compilable) {
    return Expr::Lt(Expr::Add(v, Expr::Lit(0)), Expr::Lit(rng.UniformInt(0, 1 << 30)));
  }
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return Expr::Lt(v, Expr::Lit(rng.UniformInt(0, 1 << 30)));
    case 1: {
      const std::int64_t lo = rng.UniformInt(0, 1 << 29);
      return Expr::And(Expr::Ge(v, Expr::Lit(lo)),
                       Expr::Le(v, Expr::Lit(rng.UniformInt(0, 1 << 30))));
    }
    case 2:
      return Expr::Not(Expr::Ge(v, Expr::Lit(rng.UniformInt(0, 1 << 30))));
    default:
      // Literal on the left: still compilable via mirroring.
      return Expr::Gt(Expr::Lit(rng.UniformInt(0, 1 << 30)), v);
  }
}

Int32Chain MakeInt32Chain(std::uint64_t seed, bool compilable) {
  using relational::OperatorDesc;
  Rng rng(seed);
  Int32Chain q;
  const std::size_t rows = static_cast<std::size_t>(rng.UniformInt(200, 2000));
  const Table data = MakeUniformInt32Table(rows, seed);
  q.source = q.graph.AddSource("chain_src", data.schema(), rows);
  q.sources.emplace(q.source, data);

  NodeId prev = q.source;
  const int depth = static_cast<int>(rng.UniformInt(2, 5));
  for (int i = 0; i < depth; ++i) {
    prev = q.graph.AddOperator(
        OperatorDesc::Select(Int32Predicate(rng, 0, compilable || i != depth / 2),
                             "sel" + std::to_string(i)),
        prev);
  }
  return q;
}

std::map<NodeId, Table> Int32ChainReference(const Int32Chain& q) {
  std::map<NodeId, Table> truth;
  for (NodeId id : q.graph.TopologicalOrder()) {
    const OpNode& node = q.graph.node(id);
    if (node.is_source) {
      truth.emplace(id, q.sources.at(id));
    } else {
      truth.emplace(id,
                    relational::ApplyOperator(node.desc, truth.at(node.inputs[0])));
    }
  }
  return truth;
}

TEST_P(StrategyDifferential, TypedSelectChainByteIdenticalToScalarReference) {
  const std::atomic<std::uint64_t>& fallback =
      kf::HostPerfCounters::Global().fallback_predicates;
  const std::uint64_t typed_before =
      kf::HostPerfCounters::Global().typed_predicates.load();
  for (bool compilable : {true, false}) {
    const std::uint64_t fallback_before = fallback.load();
    for (int trial = 0; trial < 4; ++trial) {
      const Int32Chain q = MakeInt32Chain(
          static_cast<std::uint64_t>(GetParam()) * 271 + trial * 13 + 1,
          compilable);
      const std::map<NodeId, Table> truth = Int32ChainReference(q);

      sim::DeviceSimulator device;
      QueryExecutor executor(device);
      for (Strategy strategy : {Strategy::kSerial, Strategy::kFused,
                                Strategy::kFission, Strategy::kFusedFission}) {
        for (std::size_t chunks : {std::size_t{1}, std::size_t{4}}) {
          ExecutorOptions options;
          options.strategy = strategy;
          options.chunk_count = chunks;
          const ExecutionReport report =
              executor.Execute(q.graph, q.sources, options);
          for (NodeId sink : q.graph.Sinks()) {
            ASSERT_EQ(report.sink_results.count(sink), 1u);
            EXPECT_TRUE(
                ByteIdentical(report.sink_results.at(sink), truth.at(sink)))
                << ToString(strategy) << " chunks=" << chunks
                << " compilable=" << compilable << " trial " << trial
                << "\ngraph:\n" << q.graph.ToString();
          }
        }
      }
    }
    // Each of the 4 x 4 x 2 runs of an uncompilable chain evaluates its one
    // hidden predicate through EvalExpr; compilable chains never do.
    EXPECT_EQ(fallback.load() - fallback_before, compilable ? 0u : 32u);
  }
  // The compilable chains must actually have exercised typed kernels.
  EXPECT_GT(kf::HostPerfCounters::Global().typed_predicates.load(),
            typed_before);
}

// SELECT trees: k chains over one source, each built as its own query and
// spliced in with MergeGraphs, as cross-query merging does, so pattern (c)
// fuses them into one multi-output cluster. The source is one int32 column,
// or a table (k i64, v i32, w i64) whose int32 predicates read field 1.
RandomQuery MakeSelectTree(std::uint64_t seed, bool multi_column, bool compilable) {
  using relational::DataType;
  using relational::OperatorDesc;
  using relational::Value;
  Rng rng(seed);
  const std::size_t rows = static_cast<std::size_t>(rng.UniformInt(200, 2000));
  Table data = MakeUniformInt32Table(rows, seed);
  if (multi_column) {
    Table wide(relational::Schema{
        {"k", DataType::kInt64}, {"v", DataType::kInt32}, {"w", DataType::kInt64}});
    for (std::size_t r = 0; r < rows; ++r) {
      wide.AppendRow({Value::Int64(static_cast<std::int64_t>(r % 17)),
                      data.column(0).Get(r), Value::Int64(rng.UniformInt(-9, 9))});
    }
    data = std::move(wide);
  }
  const int field = multi_column ? 1 : 0;

  RandomQuery q;
  const int chains = static_cast<int>(rng.UniformInt(2, 6));
  for (int c = 0; c < chains; ++c) {
    OpGraph chain;
    NodeId prev = chain.AddSource("tree_src", data.schema(), rows);
    const int depth = static_cast<int>(rng.UniformInt(1, 3));
    for (int d = 0; d < depth; ++d) {
      prev = chain.AddOperator(
          OperatorDesc::Select(Int32Predicate(rng, field, compilable || d != 0),
                               "c" + std::to_string(c) + "s" + std::to_string(d)),
          prev);
    }
    q.graph = c == 0 ? std::move(chain) : MergeGraphs(q.graph, chain).graph;
  }
  q.sources.emplace(q.graph.Sources().at(0), std::move(data));
  return q;
}

TEST_P(StrategyDifferential, TypedSelectTreeByteIdenticalToScalarReference) {
  const std::atomic<std::uint64_t>& typed = kf::HostPerfCounters::Global().typed_predicates;
  ThreadPool pool(3);
  FusionOptions split;
  split.register_budget = 14;  // a couple of SELECTs per kernel at most
  bool budget_split_a_tree = false;
  for (bool multi_column : {false, true}) {
    for (bool compilable : {true, false}) {
      for (int trial = 0; trial < 2; ++trial) {
        const RandomQuery q = MakeSelectTree(
            static_cast<std::uint64_t>(GetParam()) * 613 + trial * 29 +
                (multi_column ? 7 : 0) + (compilable ? 3 : 0),
            multi_column, compilable);
        const std::map<NodeId, Table> truth = ReferenceResults(q);
        const std::uint64_t typed_before = typed.load();
        budget_split_a_tree = budget_split_a_tree ||
                              PlanFusion(q.graph, split).clusters.size() >
                                  PlanFusion(q.graph).clusters.size();
        sim::DeviceSimulator device;
        for (ThreadPool* use_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
          QueryExecutor executor(device, OperatorCostModel{}, use_pool);
          for (Strategy strategy : {Strategy::kSerial, Strategy::kFused,
                                    Strategy::kFission, Strategy::kFusedFission}) {
            for (int chunks : {1, 4, 448}) {
              for (int budget : {FusionOptions{}.register_budget, split.register_budget}) {
                ExecutorOptions options;
                options.strategy = strategy;
                options.chunk_count = chunks;
                options.fusion.register_budget = budget;
                const ExecutionReport report =
                    executor.Execute(q.graph, q.sources, options);
                for (NodeId sink : q.graph.Sinks()) {
                  ASSERT_EQ(report.sink_results.count(sink), 1u);
                  EXPECT_TRUE(
                      ByteIdentical(report.sink_results.at(sink), truth.at(sink)))
                      << ToString(strategy) << " chunks=" << chunks
                      << " budget=" << budget << " pool=" << (use_pool != nullptr)
                      << " multi_column=" << multi_column
                      << " compilable=" << compilable << " sink " << sink
                      << "\ngraph:\n" << q.graph.ToString();
                }
              }
            }
          }
        }
        // Compilable trees filter on one column or on field 1 of three, and
        // the fused strategies run those predicates on the typed kernels.
        if (compilable) {
          EXPECT_GT(typed.load(), typed_before) << "multi_column=" << multi_column;
        }
      }
    }
  }
  EXPECT_TRUE(budget_split_a_tree) << "no tree exceeded the small register budget";
}

TEST_P(StrategyDifferential, BarrierGraphsByteIdenticalToScalarReference) {
  // Multi-key SORT, UNIQUE and set operators over int32/int64/float64
  // relations with NaN, ±0.0 and ±inf run as singleton clusters under every
  // strategy, at any chunk count, pooled or not.
  ThreadPool pool(3);
  for (int trial = 0; trial < 3; ++trial) {
    const RandomQuery q =
        MakeRandomBarrierQuery(static_cast<std::uint64_t>(GetParam()) * 433 + trial + 1);
    const std::map<NodeId, Table> truth = ReferenceResults(q);
    sim::DeviceSimulator device;
    for (ThreadPool* use_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
      QueryExecutor executor(device, OperatorCostModel{}, use_pool);
      for (Strategy strategy : {Strategy::kSerial, Strategy::kFused, Strategy::kFission,
                                Strategy::kFusedFission}) {
        for (int chunks : {1, 4, 448}) {
          ExecutorOptions options;
          options.strategy = strategy;
          options.chunk_count = chunks;
          const ExecutionReport report = executor.Execute(q.graph, q.sources, options);
          for (NodeId sink : q.graph.Sinks()) {
            ASSERT_EQ(report.sink_results.count(sink), 1u);
            EXPECT_TRUE(ByteIdentical(report.sink_results.at(sink), truth.at(sink)))
                << ToString(strategy) << " chunks=" << chunks
                << " pool=" << (use_pool != nullptr) << " trial " << trial << " sink "
                << sink << "\ngraph:\n" << q.graph.ToString();
          }
        }
      }
    }
  }
}

TEST_P(StrategyDifferential, SchedulerPathByteIdenticalToScalarReference) {
  const RandomQuery q =
      MakeRandomQuery(static_cast<std::uint64_t>(GetParam()) * 389 + 11);
  const std::map<NodeId, Table> truth = ReferenceResults(q);

  sim::DeviceSimulator device;
  server::SchedulerOptions sched_options;
  sched_options.worker_count = 2;
  obs::MetricsRegistry registry;
  sched_options.metrics = &registry;
  server::QueryScheduler scheduler(device, sched_options);

  std::vector<std::future<server::QueryResult>> futures;
  const std::vector<Strategy> strategies = {Strategy::kSerial, Strategy::kFused,
                                            Strategy::kFission,
                                            Strategy::kFusedFission};
  for (Strategy strategy : strategies) {
    server::QueryRequest request;
    request.graph = q.graph;
    request.sources = q.sources;
    request.options.strategy = strategy;
    request.options.chunk_count = 4;
    futures.push_back(scheduler.Submit(std::move(request)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    server::QueryResult result = futures[i].get();
    for (NodeId sink : q.graph.Sinks()) {
      ASSERT_EQ(result.results.count(sink), 1u)
          << ToString(strategies[i]) << " missing sink " << sink;
      EXPECT_TRUE(ByteIdentical(result.results.at(sink), truth.at(sink)))
          << "scheduler " << ToString(strategies[i]) << " sink " << sink;
    }
    EXPECT_GT(result.report.makespan, 0.0);
  }
}

TEST_P(StrategyDifferential, MergedBatchByteIdenticalToScalarReference) {
  // Two structurally different queries over the SAME sources (same seed ->
  // same tables), merged into one execution: each must still get exactly its
  // own reference results back.
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 7121 + 3;
  const RandomQuery a = MakeRandomQuery(seed);
  const RandomQuery b = MakeRandomQuery(seed);  // identical twin

  sim::DeviceSimulator device;
  server::SchedulerOptions sched_options;
  sched_options.worker_count = 1;
  sched_options.start_paused = true;  // both queued before the worker wakes
  obs::MetricsRegistry registry;
  sched_options.metrics = &registry;
  server::QueryScheduler scheduler(device, sched_options);

  auto submit = [&](const RandomQuery& q) {
    server::QueryRequest request;
    request.graph = q.graph;
    request.sources = q.sources;
    request.options.strategy = Strategy::kFused;
    request.merge_class = "twins";
    return scheduler.Submit(std::move(request));
  };
  auto fa = submit(a);
  auto fb = submit(b);
  scheduler.Start();

  const std::map<NodeId, Table> truth = ReferenceResults(a);
  for (auto* f : {&fa, &fb}) {
    server::QueryResult result = f->get();
    EXPECT_TRUE(result.merged);
    EXPECT_EQ(result.batch_size, 2u);
    for (NodeId sink : a.graph.Sinks()) {
      ASSERT_EQ(result.results.count(sink), 1u) << "missing sink " << sink;
      EXPECT_TRUE(ByteIdentical(result.results.at(sink), truth.at(sink)))
          << "merged sink " << sink;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyDifferential, ::testing::Range(0, 5));

}  // namespace
}  // namespace kf::core
