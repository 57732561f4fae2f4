// Wall-clock microbenchmarks (google-benchmark) of the host-side functional
// substrate on THIS machine: the executor's staged kernels
// (core::ExecuteCluster) over SELECT (int32 typed kernels and int64 column
// programs), fused and unfused SELECT chains, float64 ARITH, JOIN on
// positional, dense and sparse keys, AGGREGATE on dense and sparse keys,
// SORT clusters (one int32, one int64 and two int64 keys), the radix
// argsort, and compression. These are
// sanity checks that the functional layer is itself reasonable code — the
// paper's figures come from the simulated device, not from these timings.
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/fused_pipeline.h"
#include "core/select_chain.h"
#include "relational/compression.h"
#include "relational/staged_sort.h"

namespace {

using namespace kf;
using core::NodeId;
using relational::DataType;
using relational::OperatorDesc;
using relational::Table;
using relational::Value;

std::vector<std::int32_t> MakeData(std::size_t n) {
  Rng rng(7);
  std::vector<std::int32_t> data(n);
  for (auto& v : data) v = static_cast<std::int32_t>(rng.UniformInt(0, 1 << 30));
  return data;
}

// Runs every cluster of `plan` in order over 64 chunks, as the executor's
// functional pass does, and returns the rows of the last cluster's outputs.
std::size_t RunPlan(const core::OpGraph& graph, const core::FusionPlan& plan,
                    const std::map<NodeId, Table>& sources) {
  std::map<NodeId, Table> computed;
  auto lookup = [&](NodeId id) -> const Table& {
    const auto it = sources.find(id);
    return it != sources.end() ? it->second : computed.at(id);
  };
  std::size_t rows = 0;
  for (const core::FusionCluster& cluster : plan.clusters) {
    core::ClusterExecution exec = core::ExecuteCluster(graph, cluster, lookup, 64);
    rows = 0;
    for (auto& [id, table] : exec.outputs) {
      rows += table.row_count();
      computed.insert_or_assign(id, std::move(table));
    }
  }
  return rows;
}

// Times `graph` under `options`' fusion plan; items are the primary rows.
void RunGraph(benchmark::State& state, const core::OpGraph& graph,
              const std::map<NodeId, Table>& sources, std::size_t rows,
              const core::FusionOptions& options = {}) {
  const core::FusionPlan plan = core::PlanFusion(graph, options);
  for (auto _ : state) benchmark::DoNotOptimize(RunPlan(graph, plan, sources));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}

// A chain of 50% SELECTs over uniform int32s (each keeps half its input).
void RunSelectChain(benchmark::State& state, std::size_t rows, std::size_t selects,
                    const core::FusionOptions& options = {}) {
  const core::SelectChain chain =
      core::MakeSelectChain(rows, std::vector<double>(selects, 0.5));
  RunGraph(state, chain.graph, {{chain.source, core::MakeUniformInt32Table(rows)}},
           rows, options);
}

// One int32 SELECT: a typed FilterInt32 kernel per chunk.
void BM_ClusterSelect(benchmark::State& state) {
  RunSelectChain(state, static_cast<std::size_t>(state.range(0)), 1);
}
BENCHMARK(BM_ClusterSelect)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);

// Two SELECTs fused into one cluster: one partition, one gather (Fig 6).
void BM_ClusterSelectChainFused(benchmark::State& state) {
  RunSelectChain(state, 1 << 20, 2);
}
BENCHMARK(BM_ClusterSelectChainFused);

// The same chain unfused: one cluster per SELECT, the intermediate
// materialized between them (2x Fig 3).
void BM_ClusterSelectChainUnfused(benchmark::State& state) {
  core::FusionOptions unfused;
  unfused.enabled = false;
  RunSelectChain(state, 1 << 20, 2, unfused);
}
BENCHMARK(BM_ClusterSelectChainUnfused);

// Int64 key/value relation with keys uniform in [0, key_max].
Table MakeKV(std::size_t rows, std::int64_t key_max, std::uint64_t seed) {
  Rng rng(seed);
  Table t(relational::Schema{{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  t.Reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    t.AppendRow({Value::Int64(rng.UniformInt(0, key_max)),
                 Value::Int64(rng.UniformInt(0, 100))});
  }
  return t;
}

// One int64 SELECT keeping about half the rows: a column program per chunk.
void BM_ClusterSelectInt64(benchmark::State& state) {
  const std::size_t rows = 1 << 20;
  core::OpGraph graph;
  Table data = MakeKV(rows, 1 << 20, 5);
  const NodeId src = graph.AddSource("in", data.schema(), rows);
  graph.AddOperator(OperatorDesc::Select(relational::Expr::Lt(
                        relational::Expr::FieldRef(0), relational::Expr::Lit(1 << 19))),
                    src);
  RunGraph(state, graph, {{src, std::move(data)}}, rows);
}
BENCHMARK(BM_ClusterSelectInt64);

// TPC-H Q1's discounted price, price * (1 - disc), over float64 columns.
void BM_ClusterArithFloat64(benchmark::State& state) {
  using relational::Expr;
  const std::size_t rows = 1 << 20;
  Rng rng(6);
  Table data(relational::Schema{{"price", DataType::kFloat64},
                                {"disc", DataType::kFloat64}});
  data.Reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    data.AppendRow({Value::Float64(rng.UniformDouble(900.0, 100000.0)),
                    Value::Float64(static_cast<double>(rng.UniformInt(0, 10)) / 100.0)});
  }
  core::OpGraph graph;
  const NodeId src = graph.AddSource("in", data.schema(), rows);
  graph.AddOperator(
      OperatorDesc::Arith(
          Expr::Mul(Expr::FieldRef(0), Expr::Sub(Expr::LitF(1.0), Expr::FieldRef(1))),
          "disc_price", DataType::kFloat64),
      src);
  RunGraph(state, graph, {{src, std::move(data)}}, rows);
}
BENCHMARK(BM_ClusterArithFloat64);

// JOIN probing 2^18 rows against a 2^14-row build side on int64 keys in
// [0, 2^14]: they span fewer than twice the build rows, so the JOIN index
// addresses them directly.
void BM_ClusterJoin(benchmark::State& state) {
  const std::size_t probe_rows = 1 << 18;
  core::OpGraph graph;
  Table probe = MakeKV(probe_rows, 1 << 14, 3);
  Table build = MakeKV(1 << 14, 1 << 14, 4);
  const NodeId probe_id = graph.AddSource("probe", probe.schema(), probe_rows);
  const NodeId build_id = graph.AddSource("build", build.schema(), build.row_count());
  graph.AddOperator(OperatorDesc::Join(0, 0), probe_id, build_id);
  RunGraph(state, graph, {{probe_id, std::move(probe)}, {build_id, std::move(build)}},
           probe_rows);
}
BENCHMARK(BM_ClusterJoin);

// The same JOIN on sparse keys: the 2^14 build keys are distinct multiples
// of 64, so they span more than twice the build rows and the JOIN index
// hashes them. Every probe key matches one build row.
void BM_ClusterJoinSparse(benchmark::State& state) {
  const std::size_t probe_rows = 1 << 18;
  const std::int64_t build_rows = 1 << 14;
  Rng rng(3);
  const relational::Schema schema{{"k", DataType::kInt64}, {"v", DataType::kInt64}};
  Table probe(schema);
  probe.Reserve(probe_rows);
  for (std::size_t r = 0; r < probe_rows; ++r) {
    probe.AppendRow({Value::Int64(64 * rng.UniformInt(0, build_rows - 1)),
                     Value::Int64(rng.UniformInt(0, 100))});
  }
  Table build(schema);
  build.Reserve(static_cast<std::size_t>(build_rows));
  for (std::int64_t r = 0; r < build_rows; ++r) {
    // 7919 is odd, so r -> 7919 r mod 2^14 permutes the build keys.
    build.AppendRow({Value::Int64(64 * (r * 7919 % build_rows)),
                     Value::Int64(rng.UniformInt(0, 100))});
  }
  core::OpGraph graph;
  const NodeId probe_id = graph.AddSource("probe", probe.schema(), probe_rows);
  const NodeId build_id = graph.AddSource("build", build.schema(), build.row_count());
  graph.AddOperator(OperatorDesc::Join(0, 0), probe_id, build_id);
  RunGraph(state, graph, {{probe_id, std::move(probe)}, {build_id, std::move(build)}},
           probe_rows);
}
BENCHMARK(BM_ClusterJoinSparse);

// The same JOIN against a positional build side: row r holds key r, for r
// below 2^14, so a probe addresses its build row with no index at all, and
// every probe row matches once, so the probe columns pass on ungathered.
void BM_ClusterJoinPositional(benchmark::State& state) {
  const std::size_t probe_rows = 1 << 18;
  const std::int64_t build_rows = 1 << 14;
  core::OpGraph graph;
  Table probe = MakeKV(probe_rows, build_rows - 1, 3);
  Rng rng(4);
  Table build(probe.schema());
  build.Reserve(static_cast<std::size_t>(build_rows));
  for (std::int64_t r = 0; r < build_rows; ++r) {
    build.AppendRow({Value::Int64(r), Value::Int64(rng.UniformInt(0, 100))});
  }
  const NodeId probe_id = graph.AddSource("probe", probe.schema(), probe_rows);
  const NodeId build_id = graph.AddSource("build", build.schema(), build.row_count());
  graph.AddOperator(OperatorDesc::Join(0, 0), probe_id, build_id);
  RunGraph(state, graph, {{probe_id, std::move(probe)}, {build_id, std::move(build)}},
           probe_rows);
}
BENCHMARK(BM_ClusterJoinPositional);

// Grouped SUM of 2^20 float64 values over 64 int64 groups whose keys are
// 0..63 times `stride`.
void RunAggregate(benchmark::State& state, std::int64_t stride) {
  const std::size_t rows = 1 << 20;
  Rng rng(4);
  Table data(relational::Schema{{"g", DataType::kInt64}, {"v", DataType::kFloat64}});
  data.Reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    data.AppendRow({Value::Int64(stride * rng.UniformInt(0, 63)),
                    Value::Float64(rng.UniformDouble(0.0, 1.0))});
  }
  core::OpGraph graph;
  const NodeId src = graph.AddSource("in", data.schema(), rows);
  graph.AddOperator(
      OperatorDesc::Aggregate({0}, {{relational::AggregateSpec::Func::kSum, 1, "sum"}}),
      src);
  RunGraph(state, graph, {{src, std::move(data)}}, rows);
}

// Keys 0..63: dense in every chunk and merged, so groups are numbered by a
// direct index.
void BM_ClusterAggregate(benchmark::State& state) { RunAggregate(state, 1); }
BENCHMARK(BM_ClusterAggregate);

// Keys 2^20 apart: they span more than twice the rows of a chunk and of the
// merge, so groups are hashed.
void BM_ClusterAggregateSparse(benchmark::State& state) { RunAggregate(state, 1 << 20); }
BENCHMARK(BM_ClusterAggregateSparse);

// SORT of 2^20 rows on one int32 key: the barrier kernel's radix argsort
// plus its gather.
void BM_ClusterSort(benchmark::State& state) {
  const std::size_t rows = 1 << 20;
  core::OpGraph graph;
  Table data = core::MakeUniformInt32Table(rows);
  const NodeId src = graph.AddSource("in", data.schema(), rows);
  graph.AddOperator(OperatorDesc::Sort({0}), src);
  RunGraph(state, graph, {{src, std::move(data)}}, rows);
}
BENCHMARK(BM_ClusterSort);

// SORT of 2^20 rows on one int64 key uniform in [0, 2^30].
void BM_ClusterSortInt64(benchmark::State& state) {
  const std::size_t rows = 1 << 20;
  core::OpGraph graph;
  Table data = MakeKV(rows, 1 << 30, 7);
  const NodeId src = graph.AddSource("in", data.schema(), rows);
  graph.AddOperator(OperatorDesc::Sort({0}), src);
  RunGraph(state, graph, {{src, std::move(data)}}, rows);
}
BENCHMARK(BM_ClusterSortInt64);

// SORT of 2^20 rows on two int64 keys with many ties, (k in [0, 63],
// v in [0, 100]): Q1's (flag, status) shape at a larger key range.
void BM_ClusterSortTwoKeys(benchmark::State& state) {
  const std::size_t rows = 1 << 20;
  core::OpGraph graph;
  Table data = MakeKV(rows, 63, 8);
  const NodeId src = graph.AddSource("in", data.schema(), rows);
  graph.AddOperator(OperatorDesc::Sort({0, 1}), src);
  RunGraph(state, graph, {{src, std::move(data)}}, rows);
}
BENCHMARK(BM_ClusterSortTwoKeys);

void BM_FusedPipelineSelectChain(benchmark::State& state) {
  core::SelectChain chain =
      core::MakeSelectChain(1 << 18, std::vector<double>{0.5, 0.5});
  const relational::Table data = core::MakeUniformInt32Table(1 << 18);
  const core::FusionPlan plan = PlanFusion(chain.graph);
  auto lookup = [&](core::NodeId) -> const relational::Table& { return data; };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ExecuteCluster(chain.graph, plan.clusters[0], lookup, 64));
  }
}
BENCHMARK(BM_FusedPipelineSelectChain);

void BM_StagedRadixArgsort(benchmark::State& state) {
  const auto data = MakeData(1 << 20);
  const relational::RadixKey key{std::span<const std::int32_t>(data)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(relational::StagedRadixArgsort(data.size(), {&key, 1}, 64));
  }
}
BENCHMARK(BM_StagedRadixArgsort);

void BM_CompressBitPack(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::int32_t> values(1 << 20);
  for (auto& v : values) v = static_cast<std::int32_t>(rng.UniformInt(1, 50));
  for (auto _ : state) {
    benchmark::DoNotOptimize(relational::CompressedInt32::Compress(values));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()) * 4);
}
BENCHMARK(BM_CompressBitPack);

void BM_DecompressBitPack(benchmark::State& state) {
  Rng rng(6);
  std::vector<std::int32_t> values(1 << 20);
  for (auto& v : values) v = static_cast<std::int32_t>(rng.UniformInt(1, 50));
  const auto compressed = relational::CompressedInt32::Compress(values);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compressed.Decompress());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()) * 4);
}
BENCHMARK(BM_DecompressBitPack);

}  // namespace

// Accept the shared `--json <path>` flag by translating it into
// google-benchmark's own JSON reporter flags. The output follows
// google-benchmark's schema (wall-clock timings are machine-dependent and
// never regression-gated), so no kf-bench-v1 envelope is produced here.
int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  std::vector<std::string> translated;
  translated.reserve(args.size() + 1);
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--json" && i + 1 < args.size()) {
      translated.push_back("--benchmark_out=" + args[i + 1]);
      translated.push_back("--benchmark_out_format=json");
      ++i;
    } else if (args[i] == "--scale" && i + 1 < args.size()) {
      ++i;  // accepted for interface parity; wall-clock sizes are fixed
    } else {
      translated.push_back(args[i]);
    }
  }
  std::vector<char*> bench_argv;
  bench_argv.reserve(translated.size());
  for (std::string& arg : translated) bench_argv.push_back(arg.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
