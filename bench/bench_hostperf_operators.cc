// Wall-clock microbenchmarks (google-benchmark) of the host-side functional
// substrate on THIS machine: the staged SELECT kernels, fused vs unfused
// chains, the CPU comparator, and the fused pipeline. These are sanity
// checks that the functional layer is itself reasonable code — the paper's
// figures come from the simulated device, not from these timings.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "core/fused_pipeline.h"
#include "core/select_chain.h"
#include "cpu/cpu_select.h"
#include "relational/compression.h"
#include "relational/staged_aggregate.h"
#include "relational/staged_join.h"
#include "relational/staged_kernel.h"
#include "relational/staged_sort.h"

namespace {

using namespace kf;

std::vector<std::int32_t> MakeData(std::size_t n) {
  Rng rng(7);
  std::vector<std::int32_t> data(n);
  for (auto& v : data) v = static_cast<std::int32_t>(rng.UniformInt(0, 1 << 30));
  return data;
}

// Canonical path: typed predicate + pooled workspace (zero warm-path heap
// allocations, branch-free vectorizable filter).
void BM_StagedSelect(benchmark::State& state) {
  const auto data = MakeData(static_cast<std::size_t>(state.range(0)));
  const auto pred = relational::TypedPredicate::Lt(1 << 29);
  BufferArena arena;
  auto ws = arena.Acquire<relational::StagedBuffers>();
  for (auto _ : state) {
    benchmark::DoNotOptimize(relational::StagedSelectInto(data, pred, 64, *ws));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 4);
}
BENCHMARK(BM_StagedSelect)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);

// Legacy std::function entry point: per-element indirect call, output copied
// out of the pooled workspace. The gap to BM_StagedSelect is the cost of the
// type-erased predicate.
void BM_StagedSelectFallback(benchmark::State& state) {
  const auto data = MakeData(static_cast<std::size_t>(state.range(0)));
  const auto pred = [](std::int32_t v) { return v < (1 << 29); };
  for (auto _ : state) {
    benchmark::DoNotOptimize(relational::StagedSelect(data, pred, 64));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 4);
}
BENCHMARK(BM_StagedSelectFallback)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);

void BM_StagedSelectChainUnfused(benchmark::State& state) {
  const auto data = MakeData(1 << 20);
  const std::vector<relational::TypedPredicate> predicates = {
      relational::TypedPredicate::Lt(1 << 29),
      relational::TypedPredicate::Lt(1 << 28),
  };
  BufferArena arena;
  auto ws = arena.Acquire<relational::StagedBuffers>();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        relational::StagedSelectChainUnfusedInto(data, predicates, 64, *ws));
  }
}
BENCHMARK(BM_StagedSelectChainUnfused);

void BM_StagedSelectChainFused(benchmark::State& state) {
  const auto data = MakeData(1 << 20);
  const std::vector<relational::TypedPredicate> predicates = {
      relational::TypedPredicate::Lt(1 << 29),
      relational::TypedPredicate::Lt(1 << 28),
  };
  BufferArena arena;
  auto ws = arena.Acquire<relational::StagedBuffers>();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        relational::StagedSelectChainFusedInto(data, predicates, 64, *ws));
  }
}
BENCHMARK(BM_StagedSelectChainFused);

void BM_StagedSelectChainFusedFallback(benchmark::State& state) {
  const auto data = MakeData(1 << 20);
  const std::vector<relational::Int32Predicate> predicates = {
      [](std::int32_t v) { return v < (1 << 29); },
      [](std::int32_t v) { return v < (1 << 28); },
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        relational::StagedSelectChainFused(data, predicates, 64));
  }
}
BENCHMARK(BM_StagedSelectChainFusedFallback);

void BM_CpuSelect(benchmark::State& state) {
  const auto data = MakeData(1 << 20);
  ThreadPool pool(4);
  const auto pred = [](std::int32_t v) { return v < (1 << 29); };
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpu::CpuSelect(data, pred, &pool));
  }
}
BENCHMARK(BM_CpuSelect);

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

void BM_StagedRadixSort(benchmark::State& state) {
  const auto data = MakeData(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(relational::StagedRadixSort(data, 64));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 4);
}
BENCHMARK(BM_StagedRadixSort)->Arg(1 << 16)->Arg(1 << 20);

void BM_StagedRadixArgsort(benchmark::State& state) {
  const auto data = MakeData(1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(relational::StagedRadixArgsort(data, 64));
  }
}
BENCHMARK(BM_StagedRadixArgsort);

void BM_StagedHashJoin(benchmark::State& state) {
  Rng rng(3);
  std::vector<relational::JoinPair> left(1 << 18), right(1 << 14);
  for (auto& p : left) {
    p.key = rng.UniformInt(0, 1 << 14);
    p.value = rng.UniformInt(0, 100);
  }
  for (auto& p : right) {
    p.key = rng.UniformInt(0, 1 << 14);
    p.value = rng.UniformInt(0, 100);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(relational::StagedHashJoin(left, right, 64));
  }
}
BENCHMARK(BM_StagedHashJoin);

void BM_StagedGroupedAggregate(benchmark::State& state) {
  Rng rng(4);
  std::vector<relational::AggregateInput> input(1 << 20);
  for (auto& in : input) {
    in.group = rng.UniformInt(0, 63);
    in.value = rng.UniformDouble(0.0, 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(relational::StagedGroupedAggregate(input, 64));
  }
}
BENCHMARK(BM_StagedGroupedAggregate);

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
