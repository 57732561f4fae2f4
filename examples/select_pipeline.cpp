// The paper's core microbenchmark as a library walk-through: back-to-back
// SELECT operators run through the executor's staged kernel (Fig 3:
// partition / filter / buffer / gather), fused (Fig 6: one cluster, so one
// partition and one gather) and unfused (one cluster per SELECT),
// functionally on host threads and timed on the simulated device for every
// execution strategy.
//
// Build & run:  ./build/examples/select_pipeline
#include <iostream>
#include <map>

#include "common/thread_pool.h"
#include "core/fused_pipeline.h"
#include "core/query_executor.h"
#include "core/select_chain.h"

namespace {

using namespace kf;

// Runs every cluster of `plan` in order, each one staged kernel over 448
// chunks (one per simulated CTA), and returns the chain's final output.
relational::Table RunPlan(const core::SelectChain& chain, const core::FusionPlan& plan,
                          const relational::Table& data, ThreadPool& pool) {
  std::map<core::NodeId, relational::Table> computed;
  auto lookup = [&](core::NodeId id) -> const relational::Table& {
    return id == chain.source ? data : computed.at(id);
  };
  for (const core::FusionCluster& cluster : plan.clusters) {
    core::ClusterExecution exec =
        core::ExecuteCluster(chain.graph, cluster, lookup, 448, &pool);
    for (auto& [id, table] : exec.outputs) {
      computed.insert_or_assign(id, std::move(table));
    }
  }
  return computed.at(chain.selects.back());
}

}  // namespace

int main() {
  // --- Functional layer: the staged kernels themselves. ---------------------
  const std::size_t n = 1'000'000;
  const core::SelectChain two_selects =
      core::MakeSelectChain(n, std::vector<double>{0.5, 0.5});  // keep 50% twice
  const relational::Table data = core::MakeUniformInt32Table(n);

  ThreadPool pool;
  core::FusionOptions unfused_options;
  unfused_options.enabled = false;
  const core::FusionPlan fused_plan = core::PlanFusion(two_selects.graph);
  const core::FusionPlan unfused_plan =
      core::PlanFusion(two_selects.graph, unfused_options);
  const relational::Table fused = RunPlan(two_selects, fused_plan, data, pool);
  const relational::Table unfused = RunPlan(two_selects, unfused_plan, data, pool);
  // One int32 column each: equal vectors are equal bytes.
  const bool identical = fused.schema().ToString() == unfused.schema().ToString() &&
                         fused.column(0).AsInt32() == unfused.column(0).AsInt32();

  std::cout << "input rows:            " << n << "\n"
            << "after two 50% SELECTs: " << fused.row_count() << " ("
            << 100.0 * static_cast<double>(fused.row_count()) / static_cast<double>(n)
            << "%)\n"
            << "clusters:              fused " << fused_plan.clusters.size()
            << ", unfused " << unfused_plan.clusters.size()
            << " (one partition and one gather each)\n"
            << "rows out:              fused " << fused.row_count() << ", unfused "
            << unfused.row_count() << "\n"
            << "fused == unfused:      " << (identical ? "yes, byte-identical" : "NO")
            << "\n\n";
  if (!identical) return 1;

  // --- Timing layer: the same chain on the simulated C2070, all four
  // strategies, at a size where the differences matter (200M elements). -----
  sim::DeviceSimulator device;
  core::QueryExecutor executor(device);
  core::SelectChain chain =
      core::MakeSelectChain(200'000'000, std::vector<double>{0.5, 0.5});
  std::cout << "simulated timings for 200M elements ("
            << FormatBytes(chain.input_bytes()) << " over PCIe):\n";
  for (core::Strategy strategy :
       {core::Strategy::kSerial, core::Strategy::kFused, core::Strategy::kFission,
        core::Strategy::kFusedFission}) {
    core::ExecutorOptions options;
    options.strategy = strategy;
    const auto report =
        executor.EstimateOnly(chain.graph, chain.expected_rows, options);
    std::cout << "  " << ToString(strategy) << ": "
              << FormatTime(report.makespan) << "  ("
              << FormatGBs(report.ThroughputGBs(chain.input_bytes()))
              << ", compute " << FormatTime(report.compute_time) << ", CPU gather "
              << FormatTime(report.host_gather_time) << ")\n";
  }
  return 0;
}
