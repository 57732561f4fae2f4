// Multi-device scaling: fission segments sharded across a DeviceGroup.
//
// The paper evaluates fusion/fission on one Tesla C2070; this harness asks
// how the same fission-friendly SELECT chain scales when its segments are
// sharded across 1/2/4 modeled devices behind a shared PCIe root complex
// (DESIGN.md multi-device layer, docs/multi_device.md).
//
//   throughput_vs_devices    strong scaling: fixed input, 1/2/4 devices
//   speedup_vs_devices       same runs as a ratio to the 1-device makespan
//   weak_scaling_efficiency  fixed input *per device*, 1/2/4 devices
//   p95_latency_vs_devices   sharded serving through the QueryScheduler
//   qps_vs_devices           queries/sec of the same serving runs
//
// Everything gated comes from the deterministic simulation (virtual device
// clocks), so the committed baseline reproduces exactly at the same --scale.
// Headline gates: speedup_2_devices >= 1.7x, speedup_4_devices >= 3x.
#include <algorithm>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/multi_device.h"
#include "core/select_chain.h"
#include "server/query_scheduler.h"
#include "sim/device_group.h"

namespace {

using namespace kf;

constexpr int kDeviceCounts[] = {1, 2, 4};

// Timing-only makespan of the paper's 4-step 50% SELECT chain on `devices`
// devices (bytes-proportional split is identical to static on a homogeneous
// group; static keeps the baseline independent of the weight model).
double ChainMakespan(const core::SelectChain& chain, int devices) {
  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(devices);
  core::MultiDeviceExecutor executor(group);
  core::MultiDeviceOptions options;
  options.base.strategy = core::Strategy::kFusedFission;
  return executor.EstimateOnly(chain.graph, chain.expected_rows, options)
      .combined.makespan;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kf::bench;
  Init(argc, argv, "multi_device");
  PrintHeader("Multi-device scaling: sharded fission across a device group",
              "multi-device extension of paper Section IV (kernel fission)");

  const std::vector<double> selectivities{0.5, 0.5, 0.5, 0.5};

  // --- Strong scaling: fixed input, more devices. -------------------------
  const core::SelectChain chain =
      core::MakeSelectChain(Scaled(400'000'000), selectivities);
  TablePrinter strong({"devices", "makespan (s)", "GB/s", "speedup"});
  const double solo = ChainMakespan(chain, 1);
  double speedup2 = 0.0, speedup4 = 0.0;
  for (const int devices : kDeviceCounts) {
    const double makespan = devices == 1 ? solo : ChainMakespan(chain, devices);
    const double gbs = ThroughputGBs(chain.input_bytes(), makespan);
    const double speedup = solo / makespan;
    if (devices == 2) speedup2 = speedup;
    if (devices == 4) speedup4 = speedup;
    Record("throughput_vs_devices", "GB/s", devices, gbs);
    Record("speedup_vs_devices", "x", devices, speedup);
    strong.AddRow({std::to_string(devices), TablePrinter::Num(makespan, 4),
                   TablePrinter::Num(gbs, 2),
                   TablePrinter::Num(speedup, 2) + "x"});
  }
  strong.Print();

  // --- Weak scaling: fixed input per device. ------------------------------
  const std::uint64_t per_device = Scaled(100'000'000);
  const double weak_solo =
      ChainMakespan(core::MakeSelectChain(per_device, selectivities), 1);
  TablePrinter weak({"devices", "elements", "makespan (s)", "efficiency"});
  double weak_efficiency4 = 0.0;
  for (const int devices : kDeviceCounts) {
    const core::SelectChain weak_chain = core::MakeSelectChain(
        per_device * static_cast<std::uint64_t>(devices), selectivities);
    const double makespan = ChainMakespan(weak_chain, devices);
    const double efficiency = weak_solo / makespan;
    if (devices == 4) weak_efficiency4 = efficiency;
    Record("weak_scaling_efficiency", "", devices, efficiency);
    weak.AddRow({std::to_string(devices), Millions(weak_chain.elements),
                 TablePrinter::Num(makespan, 4),
                 TablePrinter::Num(efficiency, 3)});
  }
  weak.Print();

  // --- Sharded serving: p95 latency through the scheduler. ----------------
  // Functional queries (real rows through the staged kernels) served one
  // batch at a time with sharding opted in; deterministic via the single
  // paused worker and the per-device virtual clocks.
  const std::uint64_t serve_rows = Scaled(200'000);
  const relational::Table events = core::MakeUniformInt32Table(serve_rows);
  constexpr int kQueries = 12;
  TablePrinter serving({"devices", "queries", "sim qps", "p95 lat (s)"});
  for (const int devices : kDeviceCounts) {
    sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(devices);
    server::SchedulerOptions options;
    options.worker_count = 1;
    options.start_paused = true;
    options.max_batch = 1;
    options.max_queue_depth = kQueries;
    server::QueryScheduler scheduler(group, options);

    const core::SelectChain serve_chain =
        core::MakeSelectChain(serve_rows, selectivities);
    server::QueryRequest request;
    request.graph = serve_chain.graph;
    request.sources.emplace(serve_chain.source, events);
    request.options.strategy = core::Strategy::kFused;
    request.allow_sharding = true;

    std::vector<std::future<server::QueryResult>> futures;
    for (int i = 0; i < kQueries; ++i) futures.push_back(scheduler.Submit(request));
    scheduler.Start();

    std::vector<double> latencies;
    latencies.reserve(futures.size());
    for (auto& future : futures) latencies.push_back(future.get().sim_latency());
    const double p95 = Percentile(latencies, 95.0);
    const double qps = static_cast<double>(kQueries) / scheduler.sim_clock();
    Record("p95_latency_vs_devices", "s", devices, p95);
    Record("qps_vs_devices", "queries/s", devices, qps);
    serving.AddRow({std::to_string(devices), std::to_string(kQueries),
                    TablePrinter::Num(qps, 1), TablePrinter::Num(p95, 5)});
  }
  serving.Print();

  Summary("speedup_2_devices", speedup2, obs::Direction::kHigherIsBetter, "x");
  Summary("speedup_4_devices", speedup4, obs::Direction::kHigherIsBetter, "x");
  Summary("weak_efficiency_4_devices", weak_efficiency4,
          obs::Direction::kHigherIsBetter, "");
  PrintSummaryLine("2 devices: " + TablePrinter::Num(speedup2, 2) +
                   "x one device (target >= 1.7x)");
  PrintSummaryLine("4 devices: " + TablePrinter::Num(speedup4, 2) +
                   "x one device (target >= 3x)");
  return Finish();
}
