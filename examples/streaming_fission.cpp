// Kernel fission with the Stream Pool (paper Section IV, Table IV):
//   1. drive the Table IV API by hand to build the Fig 13 pipeline —
//      segments of H2D copy, kernel, D2H copy rotating over three streams;
//   2. let the query executor do the same automatically for a SELECT over
//      16 GB of input — far beyond the simulated device's 6 GB — and trace
//      its fission run into fission_pipeline_trace.json.
//
// Build & run:  ./build/examples/streaming_fission
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "core/query_executor.h"
#include "core/select_chain.h"
#include "obs/tracer.h"
#include "stream/stream_pool.h"

int main() {
  using namespace kf;
  sim::DeviceSimulator device;

  // --- 1. The Stream Pool, used directly. ------------------------------------
  stream::StreamPool pool(device, 3);
  const int segments = 9;
  const std::uint64_t segment_bytes = MiB(256);
  std::vector<stream::StreamHandle> handles;
  for (int s = 0; s < 3; ++s) handles.push_back(pool.GetAvailableStream());

  for (int s = 0; s < segments; ++s) {
    const stream::StreamHandle h = handles[static_cast<std::size_t>(s) % 3];
    const std::string segment = "[" + std::to_string(s) + "]";
    pool.SetStreamCommand(
        h, device.MakeCopy(segment_bytes, sim::CopyDirection::kHostToDevice,
                           sim::HostMemoryKind::kPinned, "h2d" + segment));
    sim::KernelProfile kernel;
    kernel.label = "select" + segment;
    kernel.elements = segment_bytes / 4;
    kernel.global_bytes_read = segment_bytes;
    kernel.global_bytes_written = segment_bytes / 2;
    kernel.memory_access_efficiency = 0.55;
    pool.SetStreamCommand(h, device.MakeKernel(kernel));
    pool.SetStreamCommand(
        h, device.MakeCopy(segment_bytes / 2, sim::CopyDirection::kDeviceToHost,
                           sim::HostMemoryKind::kPinned, "d2h" + segment));
  }
  pool.StartStreams();
  const sim::TimelineStats& stats = pool.WaitAll();

  // What serial execution of the same commands would cost.
  SimTime serial = 0;
  serial += segments * device.pcie().TransferTime(segment_bytes,
                                                  sim::HostMemoryKind::kPinned,
                                                  sim::CopyDirection::kHostToDevice);
  serial += segments * device.pcie().TransferTime(segment_bytes / 2,
                                                  sim::HostMemoryKind::kPinned,
                                                  sim::CopyDirection::kDeviceToHost);
  serial += stats.compute_busy;
  std::cout << "hand-built Fig 13 pipeline, " << segments << " segments x "
            << FormatBytes(segment_bytes) << ":\n"
            << "  pipelined makespan: " << FormatTime(stats.makespan) << "\n"
            << "  serial estimate:    " << FormatTime(serial) << "\n"
            << "  overlap speedup:    "
            << TablePrinter::Num(serial / stats.makespan, 2) << "x\n"
            << "  engine busy times — H2D " << FormatTime(stats.h2d_busy)
            << ", compute " << FormatTime(stats.compute_busy) << ", D2H "
            << FormatTime(stats.d2h_busy) << "\n\n";

  // --- 2. The executor's automatic fission on out-of-core data. --------------
  // The fission run is traced: one leaf span per stream command, nested in
  // its cluster and segment spans.
  obs::Tracer tracer;
  core::QueryExecutor executor(device);
  core::SelectChain chain =
      core::MakeSelectChain(4'000'000'000ull, std::vector<double>{0.5});
  std::cout << "SELECT over " << FormatBytes(chain.input_bytes())
            << " of input through a " << FormatBytes(device.spec().mem_capacity_bytes)
            << " device:\n";
  for (core::Strategy strategy :
       {core::Strategy::kSerial, core::Strategy::kFission}) {
    core::ExecutorOptions options;
    options.strategy = strategy;
    if (strategy == core::Strategy::kFission) {
      options.tracer = &tracer;
      options.trace.query_id = tracer.NextQueryId();
    }
    const auto report =
        executor.EstimateOnly(chain.graph, chain.expected_rows, options);
    if (options.tracer != nullptr) tracer.FinishQuery(options.trace, false, "");
    std::cout << "  " << ToString(strategy) << ": " << FormatTime(report.makespan)
              << " (" << FormatGBs(report.ThroughputGBs(chain.input_bytes()))
              << ", peak device use " << FormatBytes(report.peak_device_bytes)
              << ")\n";
  }

  std::cout << "\nfission turns the out-of-core SELECT into a pipeline bounded "
               "by the input transfer alone (paper Fig 14).\n\n";

  // Export the fission run for chrome://tracing / ui.perfetto.dev.
  {
    std::ofstream out("fission_pipeline_trace.json");
    out << obs::ToSessionTrace(tracer);
  }
  std::cout << "wrote fission_pipeline_trace.json (open in ui.perfetto.dev)\n";
  return 0;
}
