// Fig 12 — concurrent kernel execution via streams is NOT always a win:
//   no stream (old): one SELECT over all N elements, full launch geometry;
//   no stream (new): the same but with half the CTAs and threads;
//   stream:          two independent N/2 SELECTs with the halved geometry,
//                    run concurrently in two streams.
// Concurrency helps while the kernels are too small to saturate the device
// and hurts once they are not — the case distinction kernel fission must make.
#include "bench/bench_util.h"
#include "core/operator_cost.h"
#include "sim/timeline.h"

namespace {

using namespace kf;

// The staged SELECT needs a global synchronization between its filter and
// gather kernels (the exclusive scan of per-CTA match counts, Fig 3). On the
// paper's stack that sync is host-mediated; it serializes within a stream
// but overlaps across streams — the reason concurrent streams win while
// kernels are short.
constexpr kf::SimTime kScanSyncOverhead = 50.0 * kf::kMicrosecond;

// Simulated makespan of per-stream sequences of (filter, sync, gather).
double RunKernels(const sim::DeviceSimulator& device,
                  const std::vector<std::pair<int, sim::KernelProfile>>& kernels) {
  sim::Timeline timeline = device.NewTimeline();
  int previous_stream = -1;
  for (const auto& [stream, profile] : kernels) {
    if (stream == previous_stream) {
      // Second kernel of a staged pair: host-mediated scan first.
      sim::CommandSpec sync;
      sync.kind = sim::CommandKind::kHostCompute;
      sync.duration = kScanSyncOverhead;
      sync.label = "scan-sync";
      timeline.AddCommand(stream, sync);
    }
    timeline.AddCommand(stream, device.MakeKernel(profile));
    previous_stream = stream;
  }
  return timeline.Run().makespan;
}

std::vector<sim::KernelProfile> SelectProfiles(const core::OperatorCostModel& model,
                                               const core::OpGraph& graph,
                                               core::NodeId select, std::uint64_t n,
                                               int cta, int threads) {
  core::RealizedSizes sizes;
  sizes.input_rows = n;
  sizes.input_row_bytes = 4;
  sizes.output_rows = n / 2;
  sizes.output_row_bytes = 4;
  auto profiles = model.UnfusedProfiles(graph.node(select), sizes);
  for (auto& p : profiles) {
    p.cta_count = cta;
    p.threads_per_cta = threads;
  }
  return profiles;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kf;
  using namespace kf::bench;
  Init(argc, argv, "fig12_concurrent_streams");
  PrintHeader("Fig 12: concurrently executing two SELECTs",
              "paper: 'stream' wins only below ~8M elements; above that a "
              "single fully-provisioned kernel ('old') is best and the "
              "halved kernel ('new') is worst");

  sim::DeviceSimulator device;
  core::OperatorCostModel cost_model;
  core::SelectChain chain = core::MakeSelectChain(100, std::vector<double>{0.5});

  // The first size at which old overtakes a stream that led at the size
  // before it; 0 when the sweep holds no such crossing.
  std::uint64_t crossover = 0;
  bool stream_ever_led = false;
  for (auto [label, sweep] :
       {std::pair{"full range", PaperSweep()},
        std::pair{"small range (paper's zoom)",
                  std::vector<std::uint64_t>{4'000'000, 6'000'000, 9'000'000,
                                             14'000'000, 19'000'000, 24'000'000,
                                             34'000'000}}}) {
    std::cout << "-- " << label << " --\n";
    TablePrinter table({"Elements", "stream", "no stream (new)", "no stream (old)"});
    bool stream_led = false;
    for (std::uint64_t n : sweep) {
      const auto old_profiles =
          SelectProfiles(cost_model, chain.graph, chain.selects[0], n, 448, 256);
      const auto new_profiles =
          SelectProfiles(cost_model, chain.graph, chain.selects[0], n, 224, 128);
      const auto half_profiles =
          SelectProfiles(cost_model, chain.graph, chain.selects[0], n / 2, 224, 128);

      std::vector<std::pair<int, sim::KernelProfile>> old_run, new_run, stream_run;
      for (const auto& p : old_profiles) old_run.emplace_back(0, p);
      for (const auto& p : new_profiles) new_run.emplace_back(0, p);
      for (int s : {0, 1}) {
        for (const auto& p : half_profiles) stream_run.emplace_back(s, p);
      }
      const double bytes = static_cast<double>(n) * 4;
      const double t_old = bytes / RunKernels(device, old_run) / kGB;
      const double t_new = bytes / RunKernels(device, new_run) / kGB;
      const double t_stream = bytes / RunKernels(device, stream_run) / kGB;
      table.AddRow({Millions(n), TablePrinter::Num(t_stream, 2),
                    TablePrinter::Num(t_new, 2), TablePrinter::Num(t_old, 2)});
      Record("stream", "GB/s", static_cast<double>(n), t_stream);
      Record("no_stream_new", "GB/s", static_cast<double>(n), t_new);
      Record("no_stream_old", "GB/s", static_cast<double>(n), t_old);
      if (crossover == 0 && stream_led && t_stream < t_old) crossover = n;
      stream_led = t_stream > t_old;
      stream_ever_led = stream_ever_led || stream_led;
    }
    table.Print();
    std::cout << "\n";
  }
  PrintSummaryLine("stream > new everywhere (concurrency recovers the halved "
                   "geometry's loss)");
  if (crossover != 0) {
    PrintSummaryLine("old overtakes stream at ~" + Millions(crossover) +
                     " elements (paper: ~8M)");
  } else if (!stream_ever_led) {
    PrintSummaryLine("old leads stream at every swept size (paper: stream "
                     "leads below ~8M)");
  } else {
    PrintSummaryLine("old overtakes stream beyond the sweep (paper: ~8M)");
  }
  Summary("crossover_elements", static_cast<double>(crossover),
          obs::Direction::kTwoSided, "elements");
  return Finish();
}
