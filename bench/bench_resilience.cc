// Resilience under injected device faults: throughput and tail latency as
// the transient-fault rate rises, and how queries finish (clean, retried,
// degraded to the host engine, or failed typed).
//
// Models an unreliable device: every copy/kernel command fails with
// probability r, streams stall with probability r (8x slowdown), and device
// reservations spuriously fail at r/4. The scheduler's recovery ladder —
// segment retries with backoff, per-cluster host degradation, whole-query
// retries, circuit breaker — keeps answers correct (byte-identical) while
// simulated throughput degrades smoothly instead of collapsing.
//
// All gated numbers come from the virtual device clock (single worker,
// paused start, solo batches, fixed fault seed), so the committed baseline
// reproduces exactly at the same --scale.
//
//   qps vs fault rate            simulated queries/sec at r in {0,5,10,20}%
//   p95 latency vs fault rate    simulated submit->complete latency
//   completed/degraded fraction  how queries finished at each rate
//   completed_fraction_at_10pct  >= 0.9: the paper-level resilience target
#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "server/query_scheduler.h"
#include "sim/fault_injector.h"

namespace {

using namespace kf;
using relational::DataType;
using relational::Expr;
using relational::OperatorDesc;
using relational::Schema;

// One query: a two-step select chain over the shared relation, thresholds
// varied per query so plans differ structurally.
core::OpGraph Query(std::uint64_t rows, int index) {
  core::OpGraph g;
  const core::NodeId src =
      g.AddSource("events", Schema{{"v", DataType::kInt32}}, rows);
  const std::int64_t hi = (std::int64_t{1} << 30) + index * 2048;
  const std::int64_t lo = (std::int64_t{1} << 29) - index * 1024;
  const core::NodeId first = g.AddOperator(
      OperatorDesc::Select(Expr::Lt(Expr::FieldRef(0), Expr::Lit(hi)),
                           "recent" + std::to_string(index)),
      src);
  g.AddOperator(OperatorDesc::Select(
                    Expr::Ge(Expr::FieldRef(0), Expr::Lit(lo)),
                    "hot" + std::to_string(index)),
                first);
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kf::bench;
  Init(argc, argv, "resilience");
  PrintHeader("Resilience: serving under injected device faults",
              "robustness extension of the stream-pool runtime (paper Table "
              "IV); fault model in docs/resilience.md");

  const std::uint64_t rows = Scaled(500'000);
  const relational::Table events = core::MakeUniformInt32Table(rows);
  constexpr int kQueries = 40;

  sim::DeviceSimulator device;

  TablePrinter table({"fault rate", "completed", "degraded", "failed",
                      "sim qps", "p50 lat (s)", "p95 lat (s)"});

  double completed_at_10 = 0.0;
  double p95_clean = 0.0, p95_at_10 = 0.0;
  for (const double rate : {0.0, 0.05, 0.10, 0.20}) {
    sim::FaultConfig config;
    config.seed = 2026;
    config.copy_fault_rate = rate;
    config.kernel_fault_rate = rate;
    config.stall_rate = rate;
    config.oom_rate = rate / 4.0;
    sim::FaultInjector injector(config);

    server::SchedulerOptions options;
    options.worker_count = 1;  // deterministic batch order
    options.start_paused = true;
    options.max_batch = 1;  // solo batches: per-query outcomes stay pinned
    options.max_queue_depth = kQueries;
    options.fault_injector = &injector;
    options.query_retry_limit = 3;
    server::QueryScheduler scheduler(device, options);

    std::vector<std::future<server::QueryResult>> futures;
    for (int i = 0; i < kQueries; ++i) {
      server::QueryRequest request;
      request.graph = Query(rows, i);
      request.sources.emplace(request.graph.Sources()[0], events);
      request.options.strategy = core::Strategy::kFusedFission;
      request.options.fission_segments = 8;
      futures.push_back(scheduler.Submit(std::move(request)));
    }
    scheduler.Start();

    int completed = 0, degraded = 0, failed = 0;
    std::vector<double> latencies;
    for (auto& future : futures) {
      try {
        const server::QueryResult result = future.get();
        ++completed;
        if (result.degraded || result.ran_on_host) ++degraded;
        latencies.push_back(result.sim_latency());
      } catch (const kf::Error&) {
        ++failed;
      }
    }

    const double completed_fraction =
        static_cast<double>(completed) / kQueries;
    const double degraded_fraction = static_cast<double>(degraded) / kQueries;
    const double qps = scheduler.sim_clock() > 0
                           ? static_cast<double>(completed) /
                                 scheduler.sim_clock()
                           : 0.0;
    const double p50 = Percentile(latencies, 50.0);
    const double p95 = Percentile(latencies, 95.0);
    if (rate == 0.0) p95_clean = p95;
    if (rate == 0.10) {
      completed_at_10 = completed_fraction;
      p95_at_10 = p95;
    }

    Record("qps_vs_fault_rate", "queries/s", rate, qps);
    Record("p95_latency_vs_fault_rate", "s", rate, p95);
    Record("completed_fraction_vs_fault_rate", "", rate, completed_fraction);
    Record("degraded_fraction_vs_fault_rate", "", rate, degraded_fraction);
    table.AddRow({TablePrinter::Num(rate * 100.0, 0) + "%",
                  std::to_string(completed) + "/" + std::to_string(kQueries),
                  std::to_string(degraded), std::to_string(failed),
                  TablePrinter::Num(qps, 1), TablePrinter::Num(p50, 4),
                  TablePrinter::Num(p95, 4)});
  }
  table.Print();

  const double p95_inflation = p95_clean > 0 ? p95_at_10 / p95_clean : 0.0;
  Summary("completed_fraction_at_10pct", completed_at_10,
          obs::Direction::kHigherIsBetter, "");
  Summary("p95_inflation_at_10pct", p95_inflation,
          obs::Direction::kLowerIsBetter, "x");
  PrintSummaryLine("completed at 10% fault rate: " +
                   TablePrinter::Num(completed_at_10 * 100.0, 1) +
                   "% (target >= 90%)");
  PrintSummaryLine("p95 latency inflation at 10% faults: " +
                   TablePrinter::Num(p95_inflation, 2) + "x the clean run");
  return Finish();
}
