// Integrity: the cost of catching silent corruption, and the detection it
// buys. Three verification arms serve the same query mix while device
// commands corrupt bytes with probability r:
//
//   off        no verification (the baseline — corruption sails through)
//   checksum   checksummed transfers (uploads digested, downloads verified)
//   audit      checksums + 100% sampled host audit of cluster outputs
//
// All gated numbers come from the virtual device clock (single worker,
// paused start, solo batches, fixed corruption seed), so the committed
// baseline reproduces exactly at the same --scale.
//
//   p95 latency per arm vs rate   what verification costs as corruption rises
//   undetected per arm vs rate    what NOT verifying lets through
//   checksum_overhead_p95         checksum-arm p95 / off-arm p95 at r=0
//                                 (the always-on tax; target <= 1.05)
//   detection_rate_at_5pct        detected/corrupted in the audit arm at 5%
//   completion_rate_at_5pct       audit-arm completed fraction at 5%
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

struct Arm {
  const char* name;
  core::IntegrityOptions integrity;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace kf::bench;
  Init(argc, argv, "integrity");
  PrintHeader("Integrity: checksummed serving under silent corruption",
              "data-integrity extension of the stream-pool runtime; threat "
              "model in docs/integrity.md");

  const std::uint64_t rows = Scaled(500'000);
  const relational::Table events = core::MakeUniformInt32Table(rows);
  constexpr int kQueries = 40;

  sim::DeviceSimulator device;

  core::IntegrityOptions checksum_only;
  checksum_only.verify_transfers = true;
  core::IntegrityOptions full_audit;
  full_audit.verify_transfers = true;
  full_audit.audit_fraction = 1.0;
  const Arm arms[] = {{"off", {}},
                      {"checksum", checksum_only},
                      {"audit", full_audit}};

  TablePrinter table({"arm", "corrupt rate", "completed", "corrupted",
                      "detected", "undetected", "p95 lat (s)"});

  double p95_off_clean = 0.0, p95_checksum_clean = 0.0;
  double detection_at_5 = 0.0, completion_at_5 = 0.0;
  for (const Arm& arm : arms) {
    for (const double rate : {0.0, 0.01, 0.05}) {
      sim::FaultConfig config;
      config.seed = 2026;
      config.corrupt_h2d_rate = rate;
      config.corrupt_d2h_rate = rate;
      config.corrupt_kernel_rate = rate;
      sim::FaultInjector injector(config);

      server::SchedulerOptions options;
      options.worker_count = 1;  // deterministic batch order
      options.start_paused = true;
      options.max_batch = 1;  // solo batches: per-query outcomes stay pinned
      options.max_queue_depth = kQueries;
      options.fault_injector = &injector;
      options.integrity = arm.integrity;
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

      int completed = 0, failed = 0;
      std::uint64_t corrupted = 0, detected = 0, undetected = 0;
      std::vector<double> latencies;
      for (auto& future : futures) {
        try {
          const server::QueryResult result = future.get();
          ++completed;
          corrupted += result.report.corrupted_commands;
          detected += result.report.corruption_detected;
          undetected += result.report.corruption_undetected;
          latencies.push_back(result.sim_latency());
        } catch (const kf::Error&) {
          ++failed;
        }
      }

      const double p95 = Percentile(latencies, 95.0);
      const double completed_fraction =
          static_cast<double>(completed) / kQueries;
      const std::string arm_rate =
          std::string(arm.name) + "@" + TablePrinter::Num(rate * 100.0, 0) +
          "%";
      if (rate == 0.0 && std::string(arm.name) == "off") p95_off_clean = p95;
      if (rate == 0.0 && std::string(arm.name) == "checksum") {
        p95_checksum_clean = p95;
      }
      if (rate == 0.05 && std::string(arm.name) == "audit") {
        detection_at_5 = corrupted > 0 ? static_cast<double>(detected) /
                                             static_cast<double>(corrupted)
                                       : 1.0;
        completion_at_5 = completed_fraction;
      }

      Record("p95_latency_" + std::string(arm.name), "s", rate, p95);
      Record("undetected_" + std::string(arm.name), "commands", rate,
             static_cast<double>(undetected));
      table.AddRow({arm.name, TablePrinter::Num(rate * 100.0, 0) + "%",
                    std::to_string(completed) + "/" + std::to_string(kQueries),
                    std::to_string(corrupted), std::to_string(detected),
                    std::to_string(undetected), TablePrinter::Num(p95, 4)});
    }
  }
  table.Print();

  const double overhead =
      p95_off_clean > 0 ? p95_checksum_clean / p95_off_clean : 0.0;
  Summary("checksum_overhead_p95", overhead, obs::Direction::kLowerIsBetter,
          "x");
  Summary("detection_rate_at_5pct", detection_at_5,
          obs::Direction::kHigherIsBetter, "");
  Summary("completion_rate_at_5pct", completion_at_5,
          obs::Direction::kHigherIsBetter, "");
  PrintSummaryLine("checksum-on p95 at 0% corruption: " +
                   TablePrinter::Num(overhead, 3) +
                   "x checksum-off (target <= 1.05x)");
  PrintSummaryLine("detection at 5% corruption: " +
                   TablePrinter::Num(detection_at_5 * 100.0, 1) +
                   "% of corrupted commands caught");
  PrintSummaryLine("completion at 5% corruption: " +
                   TablePrinter::Num(completion_at_5 * 100.0, 1) +
                   "% of queries served");
  return Finish();
}
