// Server throughput: concurrent query serving with cross-query fusion.
//
// Models a dashboard-style serving workload: N concurrent clients each keep
// one select-chain query over a shared relation in flight, round after
// round. The QueryScheduler batches each round's compatible queries through
// MergeGraphs, so the shared scan crosses PCIe once per round instead of
// once per query — queries/sec scales with client count while serialized
// execution stays flat.
//
// All gated numbers come from the scheduler's virtual device clock
// (deterministic: single worker, paused start, round-robin submission), so
// the committed baseline reproduces exactly at the same --scale. Wall-clock
// numbers are printed for context but never recorded.
//
//   queries/sec vs clients     simulated qps at 1/2/4/8 concurrent clients
//   p50/p95 latency vs clients simulated submit->complete latency
//   speedup_vs_serial_8_clients  scheduler qps / one-at-a-time qps (>= 1.5)
//   plan_cache_hit_rate          repeated-template workload (> 0.9)
#include <algorithm>
#include <chrono>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "server/query_scheduler.h"

namespace {

using namespace kf;
using relational::DataType;
using relational::Expr;
using relational::OperatorDesc;
using relational::Schema;

// One client's query template: a two-step select chain over the shared
// relation. Thresholds differ per client, so merged batches exercise the
// result splitter with structurally distinct (but source-sharing) graphs.
core::OpGraph ClientQuery(std::uint64_t rows, int client) {
  core::OpGraph g;
  const core::NodeId src =
      g.AddSource("events", Schema{{"v", DataType::kInt32}}, rows);
  const std::int64_t hi = (std::int64_t{1} << 30) + client * 1024;
  const std::int64_t lo = (std::int64_t{1} << 29) - client * 4096;
  const core::NodeId first = g.AddOperator(
      OperatorDesc::Select(Expr::Lt(Expr::FieldRef(0), Expr::Lit(hi)),
                           "recent" + std::to_string(client)),
      src);
  g.AddOperator(
      OperatorDesc::Select(Expr::Ge(Expr::FieldRef(0), Expr::Lit(lo)),
                           "hot" + std::to_string(client)),
      first);
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kf::bench;
  Init(argc, argv, "server_throughput");
  PrintHeader("Server throughput: concurrent clients, cross-query fusion",
              "serving-layer extension of paper Section III-A (cross-query "
              "kernel fusion)");

  const std::uint64_t rows = Scaled(500'000);
  const relational::Table events = core::MakeUniformInt32Table(rows);
  constexpr int kRounds = 5;

  sim::DeviceSimulator device;
  core::QueryExecutor executor(device);

  TablePrinter table({"clients", "queries", "sim qps", "serial qps", "speedup",
                      "p50 lat (s)", "p95 lat (s)", "wall (s)"});

  double speedup_at_8 = 0.0;
  for (const int clients : {1, 2, 4, 8}) {
    // Per-client solo makespans -> the one-at-a-time serialized baseline.
    double serialized_seconds = 0.0;
    std::vector<server::QueryRequest> templates;
    for (int c = 0; c < clients; ++c) {
      server::QueryRequest request;
      request.graph = ClientQuery(rows, c);
      request.sources.emplace(request.graph.Sources()[0], events);
      request.options.strategy = core::Strategy::kFused;
      request.merge_class = "dashboard";
      const core::ExecutionReport solo = executor.Execute(
          request.graph, request.sources, request.options);
      serialized_seconds += solo.makespan * kRounds;
      templates.push_back(std::move(request));
    }

    // Deterministic serving run: single worker, paused start, round-robin
    // submission — each round's queries form one merged batch.
    server::SchedulerOptions options;
    options.worker_count = 1;
    options.start_paused = true;
    options.max_batch = static_cast<std::size_t>(clients);
    options.max_queue_depth = static_cast<std::size_t>(clients) * kRounds;
    server::QueryScheduler scheduler(device, options);

    const auto wall_start = std::chrono::steady_clock::now();
    std::vector<std::future<server::QueryResult>> futures;
    for (int round = 0; round < kRounds; ++round) {
      for (int c = 0; c < clients; ++c) {
        futures.push_back(scheduler.Submit(templates[c]));
      }
    }
    scheduler.Start();

    std::vector<double> latencies;
    latencies.reserve(futures.size());
    for (auto& future : futures) {
      latencies.push_back(future.get().sim_latency());
    }
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    const double total_queries = static_cast<double>(futures.size());
    const double sim_qps = total_queries / scheduler.sim_clock();
    const double serial_qps = total_queries / serialized_seconds;
    const double speedup = sim_qps / serial_qps;
    if (clients == 8) speedup_at_8 = speedup;
    const double p50 = Percentile(latencies, 50.0);
    const double p95 = Percentile(latencies, 95.0);

    Record("qps_vs_clients", "queries/s", clients, sim_qps);
    Record("p50_latency_vs_clients", "s", clients, p50);
    Record("p95_latency_vs_clients", "s", clients, p95);
    table.AddRow({std::to_string(clients), std::to_string(futures.size()),
                  TablePrinter::Num(sim_qps, 1), TablePrinter::Num(serial_qps, 1),
                  TablePrinter::Num(speedup, 2) + "x",
                  TablePrinter::Num(p50, 4), TablePrinter::Num(p95, 4),
                  TablePrinter::Num(wall_seconds, 2)});
  }
  table.Print();

  // Repeated-template workload: one template, many arrivals, no batching —
  // every execution after the first reuses the cached fusion plan.
  server::SchedulerOptions cache_options;
  cache_options.worker_count = 1;
  cache_options.start_paused = true;
  cache_options.max_batch = 1;
  constexpr int kRepeats = 50;
  cache_options.max_queue_depth = kRepeats;
  server::QueryScheduler cache_scheduler(device, cache_options);
  server::QueryRequest repeated;
  repeated.graph = ClientQuery(rows, 0);
  repeated.sources.emplace(repeated.graph.Sources()[0], events);
  repeated.options.strategy = core::Strategy::kFused;
  std::vector<std::future<server::QueryResult>> repeats;
  for (int i = 0; i < kRepeats; ++i) {
    repeats.push_back(cache_scheduler.Submit(repeated));
  }
  cache_scheduler.Start();
  for (auto& future : repeats) future.get();
  const double hit_rate = cache_scheduler.plan_cache().HitRate();

  Summary("speedup_vs_serial_8_clients", speedup_at_8,
          obs::Direction::kHigherIsBetter, "x");
  Summary("plan_cache_hit_rate", hit_rate, obs::Direction::kHigherIsBetter, "");
  PrintSummaryLine("8 concurrent clients: " + TablePrinter::Num(speedup_at_8, 2) +
                   "x the serialized queries/sec (target >= 1.5x)");
  PrintSummaryLine("plan-cache hit rate on repeated template: " +
                   TablePrinter::Num(hit_rate * 100.0, 1) + "% (target > 90%)");
  return Finish();
}
