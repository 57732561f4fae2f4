// Tracing overhead: identical seeded serving runs with and without a Tracer.
//
// The workload is the acceptance scenario from docs/observability.md: four
// concurrent dashboard clients over a shared relation, a seeded fault
// injector (copy/kernel faults and stream stalls) plus silent corruption
// with full verification, served deterministically (single worker, paused
// start, round-robin submission). The run executes twice — tracer off, then
// tracer on — and the simulated latency distribution must be IDENTICAL:
// tracing observes the virtual clock, it never advances it. The gated
// summaries pin that invariant plus the structure of the traced output:
//
//   sim_p95_overhead_ratio   traced p95 sim latency / untraced (== 1.0; the
//                            binary itself also fails when > 1.03)
//   min_query_coverage       worst-case root-span coverage of each query's
//                            submit->complete interval (>= 0.95 acceptance)
//   spans_per_query          mean span count per finished query tree
//
// Wall-clock overhead is printed for context but never gated — wall time is
// machine-dependent and the simulated numbers are the contract.
#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "obs/tracer.h"
#include "server/query_scheduler.h"
#include "sim/fault_injector.h"

namespace {

using namespace kf;
using relational::DataType;
using relational::Expr;
using relational::OperatorDesc;
using relational::Schema;

constexpr int kClients = 4;
constexpr int kRounds = 6;

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

struct RunResult {
  std::vector<double> sim_latencies;
  std::vector<std::uint64_t> trace_query_ids;
  double wall_seconds = 0.0;
  std::size_t failed = 0;
};

// One deterministic serving pass over the seeded fault workload. `tracer`
// nullptr is the baseline; non-null records every query's span tree. The
// injector is constructed fresh per pass: its draw stream is stateful, so
// sharing one instance would give the two passes different fault sequences.
RunResult ServeWorkload(const relational::Table& events, std::uint64_t rows,
                        const sim::FaultConfig& fault_config,
                        obs::Tracer* tracer) {
  sim::DeviceSimulator device;
  obs::MetricsRegistry metrics;  // private: keep both passes symmetric
  const sim::FaultInjector injector(fault_config);

  server::SchedulerOptions options;
  options.worker_count = 1;
  options.start_paused = true;
  options.max_batch = kClients;
  options.max_queue_depth = kClients * kRounds;
  options.metrics = &metrics;
  options.fault_injector = &injector;
  options.integrity.verify_transfers = true;
  options.integrity.audit_fraction = 1.0;
  options.tracer = tracer;
  server::QueryScheduler scheduler(device, options);

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::future<server::QueryResult>> futures;
  for (int round = 0; round < kRounds; ++round) {
    for (int c = 0; c < kClients; ++c) {
      server::QueryRequest request;
      request.graph = ClientQuery(rows, c);
      request.sources.emplace(request.graph.Sources()[0], events);
      request.options.strategy = core::Strategy::kFused;
      request.merge_class = "dashboard";
      futures.push_back(scheduler.Submit(std::move(request)));
    }
  }
  scheduler.Start();

  RunResult result;
  for (auto& future : futures) {
    try {
      const server::QueryResult r = future.get();
      result.sim_latencies.push_back(r.sim_latency());
      result.trace_query_ids.push_back(r.trace_query_id);
    } catch (const kf::Error&) {
      ++result.failed;  // typed failure under faults: excluded from latency
    }
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kf::bench;
  Init(argc, argv, "tracing");
  PrintHeader("Tracing overhead: traced vs untraced seeded serving runs",
              "observability layer; the simulated numbers must not move when "
              "the tracer is attached");

  const std::uint64_t rows = Scaled(200'000);
  const relational::Table events = core::MakeUniformInt32Table(rows);

  sim::FaultConfig fault_config;
  fault_config.copy_fault_rate = 0.10;
  fault_config.kernel_fault_rate = 0.10;
  fault_config.stall_rate = 0.10;
  fault_config.corrupt_h2d_rate = 0.01;
  fault_config.corrupt_d2h_rate = 0.01;
  fault_config.seed = 20260808;

  const RunResult untraced = ServeWorkload(events, rows, fault_config, nullptr);
  obs::Tracer tracer;
  const RunResult traced = ServeWorkload(events, rows, fault_config, &tracer);

  const double p95_untraced = Percentile(untraced.sim_latencies, 95.0);
  const double p95_traced = Percentile(traced.sim_latencies, 95.0);
  const double p95_ratio = p95_untraced > 0.0 ? p95_traced / p95_untraced : 1.0;
  const double wall_ratio = untraced.wall_seconds > 0.0
                                ? traced.wall_seconds / untraced.wall_seconds
                                : 1.0;

  // Structure of the traced output: every finished query must have a span
  // tree whose root covers its submit->complete interval.
  double min_coverage = 1.0;
  std::size_t total_spans = 0;
  std::size_t trees = 0;
  std::size_t annotated_spans = 0;
  for (std::size_t i = 0; i < traced.trace_query_ids.size(); ++i) {
    const obs::QueryTrace trace = tracer.Snapshot(traced.trace_query_ids[i]);
    if (trace.empty()) {
      min_coverage = 0.0;
      continue;
    }
    ++trees;
    total_spans += trace.spans.size();
    for (const obs::Span& span : trace.spans) {
      if (!span.annotations.empty()) ++annotated_spans;
    }
    const obs::Span& root = trace.spans.front();
    const double latency = traced.sim_latencies[i];
    const double covered = root.sim_end - root.sim_start;
    min_coverage =
        std::min(min_coverage, latency > 0.0 ? covered / latency : 1.0);
  }
  const double spans_per_query =
      trees > 0 ? static_cast<double>(total_spans) / static_cast<double>(trees)
                : 0.0;
  const std::string session = obs::ToSessionTrace(tracer);

  TablePrinter table({"run", "queries", "p95 sim lat (s)", "wall (s)"});
  table.AddRow({"untraced", std::to_string(untraced.sim_latencies.size()),
                TablePrinter::Num(p95_untraced, 6),
                TablePrinter::Num(untraced.wall_seconds, 3)});
  table.AddRow({"traced", std::to_string(traced.sim_latencies.size()),
                TablePrinter::Num(p95_traced, 6),
                TablePrinter::Num(traced.wall_seconds, 3)});
  table.Print();

  Summary("sim_p95_overhead_ratio", p95_ratio, obs::Direction::kLowerIsBetter,
          "x");
  Summary("min_query_coverage", min_coverage, obs::Direction::kHigherIsBetter,
          "");
  Summary("spans_per_query", spans_per_query, obs::Direction::kHigherIsBetter,
          "");

  PrintSummaryLine("p95 sim-latency overhead: " + TablePrinter::Num(p95_ratio, 4) +
                   "x (must stay <= 1.03)");
  PrintSummaryLine("wall overhead (ungated): " +
                   TablePrinter::Num(wall_ratio, 3) + "x");
  PrintSummaryLine("worst root-span coverage: " +
                   TablePrinter::Num(min_coverage * 100.0, 1) +
                   "% of submit->complete (target >= 95%)");
  PrintSummaryLine("session trace: " + std::to_string(session.size()) +
                   " bytes, " + std::to_string(trees) + " query trees, " +
                   std::to_string(annotated_spans) + " annotated spans");

  if (p95_ratio > 1.03) {
    std::cerr << "FAIL: tracer changed simulated p95 latency by more than 3%\n";
    return 1;
  }
  if (min_coverage < 0.95) {
    std::cerr << "FAIL: root-span coverage below 95% of query latency\n";
    return 1;
  }
  return Finish();
}
