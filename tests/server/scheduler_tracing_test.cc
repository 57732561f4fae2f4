// Scheduler-level tracing: every submitted query gets a full span tree
// (root / queue wait / execution attempts / executor subtree), seeded runs
// export byte-identical deterministic traces, the faulty-serving acceptance
// scenario keeps >= 95% makespan coverage with typed annotations, a forced
// failure dumps its flight-recorder tree, and the whole machinery is
// TSan-clean under racing workers. Runs under TSan via the server_test
// target.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/select_chain.h"
#include "obs/tracer.h"
#include "server/query_scheduler.h"
#include "sim/fault_injector.h"

namespace kf::server {
namespace {

using core::Strategy;
using obs::QueryTrace;
using obs::Span;
using obs::SpanAnnotation;
using obs::SpanAnnotationKind;
using relational::Table;

QueryRequest ChainRequest(const core::SelectChain& chain, const Table& input,
                          obs::MetricsRegistry* metrics,
                          const std::string& merge_class = "") {
  QueryRequest request;
  request.graph = chain.graph;
  request.sources.emplace(chain.source, input);
  request.options.strategy = Strategy::kFused;
  request.options.chunk_count = 8;
  request.options.metrics = metrics;
  request.merge_class = merge_class;
  return request;
}

bool HasAnnotation(const QueryTrace& trace, SpanAnnotationKind kind) {
  for (const Span& span : trace.spans) {
    for (const SpanAnnotation& note : span.annotations) {
      if (note.kind == kind) return true;
    }
  }
  return false;
}

TEST(SchedulerTracing, EveryQueryGetsAFullTree) {
  const core::SelectChain chain =
      core::MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
  const Table input = core::MakeUniformInt32Table(20000);

  sim::DeviceSimulator device;
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  SchedulerOptions options;
  options.worker_count = 1;
  options.metrics = &registry;
  options.tracer = &tracer;
  QueryScheduler scheduler(device, options);

  const QueryResult result =
      scheduler.Submit(ChainRequest(chain, input, &registry)).get();
  ASSERT_NE(result.trace_query_id, 0u);

  const QueryTrace trace = tracer.Snapshot(result.trace_query_id);
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(trace.finished);
  EXPECT_FALSE(trace.failed);

  // Root covers the full submit->complete window on the virtual clock.
  const Span& root = trace.spans.front();
  EXPECT_EQ(root.name, "query");
  EXPECT_DOUBLE_EQ(root.sim_start, result.sim_submit);
  EXPECT_DOUBLE_EQ(root.sim_end, result.sim_complete);

  bool saw_queue_wait = false, saw_attempt = false, saw_executor = false,
       saw_command = false;
  for (const Span& span : trace.spans) {
    if (span.name == "queue wait") saw_queue_wait = true;
    if (span.name == "execute attempt") saw_attempt = true;
    if (span.name.rfind("execute/", 0) == 0) saw_executor = true;
    if (!span.category.empty()) saw_command = true;
  }
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_attempt);
  EXPECT_TRUE(saw_executor);
  EXPECT_TRUE(saw_command);
  EXPECT_TRUE(HasAnnotation(trace, SpanAnnotationKind::kCacheMiss) ||
              HasAnnotation(trace, SpanAnnotationKind::kCacheHit));
}

TEST(SchedulerTracing, SeededRunsExportByteIdenticalTraces) {
  const core::SelectChain chain =
      core::MakeSelectChain(10000, std::vector<double>{0.5});
  const Table input = core::MakeUniformInt32Table(10000);

  auto run_session = [&](obs::Tracer& tracer) {
    sim::DeviceSimulator device;
    obs::MetricsRegistry registry;
    sim::FaultConfig config;
    config.seed = 13;
    config.kernel_fault_rate = 0.2;
    const sim::FaultInjector injector(config);

    SchedulerOptions options;
    options.worker_count = 1;       // serialized batches: deterministic
    options.start_paused = true;    // enqueue everything, then release
    options.metrics = &registry;
    options.tracer = &tracer;
    options.fault_injector = &injector;
    QueryScheduler scheduler(device, options);

    std::vector<std::future<QueryResult>> futures;
    for (int i = 0; i < 6; ++i) {
      futures.push_back(scheduler.Submit(ChainRequest(chain, input, &registry)));
    }
    scheduler.Start();
    for (auto& future : futures) (void)future.get();
    scheduler.Shutdown();
  };

  obs::Tracer a;
  obs::Tracer b;
  run_session(a);
  run_session(b);
  // Wall time differs between the sessions; the deterministic export
  // (sim times, span structure, annotations) is byte-identical.
  const std::string da = ToSessionTraceJson(a, /*include_wall=*/false).Dump(2);
  const std::string db = ToSessionTraceJson(b, /*include_wall=*/false).Dump(2);
  EXPECT_EQ(da, db);
  EXPECT_EQ(da.find("wall_ms"), std::string::npos);
}

TEST(SchedulerTracing, FaultyServingKeepsCoverageAndAnnotations) {
  // The acceptance scenario: concurrent clients against a faulty, silently
  // corrupting device group with integrity verification on.
  const core::SelectChain chain =
      core::MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
  const Table input = core::MakeUniformInt32Table(20000);

  sim::DeviceSimulator device;
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  sim::FaultConfig config;
  config.seed = 20260808;
  config.copy_fault_rate = 0.10;
  config.kernel_fault_rate = 0.10;
  config.stall_rate = 0.10;
  config.corrupt_h2d_rate = 0.01;
  config.corrupt_d2h_rate = 0.01;
  const sim::FaultInjector injector(config);

  SchedulerOptions options;
  options.worker_count = 1;
  options.start_paused = true;
  options.max_batch = 4;
  options.metrics = &registry;
  options.tracer = &tracer;
  options.fault_injector = &injector;
  options.query_retry_limit = 8;
  options.integrity.verify_transfers = true;
  options.integrity.audit_fraction = 1.0;
  QueryScheduler scheduler(device, options);

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 6;
  std::vector<std::future<QueryResult>> futures;
  for (int c = 0; c < kClients; ++c) {
    for (int q = 0; q < kQueriesPerClient; ++q) {
      futures.push_back(scheduler.Submit(
          ChainRequest(chain, input, &registry, "dashboard")));
    }
  }
  scheduler.Start();

  std::size_t total_faults = 0;
  for (auto& future : futures) {
    const QueryResult result = future.get();
    total_faults += result.report.fault_count;
    ASSERT_NE(result.trace_query_id, 0u);

    // >= 95% coverage: the root span must contain the query's whole
    // sim_submit -> sim_complete window (it does, exactly).
    const QueryTrace trace = tracer.Snapshot(result.trace_query_id);
    ASSERT_FALSE(trace.empty());
    const Span& root = trace.spans.front();
    const double latency = result.sim_latency();
    ASSERT_GT(latency, 0.0);
    const double covered =
        std::min(root.sim_end, result.sim_complete) -
        std::max(root.sim_start, result.sim_submit);
    EXPECT_GE(covered / latency, 0.95);
  }
  ASSERT_GT(total_faults, 0u) << "scenario expected injected faults";
  scheduler.Shutdown();

  // The fault/stall/verification story shows up as typed annotations
  // somewhere in the session.
  bool saw_fault_note = false, saw_verify_note = false, saw_merge = false;
  for (const QueryTrace& trace : tracer.FlightRecorder()) {
    saw_fault_note = saw_fault_note ||
                     HasAnnotation(trace, SpanAnnotationKind::kFault) ||
                     HasAnnotation(trace, SpanAnnotationKind::kReExecution);
    saw_verify_note =
        saw_verify_note ||
        HasAnnotation(trace, SpanAnnotationKind::kCorruptionDetected);
    saw_merge = saw_merge || HasAnnotation(trace, SpanAnnotationKind::kBatchMerge);
  }
  EXPECT_TRUE(saw_fault_note);
  EXPECT_TRUE(saw_merge);
  (void)saw_verify_note;  // corruption at 1% may or may not hit in 24 queries

  // Schema sanity of the exported session document.
  const obs::Json doc = ToSessionTraceJson(tracer);
  const obs::Json& events = doc.at("traceEvents");
  ASSERT_GT(events.size(), 0u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::Json& event = events.at(i);
    const std::string& ph = event.at("ph").str();
    ASSERT_TRUE(ph == "X" || ph == "M" || ph == "s" || ph == "f") << ph;
    ASSERT_TRUE(event.Has("pid"));
    ASSERT_TRUE(event.Has("tid"));
    if (ph == "X") {
      ASSERT_TRUE(event.Has("ts"));
      ASSERT_GE(event.at("dur").number(), 0.0);
      ASSERT_TRUE(event.at("args").Has("query"));
    }
  }
}

TEST(SchedulerTracing, FailedQueryDumpsItsFlightRecorderTree) {
  const core::SelectChain chain =
      core::MakeSelectChain(10000, std::vector<double>{0.5});
  const Table input = core::MakeUniformInt32Table(10000);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "kf_scheduler_tracing_dump";
  std::filesystem::remove_all(dir);

  sim::DeviceSimulator device;
  obs::MetricsRegistry registry;
  obs::TracerOptions tracer_options;
  tracer_options.trace_dir = dir.string();
  obs::Tracer tracer(tracer_options);

  sim::FaultConfig config;
  config.seed = 1;
  config.oom_rate = 1.0;  // every reservation faults: retries exhaust
  const sim::FaultInjector injector(config);

  SchedulerOptions options;
  options.worker_count = 1;
  options.metrics = &registry;
  options.tracer = &tracer;
  options.fault_injector = &injector;
  options.query_retry_limit = 2;
  QueryScheduler scheduler(device, options);

  std::future<QueryResult> future =
      scheduler.Submit(ChainRequest(chain, input, &registry));
  try {
    (void)future.get();
    FAIL() << "expected kf::DeviceFault";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeviceFault);
  }

  // The failed query landed in the flight recorder with its typed failure
  // and dumped its full tree into the trace dir.
  std::vector<QueryTrace> flight = tracer.FlightRecorder();
  ASSERT_EQ(flight.size(), 1u);
  EXPECT_TRUE(flight.front().failed);
  EXPECT_EQ(flight.front().failure, "device_fault");
  EXPECT_TRUE(HasAnnotation(flight.front(), SpanAnnotationKind::kFailure));
  EXPECT_TRUE(HasAnnotation(flight.front(), SpanAnnotationKind::kReExecution));

  const std::filesystem::path dump =
      dir / ("trace_query_" + std::to_string(flight.front().query_id) + ".json");
  EXPECT_TRUE(std::filesystem::exists(dump));
  std::filesystem::remove_all(dir);
}

TEST(SchedulerTracing, RacingWorkersAndClientsStayConsistent) {
  // TSan stress: multiple workers execute batches concurrently while client
  // threads submit; every tree must come out finished and well formed.
  const core::SelectChain chain =
      core::MakeSelectChain(2000, std::vector<double>{0.5});
  const Table input = core::MakeUniformInt32Table(2000);

  sim::DeviceSimulator device;
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  SchedulerOptions options;
  options.worker_count = 4;
  options.metrics = &registry;
  options.tracer = &tracer;
  QueryScheduler scheduler(device, options);

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 8;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const QueryResult result =
            scheduler.Submit(ChainRequest(chain, input, &registry)).get();
        EXPECT_NE(result.trace_query_id, 0u);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  scheduler.Shutdown();

  EXPECT_EQ(tracer.finished_count(),
            static_cast<std::size_t>(kClients * kQueriesPerClient));
  std::set<std::uint64_t> seen;
  for (const QueryTrace& trace : tracer.FlightRecorder()) {
    EXPECT_TRUE(trace.finished);
    EXPECT_FALSE(trace.failed);
    EXPECT_TRUE(seen.insert(trace.query_id).second);
    ASSERT_FALSE(trace.spans.empty());
    for (std::size_t i = 0; i < trace.spans.size(); ++i) {
      EXPECT_EQ(trace.spans[i].id, i + 1);
      if (trace.spans[i].parent != 0) {
        EXPECT_NE(trace.FindSpan(trace.spans[i].parent), nullptr);
      }
    }
  }
  // And the concurrent session still renders one well-formed document.
  const obs::Json doc = ToSessionTraceJson(tracer);
  EXPECT_GT(doc.at("traceEvents").size(), 0u);
}

}  // namespace
}  // namespace kf::server
