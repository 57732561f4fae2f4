// Executor tracing: the root execute span covers the whole makespan, the
// structural tree (plan / functional / clusters / segments / commands) is
// well formed, stage occupancy cross-checks against the report's stage sums,
// and fault / degrade / retry paths leave their typed annotations behind.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/query_executor.h"
#include "core/select_chain.h"
#include "obs/tracer.h"
#include "sim/fault_injector.h"

namespace kf::core {
namespace {

using relational::Table;

class ExecutorTracingTest : public ::testing::Test {
 protected:
  sim::DeviceSimulator device_;
  QueryExecutor executor_{device_};
  obs::MetricsRegistry registry_;
  obs::Tracer tracer_;

  ExecutorOptions Options(Strategy strategy) {
    ExecutorOptions options;
    options.strategy = strategy;
    options.chunk_count = 8;
    options.fission_segments = 4;
    options.metrics = &registry_;
    options.tracer = &tracer_;
    return options;
  }

  obs::QueryTrace Run(Strategy strategy, ExecutionReport* report_out = nullptr,
                      const sim::FaultInjector* injector = nullptr) {
    SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
    const std::map<NodeId, Table> sources{
        {chain.source, MakeUniformInt32Table(20000)}};
    ExecutorOptions options = Options(strategy);
    options.fault_injector = injector;
    const ExecutionReport report =
        executor_.Execute(chain.graph, sources, options);
    if (report_out != nullptr) *report_out = report;
    // The executor allocated the query id itself (options.trace.query_id
    // was 0); recover it from the most recent live tree.
    const std::uint64_t query_id = LastQueryId();
    return tracer_.Snapshot(query_id);
  }

  std::uint64_t LastQueryId() const {
    // Tracer ids are monotonic from 1; the run just finished is the highest.
    std::uint64_t last = 0;
    for (std::uint64_t id = 1; id <= 64; ++id) {
      if (!tracer_.Snapshot(id).empty()) last = id;
    }
    return last;
  }
};

using obs::QueryTrace;

TEST_F(ExecutorTracingTest, RootSpanCoversTheWholeMakespan) {
  ExecutionReport report;
  const QueryTrace trace = Run(Strategy::kFused, &report);
  ASSERT_FALSE(trace.empty());

  const obs::Span& root = trace.spans.front();
  EXPECT_EQ(root.name, "execute/fusion");
  EXPECT_EQ(root.parent, 0u);
  EXPECT_DOUBLE_EQ(root.sim_start, 0.0);
  EXPECT_DOUBLE_EQ(root.sim_end, report.makespan);
  EXPECT_GT(trace.spans.size(), 3u);

  // Every non-root span resolves to a parent inside the tree and stays
  // within the root's window.
  for (const obs::Span& span : trace.spans) {
    if (span.id == root.id) continue;
    ASSERT_NE(trace.FindSpan(span.parent), nullptr) << span.name;
    EXPECT_GE(span.sim_start, root.sim_start - 1e-12) << span.name;
    EXPECT_LE(span.sim_end, root.sim_end + 1e-12) << span.name;
  }
}

TEST_F(ExecutorTracingTest, StructuralSpansArePresent) {
  const QueryTrace trace = Run(Strategy::kFusedFission);
  ASSERT_FALSE(trace.empty());
  bool saw_plan = false, saw_cluster = false, saw_segment = false,
       saw_command = false;
  for (const obs::Span& span : trace.spans) {
    if (span.name == "plan") saw_plan = true;
    if (span.name.rfind("cluster ", 0) == 0) saw_cluster = true;
    if (span.name.rfind("segment ", 0) == 0) saw_segment = true;
    if (!span.category.empty()) saw_command = true;
  }
  EXPECT_TRUE(saw_plan);
  EXPECT_TRUE(saw_cluster);
  EXPECT_TRUE(saw_segment);
  EXPECT_TRUE(saw_command);
}

TEST_F(ExecutorTracingTest, PlanSpanRecordsCacheMissThenHit) {
  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5});
  const std::map<NodeId, Table> sources{
      {chain.source, MakeUniformInt32Table(20000)}};

  ExecutorOptions options = Options(Strategy::kFused);
  (void)executor_.Execute(chain.graph, sources, options);
  const QueryTrace cold = tracer_.Snapshot(LastQueryId());

  const FusionPlan plan = PlanFusion(chain.graph, EffectiveFusionOptions(options));
  options.plan = &plan;
  (void)executor_.Execute(chain.graph, sources, options);
  const QueryTrace warm = tracer_.Snapshot(LastQueryId());

  auto plan_annotation = [](const QueryTrace& trace) {
    for (const obs::Span& span : trace.spans) {
      if (span.name != "plan") continue;
      if (span.annotations.empty()) break;
      return span.annotations.front().kind;
    }
    return obs::SpanAnnotationKind::kFailure;
  };
  EXPECT_EQ(plan_annotation(cold), obs::SpanAnnotationKind::kCacheMiss);
  EXPECT_EQ(plan_annotation(warm), obs::SpanAnnotationKind::kCacheHit);
}

TEST_F(ExecutorTracingTest, StageOccupancyMatchesReportOnSerialCleanRun) {
  ExecutionReport report;
  const QueryTrace trace = Run(Strategy::kSerial, &report);
  ASSERT_FALSE(trace.empty());
  // On a fault-free serial run, per-category leaf occupancy equals the
  // report's stage sums: no engine overlap, no stall stretching.
  std::map<std::string, double> occupancy;
  for (const obs::Span& span : trace.spans) {
    if (!span.category.empty()) occupancy[span.category] += span.sim_end - span.sim_start;
  }
  const auto stage = [&](const std::string& name) {
    const auto it = occupancy.find(name);
    return it == occupancy.end() ? 0.0 : it->second;
  };
  EXPECT_NEAR(stage("input_output"), report.input_output_time, 1e-9);
  EXPECT_NEAR(stage("round_trip"), report.round_trip_time, 1e-9);
  EXPECT_NEAR(stage("compute"), report.compute_time, 1e-9);
  EXPECT_NEAR(stage("host_gather"), report.host_gather_time, 1e-9);
}

TEST_F(ExecutorTracingTest, FaultsAnnotateTheTree) {
  sim::FaultConfig config;
  config.seed = 7;
  config.copy_fault_rate = 0.3;
  config.kernel_fault_rate = 0.3;
  sim::FaultInjector injector(config, &registry_);

  ExecutionReport report;
  const QueryTrace trace = Run(Strategy::kFusedFission, &report, &injector);
  ASSERT_FALSE(trace.empty());
  ASSERT_GT(report.fault_count, 0u);

  std::size_t fault_notes = 0, retry_spans = 0;
  for (const obs::Span& span : trace.spans) {
    if (span.name.rfind("retry", 0) == 0) ++retry_spans;
    for (const obs::SpanAnnotation& note : span.annotations) {
      if (note.kind == obs::SpanAnnotationKind::kFault) ++fault_notes;
    }
  }
  EXPECT_GT(fault_notes, 0u);
  EXPECT_GT(retry_spans, 0u);
}

TEST_F(ExecutorTracingTest, DegradeAnnotatesAndAddsHostRerunSpans) {
  sim::FaultConfig config;
  config.seed = 1;
  config.kernel_fault_rate = 1.0;
  sim::FaultInjector injector(config, &registry_);

  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
  const std::map<NodeId, Table> sources{
      {chain.source, MakeUniformInt32Table(20000)}};
  ExecutorOptions options = Options(Strategy::kFusedFission);
  options.fault_injector = &injector;
  options.resilience.max_retries = 2;
  const ExecutionReport report =
      executor_.Execute(chain.graph, sources, options);
  ASSERT_TRUE(report.degraded);

  const QueryTrace trace = tracer_.Snapshot(LastQueryId());
  bool saw_degraded_note = false, saw_host_rerun = false;
  for (const obs::Span& span : trace.spans) {
    if (span.name.rfind("degraded host rerun", 0) == 0) saw_host_rerun = true;
    for (const obs::SpanAnnotation& note : span.annotations) {
      if (note.kind == obs::SpanAnnotationKind::kDegraded) {
        saw_degraded_note = true;
      }
    }
  }
  EXPECT_TRUE(saw_degraded_note);
  EXPECT_TRUE(saw_host_rerun);
}

TEST_F(ExecutorTracingTest, TracedRunKeepsTheSameSimTiming) {
  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
  const std::map<NodeId, Table> sources{
      {chain.source, MakeUniformInt32Table(20000)}};
  ExecutorOptions untraced = Options(Strategy::kFusedFission);
  untraced.tracer = nullptr;
  const ExecutionReport plain =
      executor_.Execute(chain.graph, sources, untraced);
  const ExecutionReport traced =
      executor_.Execute(chain.graph, sources, Options(Strategy::kFusedFission));
  // Tracing observes the virtual clock; it never advances it.
  EXPECT_DOUBLE_EQ(traced.makespan, plain.makespan);
  EXPECT_EQ(traced.h2d_bytes, plain.h2d_bytes);
  EXPECT_EQ(traced.d2h_bytes, plain.d2h_bytes);
}

}  // namespace
}  // namespace kf::core
