// Executor tracing: the root execute span covers the whole makespan, the
// structural tree (plan / functional / clusters / segments / commands) is
// well formed, stage occupancy cross-checks against the report's stage sums,
// and fault / degrade / retry paths leave their typed annotations behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/query_executor.h"
#include "core/select_chain.h"
#include "obs/tracer.h"
#include "relational/operators.h"
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
  sim::FaultInjector injector(config);

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
  sim::FaultInjector injector(config);

  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
  const std::map<NodeId, Table> sources{
      {chain.source, MakeUniformInt32Table(20000)}};
  ExecutorOptions options = Options(Strategy::kFusedFission);
  options.fault_injector = &injector;
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

// The stage categories a command's label allows.
std::set<std::string> CategoriesFor(const std::string& label) {
  const auto has = [&](const char* part) {
    return label.find(part) != std::string::npos;
  };
  if (has("/crc-") || has("/audit")) return {"integrity"};
  if (label.rfind("cpu-gather", 0) == 0) return {"host_gather"};
  if (has("/h2d") || has("/d2h")) return {"input_output", "round_trip"};
  return {"compute"};
}

// The stream a command's label implies when fission runs over `streams`
// compute streams with transfer verification on: segment copies rotate over
// the compute streams, gathers run on stream 0, checksum chasers on the
// extra integrity stream. -1 when the label does not say.
int StreamFor(const std::string& label, int streams) {
  if (label.find("/crc-") != std::string::npos) return streams;
  if (label.rfind("cpu-gather", 0) == 0) return 0;
  const std::size_t tag = label.find('[');
  const bool segment_copy = label.find("/h2d[") != std::string::npos ||
                            label.find("/d2h[") != std::string::npos;
  return segment_copy ? std::stoi(label.substr(tag + 1)) % streams : -1;
}

TEST_F(ExecutorTracingTest, LeafSpansMirrorEveryCommandOutcome) {
  // One leaf per stream command: each main-run leaf carries its command's
  // interval and exactly the stall, fault or corruption the timeline drew
  // for it; retry leaves sit under their retry span, after its backoff; and
  // the session exporter draws one slice per leaf.
  sim::FaultConfig config;
  config.seed = 17;
  config.stall_rate = 0.3;
  config.copy_fault_rate = 0.2;
  config.kernel_fault_rate = 0.2;
  config.corrupt_h2d_rate = 0.3;
  config.corrupt_d2h_rate = 0.3;
  config.corrupt_kernel_rate = 0.3;
  const sim::FaultInjector injector(config);

  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
  const std::map<NodeId, Table> sources{
      {chain.source, MakeUniformInt32Table(20000)}};
  ExecutorOptions options = Options(Strategy::kFusedFission);
  options.fault_injector = &injector;
  options.integrity.verify_transfers = true;
  options.trace.query_id = tracer_.NextQueryId();
  const ExecutionReport report = executor_.Execute(chain.graph, sources, options);
  tracer_.FinishQuery(options.trace, /*failed=*/false, "");
  const QueryTrace trace = tracer_.Snapshot(options.trace.query_id);
  ASSERT_FALSE(trace.empty());

  const auto starts_with = [](const std::string& text, const char* prefix) {
    return text.rfind(prefix, 0) == 0;
  };
  std::vector<const obs::Span*> main_leaves;  // issue order
  std::map<obs::SpanId, std::vector<const obs::Span*>> retry_leaves;
  std::size_t retry_spans = 0;
  for (const obs::Span& span : trace.spans) {
    if (starts_with(span.name, "retry unit ")) ++retry_spans;
    if (!starts_with(span.lane, "stream ")) continue;
    const obs::Span* parent = trace.FindSpan(span.parent);
    ASSERT_NE(parent, nullptr) << span.name;
    if (starts_with(parent->name, "retry unit ")) {
      retry_leaves[parent->id].push_back(&span);
    } else {
      EXPECT_TRUE(starts_with(parent->name, "segment ") ||
                  starts_with(parent->name, "cluster ") || parent->id == 1)
          << span.name << " under " << parent->name;
      main_leaves.push_back(&span);
    }
  }

  using Kind = obs::SpanAnnotationKind;
  const auto kinds_of = [](const obs::Span& leaf) {
    std::vector<Kind> kinds;
    for (const obs::SpanAnnotation& note : leaf.annotations) kinds.push_back(note.kind);
    return kinds;
  };
  const std::vector<sim::CommandTiming>& timings = report.timeline.commands;
  ASSERT_EQ(main_leaves.size(), timings.size());
  std::vector<Kind> seen;
  std::size_t lanes_checked = 0;
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const obs::Span& leaf = *main_leaves[i];
    const sim::CommandTiming& timing = timings[i];
    EXPECT_EQ(leaf.sim_start, timing.start) << leaf.name;
    EXPECT_EQ(leaf.sim_end, timing.end) << leaf.name;
    const int stream = std::stoi(leaf.lane.substr(7));
    EXPECT_EQ(leaf.lane, "stream " + std::to_string(stream));
    EXPECT_GE(stream, 0);
    EXPECT_LE(stream, options.stream_count);  // compute streams + integrity
    if (const int expected = StreamFor(leaf.name, options.stream_count); expected >= 0) {
      EXPECT_EQ(stream, expected) << leaf.name;
      ++lanes_checked;
    }
    EXPECT_EQ(CategoriesFor(leaf.name).count(leaf.category), 1u)
        << leaf.name << " in " << leaf.category;
    std::vector<Kind> expected;
    if (timing.fault == sim::FaultKind::kStreamStall) {
      expected.push_back(Kind::kStall);
    } else if (timing.fault != sim::FaultKind::kNone) {
      expected.push_back(Kind::kFault);
    }
    if (timing.corrupted) expected.push_back(Kind::kCorruption);
    EXPECT_EQ(kinds_of(leaf), expected) << "command " << i << " " << leaf.name;
    seen.insert(seen.end(), expected.begin(), expected.end());
  }
  for (Kind kind : {Kind::kStall, Kind::kFault, Kind::kCorruption}) {
    EXPECT_NE(std::find(seen.begin(), seen.end(), kind), seen.end())
        << obs::ToString(kind) << " never drawn";
  }
  EXPECT_GT(lanes_checked, timings.size() / 2);

  // Every retry re-issues its unit on one fresh stream, after its backoff:
  // its leaves start at the span's start plus that backoff and end with it.
  ASSERT_GT(report.retry_attempts, 0u);
  EXPECT_EQ(retry_spans, report.retry_attempts);
  EXPECT_EQ(retry_leaves.size(), retry_spans);
  for (const auto& [id, leaves] : retry_leaves) {
    const obs::Span& retry = *trace.FindSpan(id);
    const int attempt = std::stoi(retry.name.substr(retry.name.rfind(' ') + 1));
    const SimTime backoff = ResilienceOptions::kBackoffBase *
                            std::pow(ResilienceOptions::kBackoffFactor, attempt - 1);
    double first = std::numeric_limits<double>::infinity();
    double last = -first;
    for (const obs::Span* leaf : leaves) {
      EXPECT_EQ(leaf->lane, "stream 0");
      EXPECT_EQ(CategoriesFor(leaf->name).count(leaf->category), 1u) << leaf->name;
      first = std::min(first, leaf->sim_start);
      last = std::max(last, leaf->sim_end);
    }
    EXPECT_DOUBLE_EQ(first, retry.sim_start + backoff) << retry.name;
    EXPECT_DOUBLE_EQ(last, retry.sim_end) << retry.name;
  }

  // The session trace draws each leaf exactly once.
  std::set<std::uint64_t> leaf_ids;
  for (const obs::Span* leaf : main_leaves) leaf_ids.insert(leaf->id);
  for (const auto& [id, leaves] : retry_leaves) {
    for (const obs::Span* leaf : leaves) leaf_ids.insert(leaf->id);
  }
  std::size_t leaf_slices = 0;
  const obs::Json session = obs::ToSessionTraceJson(tracer_, false);
  for (const obs::Json& event : session.at("traceEvents").array()) {
    if (event.at("ph").str() != "X") continue;
    const auto span = static_cast<std::uint64_t>(event.at("args").at("span").number());
    if (leaf_ids.count(span) != 0) ++leaf_slices;
  }
  EXPECT_EQ(leaf_slices, leaf_ids.size());
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

// Each cluster span's wall interval is its functional run: inside the
// `functional` span, in plan order, without overlap. A timing-only run has
// no functional run, so its cluster spans' wall intervals are empty.
TEST_F(ExecutorTracingTest, ClusterSpansTakeTheWallTimeOfTheirFunctionalRun) {
  // SELECT, SORT, SELECT: the barrier splits three clusters.
  const Table data = MakeUniformInt32Table(20000);
  OpGraph graph;
  const NodeId src = graph.AddSource("in", data.schema(), data.row_count());
  using relational::Expr;
  using relational::OperatorDesc;
  NodeId last = graph.AddOperator(
      OperatorDesc::Select(Expr::Lt(Expr::FieldRef(0), Expr::Lit(1 << 30))), src);
  last = graph.AddOperator(OperatorDesc::Sort({0}), last);
  graph.AddOperator(OperatorDesc::Select(Expr::Gt(Expr::FieldRef(0), Expr::Lit(0))),
                    last);
  (void)executor_.Execute(graph, {{src, data}}, Options(Strategy::kFused));
  const QueryTrace trace = tracer_.Snapshot(LastQueryId());
  const obs::Span* functional = nullptr;
  std::vector<const obs::Span*> clusters;
  for (const obs::Span& span : trace.spans) {
    if (span.name == "functional") functional = &span;
    if (span.name.rfind("cluster ", 0) == 0) clusters.push_back(&span);
  }
  ASSERT_NE(functional, nullptr);
  ASSERT_EQ(clusters.size(), 3u);
  double previous_end = functional->wall_start;
  for (const obs::Span* cluster : clusters) {
    EXPECT_GE(cluster->wall_start, previous_end) << cluster->name;
    EXPECT_GE(cluster->wall_end, cluster->wall_start) << cluster->name;
    previous_end = cluster->wall_end;
  }
  EXPECT_LE(previous_end, functional->wall_end);

  (void)executor_.EstimateOnly(graph, {}, Options(Strategy::kFused));
  std::size_t timed_clusters = 0;
  for (const obs::Span& span : tracer_.Snapshot(LastQueryId()).spans) {
    if (span.name.rfind("cluster ", 0) != 0) continue;
    ++timed_clusters;
    EXPECT_EQ(span.wall_start, span.wall_end) << span.name;
  }
  EXPECT_EQ(timed_clusters, 3u);
}

}  // namespace
}  // namespace kf::core
