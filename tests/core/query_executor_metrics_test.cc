// The executor's observability contract: every strategy records its run into
// the metrics registry, and the registry's numbers agree with the
// ExecutionReport the caller gets back.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/query_executor.h"
#include "core/select_chain.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "relational/operators.h"
#include "sim/fault_injector.h"

namespace kf::core {
namespace {

using relational::DataType;
using relational::Expr;
using relational::OperatorDesc;
using relational::Schema;

std::string Key(const std::string& name, Strategy strategy) {
  return name + "{strategy=" + ToString(strategy) + "}";
}

std::string BusyKey(Strategy strategy, const std::string& engine) {
  return "executor.engine_busy_seconds{strategy=" + std::string(ToString(strategy)) +
         ",engine=" + engine + "}";
}

class QueryExecutorMetricsTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(QueryExecutorMetricsTest, RegistryAgreesWithExecutionReport) {
  const Strategy strategy = GetParam();
  sim::DeviceSimulator device;
  QueryExecutor executor(device);
  SelectChain chain = MakeSelectChain(8'000'000, std::vector<double>{0.5, 0.5});

  obs::MetricsRegistry registry;
  ExecutorOptions options;
  options.strategy = strategy;
  options.metrics = &registry;
  const ExecutionReport report =
      executor.EstimateOnly(chain.graph, chain.expected_rows, options);

  EXPECT_EQ(registry.CounterValue(Key("executor.runs", strategy)), 1u);
  EXPECT_EQ(registry.CounterValue(Key("executor.kernel_launches", strategy)),
            report.kernel_launches);
  EXPECT_EQ(registry.CounterValue(Key("executor.h2d_bytes", strategy)),
            report.h2d_bytes);
  EXPECT_EQ(registry.CounterValue(Key("executor.d2h_bytes", strategy)),
            report.d2h_bytes);
  EXPECT_EQ(registry.CounterValue(Key("executor.spills", strategy)),
            report.spill_count);
  EXPECT_EQ(registry.CounterValue(Key("executor.clusters", strategy)),
            report.cluster_count);
  EXPECT_EQ(registry.CounterValue(Key("executor.fused_clusters", strategy)),
            report.fused_cluster_count);

  EXPECT_DOUBLE_EQ(registry.GaugeValue(BusyKey(strategy, "h2d")),
                   report.timeline.h2d_busy);
  EXPECT_DOUBLE_EQ(registry.GaugeValue(BusyKey(strategy, "d2h")),
                   report.timeline.d2h_busy);
  EXPECT_DOUBLE_EQ(registry.GaugeValue(BusyKey(strategy, "compute")),
                   report.timeline.compute_busy);
  EXPECT_DOUBLE_EQ(registry.GaugeValue(BusyKey(strategy, "host")),
                   report.timeline.host_busy);
  EXPECT_DOUBLE_EQ(
      registry.GaugeValue(Key("executor.peak_device_bytes", strategy)),
      static_cast<double>(report.peak_device_bytes));

  const obs::DurationHistogram* makespans =
      registry.FindHistogram(Key("executor.makespan_seconds", strategy));
  ASSERT_NE(makespans, nullptr);
  EXPECT_EQ(makespans->count(), 1u);
  EXPECT_DOUBLE_EQ(makespans->sum(), report.makespan);

  // The plan shape is real: every strategy plans at least one cluster, and
  // the fused strategies fuse the two-SELECT chain into one.
  EXPECT_GT(report.cluster_count, 0u);
  if (strategy == Strategy::kFused || strategy == Strategy::kFusedFission) {
    EXPECT_GE(report.fused_cluster_count, 1u);
  }
}

TEST_P(QueryExecutorMetricsTest, CountersAccumulateAcrossRuns) {
  const Strategy strategy = GetParam();
  sim::DeviceSimulator device;
  QueryExecutor executor(device);
  SelectChain chain = MakeSelectChain(4'000'000, std::vector<double>{0.5});

  obs::MetricsRegistry registry;
  ExecutorOptions options;
  options.strategy = strategy;
  options.metrics = &registry;
  const ExecutionReport first =
      executor.EstimateOnly(chain.graph, chain.expected_rows, options);
  const ExecutionReport second =
      executor.EstimateOnly(chain.graph, chain.expected_rows, options);

  EXPECT_EQ(registry.CounterValue(Key("executor.runs", strategy)), 2u);
  EXPECT_EQ(registry.CounterValue(Key("executor.kernel_launches", strategy)),
            first.kernel_launches + second.kernel_launches);
  const obs::DurationHistogram* makespans =
      registry.FindHistogram(Key("executor.makespan_seconds", strategy));
  ASSERT_NE(makespans, nullptr);
  EXPECT_EQ(makespans->count(), 2u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, QueryExecutorMetricsTest,
                         ::testing::Values(Strategy::kSerial, Strategy::kFused,
                                           Strategy::kFission,
                                           Strategy::kFusedFission),
                         [](const ::testing::TestParamInfo<Strategy>& param) {
                           switch (param.param) {
                             case Strategy::kSerial: return "Serial";
                             case Strategy::kFused: return "Fused";
                             case Strategy::kFission: return "Fission";
                             case Strategy::kFusedFission: return "FusedFission";
                           }
                           return "Unknown";
                         });

// The retention-heavy graph of executor_spill_test on a tiny device: the
// forced evictions must surface both in the report and in the registry.
TEST(QueryExecutorMetrics, SpillCountReachesRegistry) {
  sim::DeviceSimulator tiny(sim::DeviceSpec::TinyTestDevice());
  QueryExecutor executor(tiny);
  const std::uint64_t rows = 5'000'000;

  OpGraph graph;
  const NodeId src = graph.AddSource("in", Schema{{"v", DataType::kInt32}}, rows);
  std::vector<NodeId> branches;
  for (int i = 1; i <= 3; ++i) {
    const NodeId sorted = graph.AddOperator(
        OperatorDesc::Sort({0}, "sort" + std::to_string(i)), src);
    branches.push_back(graph.AddOperator(
        OperatorDesc::Select(Expr::Ge(Expr::FieldRef(0), Expr::Lit(i - 1)),
                             "sel" + std::to_string(i)),
        sorted));
  }
  const NodeId inner = graph.AddOperator(OperatorDesc::Union("union_inner"),
                                         branches[1], branches[2]);
  graph.AddOperator(OperatorDesc::Union("union_outer"), branches[0], inner);

  obs::MetricsRegistry registry;
  ExecutorOptions options;
  options.strategy = Strategy::kSerial;
  options.metrics = &registry;
  std::map<NodeId, std::uint64_t> counts;
  for (NodeId id = 0; id < graph.node_count(); ++id) counts[id] = rows;
  const ExecutionReport report = executor.EstimateOnly(graph, counts, options);

  EXPECT_GT(report.spill_count, 0u);
  EXPECT_EQ(registry.CounterValue("executor.spills{strategy=serial}"),
            report.spill_count);
}

// The kind of the command behind a main-run leaf span: its stage tells
// kernel, host and copy work apart, and a copy's label gives its direction.
std::string LeafKind(const obs::Span& leaf) {
  if (leaf.category == "input_output" || leaf.category == "round_trip") {
    return leaf.name.find("/h2d") != std::string::npos ? "H2D" : "D2H";
  }
  const bool kernel = leaf.category == "compute" && leaf.name.rfind("host/", 0) != 0;
  return kernel ? "KERNEL" : "HOST";
}

// The main run's commands by kind, counted from the leaves of the run's trace
// (query id 1 of a fresh tracer); leaves under a retry span are not counted.
std::map<std::string, std::uint64_t> MainRunKinds(const obs::Tracer& tracer) {
  const obs::QueryTrace trace = tracer.Snapshot(1);
  std::map<std::string, std::uint64_t> kinds;
  for (const obs::Span& span : trace.spans) {
    if (span.lane.rfind("stream ", 0) != 0) continue;
    if (trace.FindSpan(span.parent)->name.rfind("retry unit ", 0) == 0) continue;
    ++kinds[LeafKind(span)];
  }
  return kinds;
}

// The executor is each run's only writer: no Stream Pool and no host-substrate
// series reach the registry. `executor.commands{kind}` counts the main run's
// commands, not the retries', and kinds the run never issued get no series;
// `resilience.stalled_commands` is the main run's stall count; and a run on a
// group device labels every series it records with the device.
TEST(QueryExecutorMetrics, TheExecutorIsTheRunsOnlyWriter) {
  sim::DeviceSimulator device;
  QueryExecutor executor(device);
  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
  const std::map<NodeId, relational::Table> sources{
      {chain.source, MakeUniformInt32Table(20000)}};
  sim::FaultConfig config;
  config.seed = 17;
  config.stall_rate = 0.3;
  config.copy_fault_rate = 0.2;
  config.kernel_fault_rate = 0.2;
  config.corrupt_h2d_rate = 0.3;
  config.corrupt_d2h_rate = 0.3;
  config.corrupt_kernel_rate = 0.3;
  const sim::FaultInjector injector(config);

  for (const bool faulted : {false, true}) {
    SCOPED_TRACE(faulted ? "faulted Execute" : "EstimateOnly");
    obs::MetricsRegistry registry;
    obs::Tracer tracer;
    ExecutorOptions options;
    options.strategy = faulted ? Strategy::kFission : Strategy::kSerial;
    options.fission_segments = 4;
    options.metrics = &registry;
    options.tracer = &tracer;
    ExecutionReport report;
    if (faulted) {
      options.fault_injector = &injector;
      options.integrity.verify_transfers = true;
      report = executor.Execute(chain.graph, sources, options);
      ASSERT_GT(report.timeline.stall_count, 0u);
      ASSERT_GT(report.corrupted_commands, 0u);
      ASSERT_GT(report.retry_attempts, 0u);
    } else {
      report = executor.EstimateOnly(chain.graph, chain.expected_rows, options);
    }
    const obs::Json json = registry.ToJson();
    for (const auto& [type, series] : json.object()) {
      for (const auto& [key, value] : series.object()) {
        EXPECT_FALSE(key.starts_with("stream_pool.") || key.starts_with("hostperf."))
            << key;
      }
    }

    const std::map<std::string, std::uint64_t> kinds = MainRunKinds(tracer);
    std::uint64_t commands = 0;
    for (const char* kind : {"H2D", "D2H", "KERNEL", "HOST"}) {
      const std::string key = "executor.commands{strategy=" +
                              std::string(ToString(options.strategy)) + ",kind=" + kind +
                              "}";
      const auto it = kinds.find(kind);
      if (it == kinds.end()) {
        EXPECT_FALSE(json.at("counters").Has(key)) << key;
        continue;
      }
      EXPECT_EQ(registry.CounterValue(key), it->second) << key;
      commands += it->second;
    }
    EXPECT_EQ(commands, report.timeline.commands.size());
    EXPECT_EQ(kinds.count("HOST"), faulted ? 1u : 0u);

    const std::string stalls = Key("resilience.stalled_commands", options.strategy);
    EXPECT_EQ(json.at("counters").Has(stalls), faulted);
    EXPECT_EQ(registry.CounterValue(stalls), report.timeline.stall_count);

    if (faulted) continue;
    // The same estimate on a group device: every series the run adds carries
    // its device, and the unlabeled series keep their values.
    sim::DeviceSimulator labeled;
    labeled.set_instance_label("dev3");
    options.tracer = nullptr;
    QueryExecutor(labeled).EstimateOnly(chain.graph, chain.expected_rows, options);
    const obs::Json after = registry.ToJson();
    for (const auto& [type, series] : after.object()) {
      for (const auto& [key, value] : series.object()) {
        if (json.at(type).Has(key)) {
          EXPECT_EQ(value.Dump(), json.at(type).at(key).Dump()) << key;
        } else {
          EXPECT_NE(key.find("{strategy=serial,device=dev3"), std::string::npos) << key;
        }
      }
    }
    EXPECT_EQ(registry.CounterValue("executor.runs{strategy=serial,device=dev3}"), 1u);
    EXPECT_EQ(registry.CounterValue(
                  "executor.commands{strategy=serial,device=dev3,kind=KERNEL}"),
              kinds.at("KERNEL"));
  }
}

// Without an explicit registry the executor records into the process-wide
// default — the bench binaries rely on this.
TEST(QueryExecutorMetrics, DefaultRegistryIsUsedWhenUnset) {
  sim::DeviceSimulator device;
  QueryExecutor executor(device);
  SelectChain chain = MakeSelectChain(4'000'000, std::vector<double>{0.5});

  obs::MetricsRegistry& defaults = obs::MetricsRegistry::Default();
  const std::uint64_t before =
      defaults.CounterValue("executor.runs{strategy=serial}");
  ExecutorOptions options;
  options.strategy = Strategy::kSerial;
  executor.EstimateOnly(chain.graph, chain.expected_rows, options);
  EXPECT_EQ(defaults.CounterValue("executor.runs{strategy=serial}"), before + 1);
}

}  // namespace
}  // namespace kf::core
