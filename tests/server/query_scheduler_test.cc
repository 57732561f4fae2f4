// QueryScheduler unit tests: single-query parity with direct execution,
// cross-query batching through MergeGraphs, backpressure and admission,
// shutdown semantics, and virtual-clock accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/query_executor.h"
#include "core/select_chain.h"
#include "server/query_scheduler.h"
#include "tpch/q1.h"

namespace kf::server {
namespace {

using core::ExecutorOptions;
using core::NodeId;
using core::Strategy;
using relational::Table;

tpch::TpchData SmallData() {
  tpch::TpchConfig config;
  config.order_count = 200;
  config.supplier_count = 20;
  return tpch::MakeTpchData(config);
}

QueryRequest Q1Request(const tpch::QueryPlan& plan, Strategy strategy,
                       std::string merge_class = "") {
  QueryRequest request;
  request.graph = plan.graph;
  request.sources = plan.sources;
  request.options.strategy = strategy;
  request.merge_class = std::move(merge_class);
  return request;
}

QueryRequest ChainRequest(const core::SelectChain& chain, const Table& input,
                          std::string merge_class) {
  QueryRequest request;
  request.graph = chain.graph;
  request.sources.emplace(chain.source, input);
  request.options.strategy = Strategy::kFusedFission;
  request.merge_class = std::move(merge_class);
  return request;
}

TEST(QueryScheduler, SingleQueryMatchesDirectExecution) {
  const tpch::TpchData data = SmallData();
  const tpch::QueryPlan plan = BuildQ1Plan(data);

  sim::DeviceSimulator device;
  core::QueryExecutor executor(device);
  ExecutorOptions options;
  options.strategy = Strategy::kFused;
  const core::ExecutionReport direct =
      executor.Execute(plan.graph, plan.sources, options);

  obs::MetricsRegistry registry;
  SchedulerOptions sched_options;
  sched_options.worker_count = 1;
  sched_options.metrics = &registry;
  QueryScheduler scheduler(device, sched_options);
  QueryResult result = scheduler.Submit(Q1Request(plan, Strategy::kFused)).get();

  EXPECT_FALSE(result.merged);
  EXPECT_EQ(result.batch_size, 1u);
  EXPECT_DOUBLE_EQ(result.report.makespan, direct.makespan);
  ASSERT_EQ(result.results.count(plan.sink), 1u);
  EXPECT_TRUE(relational::SameRowMultiset(result.results.at(plan.sink),
                                          direct.sink_results.at(plan.sink)));
  // The virtual device clock advanced by exactly this query's makespan.
  EXPECT_DOUBLE_EQ(scheduler.sim_clock(), direct.makespan);
  EXPECT_DOUBLE_EQ(result.sim_latency(), direct.makespan);
  EXPECT_EQ(registry.GetCounter("server.completed").value(), 1u);
  EXPECT_EQ(registry.GetCounter("server.batches").value(), 1u);
}

TEST(QueryScheduler, BatchesCompatibleQueriesAndSharesScans) {
  // Four select-chain queries over the SAME source relation, merge-enabled:
  // with a paused single-worker scheduler they land in one merged execution
  // whose simulated makespan beats running them back to back (the input
  // crosses PCIe once, not four times).
  const std::vector<double> selectivities = {0.5, 0.5};
  const core::SelectChain chain = core::MakeSelectChain(50'000, selectivities);
  const Table input = core::MakeUniformInt32Table(50'000);

  sim::DeviceSimulator device;
  core::QueryExecutor executor(device);
  ExecutorOptions options;
  options.strategy = Strategy::kFusedFission;
  const core::ExecutionReport solo_report =
      executor.Execute(chain.graph, {{chain.source, input}}, options);
  const double solo = solo_report.makespan;
  const std::size_t expected_rows =
      solo_report.sink_results.begin()->second.row_count();

  obs::MetricsRegistry registry;
  SchedulerOptions sched_options;
  sched_options.worker_count = 1;
  sched_options.start_paused = true;
  sched_options.metrics = &registry;
  QueryScheduler scheduler(device, sched_options);

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(scheduler.Submit(ChainRequest(chain, input, "chains")));
  }
  scheduler.Start();

  for (auto& future : futures) {
    QueryResult result = future.get();
    EXPECT_TRUE(result.merged);
    EXPECT_EQ(result.batch_size, 4u);
    ASSERT_EQ(result.results.size(), 1u);
    EXPECT_EQ(result.results.begin()->second.row_count(), expected_rows);
  }
  // One merged run of 4 chains must beat 4 solo runs on simulated time.
  EXPECT_LT(scheduler.sim_clock(), 4 * solo);
  EXPECT_EQ(registry.GetCounter("server.batches").value(), 1u);
  EXPECT_EQ(registry.GetCounter("server.merged_queries").value(), 4u);
}

// Submitting, merging and routing share the caller's rows: a merged batch of
// queries bound to one table executes over the caller's storage, and a
// bare-source query's result is that storage.
TEST(QueryScheduler, MergedBatchesAndBareSourcesShareTheCallersRows) {
  const std::vector<double> selectivities = {0.5};
  const core::SelectChain chain = core::MakeSelectChain(10'000, selectivities);
  const Table input = core::MakeUniformInt32Table(10'000);
  const std::int32_t* rows = input.column(0).AsInt32().data();
  QueryRequest bare;
  bare.sources.emplace(bare.graph.AddSource("input", input.schema(), input.row_count()),
                       input);
  bare.options.strategy = Strategy::kFusedFission;

  sim::DeviceSimulator device;
  SchedulerOptions sched_options;
  sched_options.worker_count = 1;
  sched_options.max_batch = 2;
  sched_options.start_paused = true;
  QueryScheduler scheduler(device, sched_options);
  std::vector<std::future<QueryResult>> futures;
  // Two bare sources merge into one source node, which stays a sink: its
  // result comes back from the merged execution's sources.
  bare.merge_class = "bare";
  futures.push_back(scheduler.Submit(bare));
  futures.push_back(scheduler.Submit(bare));
  // Beside a chain that reads it, the bare source is routed from the request.
  bare.merge_class = "mixed";
  futures.push_back(scheduler.Submit(ChainRequest(chain, input, "mixed")));
  futures.push_back(scheduler.Submit(bare));
  scheduler.Start();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const QueryResult result = futures[i].get();
    EXPECT_TRUE(result.merged);
    EXPECT_EQ(result.batch_size, 2u);
    ASSERT_EQ(result.results.size(), 1u);
    const Table& table = result.results.begin()->second;
    if (i == 2) {
      const auto& values = input.column(0).AsInt32();
      EXPECT_EQ(table.row_count(),
                static_cast<std::size_t>(std::count_if(
                    values.begin(), values.end(),
                    [&](std::int32_t v) { return v < chain.thresholds.front(); })));
    } else {
      EXPECT_EQ(table.column(0).AsInt32().data(), rows);
    }
  }
}

TEST(QueryScheduler, EmptyMergeClassNeverMerges) {
  const std::vector<double> selectivities = {0.5};
  const core::SelectChain chain = core::MakeSelectChain(10'000, selectivities);
  const Table input = core::MakeUniformInt32Table(10'000);

  sim::DeviceSimulator device;
  SchedulerOptions sched_options;
  sched_options.worker_count = 1;
  sched_options.start_paused = true;
  obs::MetricsRegistry registry;
  sched_options.metrics = &registry;
  QueryScheduler scheduler(device, sched_options);

  auto f1 = scheduler.Submit(ChainRequest(chain, input, ""));
  auto f2 = scheduler.Submit(ChainRequest(chain, input, ""));
  scheduler.Start();
  EXPECT_FALSE(f1.get().merged);
  EXPECT_FALSE(f2.get().merged);
  EXPECT_EQ(registry.GetCounter("server.batches").value(), 2u);
}

// Every field the scheduler's merge key renders splits a batch: two requests
// of one merge class that differ in that field alone run as two executions,
// and two identical requests still merge.
TEST(QueryScheduler, DifferentOptionsDoNotMerge) {
  const std::vector<double> selectivities = {0.5};
  const core::SelectChain chain = core::MakeSelectChain(1'000, selectivities);
  const Table input = core::MakeUniformInt32Table(1'000);
  const sim::FaultInjector injector(sim::FaultConfig{});
  core::CostModelCalibrator calibrator;

  // Submits the base request (fused+fission, merge class "chains") and a copy
  // changed by `edit`; returns whether each ran merged.
  using Edit = std::function<void(ExecutorOptions&)>;
  const auto merged = [&](Strategy strategy, const Edit& edit) {
    sim::DeviceSimulator device;
    SchedulerOptions sched_options;
    sched_options.worker_count = 1;
    sched_options.start_paused = true;
    QueryScheduler scheduler(device, sched_options);
    QueryRequest base = ChainRequest(chain, input, "chains");
    base.options.strategy = strategy;
    QueryRequest changed = base;
    edit(changed.options);
    auto f1 = scheduler.Submit(std::move(base));
    auto f2 = scheduler.Submit(std::move(changed));
    scheduler.Start();
    return std::make_pair(f1.get().merged, f2.get().merged);
  };

  struct Field {
    const char* name;
    Strategy strategy;
    Edit edit;
  };
  const Strategy kFF = Strategy::kFusedFission;
  const std::vector<Field> fields = {
      {"strategy", kFF, [](ExecutorOptions& o) { o.strategy = Strategy::kSerial; }},
      // kFF plans fused either way, so this pair differs in the policy alone.
      {"intermediates", kFF,
       [](ExecutorOptions& o) { o.intermediates = core::IntermediatePolicy::kRoundTrip; }},
      // Under kSerial the planner's `enabled` flag follows the intermediate
      // policy, so this pair differs in both terms of the key.
      {"intermediates + fusion.enabled", Strategy::kSerial,
       [](ExecutorOptions& o) { o.intermediates = core::IntermediatePolicy::kRoundTrip; }},
      {"host_memory", kFF,
       [](ExecutorOptions& o) { o.host_memory = sim::HostMemoryKind::kPageable; }},
      {"fission_segments", kFF, [](ExecutorOptions& o) { o.fission_segments = 6; }},
      {"stream_count", kFF, [](ExecutorOptions& o) { o.stream_count = 4; }},
      {"chunk_count", kFF, [](ExecutorOptions& o) { o.chunk_count = 32; }},
      {"device_memory_budget", kFF,
       [](ExecutorOptions& o) { o.device_memory_budget = 0.3; }},
      {"fault_injector", kFF, [&](ExecutorOptions& o) { o.fault_injector = &injector; }},
      {"force_host", kFF, [](ExecutorOptions& o) { o.force_host = true; }},
      {"resilience.max_retries", kFF,
       [](ExecutorOptions& o) { o.resilience.max_retries = 5; }},
      {"resilience.degrade_to_host", kFF,
       [](ExecutorOptions& o) { o.resilience.degrade_to_host = false; }},
      {"resilience.deadline", kFF, [](ExecutorOptions& o) { o.resilience.deadline = 1e6; }},
      {"calibration", kFF, [&](ExecutorOptions& o) { o.calibration = &calibrator; }},
      {"integrity.verify_transfers", kFF,
       [](ExecutorOptions& o) { o.integrity.verify_transfers = true; }},
      {"integrity.audit_fraction", kFF,
       [](ExecutorOptions& o) { o.integrity.audit_fraction = 0.5; }},
      {"integrity.audit_seed", kFF, [](ExecutorOptions& o) { o.integrity.audit_seed = 7; }},
      {"integrity.max_reexecutions", kFF,
       [](ExecutorOptions& o) { o.integrity.max_reexecutions = 5; }},
      {"fusion.register_budget", kFF,
       [](ExecutorOptions& o) { o.fusion.register_budget = 32; }},
  };
  for (const Field& field : fields) {
    const auto [first, second] = merged(field.strategy, field.edit);
    EXPECT_FALSE(first) << field.name;
    EXPECT_FALSE(second) << field.name;
  }

  const auto same = merged(kFF, [](ExecutorOptions&) {});
  EXPECT_TRUE(same.first);
  EXPECT_TRUE(same.second);
  // The strategy and intermediate policy decide the planner's `enabled` flag
  // (EffectiveFusionOptions), so a request's own `fusion.enabled` plans alike
  // either way and does not split a batch.
  const auto normalized =
      merged(kFF, [](ExecutorOptions& o) { o.fusion.enabled = !o.fusion.enabled; });
  EXPECT_TRUE(normalized.first);
  EXPECT_TRUE(normalized.second);
}

TEST(QueryScheduler, TrySubmitRejectsWhenQueueFull) {
  const std::vector<double> selectivities = {0.5};
  const core::SelectChain chain = core::MakeSelectChain(1'000, selectivities);
  const Table input = core::MakeUniformInt32Table(1'000);

  sim::DeviceSimulator device;
  SchedulerOptions sched_options;
  sched_options.worker_count = 1;
  sched_options.start_paused = true;  // nothing drains until Start()
  sched_options.max_queue_depth = 2;
  obs::MetricsRegistry registry;
  sched_options.metrics = &registry;
  QueryScheduler scheduler(device, sched_options);

  auto f1 = scheduler.TrySubmit(ChainRequest(chain, input, ""));
  auto f2 = scheduler.TrySubmit(ChainRequest(chain, input, ""));
  auto f3 = scheduler.TrySubmit(ChainRequest(chain, input, ""));
  ASSERT_TRUE(f1.has_value());
  ASSERT_TRUE(f2.has_value());
  EXPECT_FALSE(f3.has_value());
  EXPECT_EQ(registry.GetCounter("server.rejected").value(), 1u);
  EXPECT_EQ(scheduler.queue_depth(), 2u);

  scheduler.Start();
  EXPECT_EQ(f1->get().results.size(), 1u);
  EXPECT_EQ(f2->get().results.size(), 1u);
}

TEST(QueryScheduler, ShutdownDrainsQueuedQueries) {
  const std::vector<double> selectivities = {0.5};
  const core::SelectChain chain = core::MakeSelectChain(1'000, selectivities);
  const Table input = core::MakeUniformInt32Table(1'000);

  sim::DeviceSimulator device;
  SchedulerOptions sched_options;
  sched_options.worker_count = 1;
  sched_options.start_paused = true;
  QueryScheduler scheduler(device, sched_options);

  auto f1 = scheduler.Submit(ChainRequest(chain, input, ""));
  auto f2 = scheduler.Submit(ChainRequest(chain, input, ""));
  scheduler.Shutdown();  // never Start()ed — Shutdown still drains the queue
  EXPECT_EQ(f1.get().results.size(), 1u);
  EXPECT_EQ(f2.get().results.size(), 1u);
  EXPECT_THROW(scheduler.Submit(ChainRequest(chain, input, "")), kf::Error);
}

TEST(QueryScheduler, FailedQueryPropagatesThroughFuture) {
  // A graph submitted without its source bound: Execute throws, and the
  // exception must surface through the future, not kill the worker.
  const std::vector<double> selectivities = {0.5};
  const core::SelectChain chain = core::MakeSelectChain(1'000, selectivities);
  const Table input = core::MakeUniformInt32Table(1'000);

  sim::DeviceSimulator device;
  SchedulerOptions sched_options;
  sched_options.worker_count = 1;
  QueryScheduler scheduler(device, sched_options);

  QueryRequest unbound;
  unbound.graph = chain.graph;  // sources left empty
  auto bad = scheduler.Submit(std::move(unbound));
  EXPECT_THROW(bad.get(), kf::Error);

  // The worker survives and keeps serving.
  auto good = scheduler.Submit(ChainRequest(chain, input, ""));
  EXPECT_EQ(good.get().results.size(), 1u);
}

TEST(QueryScheduler, MergedBatchFallsBackWhenOneQueryIsBroken) {
  // Two merge-class queries, one with its source unbound: the merged run
  // throws, the scheduler retries solo, the good query still succeeds and
  // the bad one reports its own error.
  const std::vector<double> selectivities = {0.5};
  const core::SelectChain chain = core::MakeSelectChain(1'000, selectivities);
  const Table input = core::MakeUniformInt32Table(1'000);

  sim::DeviceSimulator device;
  SchedulerOptions sched_options;
  sched_options.worker_count = 1;
  sched_options.start_paused = true;
  obs::MetricsRegistry registry;
  sched_options.metrics = &registry;
  QueryScheduler scheduler(device, sched_options);

  auto good = scheduler.Submit(ChainRequest(chain, input, "chains"));
  // Same chain plus an extra source that is never bound: the merged run
  // throws when it reaches the unbound source.
  QueryRequest unbound = ChainRequest(chain, input, "chains");
  core::OpGraph broken = chain.graph;
  const core::NodeId missing = broken.AddSource(
      "missing", relational::Schema{{"v", relational::DataType::kInt32}}, 100);
  broken.AddOperator(
      relational::OperatorDesc::Select(
          relational::Expr::Ge(relational::Expr::FieldRef(0),
                               relational::Expr::Lit(0)),
          "consume_missing"),
      missing);
  unbound.graph = std::move(broken);
  auto bad = scheduler.Submit(std::move(unbound));
  scheduler.Start();

  EXPECT_EQ(good.get().results.size(), 1u);
  EXPECT_THROW(bad.get(), kf::Error);
  EXPECT_EQ(registry.GetCounter("server.merge_fallbacks").value(), 1u);
  // Each query's queue wait is recorded once, at first pickup; the solo
  // reruns do not record it again.
  EXPECT_EQ(registry.GetHistogram("server.queue_wait_seconds").count(), 2u);
}

TEST(QueryScheduler, RepeatedTemplateHitsPlanCache) {
  const tpch::TpchData data = SmallData();
  const tpch::QueryPlan plan = BuildQ1Plan(data);

  sim::DeviceSimulator device;
  SchedulerOptions sched_options;
  sched_options.worker_count = 1;
  sched_options.max_batch = 1;  // force one execution per query
  QueryScheduler scheduler(device, sched_options);

  const int kQueries = 10;
  bool first_hit = true;
  for (int i = 0; i < kQueries; ++i) {
    QueryResult result =
        scheduler.Submit(Q1Request(plan, Strategy::kFused)).get();
    if (i == 0) first_hit = result.plan_cache_hit;
    if (i > 0) EXPECT_TRUE(result.plan_cache_hit) << "query " << i;
  }
  EXPECT_FALSE(first_hit);
  EXPECT_EQ(scheduler.plan_cache().hits(), static_cast<std::uint64_t>(kQueries - 1));
  EXPECT_EQ(scheduler.plan_cache().misses(), 1u);
  EXPECT_GT(scheduler.plan_cache().HitRate(), 0.89);
}

TEST(QueryScheduler, AdmissionControlSerializesOversizedBatches) {
  // With a tiny admission allowance every batch exceeds the budget, so
  // batches run strictly one at a time even with many workers — and all of
  // them still complete (an oversized batch runs when nothing else does).
  const std::vector<double> selectivities = {0.5};
  const core::SelectChain chain = core::MakeSelectChain(10'000, selectivities);
  const Table input = core::MakeUniformInt32Table(10'000);

  sim::DeviceSimulator device;
  SchedulerOptions sched_options;
  sched_options.worker_count = 4;
  sched_options.admission_memory_fraction = 1e-9;  // ~6 bytes of allowance
  QueryScheduler scheduler(device, sched_options);

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(scheduler.Submit(ChainRequest(chain, input, "")));
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().results.size(), 1u);
  }
}

TEST(QueryScheduler, DrainWaitsForAllOutstandingWork) {
  const std::vector<double> selectivities = {0.5};
  const core::SelectChain chain = core::MakeSelectChain(5'000, selectivities);
  const Table input = core::MakeUniformInt32Table(5'000);

  sim::DeviceSimulator device;
  SchedulerOptions sched_options;
  sched_options.worker_count = 2;
  QueryScheduler scheduler(device, sched_options);

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(scheduler.Submit(ChainRequest(chain, input, "")));
  }
  scheduler.Drain();
  EXPECT_EQ(scheduler.queue_depth(), 0u);
  for (auto& future : futures) {
    // Every future is already fulfilled after Drain().
    EXPECT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    future.get();
  }
}

TEST(QueryScheduler, CalibrationEpochBumpInvalidatesCachedPlans) {
  // The staleness regression: a plan cached before the calibration epoch
  // moved must NOT be served afterwards — the bumped epoch versions it out
  // of the key space and the next submission re-plans.
  const tpch::TpchData data = SmallData();
  const tpch::QueryPlan plan = BuildQ1Plan(data);

  sim::DeviceSimulator device;
  core::CalibrationOptions calib_options;
  calib_options.frozen = true;  // deterministic epochs: only manual bumps
  core::CostModelCalibrator calib(device.spec(), sim::PcieConfig{},
                                  calib_options);

  obs::MetricsRegistry registry;
  SchedulerOptions sched_options;
  sched_options.worker_count = 1;
  sched_options.metrics = &registry;
  sched_options.calibration = &calib;
  QueryScheduler scheduler(device, sched_options);

  EXPECT_FALSE(
      scheduler.Submit(Q1Request(plan, Strategy::kFused)).get().plan_cache_hit);
  EXPECT_TRUE(
      scheduler.Submit(Q1Request(plan, Strategy::kFused)).get().plan_cache_hit);

  calib.AdvanceEpoch();  // the cost model drifted: the cached plan is stale
  EXPECT_FALSE(
      scheduler.Submit(Q1Request(plan, Strategy::kFused)).get().plan_cache_hit)
      << "pre-drift plan was served after the calibration epoch bumped";
  EXPECT_TRUE(
      scheduler.Submit(Q1Request(plan, Strategy::kFused)).get().plan_cache_hit)
      << "re-planned entry under the new epoch must be reusable";
}

TEST(QueryScheduler, SharedCalibratorAcrossWorkersLearnsAndStaysCorrect) {
  // Several workers execute concurrently against ONE calibrator (the
  // production shape: scheduler-level calibration). Results must match the
  // uncalibrated reference and the calibrator must have actually learned.
  const tpch::TpchData data = SmallData();
  const tpch::QueryPlan plan = BuildQ1Plan(data);

  sim::DeviceSimulator device;
  core::QueryExecutor executor(device);
  ExecutorOptions direct_options;
  direct_options.strategy = Strategy::kFusedFission;
  const core::ExecutionReport direct =
      executor.Execute(plan.graph, plan.sources, direct_options);

  // Believed PCIe 2x optimistic: there is a real correction to learn.
  sim::PcieConfig believed;
  believed.pinned_h2d_gbs *= 2.0;
  believed.pinned_d2h_gbs *= 2.0;
  core::CostModelCalibrator calib(device.spec(), believed);

  obs::MetricsRegistry registry;
  SchedulerOptions sched_options;
  sched_options.worker_count = 3;
  sched_options.metrics = &registry;
  sched_options.calibration = &calib;
  QueryScheduler scheduler(device, sched_options);

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(
        scheduler.Submit(Q1Request(plan, Strategy::kFusedFission)));
  }
  for (auto& future : futures) {
    QueryResult result = future.get();
    ASSERT_EQ(result.results.count(plan.sink), 1u);
    EXPECT_TRUE(relational::SameRowMultiset(result.results.at(plan.sink),
                                            direct.sink_results.at(plan.sink)));
  }
  EXPECT_GT(calib.observations(), 0u);
  EXPECT_GT(calib.CopyCorrection(sim::CopyDirection::kHostToDevice), 1.2)
      << "2x-optimistic H2D belief should learn a >1 correction";
}

}  // namespace
}  // namespace kf::server
