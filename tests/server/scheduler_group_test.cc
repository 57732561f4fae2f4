// QueryScheduler group mode: least-loaded placement across a DeviceGroup,
// sharded serving, per-device circuit breakers (a permanently broken device
// drains to the healthy ones), per-device virtual-clock accounting, and
// runs that record only into the registries their options name.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/random.h"
#include "core/calibration.h"
#include "core/multi_device.h"
#include "core/select_chain.h"
#include "obs/metrics_registry.h"
#include "server/query_scheduler.h"
#include "sim/device_group.h"
#include "sim/fault_injector.h"
#include "tests/core/byte_identical.h"
#include "tests/core/random_graph.h"

namespace kf::server {
namespace {

using core::NodeId;
using relational::Expr;
using relational::OperatorDesc;
using relational::Table;

// A shardable SELECT chain over one source (see MultiDeviceExecutor docs).
core::RandomQuery MakeChainQuery(std::uint64_t seed, std::size_t rows) {
  kf::Rng rng(seed);
  core::RandomQuery q;
  const Table fact = core::RandomKV(rng, rows);
  const NodeId src = q.graph.AddSource("fact", fact.schema(), rows);
  q.sources.emplace(src, fact);
  NodeId node = q.graph.AddOperator(
      OperatorDesc::Select(Expr::Le(Expr::FieldRef(1), Expr::Lit(30))), src);
  q.graph.AddOperator(
      OperatorDesc::Select(Expr::Ge(Expr::FieldRef(1), Expr::Lit(-30))), node);
  return q;
}

QueryRequest MakeRequest(const core::RandomQuery& q, bool allow_sharding = false) {
  QueryRequest request;
  request.graph = q.graph;
  request.sources = q.sources;
  request.allow_sharding = allow_sharding;
  return request;
}

TEST(SchedulerGroupTest, LeastLoadedPlacementSpreadsAcrossDevices) {
  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(2);
  obs::MetricsRegistry registry;
  SchedulerOptions options;
  options.worker_count = 1;  // deterministic batch order
  options.start_paused = true;
  options.metrics = &registry;
  QueryScheduler scheduler(group, options);

  std::vector<std::future<QueryResult>> futures;
  std::vector<core::RandomQuery> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(MakeChainQuery(100 + static_cast<std::uint64_t>(i), 400));
    futures.push_back(scheduler.Submit(MakeRequest(queries.back())));
  }
  scheduler.Start();

  std::vector<int> devices;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    QueryResult result = futures[i].get();
    EXPECT_FALSE(result.sharded);
    EXPECT_EQ(result.devices_used, 1);
    EXPECT_GE(result.sim_latency(), 0.0);
    devices.push_back(result.device);
    const std::map<NodeId, Table> truth = core::ReferenceResults(queries[i]);
    for (NodeId sink : queries[i].graph.Sinks()) {
      EXPECT_TRUE(core::ByteIdentical(result.results.at(sink), truth.at(sink)));
    }
  }
  // Equal-cost queries on an idle group alternate between the two devices.
  EXPECT_EQ(std::count(devices.begin(), devices.end(), 0), 2);
  EXPECT_EQ(std::count(devices.begin(), devices.end(), 1), 2);
  EXPECT_GE(registry.GetCounter("server.device.batches", {{"device", "dev0"}})
                .value(),
            1u);
  EXPECT_GE(registry.GetCounter("server.device.batches", {{"device", "dev1"}})
                .value(),
            1u);
}

TEST(SchedulerGroupTest, ShardingOptInServesAcrossTheGroup) {
  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(4);
  obs::MetricsRegistry registry;
  SchedulerOptions options;
  options.worker_count = 1;
  options.start_paused = true;
  options.metrics = &registry;
  QueryScheduler scheduler(group, options);

  const core::RandomQuery q = MakeChainQuery(7, 1200);
  auto sharded_future = scheduler.Submit(MakeRequest(q, /*allow_sharding=*/true));
  auto whole_future = scheduler.Submit(MakeRequest(q, /*allow_sharding=*/false));
  scheduler.Start();

  const std::map<NodeId, Table> truth = core::ReferenceResults(q);
  QueryResult sharded = sharded_future.get();
  EXPECT_TRUE(sharded.sharded);
  EXPECT_EQ(sharded.devices_used, 4);
  QueryResult whole = whole_future.get();
  EXPECT_FALSE(whole.sharded);
  EXPECT_EQ(whole.devices_used, 1);
  for (NodeId sink : q.graph.Sinks()) {
    EXPECT_TRUE(core::ByteIdentical(sharded.results.at(sink), truth.at(sink)));
    EXPECT_TRUE(core::ByteIdentical(whole.results.at(sink), truth.at(sink)));
  }
  EXPECT_GE(registry.GetCounter("server.device.sharded_batches").value(), 1u);
  EXPECT_GT(scheduler.sim_clock(), 0.0);
}

TEST(SchedulerGroupTest, BrokenDeviceDrainsToHealthySiblings) {
  // Device 0 faults on nearly every command; its first degraded batch trips
  // the breaker (threshold 1), and with probing disabled it stays open, so
  // the remaining work drains to device 1. (A degraded batch also inflates
  // dev0's virtual clock — host rerun time — so least-loaded placement
  // naturally avoids it even before the breaker reacts.) Every query still
  // completes byte-identically.
  sim::FaultConfig config;
  config.seed = 99;
  config.copy_fault_rate = 0.95;
  config.kernel_fault_rate = 0.95;
  const sim::FaultInjector faulty(config);

  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(2);
  obs::MetricsRegistry registry;
  SchedulerOptions options;
  options.worker_count = 1;
  options.start_paused = true;
  options.metrics = &registry;
  options.device_injectors = {&faulty, nullptr};
  options.breaker_threshold = 1;
  options.breaker_probe_interval = 0;  // never probe: dev0 stays quarantined
  QueryScheduler scheduler(group, options);

  std::vector<std::future<QueryResult>> futures;
  std::vector<core::RandomQuery> queries;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(MakeChainQuery(500 + static_cast<std::uint64_t>(i), 300));
    futures.push_back(scheduler.Submit(MakeRequest(queries[i])));
  }
  scheduler.Start();

  int on_broken = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    QueryResult result = futures[i].get();
    if (result.device == 0) ++on_broken;
    EXPECT_GE(result.sim_latency(), 0.0);
    const std::map<NodeId, Table> truth = core::ReferenceResults(queries[i]);
    for (NodeId sink : queries[i].graph.Sinks()) {
      EXPECT_TRUE(core::ByteIdentical(result.results.at(sink), truth.at(sink)))
          << "query " << i << " on device " << result.device;
    }
  }
  EXPECT_TRUE(scheduler.breaker_open(0));
  EXPECT_FALSE(scheduler.breaker_open(1));
  // The breaker needed one strike, then dev0 got no more work.
  EXPECT_LE(on_broken, 2);
  EXPECT_GE(registry
                .GetCounter("server.device.breaker_opened", {{"device", "dev0"}})
                .value(),
            1u);
}

TEST(SchedulerGroupTest, AllBreakersOpenRoutesHostSide) {
  sim::FaultConfig config;
  config.seed = 5;
  config.copy_fault_rate = 0.95;
  config.kernel_fault_rate = 0.95;
  const sim::FaultInjector faulty(config);

  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(2);
  obs::MetricsRegistry registry;
  SchedulerOptions options;
  options.worker_count = 1;
  options.start_paused = true;
  options.metrics = &registry;
  options.device_injectors = {&faulty, &faulty};
  options.breaker_threshold = 1;
  options.breaker_probe_interval = 0;
  QueryScheduler scheduler(group, options);

  std::vector<std::future<QueryResult>> futures;
  std::vector<core::RandomQuery> queries;
  for (int i = 0; i < 5; ++i) {
    queries.push_back(MakeChainQuery(900 + static_cast<std::uint64_t>(i), 200));
    futures.push_back(scheduler.Submit(MakeRequest(queries[i])));
  }
  scheduler.Start();

  bool saw_host_run = false;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    QueryResult result = futures[i].get();
    saw_host_run = saw_host_run || result.ran_on_host;
    const std::map<NodeId, Table> truth = core::ReferenceResults(queries[i]);
    for (NodeId sink : queries[i].graph.Sinks()) {
      EXPECT_TRUE(core::ByteIdentical(result.results.at(sink), truth.at(sink)));
    }
  }
  EXPECT_TRUE(scheduler.breaker_open(0));
  EXPECT_TRUE(scheduler.breaker_open(1));
  EXPECT_TRUE(scheduler.breaker_open());
  EXPECT_TRUE(saw_host_run);
}

TEST(SchedulerGroupTest, GroupOfOneServesLikeAStandaloneDevice) {
  // A standalone device is served as a group of one, so one seeded workload
  // under loud faults and 5% silent corruption comes out of both
  // constructors identically: bytes, virtual-clock times, recovery outcomes
  // and breaker counters. A lone device has no sibling to drain to, so it
  // is never quarantined; its corrupt batches heal by re-execution.
  sim::FaultConfig config;
  config.seed = 2024;
  config.copy_fault_rate = 0.05;
  config.kernel_fault_rate = 0.05;
  config.oom_rate = 0.05;
  config.corrupt_h2d_rate = 0.05;
  config.corrupt_d2h_rate = 0.05;
  config.corrupt_kernel_rate = 0.05;

  std::vector<core::RandomQuery> queries;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    queries.push_back(core::MakeRandomQuery(3000 + seed));
  }

  struct Served {
    std::vector<QueryResult> results;
    std::vector<std::string> errors;  // typed error code of a failed query
    std::map<std::string, std::uint64_t> counters;
    bool quarantined = false;
  };
  const std::vector<std::string> breaker_counters = {
      "resilience.breaker_opened", "resilience.breaker_closed",
      "resilience.breaker_probes", "resilience.breaker_rerouted"};

  // Serves the workload through a scheduler from `make` (one paused worker,
  // solo batches, its own injector with the same seed).
  auto serve = [&](const auto& make) {
    obs::MetricsRegistry registry;
    const sim::FaultInjector injector(config);
    SchedulerOptions options;
    options.worker_count = 1;
    options.start_paused = true;
    options.max_batch = 1;
    options.metrics = &registry;
    options.fault_injector = &injector;
    options.integrity.verify_transfers = true;
    options.integrity.audit_fraction = 0.5;
    options.breaker_threshold = 2;
    options.breaker_probe_interval = 2;
    options.quarantine_threshold = 1;  // a device with a sibling would go
                                       // at its first corrupt batch
    std::unique_ptr<QueryScheduler> scheduler = make(options);
    std::vector<std::future<QueryResult>> futures;
    for (const core::RandomQuery& q : queries) {
      futures.push_back(scheduler->Submit(MakeRequest(q)));
    }
    scheduler->Start();
    Served served;
    for (std::future<QueryResult>& future : futures) {
      QueryResult result;
      std::string error;
      try {
        result = future.get();
      } catch (const kf::Error& e) {
        error = kf::ToString(e.code());
      }
      served.results.push_back(std::move(result));
      served.errors.push_back(error);
    }
    for (const std::string& name : breaker_counters) {
      served.counters[name] = registry.GetCounter(name).value();
    }
    served.quarantined = scheduler->quarantined(0);
    return served;
  };

  sim::DeviceSimulator device;
  const Served standalone = serve([&](const SchedulerOptions& options) {
    return std::make_unique<QueryScheduler>(device, options);
  });
  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(1);
  const Served grouped = serve([&](const SchedulerOptions& options) {
    return std::make_unique<QueryScheduler>(group, options);
  });

  std::size_t corrupt_batches = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(standalone.errors[i], grouped.errors[i]) << "query " << i;
    const QueryResult& a = standalone.results[i];
    const QueryResult& b = grouped.results[i];
    ASSERT_EQ(a.results.size(), b.results.size()) << "query " << i;
    for (const auto& [sink, table] : a.results) {
      ASSERT_EQ(b.results.count(sink), 1u) << "query " << i;
      EXPECT_TRUE(core::ByteIdentical(table, b.results.at(sink)))
          << "query " << i << " sink " << sink;
    }
    EXPECT_EQ(a.sim_submit, b.sim_submit) << "query " << i;
    EXPECT_EQ(a.sim_complete, b.sim_complete) << "query " << i;
    EXPECT_EQ(a.degraded, b.degraded) << "query " << i;
    EXPECT_EQ(a.ran_on_host, b.ran_on_host) << "query " << i;
    EXPECT_EQ(a.device_retries, b.device_retries) << "query " << i;
    EXPECT_EQ(a.report.corruption_detected, b.report.corruption_detected)
        << "query " << i;
    if (a.report.corruption_detected > 0) ++corrupt_batches;
  }
  for (const std::string& name : breaker_counters) {
    EXPECT_EQ(standalone.counters.at(name), grouped.counters.at(name)) << name;
  }
  // The workload reaches every path the equivalence covers.
  EXPECT_GT(standalone.counters.at("resilience.breaker_probes"), 0u);
  EXPECT_GT(corrupt_batches, 0u);
  EXPECT_FALSE(standalone.quarantined);
  EXPECT_FALSE(grouped.quarantined);
}

TEST(RunRegistry, PrivateRegistriesLeaveTheProcessRegistryUntouched) {
  // Every series a run causes lands in the registry its options name. Served
  // under injected faults and verification, sharded, calibrated and
  // estimated with private registries, nothing reaches the process default.
  const std::string before = obs::MetricsRegistry::Default().ToJson().Dump();

  sim::FaultConfig config;
  config.copy_fault_rate = 0.05;
  config.kernel_fault_rate = 0.05;
  config.oom_rate = 0.05;
  config.stall_rate = 0.05;
  config.corrupt_h2d_rate = 0.05;
  config.corrupt_d2h_rate = 0.05;
  config.corrupt_kernel_rate = 0.05;
  config.seed = 11;
  const sim::FaultInjector dev0(config);
  config.seed = 12;
  const sim::FaultInjector dev1(config);
  {
    sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(2);
    obs::MetricsRegistry registry;
    SchedulerOptions options;
    options.worker_count = 1;
    options.start_paused = true;
    options.metrics = &registry;
    options.device_injectors = {&dev0, &dev1};
    options.integrity.verify_transfers = true;
    options.integrity.audit_fraction = 0.5;
    QueryScheduler scheduler(group, options);
    std::vector<std::future<QueryResult>> futures;
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
      futures.push_back(scheduler.Submit(
          MakeRequest(MakeChainQuery(500 + seed, 2000), /*allow_sharding=*/true)));
    }
    scheduler.Start();
    std::size_t sharded = 0;
    for (std::future<QueryResult>& future : futures) {
      try {
        sharded += future.get().sharded ? 1 : 0;
      } catch (const kf::Error&) {
        // A query out of whole-query retries fails typed; still recorded.
      }
    }
    EXPECT_GT(sharded, 0u);
    EXPECT_GT(registry.GetCounter("server.completed").value(), 0u);
  }

  {
    sim::DeviceSimulator device;
    core::QueryExecutor executor(device);
    core::CostModelCalibrator calibrator;
    obs::MetricsRegistry registry;
    core::ExecutorOptions options;
    options.strategy = core::Strategy::kFusedFission;
    options.calibration = &calibrator;
    options.metrics = &registry;
    const core::RandomQuery q = MakeChainQuery(9, 2000);
    for (int run = 0; run < 2; ++run) (void)executor.Execute(q.graph, q.sources, options);
    EXPECT_GT(calibrator.observations(), 0u);
  }

  {
    const core::SelectChain chain =
        core::MakeSelectChain(4'000'000, std::vector<double>{0.5, 0.5});
    const sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(2);
    core::MultiDeviceExecutor executor(group);
    obs::MetricsRegistry registry;
    core::MultiDeviceOptions options;
    options.base.strategy = core::Strategy::kFusedFission;
    options.base.metrics = &registry;
    EXPECT_TRUE(executor.EstimateOnly(chain.graph, chain.expected_rows, options).sharded);
  }

  EXPECT_EQ(obs::MetricsRegistry::Default().ToJson().Dump(), before);
}

}  // namespace
}  // namespace kf::server
