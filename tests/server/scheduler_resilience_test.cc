// Scheduler-level fault handling: typed failures through futures, whole-query
// retry after device faults, the circuit breaker (open -> host routing ->
// probe -> close), and cancel-on-shutdown semantics. Also exercised under
// TSan via the server_test target.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/error.h"
#include "core/select_chain.h"
#include "relational/csv.h"
#include "server/query_scheduler.h"
#include "sim/fault_injector.h"

namespace kf::server {
namespace {

using core::NodeId;
using core::Strategy;
using relational::Table;

QueryRequest ChainRequest(const core::SelectChain& chain, const Table& input,
                          obs::MetricsRegistry* metrics = nullptr) {
  QueryRequest request;
  request.graph = chain.graph;
  request.sources.emplace(chain.source, input);
  request.options.strategy = Strategy::kFusedFission;
  request.options.chunk_count = 16;
  request.options.fission_segments = 6;
  request.options.metrics = metrics;
  return request;
}

std::string ResultsCsv(const QueryResult& result) {
  std::string out;
  for (const auto& [sink, table] : result.results) {
    out += relational::ToCsv(table);
  }
  return out;
}

TEST(SchedulerResilience, BreakerOpensRoutesHostAndStaysCorrect) {
  const core::SelectChain chain =
      core::MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
  const Table input = core::MakeUniformInt32Table(20000);

  sim::DeviceSimulator device;
  obs::MetricsRegistry registry;

  // Fault-free reference for byte-identity checks.
  core::QueryExecutor executor(device);
  core::ExecutorOptions ref_options;
  ref_options.strategy = Strategy::kFusedFission;
  ref_options.chunk_count = 16;
  ref_options.fission_segments = 6;
  ref_options.metrics = &registry;
  const std::string reference = [&] {
    const core::ExecutionReport report =
        executor.Execute(chain.graph, {{chain.source, input}}, ref_options);
    std::string out;
    for (const auto& [sink, table] : report.sink_results) {
      out += relational::ToCsv(table);
    }
    return out;
  }();

  // Every kernel fails: each device batch degrades, feeding the breaker.
  sim::FaultConfig config;
  config.seed = 1;
  config.kernel_fault_rate = 1.0;
  sim::FaultInjector injector(config);

  SchedulerOptions options;
  options.worker_count = 1;
  options.metrics = &registry;
  options.fault_injector = &injector;
  options.breaker_threshold = 2;
  options.breaker_probe_interval = 3;
  QueryScheduler scheduler(device, options);

  // Two degraded device runs open the breaker.
  for (int i = 0; i < 2; ++i) {
    QueryResult result =
        scheduler.Submit(ChainRequest(chain, input, &registry)).get();
    EXPECT_TRUE(result.degraded);
    EXPECT_FALSE(result.ran_on_host);
    EXPECT_EQ(ResultsCsv(result), reference);
  }
  EXPECT_TRUE(scheduler.breaker_open());
  EXPECT_EQ(registry.GetCounter("resilience.breaker_opened").value(), 1u);

  // While open, batches run host-side (except the periodic probe).
  QueryResult rerouted =
      scheduler.Submit(ChainRequest(chain, input, &registry)).get();
  EXPECT_TRUE(rerouted.ran_on_host);
  EXPECT_FALSE(rerouted.degraded);
  EXPECT_EQ(ResultsCsv(rerouted), reference);
  EXPECT_GE(registry.GetCounter("resilience.breaker_rerouted").value(), 1u);

  // The probe (3rd batch while open) hits the still-broken device and the
  // breaker stays open.
  QueryResult second = scheduler.Submit(ChainRequest(chain, input, &registry)).get();
  QueryResult probe = scheduler.Submit(ChainRequest(chain, input, &registry)).get();
  EXPECT_TRUE(second.ran_on_host);
  EXPECT_TRUE(probe.degraded);  // the probe ran on the device and degraded
  EXPECT_EQ(ResultsCsv(probe), reference);
  EXPECT_TRUE(scheduler.breaker_open());
  EXPECT_GE(registry.GetCounter("resilience.breaker_probes").value(), 1u);
}

TEST(SchedulerResilience, BreakerClosesAfterSuccessfulProbe) {
  const core::SelectChain chain =
      core::MakeSelectChain(20000, std::vector<double>{0.5});
  const Table input = core::MakeUniformInt32Table(20000);

  sim::DeviceSimulator device;
  obs::MetricsRegistry registry;
  sim::FaultConfig config;
  config.seed = 1;
  config.kernel_fault_rate = 1.0;
  sim::FaultInjector faulty(config);

  SchedulerOptions options;
  options.worker_count = 1;
  options.metrics = &registry;
  options.breaker_threshold = 2;
  options.breaker_probe_interval = 2;
  QueryScheduler scheduler(device, options);

  // The device "fails" only for requests that carry the faulty injector.
  for (int i = 0; i < 2; ++i) {
    QueryRequest request = ChainRequest(chain, input, &registry);
    request.options.fault_injector = &faulty;
    QueryResult result = scheduler.Submit(std::move(request)).get();
    EXPECT_TRUE(result.degraded);
  }
  EXPECT_TRUE(scheduler.breaker_open());

  // Device is healthy again (no injector on these requests): the first batch
  // is rerouted, the second is the probe — it succeeds and closes the breaker.
  QueryResult rerouted = scheduler.Submit(ChainRequest(chain, input, &registry)).get();
  EXPECT_TRUE(rerouted.ran_on_host);
  QueryResult probe = scheduler.Submit(ChainRequest(chain, input, &registry)).get();
  EXPECT_FALSE(probe.ran_on_host);
  EXPECT_FALSE(probe.degraded);
  EXPECT_FALSE(scheduler.breaker_open());
  EXPECT_EQ(registry.GetCounter("resilience.breaker_closed").value(), 1u);

  // Back to normal device execution.
  QueryResult after = scheduler.Submit(ChainRequest(chain, input, &registry)).get();
  EXPECT_FALSE(after.ran_on_host);
}

TEST(SchedulerResilience, ExhaustedQueryRetriesFailTyped) {
  const core::SelectChain chain =
      core::MakeSelectChain(20000, std::vector<double>{0.5});
  const Table input = core::MakeUniformInt32Table(20000);

  sim::DeviceSimulator device;
  obs::MetricsRegistry registry;
  sim::FaultConfig config;
  config.seed = 1;
  config.oom_rate = 1.0;  // every device reservation fails
  sim::FaultInjector injector(config);

  SchedulerOptions options;
  options.worker_count = 1;
  options.metrics = &registry;
  options.fault_injector = &injector;
  options.query_retry_limit = 2;
  QueryScheduler scheduler(device, options);

  std::future<QueryResult> future =
      scheduler.Submit(ChainRequest(chain, input, &registry));
  try {
    (void)future.get();
    FAIL() << "expected kf::DeviceFault through the future";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeviceFault);
  }
  EXPECT_EQ(registry.GetCounter("resilience.query_retries").value(), 2u);
  EXPECT_EQ(
      registry.GetCounter("server.failed", {{"code", "device_fault"}}).value(),
      1u);
}

TEST(SchedulerResilience, QueryRetryRecoversFromTransientReservationFault) {
  const core::SelectChain chain =
      core::MakeSelectChain(20000, std::vector<double>{0.5});
  const Table input = core::MakeUniformInt32Table(20000);

  sim::DeviceSimulator device;
  obs::MetricsRegistry registry;
  sim::FaultConfig config;
  config.seed = 9;
  config.oom_rate = 0.2;  // transient: some reservation sequence succeeds
  sim::FaultInjector injector(config);

  SchedulerOptions options;
  options.worker_count = 1;
  options.metrics = &registry;
  options.fault_injector = &injector;
  options.query_retry_limit = 10;
  QueryScheduler scheduler(device, options);

  QueryResult result = scheduler.Submit(ChainRequest(chain, input, &registry)).get();
  EXPECT_FALSE(result.results.empty());
  // Either the first attempt was clean or retries kicked in; both are fine —
  // what matters is the query completed and any retries were counted.
  EXPECT_EQ(registry.GetCounter("resilience.query_retries").value(),
            result.device_retries);
}

TEST(SchedulerResilience, ShutdownCancelsPendingQueriesTyped) {
  const core::SelectChain chain =
      core::MakeSelectChain(5000, std::vector<double>{0.5});
  const Table input = core::MakeUniformInt32Table(5000);

  sim::DeviceSimulator device;
  obs::MetricsRegistry registry;
  SchedulerOptions options;
  options.worker_count = 1;
  options.start_paused = true;  // nothing executes before Shutdown
  options.cancel_pending_on_shutdown = true;
  options.max_queue_depth = 16;
  options.metrics = &registry;
  QueryScheduler scheduler(device, options);

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(scheduler.Submit(ChainRequest(chain, input, &registry)));
  }
  scheduler.Shutdown();

  for (auto& future : futures) {
    try {
      (void)future.get();
      FAIL() << "expected kf::Cancelled";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCancelled);
    }
  }
  EXPECT_EQ(registry.GetCounter("server.cancelled").value(), 5u);

  // Submitting after shutdown fails typed as well.
  try {
    (void)scheduler.Submit(ChainRequest(chain, input, &registry));
    FAIL() << "expected kf::Cancelled";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
  }
}

TEST(SchedulerResilience, ConcurrentShutdownNeverDropsAFuture) {
  // TSan regression: submitters race Shutdown(); every future must resolve —
  // with a result for executed queries, kf::Cancelled for cancelled ones.
  const core::SelectChain chain =
      core::MakeSelectChain(2000, std::vector<double>{0.5});
  const Table input = core::MakeUniformInt32Table(2000);

  sim::DeviceSimulator device;
  SchedulerOptions options;
  options.worker_count = 2;
  options.cancel_pending_on_shutdown = true;
  options.max_queue_depth = 4;
  QueryScheduler scheduler(device, options);

  std::atomic<int> completed{0};
  std::atomic<int> cancelled{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        try {
          std::future<QueryResult> future =
              scheduler.Submit(ChainRequest(chain, input));
          (void)future.get();
          completed.fetch_add(1);
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), ErrorCode::kCancelled);
          cancelled.fetch_add(1);
        }
      }
    });
  }
  // Let some work land, then pull the plug while submitters are racing.
  while (completed.load() == 0 && cancelled.load() == 0) {
    std::this_thread::yield();
  }
  scheduler.Shutdown();
  for (std::thread& thread : submitters) thread.join();
  EXPECT_EQ(completed.load() + cancelled.load(), 32);
}

}  // namespace
}  // namespace kf::server
