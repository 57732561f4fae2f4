// Fault injection through the executor: transient faults are retried at
// fission-segment granularity, persistent faults degrade to the host engine,
// deadlines become typed timeouts — and results stay byte-identical to the
// fault-free run in every recovered case.
#include <gtest/gtest.h>

#include "core/query_executor.h"
#include "core/select_chain.h"
#include "relational/csv.h"
#include "sim/fault_injector.h"

namespace kf::core {
namespace {

using relational::Table;

class ExecutorResilienceTest : public ::testing::Test {
 protected:
  sim::DeviceSimulator device_;
  QueryExecutor executor_{device_};
  obs::MetricsRegistry registry_;

  ExecutorOptions Options(Strategy strategy = Strategy::kFusedFission) {
    ExecutorOptions options;
    options.strategy = strategy;
    options.chunk_count = 16;
    options.fission_segments = 6;
    options.metrics = &registry_;
    return options;
  }

  static std::string SinkCsv(const ExecutionReport& report) {
    std::string out;
    for (const auto& [sink, table] : report.sink_results) {
      out += relational::ToCsv(table);
    }
    return out;
  }
};

TEST_F(ExecutorResilienceTest, ZeroRateInjectorChangesNothing) {
  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
  const std::map<NodeId, Table> sources{{chain.source,
                                         MakeUniformInt32Table(20000)}};
  const ExecutionReport clean =
      executor_.Execute(chain.graph, sources, Options());

  sim::FaultInjector injector(sim::FaultConfig{});
  ExecutorOptions options = Options();
  options.fault_injector = &injector;
  const ExecutionReport injected =
      executor_.Execute(chain.graph, sources, options);

  EXPECT_EQ(injected.fault_count, 0u);
  EXPECT_EQ(injected.retried_units, 0u);
  EXPECT_FALSE(injected.degraded);
  EXPECT_DOUBLE_EQ(injected.makespan, clean.makespan);
  EXPECT_EQ(SinkCsv(injected), SinkCsv(clean));
}

TEST_F(ExecutorResilienceTest, TransientFaultsRetrySegmentsAndPreserveResults) {
  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
  const std::map<NodeId, Table> sources{{chain.source,
                                         MakeUniformInt32Table(20000)}};
  const ExecutionReport clean =
      executor_.Execute(chain.graph, sources, Options());

  sim::FaultConfig config;
  config.seed = 7;
  config.copy_fault_rate = 0.3;
  config.kernel_fault_rate = 0.3;
  sim::FaultInjector injector(config);
  ExecutorOptions options = Options();
  options.fault_injector = &injector;
  const ExecutionReport report =
      executor_.Execute(chain.graph, sources, options);

  EXPECT_GT(report.fault_count, 0u);
  EXPECT_GT(report.retried_units, 0u);
  EXPECT_GE(report.retry_attempts, report.retried_units);
  EXPECT_GT(report.backoff_time, 0.0);
  // Recovery costs simulated time but never correctness.
  EXPECT_GT(report.makespan, clean.makespan);
  EXPECT_EQ(SinkCsv(report), SinkCsv(clean));
  // No reservation leaks across the fault paths.
  EXPECT_EQ(report.leaked_device_bytes, 0u);
}

TEST_F(ExecutorResilienceTest, RetriesAreDeterministicPerSeed) {
  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
  const std::map<NodeId, Table> sources{{chain.source,
                                         MakeUniformInt32Table(20000)}};
  sim::FaultConfig config;
  config.seed = 11;
  config.kernel_fault_rate = 0.25;

  auto run_once = [&] {
    sim::FaultInjector injector(config);  // fresh epoch counter
    ExecutorOptions options = Options();
    options.fault_injector = &injector;
    return executor_.Execute(chain.graph, sources, options);
  };
  const ExecutionReport a = run_once();
  const ExecutionReport b = run_once();
  EXPECT_EQ(a.fault_count, b.fault_count);
  EXPECT_EQ(a.retry_attempts, b.retry_attempts);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST_F(ExecutorResilienceTest, PersistentFaultsDegradeToHost) {
  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
  const std::map<NodeId, Table> sources{{chain.source,
                                         MakeUniformInt32Table(20000)}};
  const ExecutionReport clean =
      executor_.Execute(chain.graph, sources, Options());

  sim::FaultConfig config;
  config.seed = 1;
  config.kernel_fault_rate = 1.0;  // every kernel fails, retries included
  sim::FaultInjector injector(config);
  ExecutorOptions options = Options();
  options.fault_injector = &injector;
  options.resilience.max_retries = 2;
  const ExecutionReport report =
      executor_.Execute(chain.graph, sources, options);

  EXPECT_TRUE(report.degraded);
  EXPECT_GT(report.degraded_clusters, 0u);
  EXPECT_EQ(SinkCsv(report), SinkCsv(clean));
  EXPECT_EQ(report.leaked_device_bytes, 0u);
  EXPECT_GE(registry_.GetCounter("resilience.degraded_clusters",
                                 {{"strategy", "fusion+fission"}})
                .value(),
            report.degraded_clusters);
}

TEST_F(ExecutorResilienceTest, DegradeDisabledThrowsTypedDeviceFault) {
  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5});
  const std::map<NodeId, Table> sources{{chain.source,
                                         MakeUniformInt32Table(20000)}};
  sim::FaultConfig config;
  config.seed = 1;
  config.kernel_fault_rate = 1.0;
  sim::FaultInjector injector(config);
  ExecutorOptions options = Options();
  options.fault_injector = &injector;
  options.resilience.max_retries = 1;
  options.resilience.degrade_to_host = false;
  try {
    (void)executor_.Execute(chain.graph, sources, options);
    FAIL() << "expected kf::DeviceFault";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeviceFault);
  }
}

TEST_F(ExecutorResilienceTest, DeadlineThrowsTypedTimeout) {
  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5});
  const std::map<NodeId, Table> sources{{chain.source,
                                         MakeUniformInt32Table(20000)}};
  ExecutorOptions options = Options();
  options.resilience.deadline = 1e-12;  // no run fits in a picosecond
  try {
    (void)executor_.Execute(chain.graph, sources, options);
    FAIL() << "expected kf::Timeout";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTimeout);
  }
}

TEST_F(ExecutorResilienceTest, ForceHostRunsEverythingOnCpu) {
  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
  const std::map<NodeId, Table> sources{{chain.source,
                                         MakeUniformInt32Table(20000)}};
  const ExecutionReport clean =
      executor_.Execute(chain.graph, sources, Options());

  ExecutorOptions options = Options();
  options.force_host = true;
  const ExecutionReport report =
      executor_.Execute(chain.graph, sources, options);

  EXPECT_TRUE(report.ran_on_host);
  EXPECT_EQ(report.h2d_bytes, 0u);  // nothing crossed PCIe
  EXPECT_EQ(report.d2h_bytes, 0u);
  EXPECT_EQ(report.peak_device_bytes, 0u);
  EXPECT_GT(report.makespan, 0.0);
  EXPECT_EQ(SinkCsv(report), SinkCsv(clean));  // byte-identical
  EXPECT_EQ(registry_.GetCounter("resilience.host_runs",
                                 {{"strategy", "fusion+fission"}})
                .value(),
            1u);
}

}  // namespace
}  // namespace kf::core
