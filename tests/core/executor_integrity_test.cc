// The data-integrity layer end to end: silent bit-flips injected on copies
// and kernel outputs are caught by checksummed transfers + sampled audits,
// healed by verified re-execution (byte-identical to the clean run, no
// reservation leaks), surface as typed kf::DataCorruption when persistent,
// and — with verification off — produce the silent wrong answers the report
// owns up to in corruption_undetected.
#include <gtest/gtest.h>

#include "core/integrity.h"
#include "core/multi_device.h"
#include "core/query_executor.h"
#include "core/select_chain.h"
#include "relational/csv.h"
#include "sim/device_group.h"
#include "sim/fault_injector.h"
#include "tests/core/byte_identical.h"
#include "tests/core/random_graph.h"

namespace kf::core {
namespace {

using relational::Table;

IntegrityOptions FullVerification() {
  IntegrityOptions integrity;
  integrity.verify_transfers = true;
  integrity.audit_fraction = 1.0;
  return integrity;
}

sim::FaultConfig CorruptAll(double rate, std::uint64_t seed) {
  sim::FaultConfig config;
  config.seed = seed;
  config.corrupt_h2d_rate = rate;
  config.corrupt_d2h_rate = rate;
  config.corrupt_kernel_rate = rate;
  return config;
}

class ExecutorIntegrityTest : public ::testing::Test {
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

TEST_F(ExecutorIntegrityTest, VerificationOnCleanRunChangesNoBytes) {
  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
  const std::map<NodeId, Table> sources{{chain.source,
                                         MakeUniformInt32Table(20000)}};
  const ExecutionReport clean =
      executor_.Execute(chain.graph, sources, Options());

  ExecutorOptions options = Options();
  options.integrity = FullVerification();
  const ExecutionReport verified =
      executor_.Execute(chain.graph, sources, options);

  EXPECT_EQ(SinkCsv(verified), SinkCsv(clean));
  EXPECT_EQ(verified.corrupted_commands, 0u);
  EXPECT_EQ(verified.corruption_detected, 0u);
  EXPECT_EQ(verified.corruption_undetected, 0u);
  EXPECT_EQ(verified.corruption_reexecutions, 0u);
  EXPECT_FALSE(verified.silent_corruption);
  EXPECT_GT(verified.audited_clusters, 0u);
  // Verification work is accounted (crc + audit commands), not free.
  EXPECT_GT(verified.integrity_time, 0.0);
  EXPECT_GT(verified.makespan, clean.makespan);
}

TEST_F(ExecutorIntegrityTest, CorruptionDetectedAndHealedByteIdentical) {
  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
  const std::map<NodeId, Table> sources{{chain.source,
                                         MakeUniformInt32Table(20000)}};
  const ExecutionReport clean =
      executor_.Execute(chain.graph, sources, Options());

  sim::FaultInjector injector(CorruptAll(0.2, 9));
  ExecutorOptions options = Options();
  options.fault_injector = &injector;
  options.integrity = FullVerification();
  const ExecutionReport report =
      executor_.Execute(chain.graph, sources, options);

  EXPECT_GT(report.corrupted_commands, 0u);
  EXPECT_GT(report.corruption_detected, 0u);
  EXPECT_EQ(report.corruption_undetected, 0u);
  EXPECT_GT(report.corruption_reexecutions, 0u);
  EXPECT_FALSE(report.silent_corruption);
  // Healed means healed: the bytes match the corruption-free run exactly.
  EXPECT_EQ(SinkCsv(report), SinkCsv(clean));
  EXPECT_EQ(report.leaked_device_bytes, 0u);
  EXPECT_GT(registry_.GetCounter("integrity.detected",
                                 {{"strategy", "fusion+fission"}})
                .value(),
            0u);
}

TEST_F(ExecutorIntegrityTest, SingleCorruptSegmentIsDetectedAndHealed) {
  // Deterministic seed search for a run where exactly ONE command corrupts:
  // detection must localize it (one detected, nothing undetected) and heal
  // only that unit instead of failing the query.
  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
  const std::map<NodeId, Table> sources{{chain.source,
                                         MakeUniformInt32Table(20000)}};
  const ExecutionReport clean =
      executor_.Execute(chain.graph, sources, Options());

  bool found = false;
  for (std::uint64_t seed = 1; seed <= 64 && !found; ++seed) {
    sim::FaultInjector injector(CorruptAll(0.01, seed));
    ExecutorOptions options = Options();
    options.fault_injector = &injector;
    options.integrity = FullVerification();
    const ExecutionReport report =
        executor_.Execute(chain.graph, sources, options);
    if (report.corrupted_commands != 1) continue;
    found = true;
    EXPECT_EQ(report.corruption_detected, 1u) << "seed " << seed;
    EXPECT_EQ(report.corruption_undetected, 0u) << "seed " << seed;
    EXPECT_GE(report.corruption_reexecutions, 1u) << "seed " << seed;
    EXPECT_EQ(SinkCsv(report), SinkCsv(clean)) << "seed " << seed;
    EXPECT_EQ(report.leaked_device_bytes, 0u) << "seed " << seed;
  }
  ASSERT_TRUE(found) << "no seed in [1,64] produced exactly one corruption";
}

TEST_F(ExecutorIntegrityTest, ChecksumsOffMeansSilentWrongAnswer) {
  // The control experiment: the same injected flips with verification off
  // reach the caller as wrong bytes — and the report admits it.
  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
  const std::map<NodeId, Table> sources{{chain.source,
                                         MakeUniformInt32Table(20000)}};
  const ExecutionReport clean =
      executor_.Execute(chain.graph, sources, Options());

  sim::FaultConfig config;
  config.seed = 3;
  config.corrupt_kernel_rate = 1.0;
  sim::FaultInjector injector(config);
  ExecutorOptions options = Options();
  options.fault_injector = &injector;
  const ExecutionReport report =
      executor_.Execute(chain.graph, sources, options);

  EXPECT_GT(report.corrupted_commands, 0u);
  EXPECT_EQ(report.corruption_detected, 0u);
  EXPECT_GT(report.corruption_undetected, 0u);
  EXPECT_TRUE(report.silent_corruption);
  EXPECT_NE(SinkCsv(report), SinkCsv(clean));  // the wrong answer is real
}

TEST_F(ExecutorIntegrityTest, PersistentCorruptionThrowsTypedDataCorruption) {
  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5});
  const std::map<NodeId, Table> sources{{chain.source,
                                         MakeUniformInt32Table(20000)}};
  sim::FaultConfig config;
  config.seed = 1;
  config.corrupt_kernel_rate = 1.0;  // every attempt corrupts again
  sim::FaultInjector injector(config);
  ExecutorOptions options = Options();
  options.fault_injector = &injector;
  options.integrity = FullVerification();
  options.integrity.max_reexecutions = 2;
  options.resilience.degrade_to_host = false;
  try {
    (void)executor_.Execute(chain.graph, sources, options);
    FAIL() << "expected kf::DataCorruption";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDataCorruption);
  }
}

TEST_F(ExecutorIntegrityTest, PersistentCorruptionDegradesToHost) {
  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
  const std::map<NodeId, Table> sources{{chain.source,
                                         MakeUniformInt32Table(20000)}};
  const ExecutionReport clean =
      executor_.Execute(chain.graph, sources, Options());

  sim::FaultConfig config;
  config.seed = 1;
  config.corrupt_kernel_rate = 1.0;
  sim::FaultInjector injector(config);
  ExecutorOptions options = Options();
  options.fault_injector = &injector;
  options.integrity = FullVerification();
  options.integrity.max_reexecutions = 2;
  const ExecutionReport report =
      executor_.Execute(chain.graph, sources, options);

  // The host engine never corrupts: degrading washes the corruption out.
  EXPECT_TRUE(report.degraded);
  EXPECT_GT(report.degraded_clusters, 0u);
  EXPECT_FALSE(report.silent_corruption);
  EXPECT_EQ(SinkCsv(report), SinkCsv(clean));
  EXPECT_EQ(report.leaked_device_bytes, 0u);
}

TEST_F(ExecutorIntegrityTest, AuditChecksumsMatchDeliveredSinks) {
  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
  const std::map<NodeId, Table> sources{{chain.source,
                                         MakeUniformInt32Table(20000)}};
  ExecutorOptions options = Options();
  options.integrity = FullVerification();
  const ExecutionReport report =
      executor_.Execute(chain.graph, sources, options);

  ASSERT_FALSE(report.audit_checksums.empty());
  std::size_t compared = 0;
  for (const auto& [node, digest] : report.audit_checksums) {
    auto it = report.sink_results.find(node);
    if (it == report.sink_results.end()) continue;
    EXPECT_EQ(ChecksumTable(it->second), digest) << "node " << node;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

TEST_F(ExecutorIntegrityTest, FlipRandomBitChangesExactlyOneTable) {
  Table table = MakeUniformInt32Table(1000);
  const std::uint64_t before = ChecksumTable(table);
  ASSERT_TRUE(FlipRandomBit(table, 42));
  EXPECT_NE(ChecksumTable(table), before);
  // Flipping with the same seed restores the original bit.
  ASSERT_TRUE(FlipRandomBit(table, 42));
  EXPECT_EQ(ChecksumTable(table), before);

  Table empty(table.schema());
  EXPECT_FALSE(FlipRandomBit(empty, 42));  // nothing to corrupt
}

TEST(MultiDeviceIntegrity, ShardedCorruptionDetectedAndHealed) {
  obs::MetricsRegistry registry;
  // A shardable random graph (same generator the fuzzer uses).
  RandomQuery q;
  for (std::uint64_t seed = 1;; ++seed) {
    ASSERT_LT(seed, 200u) << "no shardable random graph found";
    q = MakeRandomQuery(seed);
    if (MultiDeviceExecutor::Shardable(q.graph)) break;
  }
  const std::map<NodeId, Table> truth = ReferenceResults(q);

  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(2);
  MultiDeviceExecutor multi(group);

  std::size_t total_corrupted = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    sim::FaultInjector injector(CorruptAll(0.1, seed));
    MultiDeviceOptions options;
    options.base.strategy = Strategy::kFusedFission;
    options.base.chunk_count = 4;
    options.base.metrics = &registry;
    options.base.fault_injector = &injector;
    options.base.integrity = FullVerification();
    const MultiDeviceReport report =
        multi.Execute(q.graph, q.sources, options);
    total_corrupted += report.combined.corrupted_commands;
    EXPECT_EQ(report.combined.corruption_undetected, 0u) << "seed " << seed;
    EXPECT_FALSE(report.combined.silent_corruption) << "seed " << seed;
    for (NodeId sink : q.graph.Sinks()) {
      ASSERT_EQ(report.combined.sink_results.count(sink), 1u)
          << "seed " << seed;
      EXPECT_TRUE(ByteIdentical(report.combined.sink_results.at(sink),
                                truth.at(sink)))
          << "seed " << seed << " sink " << sink;
    }
    // The host gather was verified: integrity time includes it.
    if (options.base.integrity.verify_transfers) {
      EXPECT_GT(report.combined.integrity_time, 0.0) << "seed " << seed;
    }
  }
  // Across 16 seeded runs at 10% per-command corruption, flips happened.
  EXPECT_GT(total_corrupted, 0u);
}

}  // namespace
}  // namespace kf::core
