// Integration tests: all four strategies over real data must agree
// functionally, and their simulated timings must reproduce the paper's
// qualitative ordering.
#include "core/query_executor.h"

#include <gtest/gtest.h>

#include "core/select_chain.h"
#include "relational/operators.h"

namespace kf::core {
namespace {

using relational::Table;

class QueryExecutorTest : public ::testing::Test {
 protected:
  sim::DeviceSimulator device_;
  QueryExecutor executor_{device_};

  ExecutorOptions Options(Strategy strategy,
                          IntermediatePolicy policy = IntermediatePolicy::kKeepOnDevice) {
    ExecutorOptions options;
    options.strategy = strategy;
    options.intermediates = policy;
    options.chunk_count = 16;
    options.fission_segments = 6;
    return options;
  }
};

TEST_F(QueryExecutorTest, AllStrategiesProduceIdenticalResults) {
  SelectChain chain = MakeSelectChain(20000, std::vector<double>{0.5, 0.5});
  const Table data = MakeUniformInt32Table(20000);
  const std::map<NodeId, Table> sources{{chain.source, data}};

  std::map<Strategy, ExecutionReport> reports;
  for (Strategy s : {Strategy::kSerial, Strategy::kFused, Strategy::kFission,
                     Strategy::kFusedFission}) {
    reports.emplace(s, executor_.Execute(chain.graph, sources, Options(s)));
  }
  const Table& reference = reports.at(Strategy::kSerial).sink_results.begin()->second;
  EXPECT_NEAR(static_cast<double>(reference.row_count()) / 20000.0, 0.25, 0.02);
  for (auto& [strategy, report] : reports) {
    ASSERT_EQ(report.sink_results.size(), 1u) << ToString(strategy);
    EXPECT_TRUE(relational::SameRowMultiset(
        report.sink_results.begin()->second, reference))
        << ToString(strategy);
    EXPECT_GT(report.makespan, 0.0);
  }
}

TEST_F(QueryExecutorTest, RoundTripPolicyAddsPcieTraffic) {
  SelectChain chain = MakeSelectChain(2000000, std::vector<double>{0.5, 0.5});
  const auto with_round_trip = executor_.EstimateOnly(
      chain.graph, chain.expected_rows,
      Options(Strategy::kSerial, IntermediatePolicy::kRoundTrip));
  const auto without = executor_.EstimateOnly(chain.graph, chain.expected_rows,
                                              Options(Strategy::kSerial));
  EXPECT_GT(with_round_trip.round_trip_time, 0.0);
  EXPECT_DOUBLE_EQ(without.round_trip_time, 0.0);
  EXPECT_GT(with_round_trip.makespan, without.makespan);
  EXPECT_GT(with_round_trip.h2d_bytes, without.h2d_bytes);
}

TEST_F(QueryExecutorTest, FusionBeatsSerialAndRoundTrip) {
  // Fig 8(a) ordering: fused > without round trip > with round trip.
  SelectChain chain = MakeSelectChain(200000000, std::vector<double>{0.5, 0.5});
  const auto with_rt = executor_.EstimateOnly(
      chain.graph, chain.expected_rows,
      Options(Strategy::kSerial, IntermediatePolicy::kRoundTrip));
  const auto without_rt = executor_.EstimateOnly(chain.graph, chain.expected_rows,
                                                 Options(Strategy::kSerial));
  const auto fused = executor_.EstimateOnly(chain.graph, chain.expected_rows,
                                            Options(Strategy::kFused));
  EXPECT_LT(fused.makespan, without_rt.makespan);
  EXPECT_LT(without_rt.makespan, with_rt.makespan);
  // Fused launches two device kernels instead of four.
  EXPECT_LT(fused.kernel_launches, without_rt.kernel_launches);
}

TEST_F(QueryExecutorTest, FusionReducesComputeTimeSubstantially) {
  // Fig 8(b): compute-only gain of fusion is large (~1.8x in the paper).
  SelectChain chain = MakeSelectChain(200000000, std::vector<double>{0.5, 0.5});
  const auto serial = executor_.EstimateOnly(chain.graph, chain.expected_rows,
                                             Options(Strategy::kSerial));
  const auto fused = executor_.EstimateOnly(chain.graph, chain.expected_rows,
                                            Options(Strategy::kFused));
  EXPECT_GT(serial.compute_time / fused.compute_time, 1.5);
}

TEST_F(QueryExecutorTest, FissionOverlapsTransfersOnLargeData) {
  // Fig 14: pipelined fission beats serial segmented execution when the data
  // exceeds device memory.
  SelectChain chain = MakeSelectChain(2000000000ull, std::vector<double>{0.5});
  const auto serial = executor_.EstimateOnly(chain.graph, chain.expected_rows,
                                             Options(Strategy::kSerial));
  const auto fission = executor_.EstimateOnly(chain.graph, chain.expected_rows,
                                              Options(Strategy::kFission));
  EXPECT_LT(fission.makespan, serial.makespan);
  // The win comes from overlap, not from doing less work (allow rounding
  // from the different segment counts).
  EXPECT_NEAR(static_cast<double>(fission.h2d_bytes),
              static_cast<double>(serial.h2d_bytes), 64.0);
  EXPECT_GT(serial.makespan / fission.makespan, 1.2);
}

TEST_F(QueryExecutorTest, FusionPlusFissionBeatsEitherAlone) {
  // Fig 16 ordering on 2 back-to-back SELECTs over huge data.
  SelectChain chain = MakeSelectChain(2000000000ull, std::vector<double>{0.5, 0.5});
  std::map<Strategy, SimTime> makespans;
  for (Strategy s : {Strategy::kSerial, Strategy::kFused, Strategy::kFission,
                     Strategy::kFusedFission}) {
    makespans[s] =
        executor_.EstimateOnly(chain.graph, chain.expected_rows, Options(s)).makespan;
  }
  EXPECT_LT(makespans[Strategy::kFusedFission], makespans[Strategy::kFission]);
  EXPECT_LT(makespans[Strategy::kFusedFission], makespans[Strategy::kFused]);
  EXPECT_LT(makespans[Strategy::kFission], makespans[Strategy::kSerial]);
  EXPECT_LT(makespans[Strategy::kFused], makespans[Strategy::kSerial]);
}

TEST_F(QueryExecutorTest, FissionUsesHostGather) {
  SelectChain chain = MakeSelectChain(2000000000ull, std::vector<double>{0.5});
  const auto fission = executor_.EstimateOnly(chain.graph, chain.expected_rows,
                                              Options(Strategy::kFission));
  EXPECT_GT(fission.host_gather_time, 0.0);  // Fig 15's CPU gather
  const auto serial = executor_.EstimateOnly(chain.graph, chain.expected_rows,
                                             Options(Strategy::kSerial));
  EXPECT_DOUBLE_EQ(serial.host_gather_time, 0.0);  // in-order arrival
}

TEST_F(QueryExecutorTest, ThroughputScalesWithOverlap) {
  SelectChain chain = MakeSelectChain(1000000000ull, std::vector<double>{0.5});
  const auto serial = executor_.EstimateOnly(chain.graph, chain.expected_rows,
                                             Options(Strategy::kSerial));
  const auto fission = executor_.EstimateOnly(chain.graph, chain.expected_rows,
                                              Options(Strategy::kFission));
  EXPECT_GT(fission.ThroughputGBs(chain.input_bytes()),
            serial.ThroughputGBs(chain.input_bytes()));
}

TEST_F(QueryExecutorTest, PeakDeviceMemoryBounded) {
  // Even 8 GB of input must fit through the 6 GB device.
  SelectChain chain = MakeSelectChain(2000000000ull, std::vector<double>{0.5});
  for (Strategy s : {Strategy::kSerial, Strategy::kFission}) {
    const auto report =
        executor_.EstimateOnly(chain.graph, chain.expected_rows, Options(s));
    EXPECT_LE(report.peak_device_bytes, device_.spec().mem_capacity_bytes)
        << ToString(s);
  }
}

TEST_F(QueryExecutorTest, MissingSourceBindingThrows) {
  SelectChain chain = MakeSelectChain(100, std::vector<double>{0.5});
  EXPECT_THROW(executor_.Execute(chain.graph, {}, Options(Strategy::kSerial)),
               kf::Error);
}

TEST_F(QueryExecutorTest, NonPositiveChunkCountIsRejectedByEveryStrategy) {
  SelectChain chain = MakeSelectChain(100, std::vector<double>{0.5});
  const std::map<NodeId, Table> sources{{chain.source, MakeUniformInt32Table(100)}};
  for (Strategy s : {Strategy::kSerial, Strategy::kFused, Strategy::kFission,
                     Strategy::kFusedFission}) {
    for (int chunks : {0, -1}) {
      ExecutorOptions options = Options(s);
      options.chunk_count = chunks;
      EXPECT_THROW(executor_.Execute(chain.graph, sources, options), kf::InvalidArgument)
          << ToString(s) << " chunks=" << chunks;
    }
  }
}

TEST_F(QueryExecutorTest, EstimateOnlyUsesRowHintsWhenNoOverrides) {
  SelectChain chain = MakeSelectChain(1000000, std::vector<double>{0.5});
  // No override for the select: the estimator falls back to its input count
  // (conservative upper bound) and still produces a sane report.
  const auto report =
      executor_.EstimateOnly(chain.graph, {}, Options(Strategy::kSerial));
  EXPECT_GT(report.makespan, 0.0);
  EXPECT_GT(report.h2d_bytes, 0u);
}

TEST_F(QueryExecutorTest, BreakdownSumsRoughlyToMakespanWhenSerial) {
  // Fig 9's decomposition: in fully serial execution the category sums
  // account for the whole makespan (no overlap hides anything).
  SelectChain chain = MakeSelectChain(100000000, std::vector<double>{0.5, 0.5});
  const auto report = executor_.EstimateOnly(
      chain.graph, chain.expected_rows,
      Options(Strategy::kSerial, IntermediatePolicy::kRoundTrip));
  const SimTime sum = report.input_output_time + report.round_trip_time +
                      report.compute_time + report.host_gather_time;
  EXPECT_NEAR(sum / report.makespan, 1.0, 0.05);
}

}  // namespace
}  // namespace kf::core
