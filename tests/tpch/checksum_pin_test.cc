// Pins the exact bytes of the TPC-H sinks under every strategy.
//
// The scalar-reference tests compare float aggregates with a tolerance,
// because every cluster's kernel sums floats per chunk and merges the
// partials in chunk order. These digests of core::ChecksumTable catch what
// that tolerance lets through: any change in summation order, in aggregate
// group order, or in row order changes a digest. The strategy changes only
// the simulated schedule, so all four share one digest per chunk count.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <ios>
#include <map>
#include <string>

#include "core/integrity.h"
#include "core/query_executor.h"
#include "tpch/q1.h"
#include "tpch/q21.h"
#include "tpch/q6.h"

namespace kf::tpch {
namespace {

using core::Strategy;

struct Pin {
  const char* query;
  int chunk_count;
  std::uint64_t checksum;
};

constexpr Pin kPins[] = {
    {"Q1", 8, 0x21dce96b17d21eacull},  {"Q1", 448, 0xc059e1efa6e517dbull},
    {"Q21", 8, 0x32cd4f32a371d3f2ull}, {"Q21", 448, 0x32cd4f32a371d3f2ull},
    {"Q6", 8, 0x5986fc933ea3d17dull},  {"Q6", 448, 0x76da22907460bb33ull},
};

// Runs every pin under each of `strategies`.
void ExpectPinnedSinks(std::initializer_list<Strategy> strategies) {
  TpchConfig config;
  config.order_count = 400;
  config.supplier_count = 40;
  const TpchData data = MakeTpchData(config);
  std::map<std::string, QueryPlan> plans;
  plans.emplace("Q1", BuildQ1Plan(data));
  plans.emplace("Q21", BuildQ21Plan(data));
  plans.emplace("Q6", BuildQ6Plan(data));

  sim::DeviceSimulator device;
  core::QueryExecutor executor(device);
  for (const Pin& pin : kPins) {
    const QueryPlan& plan = plans.at(pin.query);
    for (Strategy strategy : strategies) {
      core::ExecutorOptions options;
      options.strategy = strategy;
      options.chunk_count = pin.chunk_count;
      options.fusion.register_budget = 63;
      const core::ExecutionReport report =
          executor.Execute(plan.graph, plan.sources, options);
      ASSERT_EQ(report.sink_results.count(plan.sink), 1u) << pin.query;
      EXPECT_EQ(core::ChecksumTable(report.sink_results.at(plan.sink)), pin.checksum)
          << pin.query << " " << ToString(strategy) << " chunks=" << pin.chunk_count
          << " got 0x" << std::hex
          << core::ChecksumTable(report.sink_results.at(plan.sink));
    }
  }
}

TEST(TpchChecksumPins, FusedSinksAreByteStable) {
  ExpectPinnedSinks({Strategy::kFused, Strategy::kFusedFission});
}

TEST(TpchChecksumPins, SerialAndFissionSinksMatchTheFusedPins) {
  ExpectPinnedSinks({Strategy::kSerial, Strategy::kFission});
}

}  // namespace
}  // namespace kf::tpch
