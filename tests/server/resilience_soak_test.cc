// Fault-injection soak: N random operator graphs served through the
// scheduler under aggressive fault rates. Every query must either complete
// (possibly retried or degraded) with results byte-identical to the scalar
// reference, or fail with a *typed* kf::Error — never a wrong answer, never
// an untyped one. CI runs this in Release with KF_SOAK_QUERIES=200; the
// default keeps local ctest fast.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/error.h"
#include "obs/tracer.h"
#include "relational/csv.h"
#include "server/query_scheduler.h"
#include "sim/fault_injector.h"
#include "tests/core/random_graph.h"

namespace kf::server {
namespace {

using core::NodeId;
using relational::Table;

std::size_t SoakQueryCount() {
  if (const char* env = std::getenv("KF_SOAK_QUERIES")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 40;  // local default; CI overrides to 200
}

TEST(ResilienceSoak, RandomGraphsSucceedDegradeOrFailTyped) {
  const std::size_t n = SoakQueryCount();

  sim::DeviceSimulator device;
  obs::MetricsRegistry registry;

  // KF_FAULT_* environment variables override the built-in 20% profile, so
  // CI (or a bisecting developer) can re-run the soak at other rates/seeds.
  sim::FaultConfig config = sim::FaultConfig::FromEnv();
  if (!config.AnyEnabled()) {
    config.seed = 2026;
    config.copy_fault_rate = 0.2;
    config.kernel_fault_rate = 0.2;
    config.stall_rate = 0.2;
    config.oom_rate = 0.05;
  }
  sim::FaultInjector injector(config);

  // With KF_TRACE_DIR set (the CI soak jobs do), any query failing with a
  // typed error dumps its full span tree there for post-mortem triage.
  obs::Tracer tracer;

  SchedulerOptions options;
  options.worker_count = 1;  // deterministic batch order
  options.start_paused = true;
  options.max_queue_depth = n;
  options.max_batch = 1;  // solo execution: per-query outcomes stay pinned
  options.metrics = &registry;
  options.tracer = &tracer;
  options.fault_injector = &injector;
  options.query_retry_limit = 3;
  QueryScheduler scheduler(device, options);

  std::vector<core::RandomQuery> queries;
  std::vector<std::future<QueryResult>> futures;
  queries.reserve(n);
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    queries.push_back(core::MakeRandomQuery(1000 + i));
    QueryRequest request;
    request.graph = queries.back().graph;
    request.sources = queries.back().sources;
    request.options.strategy = core::Strategy::kFusedFission;
    request.options.chunk_count = 8;
    request.options.fission_segments = 4;
    request.options.metrics = &registry;
    futures.push_back(scheduler.Submit(std::move(request)));
  }
  scheduler.Start();

  std::size_t completed = 0, degraded = 0, failed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    try {
      const QueryResult result = futures[i].get();
      ++completed;
      if (result.degraded) ++degraded;
      // Recovered or not, results are byte-identical to the scalar
      // reference for every sink.
      const std::map<NodeId, Table> truth =
          core::ReferenceResults(queries[i]);
      for (NodeId sink : queries[i].graph.Sinks()) {
        ASSERT_EQ(result.results.count(sink), 1u)
            << "query " << i << " missing sink " << sink;
        EXPECT_EQ(relational::ToCsv(result.results.at(sink)),
                  relational::ToCsv(truth.at(sink)))
            << "query " << i << " sink " << sink;
      }
      // Failed segments released their reservations.
      EXPECT_EQ(result.report.leaked_device_bytes, 0u) << "query " << i;
    } catch (const Error& e) {
      ++failed;
      EXPECT_NE(e.code(), ErrorCode::kGeneric)
          << "query " << i << " failed untyped: " << e.what();
    } catch (const std::exception& e) {
      ++failed;
      ADD_FAILURE() << "query " << i
                    << " threw a non-kf::Error exception: " << e.what();
    }
  }

  EXPECT_EQ(completed + failed, n);
  // At 20% transient rates with retries + host degradation the vast
  // majority of queries must complete.
  EXPECT_GE(static_cast<double>(completed), 0.9 * static_cast<double>(n))
      << completed << "/" << n << " completed (" << degraded << " degraded)";
}

}  // namespace
}  // namespace kf::server
