// Integrity soak: N random operator graphs served through the scheduler
// while 5% of device commands (uploads, downloads, kernel outputs) silently
// corrupt. With checksummed transfers plus a full audit, every query must
// either complete byte-identical to the scalar reference (healed by verified
// re-execution / host degradation) or fail with typed kf::Error — and the
// detection ledger must be clean: zero undetected corruptions, ever. CI runs
// this in Release with KF_SOAK_QUERIES=200; the default keeps ctest fast.
#include <gtest/gtest.h>

#include <cstdlib>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/random.h"
#include "obs/tracer.h"
#include "relational/csv.h"
#include "server/query_scheduler.h"
#include "sim/device_group.h"
#include "sim/fault_injector.h"
#include "tests/core/byte_identical.h"
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

core::IntegrityOptions FullVerification() {
  core::IntegrityOptions integrity;
  integrity.verify_transfers = true;
  integrity.audit_fraction = 1.0;
  return integrity;
}

sim::FaultConfig FivePercentCorruption(std::uint64_t seed) {
  // KF_FAULT_CORRUPT_* environment variables override the built-in 5%
  // profile, so CI (or a bisecting developer) can re-run at other rates.
  sim::FaultConfig config = sim::FaultConfig::FromEnv();
  if (!config.CorruptionEnabled()) {
    config.seed = seed;
    config.corrupt_h2d_rate = 0.05;
    config.corrupt_d2h_rate = 0.05;
    config.corrupt_kernel_rate = 0.05;
  }
  return config;
}

TEST(IntegritySoak, CorruptedServingStaysByteIdenticalOrFailsTyped) {
  const std::size_t n = SoakQueryCount();

  sim::DeviceSimulator device;
  obs::MetricsRegistry registry;
  sim::FaultInjector injector(FivePercentCorruption(2026));
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
  options.integrity = FullVerification();
  QueryScheduler scheduler(device, options);

  const core::Strategy strategies[] = {
      core::Strategy::kSerial, core::Strategy::kFused,
      core::Strategy::kFission, core::Strategy::kFusedFission};

  std::vector<core::RandomQuery> queries;
  std::vector<std::future<QueryResult>> futures;
  queries.reserve(n);
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    queries.push_back(core::MakeRandomQuery(3000 + i));
    QueryRequest request;
    request.graph = queries.back().graph;
    request.sources = queries.back().sources;
    request.options.strategy = strategies[i % 4];  // all four, cycled
    request.options.chunk_count = 8;
    request.options.fission_segments = 4;
    request.options.metrics = &registry;
    futures.push_back(scheduler.Submit(std::move(request)));
  }
  scheduler.Start();

  std::size_t completed = 0, failed = 0, corrupted = 0, detected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    try {
      const QueryResult result = futures[i].get();
      ++completed;
      corrupted += result.report.corrupted_commands;
      detected += result.report.corruption_detected;
      // 100% detection: no corruption ever escapes into accepted results.
      EXPECT_EQ(result.report.corruption_undetected, 0u) << "query " << i;
      EXPECT_FALSE(result.report.silent_corruption) << "query " << i;
      const std::map<NodeId, Table> truth = core::ReferenceResults(queries[i]);
      for (NodeId sink : queries[i].graph.Sinks()) {
        ASSERT_EQ(result.results.count(sink), 1u)
            << "query " << i << " missing sink " << sink;
        EXPECT_EQ(relational::ToCsv(result.results.at(sink)),
                  relational::ToCsv(truth.at(sink)))
            << "query " << i << " sink " << sink;
      }
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
  // 5% corruption with re-execution + host degradation: the vast majority
  // of queries must still complete.
  EXPECT_GE(static_cast<double>(completed), 0.9 * static_cast<double>(n))
      << completed << "/" << n << " completed";
  // The soak only proves something if corruption actually happened — and
  // everything that happened in accepted runs was caught.
  EXPECT_GT(corrupted, 0u);
  EXPECT_GT(detected, 0u);
}

TEST(IntegritySoak, ShardedServingUnderCorruptionStaysClean) {
  // The multi-device arm: shardable chains served across two corrupting
  // devices with sharding opted in; the gather is verified host-side.
  const std::size_t n = std::max<std::size_t>(SoakQueryCount() / 4, 10);

  obs::MetricsRegistry registry;
  sim::FaultInjector injector(FivePercentCorruption(4049));
  sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(2);
  obs::Tracer tracer;

  SchedulerOptions options;
  options.worker_count = 1;
  options.start_paused = true;
  options.max_queue_depth = n;
  options.max_batch = 1;
  options.metrics = &registry;
  options.tracer = &tracer;
  options.fault_injector = &injector;
  options.integrity = FullVerification();
  options.quarantine_threshold = 0;  // both devices corrupt: keep serving
  QueryScheduler scheduler(group, options);

  std::vector<core::RandomQuery> queries;
  std::vector<std::future<QueryResult>> futures;
  for (std::size_t i = 0; i < n; ++i) {
    kf::Rng rng(5000 + i);
    core::RandomQuery q;
    const Table fact = core::RandomKV(rng, 400);
    const NodeId src = q.graph.AddSource("fact", fact.schema(), 400);
    q.sources.emplace(src, fact);
    NodeId node = q.graph.AddOperator(
        relational::OperatorDesc::Select(
            relational::Expr::Le(relational::Expr::FieldRef(1),
                                 relational::Expr::Lit(30))),
        src);
    q.graph.AddOperator(
        relational::OperatorDesc::Select(
            relational::Expr::Ge(relational::Expr::FieldRef(1),
                                 relational::Expr::Lit(-30))),
        node);
    queries.push_back(q);

    QueryRequest request;
    request.graph = q.graph;
    request.sources = q.sources;
    request.allow_sharding = true;
    request.options.chunk_count = 8;
    request.options.metrics = &registry;
    futures.push_back(scheduler.Submit(std::move(request)));
  }
  scheduler.Start();

  std::size_t completed = 0, failed = 0, sharded = 0, corrupted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    try {
      const QueryResult result = futures[i].get();
      ++completed;
      if (result.sharded) ++sharded;
      corrupted += result.report.corrupted_commands;
      EXPECT_EQ(result.report.corruption_undetected, 0u) << "query " << i;
      const std::map<NodeId, Table> truth = core::ReferenceResults(queries[i]);
      for (NodeId sink : queries[i].graph.Sinks()) {
        ASSERT_EQ(result.results.count(sink), 1u) << "query " << i;
        EXPECT_TRUE(
            core::ByteIdentical(result.results.at(sink), truth.at(sink)))
            << "query " << i;
      }
    } catch (const Error& e) {
      ++failed;
      EXPECT_NE(e.code(), ErrorCode::kGeneric) << "query " << i;
    }
  }
  EXPECT_EQ(completed + failed, n);
  EXPECT_GE(static_cast<double>(completed), 0.9 * static_cast<double>(n));
  EXPECT_GT(sharded, 0u);
  EXPECT_GT(corrupted, 0u);
}

}  // namespace
}  // namespace kf::server
