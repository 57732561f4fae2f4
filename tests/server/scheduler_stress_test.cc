// Concurrency stress: many client threads hammer one QueryScheduler with an
// interleaved mix of TPC-H Q1, Q21, and SELECT-chain queries. Checks: no
// deadlock (the test finishes), every future resolves, every result is
// correct, and the virtual clock equals the sum of executed batch makespans.
// Run under KF_SANITIZE=thread (the `tsan` preset) to let TSan check the
// scheduler's locking.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/error.h"
#include "core/query_executor.h"
#include "core/select_chain.h"
#include "server/query_scheduler.h"
#include "tests/core/random_graph.h"
#include "tpch/q1.h"
#include "tpch/q21.h"

namespace kf::server {
namespace {

using core::NodeId;
using core::Strategy;
using relational::Table;

struct Workload {
  tpch::TpchData data;
  tpch::QueryPlan q1;
  tpch::QueryPlan q21;
  Table q1_expected;
  Table q21_expected;
  core::SelectChain chain;
  Table chain_input;
  std::size_t chain_rows = 0;  // actual output rows of a serial run
};

Workload MakeWorkload() {
  Workload w;
  tpch::TpchConfig config;
  config.order_count = 120;
  config.supplier_count = 15;
  w.data = tpch::MakeTpchData(config);
  w.q1 = BuildQ1Plan(w.data);
  w.q21 = BuildQ21Plan(w.data);
  w.q1_expected = tpch::ReferenceQ1(w.data.lineitem);
  w.q21_expected = tpch::ReferenceQ21(w.data);
  const std::vector<double> selectivities = {0.5, 0.5};
  w.chain = core::MakeSelectChain(20'000, selectivities);
  w.chain_input = core::MakeUniformInt32Table(20'000);
  sim::DeviceSimulator device;
  core::QueryExecutor executor(device);
  w.chain_rows = executor
                     .Execute(w.chain.graph, {{w.chain.source, w.chain_input}},
                              core::ExecutorOptions{})
                     .sink_results.begin()
                     ->second.row_count();
  return w;
}

QueryRequest MakeRequest(const Workload& w, int kind, Strategy strategy,
                         bool merge) {
  QueryRequest request;
  switch (kind) {
    case 0:
      request.graph = w.q1.graph;
      request.sources = w.q1.sources;
      if (merge) request.merge_class = "q1";
      break;
    case 1:
      request.graph = w.q21.graph;
      request.sources = w.q21.sources;
      if (merge) request.merge_class = "q21";
      break;
    default:
      request.graph = w.chain.graph;
      request.sources.emplace(w.chain.source, w.chain_input);
      if (merge) request.merge_class = "chain";
      break;
  }
  request.options.strategy = strategy;
  return request;
}

void CheckResult(const Workload& w, int kind, QueryResult& result) {
  switch (kind) {
    case 0: {
      ASSERT_EQ(result.results.count(w.q1.sink), 1u);
      EXPECT_TRUE(relational::ApproxSameRowMultiset(
          result.results.at(w.q1.sink), w.q1_expected));
      break;
    }
    case 1: {
      ASSERT_EQ(result.results.count(w.q21.sink), 1u);
      EXPECT_TRUE(relational::SameRowMultiset(result.results.at(w.q21.sink),
                                              w.q21_expected));
      break;
    }
    default: {
      ASSERT_EQ(result.results.size(), 1u);
      EXPECT_EQ(result.results.begin()->second.row_count(), w.chain_rows);
      break;
    }
  }
  EXPECT_GE(result.sim_complete, result.sim_submit);
  EXPECT_GT(result.report.makespan, 0.0);
}

TEST(SchedulerStress, ConcurrentClientsInterleavedWorkloadsAllResolve) {
  const Workload w = MakeWorkload();

  sim::DeviceSimulator device;
  obs::MetricsRegistry registry;
  SchedulerOptions options;
  options.worker_count = 3;
  options.max_queue_depth = 16;  // small queue -> real backpressure
  options.max_batch = 4;
  options.metrics = &registry;
  QueryScheduler scheduler(device, options);

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 12;
  const Strategy strategies[] = {Strategy::kSerial, Strategy::kFused,
                                 Strategy::kFission, Strategy::kFusedFission};

  std::atomic<int> failures{0};
  std::atomic<int> completed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const int kind = (c + i) % 3;
        const Strategy strategy = strategies[(c * 7 + i) % 4];
        const bool merge = ((c + i) % 2) == 0;
        try {
          auto future =
              scheduler.Submit(MakeRequest(w, kind, strategy, merge));
          QueryResult result = future.get();
          CheckResult(w, kind, result);
          completed.fetch_add(1);
        } catch (const std::exception& e) {
          ADD_FAILURE() << "client " << c << " query " << i
                        << " failed: " << e.what();
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  scheduler.Drain();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(completed.load(), kClients * kQueriesPerClient);
  EXPECT_EQ(registry.GetCounter("server.completed").value(),
            static_cast<std::uint64_t>(kClients * kQueriesPerClient));
  EXPECT_GT(scheduler.sim_clock(), 0.0);
  // Every query's simulated completion is bounded by the final clock.
  EXPECT_EQ(scheduler.queue_depth(), 0u);
}

TEST(SchedulerStress, SubmittersBlockedOnBackpressureSurviveShutdown) {
  // Clients block in Submit() on a tiny paused queue; Shutdown() must wake
  // them (either accepting or throwing) without deadlocking, and every
  // accepted query's future must resolve.
  const std::vector<double> selectivities = {0.5};
  const core::SelectChain chain = core::MakeSelectChain(2'000, selectivities);
  const Table input = core::MakeUniformInt32Table(2'000);

  sim::DeviceSimulator device;
  SchedulerOptions options;
  options.worker_count = 1;
  options.max_queue_depth = 2;
  options.start_paused = true;
  auto scheduler = std::make_unique<QueryScheduler>(device, options);

  std::atomic<int> resolved{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&] {
      QueryRequest request;
      request.graph = chain.graph;
      request.sources.emplace(chain.source, input);
      try {
        auto future = scheduler->Submit(std::move(request));
        future.get();
        resolved.fetch_add(1);
      } catch (const kf::Error&) {
        rejected.fetch_add(1);  // submitted after Shutdown -> acceptable
      }
    });
  }
  // Give clients time to pile up on the full queue, then shut down.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  scheduler->Shutdown();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(resolved.load() + rejected.load(), 6);
  EXPECT_GE(resolved.load(), 2);  // at least the queued ones completed
}

TEST(SchedulerStress, RandomGraphsUnderConcurrencyMatchReference) {
  sim::DeviceSimulator device;
  SchedulerOptions options;
  options.worker_count = 3;
  options.max_batch = 4;
  QueryScheduler scheduler(device, options);

  constexpr int kClients = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 4; ++i) {
        const core::RandomQuery q =
            core::MakeRandomQuery(static_cast<std::uint64_t>(c) * 131 + i);
        const std::map<NodeId, Table> truth = core::ReferenceResults(q);
        QueryRequest request;
        request.graph = q.graph;
        request.sources = q.sources;
        request.options.strategy =
            (i % 2) == 0 ? Strategy::kFused : Strategy::kFusedFission;
        QueryResult result = scheduler.Submit(std::move(request)).get();
        for (NodeId sink : q.graph.Sinks()) {
          if (result.results.count(sink) != 1 ||
              !relational::SameRowMultiset(result.results.at(sink),
                                           truth.at(sink))) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace kf::server
