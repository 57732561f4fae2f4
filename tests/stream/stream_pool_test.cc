#include "stream/stream_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "sim/fault_injector.h"

namespace kf::stream {
namespace {

sim::CommandSpec Kernel(SimTime solo, double demand = 1.0) {
  sim::CommandSpec c;
  c.kind = sim::CommandKind::kKernel;
  c.solo_duration = solo;
  c.demand = demand;
  return c;
}

class StreamPoolTest : public ::testing::Test {
 protected:
  sim::DeviceSimulator device_;
};

TEST_F(StreamPoolTest, GetAvailableStreamPrefersUnused) {
  StreamPool pool(device_, 3);
  EXPECT_EQ(pool.GetAvailableStream(), 0);
  EXPECT_EQ(pool.GetAvailableStream(), 1);
  EXPECT_EQ(pool.GetAvailableStream(), 2);
  // All in use: returns the least-loaded one.
  const StreamHandle again = pool.GetAvailableStream();
  EXPECT_GE(again, 0);
  EXPECT_LT(again, 3);
}

TEST_F(StreamPoolTest, CommandsInOneStreamSerialize) {
  StreamPool pool(device_, 2);
  const StreamHandle s = pool.GetAvailableStream();
  pool.SetStreamCommand(s, PoolCommand{Kernel(1.0), {}});
  pool.SetStreamCommand(s, PoolCommand{Kernel(1.0), {}});
  pool.StartStreams();
  EXPECT_NEAR(pool.WaitAll().makespan, 2.0, 1e-9);
}

TEST_F(StreamPoolTest, HostActionsRunAtStart) {
  StreamPool pool(device_, 2);
  const StreamHandle s = pool.GetAvailableStream();
  int order = 0, first = -1, second = -1;
  pool.SetStreamCommand(s, PoolCommand{Kernel(1.0), [&] { first = order++; }});
  pool.SetStreamCommand(s, PoolCommand{Kernel(1.0), [&] { second = order++; }});
  pool.StartStreams();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST_F(StreamPoolTest, SelectWaitOrdersAcrossStreams) {
  StreamPool pool(device_, 2);
  const StreamHandle a = pool.GetAvailableStream();
  const StreamHandle b = pool.GetAvailableStream();
  pool.SetStreamCommand(a, PoolCommand{Kernel(1.0, 0.25), {}});
  // b's next command waits on a's last command (Table IV selectWait).
  pool.SelectWait(b, a);
  pool.SetStreamCommand(b, PoolCommand{Kernel(1.0, 0.25), {}});
  pool.StartStreams();
  // Without the wait the two low-demand kernels would overlap (~1.0).
  EXPECT_NEAR(pool.WaitAll().makespan, 2.0, 1e-9);
}

TEST_F(StreamPoolTest, WithoutSelectWaitLowDemandKernelsOverlap) {
  StreamPool pool(device_, 2);
  const StreamHandle a = pool.GetAvailableStream();
  const StreamHandle b = pool.GetAvailableStream();
  pool.SetStreamCommand(a, PoolCommand{Kernel(1.0, 0.25), {}});
  pool.SetStreamCommand(b, PoolCommand{Kernel(1.0, 0.25), {}});
  pool.StartStreams();
  EXPECT_LT(pool.WaitAll().makespan, 1.2);
}

TEST_F(StreamPoolTest, SelectWaitValidation) {
  StreamPool pool(device_, 2);
  const StreamHandle a = pool.GetAvailableStream();
  const StreamHandle b = pool.GetAvailableStream();
  EXPECT_THROW(pool.SelectWait(a, a), kf::Error);   // self-wait
  EXPECT_THROW(pool.SelectWait(a, b), kf::Error);   // b has no commands yet
  EXPECT_THROW(pool.SelectWait(9, a), kf::Error);   // bad handle
}

TEST_F(StreamPoolTest, WaitAllBeforeStartThrows) {
  StreamPool pool(device_, 1);
  EXPECT_THROW(pool.WaitAll(), kf::Error);
}

TEST_F(StreamPoolTest, DoubleStartThrows) {
  StreamPool pool(device_, 1);
  pool.SetStreamCommand(pool.GetAvailableStream(), PoolCommand{Kernel(0.1), {}});
  pool.StartStreams();
  EXPECT_THROW(pool.StartStreams(), kf::Error);
}

TEST_F(StreamPoolTest, TerminateResetsForReuse) {
  StreamPool pool(device_, 2);
  const StreamHandle s = pool.GetAvailableStream();
  pool.SetStreamCommand(s, PoolCommand{Kernel(0.5), {}});
  pool.StartStreams();
  EXPECT_TRUE(pool.started());
  pool.Terminate();
  EXPECT_FALSE(pool.started());
  // Fresh lease and fresh commands work after terminate.
  const StreamHandle s2 = pool.GetAvailableStream();
  pool.SetStreamCommand(s2, PoolCommand{Kernel(0.25), {}});
  pool.StartStreams();
  EXPECT_NEAR(pool.WaitAll().makespan, 0.25, 1e-9);
}

TEST_F(StreamPoolTest, ThreeStreamFissionPipelineOverlaps) {
  // The canonical fission schedule (Fig 13) through the Table IV API.
  StreamPool pool(device_, 3);
  std::vector<StreamHandle> handles = {pool.GetAvailableStream(),
                                       pool.GetAvailableStream(),
                                       pool.GetAvailableStream()};
  const int segments = 9;
  for (int s = 0; s < segments; ++s) {
    const StreamHandle h = handles[static_cast<std::size_t>(s) % 3];
    sim::CommandSpec up;
    up.kind = sim::CommandKind::kCopyH2D;
    up.duration = 1.0;
    pool.SetStreamCommand(h, PoolCommand{up, {}});
    pool.SetStreamCommand(h, PoolCommand{Kernel(1.0), {}});
    sim::CommandSpec down;
    down.kind = sim::CommandKind::kCopyD2H;
    down.duration = 1.0;
    pool.SetStreamCommand(h, PoolCommand{down, {}});
  }
  pool.StartStreams();
  const SimTime makespan = pool.WaitAll().makespan;
  EXPECT_NEAR(makespan, segments + 2.0, 0.1);  // vs 3*segments serialized
}

TEST_F(StreamPoolTest, FaultOutcomesSurfaceThroughWaitAll) {
  obs::MetricsRegistry registry;
  sim::FaultConfig config;
  config.seed = 1;
  config.kernel_fault_rate = 1.0;
  sim::FaultInjector injector(config, &registry);

  StreamPool pool(device_, 2, &registry, &injector);
  const StreamHandle s = pool.GetAvailableStream();
  const sim::CommandId kernel_id =
      pool.SetStreamCommand(s, PoolCommand{Kernel(1.0), {}});
  sim::CommandSpec copy;
  copy.kind = sim::CommandKind::kCopyH2D;
  copy.duration = 1.0;
  const sim::CommandId copy_id = pool.SetStreamCommand(s, PoolCommand{copy, {}});
  pool.StartStreams();

  const sim::TimelineStats& stats = pool.WaitAll();
  EXPECT_FALSE(stats.AllOk());
  EXPECT_FALSE(stats.commands[kernel_id].ok);
  EXPECT_TRUE(stats.commands[copy_id].ok);
  const std::vector<sim::CommandId> failed = pool.FailedCommands();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], kernel_id);
  EXPECT_EQ(registry.GetCounter("stream_pool.faulted_commands").value(), 1u);
}

TEST_F(StreamPoolTest, NoInjectorMeansNoFailedCommands) {
  StreamPool pool(device_, 1);
  pool.SetStreamCommand(pool.GetAvailableStream(), PoolCommand{Kernel(0.5), {}});
  EXPECT_TRUE(pool.FailedCommands().empty());  // before start
  pool.StartStreams();
  EXPECT_TRUE(pool.WaitAll().AllOk());
  EXPECT_TRUE(pool.FailedCommands().empty());
}

TEST_F(StreamPoolTest, DeviceInstanceLabelSeparatesMetrics) {
  // Standalone devices record unlabeled series; a device carrying a group
  // instance label gets a `device` label on every stream_pool series.
  obs::MetricsRegistry registry;

  StreamPool plain(device_, 1, &registry);
  plain.SetStreamCommand(plain.GetAvailableStream(), PoolCommand{Kernel(0.5), {}});
  plain.StartStreams();
  EXPECT_EQ(registry.GetCounter("stream_pool.runs").value(), 1u);

  sim::DeviceSimulator labeled;
  labeled.set_instance_label("dev3");
  StreamPool grouped(labeled, 1, &registry);
  grouped.SetStreamCommand(grouped.GetAvailableStream(),
                           PoolCommand{Kernel(0.5), {}});
  grouped.StartStreams();
  EXPECT_EQ(registry.GetCounter("stream_pool.runs", {{"device", "dev3"}}).value(),
            1u);
  EXPECT_EQ(registry
                .GetCounter("stream_pool.commands",
                            {{"kind", "KERNEL"}, {"device", "dev3"}})
                .value(),
            1u);
  // The labeled run did not touch the unlabeled series.
  EXPECT_EQ(registry.GetCounter("stream_pool.runs").value(), 1u);
}

TEST_F(StreamPoolTest, TraceSinkAnnotatesEveryCommandOutcome) {
  // A traced pool records one leaf span per command, carrying its simulated
  // interval and its injected stall / fault / corruption outcome, and the
  // session exporter renders one slice per leaf.
  obs::MetricsRegistry registry;
  sim::FaultConfig config;
  config.seed = 17;
  config.stall_rate = 0.3;
  config.copy_fault_rate = 0.2;
  config.kernel_fault_rate = 0.2;
  config.corrupt_h2d_rate = 0.3;
  config.corrupt_d2h_rate = 0.3;
  config.corrupt_kernel_rate = 0.3;
  const sim::FaultInjector injector(config, &registry);
  StreamPool pool(device_, 3, &registry, &injector);

  obs::Tracer tracer;
  obs::TraceContext trace;
  trace.query_id = tracer.NextQueryId();
  const obs::SpanId root = tracer.BeginSpan(trace, 0, "pool run", "host", 0.0);
  PoolTraceSink sink;
  sink.tracer = &tracer;
  sink.context = trace;
  sink.parent = root;
  pool.set_trace(std::move(sink));

  const std::size_t commands = 36;
  for (std::size_t i = 0; i < commands; ++i) {
    sim::CommandSpec spec = Kernel(0.001);
    if (i % 3 != 1) {
      spec.kind = i % 3 == 0 ? sim::CommandKind::kCopyH2D
                             : sim::CommandKind::kCopyD2H;
      spec.duration = 0.002;
    }
    spec.label = "cmd" + std::to_string(i);
    pool.SetStreamCommand(static_cast<StreamHandle>(i / 3 % 3),
                          PoolCommand{spec, {}});
  }
  pool.StartStreams();
  const sim::TimelineStats& stats = pool.WaitAll();
  tracer.EndSpan(trace, root, stats.makespan);
  tracer.FinishQuery(trace, /*failed=*/false, "");

  const obs::QueryTrace tree = tracer.Snapshot(trace.query_id);
  ASSERT_EQ(tree.spans.size(), commands + 1);
  using Kind = obs::SpanAnnotationKind;
  std::vector<Kind> seen;
  for (std::size_t i = 0; i < commands; ++i) {
    const obs::Span& leaf = tree.spans[i + 1];
    const sim::CommandTiming& timing = stats.commands[i];
    EXPECT_EQ(leaf.parent, root);
    EXPECT_EQ(leaf.name, "cmd" + std::to_string(i));
    EXPECT_EQ(leaf.sim_start, timing.start);
    EXPECT_EQ(leaf.sim_end, timing.end);
    std::vector<Kind> expected;
    if (timing.fault == sim::FaultKind::kStreamStall) {
      expected.push_back(Kind::kStall);
    } else if (timing.fault != sim::FaultKind::kNone) {
      expected.push_back(Kind::kFault);
    }
    if (timing.corrupted) expected.push_back(Kind::kCorruption);
    std::vector<Kind> annotated;
    for (const obs::SpanAnnotation& note : leaf.annotations) {
      annotated.push_back(note.kind);
    }
    EXPECT_EQ(annotated, expected) << "command " << i;
    seen.insert(seen.end(), expected.begin(), expected.end());
  }
  for (Kind kind : {Kind::kStall, Kind::kFault, Kind::kCorruption}) {
    EXPECT_NE(std::find(seen.begin(), seen.end(), kind), seen.end())
        << obs::ToString(kind) << " never drawn";
  }

  std::size_t leaf_slices = 0;
  const obs::Json session = obs::ToSessionTraceJson(tracer, false);
  for (const obs::Json& event : session.at("traceEvents").array()) {
    if (event.at("ph").str() == "X" && event.at("name").str() != "pool run") {
      ++leaf_slices;
    }
  }
  EXPECT_EQ(leaf_slices, commands);
}

}  // namespace
}  // namespace kf::stream
