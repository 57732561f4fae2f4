#include "stream/stream_pool.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
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
  pool.SetStreamCommand(s, Kernel(1.0));
  pool.SetStreamCommand(s, Kernel(1.0));
  pool.StartStreams();
  EXPECT_NEAR(pool.WaitAll().makespan, 2.0, 1e-9);
}

TEST_F(StreamPoolTest, SelectWaitOrdersAcrossStreams) {
  StreamPool pool(device_, 2);
  const StreamHandle a = pool.GetAvailableStream();
  const StreamHandle b = pool.GetAvailableStream();
  pool.SetStreamCommand(a, Kernel(1.0, 0.25));
  // b's next command waits on a's last command (Table IV selectWait).
  pool.SelectWait(b, a);
  pool.SetStreamCommand(b, Kernel(1.0, 0.25));
  pool.StartStreams();
  // Without the wait the two low-demand kernels would overlap (~1.0).
  EXPECT_NEAR(pool.WaitAll().makespan, 2.0, 1e-9);
}

TEST_F(StreamPoolTest, WithoutSelectWaitLowDemandKernelsOverlap) {
  StreamPool pool(device_, 2);
  const StreamHandle a = pool.GetAvailableStream();
  const StreamHandle b = pool.GetAvailableStream();
  pool.SetStreamCommand(a, Kernel(1.0, 0.25));
  pool.SetStreamCommand(b, Kernel(1.0, 0.25));
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
  pool.SetStreamCommand(pool.GetAvailableStream(), Kernel(0.1));
  pool.StartStreams();
  EXPECT_THROW(pool.StartStreams(), kf::Error);
}

TEST_F(StreamPoolTest, TerminateResetsForReuse) {
  StreamPool pool(device_, 2);
  const StreamHandle s = pool.GetAvailableStream();
  pool.SetStreamCommand(s, Kernel(0.5));
  pool.StartStreams();
  EXPECT_TRUE(pool.started());
  pool.Terminate();
  EXPECT_FALSE(pool.started());
  // Fresh lease and fresh commands work after terminate.
  const StreamHandle s2 = pool.GetAvailableStream();
  pool.SetStreamCommand(s2, Kernel(0.25));
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
    pool.SetStreamCommand(h, up);
    pool.SetStreamCommand(h, Kernel(1.0));
    sim::CommandSpec down;
    down.kind = sim::CommandKind::kCopyD2H;
    down.duration = 1.0;
    pool.SetStreamCommand(h, down);
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
  sim::FaultInjector injector(config);

  StreamPool pool(device_, 2, &registry, &injector);
  const StreamHandle s = pool.GetAvailableStream();
  const sim::CommandId kernel_id =
      pool.SetStreamCommand(s, Kernel(1.0));
  sim::CommandSpec copy;
  copy.kind = sim::CommandKind::kCopyH2D;
  copy.duration = 1.0;
  const sim::CommandId copy_id = pool.SetStreamCommand(s, copy);
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

TEST_F(StreamPoolTest, RecordsEveryFaultStallAndCorruptionOfTheRun) {
  // The injector records nothing; the pool's run record counts each faulted,
  // stalled and corrupted command, exactly as the timeline tallies them.
  obs::MetricsRegistry registry;
  sim::FaultConfig config;
  config.seed = 7;
  config.copy_fault_rate = 0.2;
  config.kernel_fault_rate = 0.2;
  config.stall_rate = 0.2;
  config.corrupt_h2d_rate = 0.2;
  config.corrupt_d2h_rate = 0.2;
  config.corrupt_kernel_rate = 0.2;
  sim::FaultInjector injector(config);

  StreamPool pool(device_, 3, &registry, &injector);
  for (int segment = 0; segment < 30; ++segment) {
    const StreamHandle s = segment % 3;
    sim::CommandSpec up;
    up.kind = sim::CommandKind::kCopyH2D;
    up.duration = 1.0;
    pool.SetStreamCommand(s, up);
    pool.SetStreamCommand(s, Kernel(1.0));
    sim::CommandSpec down;
    down.kind = sim::CommandKind::kCopyD2H;
    down.duration = 1.0;
    pool.SetStreamCommand(s, down);
  }
  pool.StartStreams();

  const sim::TimelineStats& stats = pool.WaitAll();
  ASSERT_GT(stats.fault_count, 0u);
  ASSERT_GT(stats.stall_count, 0u);
  ASSERT_GT(stats.corrupted_count, 0u);
  EXPECT_EQ(registry.GetCounter("stream_pool.faulted_commands").value(),
            stats.fault_count);
  EXPECT_EQ(registry.GetCounter("stream_pool.stalled_commands").value(),
            stats.stall_count);
  EXPECT_EQ(registry.GetCounter("stream_pool.corrupted_commands").value(),
            stats.corrupted_count);
}

TEST_F(StreamPoolTest, NoInjectorMeansNoFailedCommands) {
  StreamPool pool(device_, 1);
  pool.SetStreamCommand(pool.GetAvailableStream(), Kernel(0.5));
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
  plain.SetStreamCommand(plain.GetAvailableStream(), Kernel(0.5));
  plain.StartStreams();
  EXPECT_EQ(registry.GetCounter("stream_pool.runs").value(), 1u);

  sim::DeviceSimulator labeled;
  labeled.set_instance_label("dev3");
  StreamPool grouped(labeled, 1, &registry);
  grouped.SetStreamCommand(grouped.GetAvailableStream(), Kernel(0.5));
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

TEST_F(StreamPoolTest, CountsEveryCommandKindOncePerRun) {
  // A Fig 13 pipeline with a host gather: every kind the run issued gets its
  // count in `stream_pool.commands{kind}`, and kinds it never issued get no
  // series at all.
  obs::MetricsRegistry registry;
  StreamPool pool(device_, 3, &registry);
  sim::CommandId last_download = 0;
  for (int s = 0; s < 4; ++s) {
    const StreamHandle h = s % 3;
    pool.SetStreamCommand(h, device_.MakeCopy(1024, sim::CopyDirection::kHostToDevice,
                                              sim::HostMemoryKind::kPinned));
    pool.SetStreamCommand(h, Kernel(0.001));
    pool.SetStreamCommand(h, Kernel(0.001));
    last_download = pool.SetStreamCommand(
        h, device_.MakeCopy(512, sim::CopyDirection::kDeviceToHost,
                            sim::HostMemoryKind::kPinned));
  }
  sim::CommandSpec gather = device_.MakeHostWork(4096);
  gather.dependencies = {last_download};
  pool.SetStreamCommand(0, gather);
  pool.StartStreams();

  const auto commands = [&](const char* kind) {
    return registry.GetCounter("stream_pool.commands", {{"kind", kind}}).value();
  };
  EXPECT_EQ(registry.GetCounter("stream_pool.runs").value(), 1u);
  EXPECT_EQ(commands("H2D"), 4u);
  EXPECT_EQ(commands("KERNEL"), 8u);
  EXPECT_EQ(commands("D2H"), 4u);
  EXPECT_EQ(commands("HOST"), 1u);

  obs::MetricsRegistry kernels_only;
  StreamPool compute(device_, 2, &kernels_only);
  compute.SetStreamCommand(0, Kernel(0.5));
  compute.SetStreamCommand(1, Kernel(0.5));
  compute.StartStreams();
  const obs::Json counters = kernels_only.ToJson().at("counters");
  EXPECT_EQ(counters.at("stream_pool.commands{kind=KERNEL}").number(), 2.0);
  for (const char* absent : {"H2D", "D2H", "HOST"}) {
    EXPECT_FALSE(counters.Has(std::string("stream_pool.commands{kind=") + absent + "}"))
        << absent;
  }
}

}  // namespace
}  // namespace kf::stream
