#include "stream/stream_pool.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
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

TEST_F(StreamPoolTest, SetStreamCommandRejectsWhatTheTimelineRejects) {
  // The pool's commands live in a timeline, so a malformed command fails as
  // it is set, and the commands set before it still run.
  StreamPool pool(device_, 1);
  const StreamHandle s = pool.GetAvailableStream();
  pool.SetStreamCommand(s, Kernel(0.5));
  sim::CommandSpec negative;
  negative.kind = sim::CommandKind::kCopyH2D;
  negative.duration = -1.0;
  EXPECT_THROW(pool.SetStreamCommand(s, negative), kf::InvalidArgument);
  sim::CommandSpec dangling = Kernel(0.5);
  dangling.dependencies = {7};
  EXPECT_THROW(pool.SetStreamCommand(s, dangling), kf::InvalidArgument);
  pool.StartStreams();
  EXPECT_EQ(pool.WaitAll().commands.size(), 1u);
  EXPECT_NEAR(pool.WaitAll().makespan, 0.5, 1e-9);
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
  sim::FaultConfig config;
  config.seed = 1;
  config.kernel_fault_rate = 1.0;
  sim::FaultInjector injector(config);

  StreamPool pool(device_, 2, &injector);
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
}

TEST_F(StreamPoolTest, NoInjectorMeansNoFailedCommands) {
  StreamPool pool(device_, 1);
  pool.SetStreamCommand(pool.GetAvailableStream(), Kernel(0.5));
  EXPECT_TRUE(pool.FailedCommands().empty());  // before start
  pool.StartStreams();
  EXPECT_TRUE(pool.WaitAll().AllOk());
  EXPECT_TRUE(pool.FailedCommands().empty());
}

}  // namespace
}  // namespace kf::stream
