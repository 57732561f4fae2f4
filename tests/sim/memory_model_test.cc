#include "sim/memory_model.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace kf::sim {
namespace {

TEST(DeviceMemoryModel, TracksUsage) {
  DeviceMemoryModel mem(MiB(100));
  EXPECT_EQ(mem.used(), 0u);
  const AllocationId a = mem.Allocate(MiB(30), "a");
  const AllocationId b = mem.Allocate(MiB(50), "b");
  EXPECT_EQ(mem.used(), MiB(80));
  EXPECT_EQ(mem.free_bytes(), MiB(20));
  mem.Free(a);
  EXPECT_EQ(mem.used(), MiB(50));
  mem.Free(b);
  EXPECT_EQ(mem.used(), 0u);
}

TEST(DeviceMemoryModel, ThrowsOnExhaustion) {
  DeviceMemoryModel mem(MiB(10));
  (void)mem.Allocate(MiB(8));
  EXPECT_FALSE(mem.CanAllocate(MiB(4)));
  EXPECT_THROW(mem.Allocate(MiB(4)), Error);
}

TEST(DeviceMemoryModel, ExactFitSucceeds) {
  DeviceMemoryModel mem(MiB(10));
  EXPECT_TRUE(mem.CanAllocate(MiB(10)));
  (void)mem.Allocate(MiB(10));
  EXPECT_EQ(mem.free_bytes(), 0u);
}

TEST(DeviceMemoryModel, HighWaterMarkPersistsAfterFree) {
  DeviceMemoryModel mem(MiB(100));
  const AllocationId a = mem.Allocate(MiB(70));
  mem.Free(a);
  (void)mem.Allocate(MiB(10));
  EXPECT_EQ(mem.high_water_mark(), MiB(70));
}

TEST(DeviceMemoryModel, DoubleFreeThrows) {
  DeviceMemoryModel mem(MiB(10));
  const AllocationId a = mem.Allocate(MiB(1));
  mem.Free(a);
  EXPECT_THROW(mem.Free(a), Error);
}

TEST(DeviceMemoryModel, ResetClearsEverything) {
  DeviceMemoryModel mem(MiB(10));
  (void)mem.Allocate(MiB(5));
  mem.Reset();
  EXPECT_EQ(mem.used(), 0u);
  EXPECT_EQ(mem.high_water_mark(), 0u);
  (void)mem.Allocate(MiB(10));  // full capacity again
}

TEST(DeviceMemoryModel, ZeroByteAllocationIsFine) {
  DeviceMemoryModel mem(MiB(1));
  const AllocationId a = mem.Allocate(0);
  mem.Free(a);
}

TEST(DeviceMemoryModel, GenuineExhaustionThrowsCapacityExceeded) {
  DeviceMemoryModel mem(MiB(10));
  (void)mem.Allocate(MiB(8));
  EXPECT_THROW(mem.Allocate(MiB(4)), CapacityExceeded);
}

TEST(DeviceMemoryModel, InjectedOomThrowsDeviceFault) {
  FaultConfig config;
  config.seed = 1;
  config.oom_rate = 1.0;  // every reservation fails
  FaultInjector injector(config);
  DeviceMemoryModel mem(MiB(100));
  mem.set_fault_injector(&injector);
  EXPECT_THROW(mem.Allocate(MiB(1), "victim"), DeviceFault);
  // The injected fault is transient: accounting is untouched, so a retry
  // has the full capacity available.
  EXPECT_EQ(mem.used(), 0u);
  EXPECT_EQ(mem.high_water_mark(), 0u);
  EXPECT_TRUE(mem.CanAllocate(MiB(100)));
}

TEST(DeviceMemoryModel, InjectedOomIsTransient) {
  FaultConfig config;
  config.seed = 3;
  config.oom_rate = 0.5;
  FaultInjector injector(config);
  DeviceMemoryModel mem(MiB(100));
  mem.set_fault_injector(&injector);
  // With rate 0.5 some reservation must eventually succeed; accounting then
  // reflects exactly the successful ones.
  int successes = 0;
  for (int i = 0; i < 20; ++i) {
    try {
      const AllocationId a = mem.Allocate(MiB(1));
      ++successes;
      mem.Free(a);
    } catch (const DeviceFault&) {
    }
    EXPECT_EQ(mem.used(), 0u);
  }
  EXPECT_GT(successes, 0);
}

}  // namespace
}  // namespace kf::sim
