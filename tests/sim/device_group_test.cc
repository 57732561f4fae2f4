// DeviceGroup: fleet construction, PCIe root-complex contention, and the
// derated ContendedView handed to per-shard executors.
#include "sim/device_group.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "sim/device_spec.h"

namespace kf::sim {
namespace {

TEST(DeviceGroupTest, HomogeneousBuildsLabeledIndependentDevices) {
  DeviceGroup group = DeviceGroup::Homogeneous(3);
  ASSERT_EQ(group.device_count(), 3);
  EXPECT_EQ(group.device(0).instance_label(), "dev0");
  EXPECT_EQ(group.device(2).instance_label(), "dev2");

  // Memory models are independent: an allocation on dev0 is invisible to
  // dev1's accounting.
  group.device(0).memory().Allocate(1024, "probe");
  EXPECT_GT(group.device(0).memory().used(), 0u);
  EXPECT_EQ(group.device(1).memory().used(), 0u);
}

TEST(DeviceGroupTest, RejectsEmptyAndBadConfigs) {
  EXPECT_THROW(DeviceGroup(std::vector<DeviceSpec>{}), kf::InvalidArgument);
  EXPECT_THROW(DeviceGroup::Homogeneous(0), kf::InvalidArgument);
}

TEST(DeviceGroupTest, TransferDeratingFollowsRootComplexOversubscription) {
  // Defaults: link peak = max(5.9, 6.3) = 6.3 GB/s, aggregate 22 GB/s.
  EXPECT_DOUBLE_EQ(DeviceGroup::kAggregateBandwidthGbs, 22.0);
  DeviceGroup group = DeviceGroup::Homogeneous(4);
  EXPECT_DOUBLE_EQ(group.DeviceLinkPeakGbs(0), 6.3);
  EXPECT_DOUBLE_EQ(group.TransferDerating(1), 1.0);
  // 2 x 6.3 = 12.6 < 22: two concurrent devices stream at full link speed.
  EXPECT_DOUBLE_EQ(group.TransferDerating(2), 1.0);
  // 4 x 6.3 = 25.2 > 22: every link is derated by the oversubscription.
  EXPECT_DOUBLE_EQ(group.TransferDerating(4), 25.2 / 22.0);
  // Clamped to the group size on both ends.
  EXPECT_DOUBLE_EQ(group.TransferDerating(0), 1.0);
  EXPECT_DOUBLE_EQ(group.TransferDerating(9), group.TransferDerating(4));
}

TEST(DeviceGroupTest, ContendedViewScalesTransferTimesNotCompute) {
  DeviceGroup group = DeviceGroup::Homogeneous(4);
  const std::uint64_t bytes = 256 * 1024 * 1024;

  const CommandSpec solo = group.device(1).MakeCopy(
      bytes, CopyDirection::kHostToDevice, HostMemoryKind::kPinned);
  // One concurrent streamer: byte-for-byte the persistent device's time.
  const DeviceSimulator view1 = group.ContendedView(1, 1);
  EXPECT_EQ(view1.instance_label(), "dev1");
  EXPECT_DOUBLE_EQ(view1
                       .MakeCopy(bytes, CopyDirection::kHostToDevice,
                                 HostMemoryKind::kPinned)
                       .duration,
                   solo.duration);

  // Four concurrent streamers: transfers slow by the derating factor...
  const double derating = group.TransferDerating(4);
  ASSERT_GT(derating, 1.0);
  const DeviceSimulator view4 = group.ContendedView(1, 4);
  const double contended = view4.MakeCopy(bytes, CopyDirection::kHostToDevice,
                                          HostMemoryKind::kPinned)
                               .duration;
  // Durations include a fixed latency term, so the ratio sits between 1 and
  // the pure-bandwidth derating; the bandwidth-bound part scales exactly.
  EXPECT_GT(contended, solo.duration);
  EXPECT_LE(contended, solo.duration * derating + 1e-12);

  // ...while kernel cost is untouched (contention is host-link-only).
  KernelProfile profile;
  profile.elements = 1 << 20;
  EXPECT_DOUBLE_EQ(view4.MakeKernel(profile).solo_duration,
                   group.device(1).MakeKernel(profile).solo_duration);

}

}  // namespace
}  // namespace kf::sim
