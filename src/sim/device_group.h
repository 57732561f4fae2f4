// A group of simulated devices sharing one PCIe root complex.
//
// The paper's fission pipeline overlaps copy and compute on a single C2070;
// the same segmentation is the natural unit for sharding work across
// *several* cards. A `DeviceGroup` models the fleet: N independent devices
// (own spec, cost model, memory accounting) whose host links hang off one
// root complex, so concurrent H2D/D2H traffic on different devices contends
// for the aggregate host-side bandwidth the way real multi-GPU nodes do
// (see docs/multi_device.md for the contention model and calibration).
//
// Contention model: each device's link runs at full PcieConfig bandwidth
// while the sum of concurrently active links stays under the root complex's
// aggregate bandwidth; beyond that every active link is derated by the
// oversubscription ratio (fair sharing). The derating is applied up front to
// a run's transfer times via `ContendedView` — a value `DeviceSimulator`
// whose PCIe bandwidths are scaled for the number of concurrently streaming
// devices — which keeps per-device timelines independent and deterministic.
#ifndef KF_SIM_DEVICE_GROUP_H_
#define KF_SIM_DEVICE_GROUP_H_

#include <memory>
#include <string>
#include <vector>

#include "sim/device_simulator.h"

namespace kf::sim {

// The shared host-side transfer fabric. The default aggregate is calibrated
// for a dual-IOH board of the paper's era: two x16 Gen2 slots run at full
// tilt (2 x 6.3 GB/s), four slots oversubscribe the complex by ~15%.
struct RootComplexConfig {
  double aggregate_bandwidth_gbs = 22.0;
  std::string name = "PCIe 2.0 root complex";
};

class DeviceGroup {
 public:
  // One entry in `specs` per device; every device shares `pcie` link
  // parameters and the root complex. The group records nothing: runs on it
  // record into their executor options' registry.
  explicit DeviceGroup(std::vector<DeviceSpec> specs,
                       PcieConfig pcie = PcieConfig{},
                       RootComplexConfig root = RootComplexConfig{});

  // N identical devices (the common homogeneous-fleet case).
  static DeviceGroup Homogeneous(int device_count,
                                 DeviceSpec spec = DeviceSpec::TeslaC2070(),
                                 PcieConfig pcie = PcieConfig{},
                                 RootComplexConfig root = RootComplexConfig{});

  int device_count() const { return static_cast<int>(devices_.size()); }

  // The persistent per-device simulators (stable addresses for the lifetime
  // of the group; each has its own DeviceMemoryModel).
  DeviceSimulator& device(int i) { return *devices_.at(static_cast<std::size_t>(i)); }
  const DeviceSimulator& device(int i) const {
    return *devices_.at(static_cast<std::size_t>(i));
  }

  const RootComplexConfig& root_complex() const { return root_; }
  const PcieConfig& pcie_config() const { return pcie_; }

  // Peak PCIe demand of device `i`'s link in GB/s (pinned, faster direction).
  double DeviceLinkPeakGbs(int i) const;

  // Bandwidth derating factor (>= 1.0) when the `concurrent` highest-demand
  // links stream transfers simultaneously. Transfer durations scale by this.
  double TransferDerating(int concurrent) const;

  // A value DeviceSimulator for device `i` whose PCIe bandwidths are derated
  // for `concurrent` simultaneously-streaming devices. Its memory model is
  // fresh (executors account capacity per run); spec, cost model and
  // instance label match the persistent device. `concurrent` of 1
  // reproduces the persistent device's transfer times exactly.
  DeviceSimulator ContendedView(int i, int concurrent) const;

 private:
  // unique_ptr for address stability: executors hold `const DeviceSimulator&`.
  std::vector<std::unique_ptr<DeviceSimulator>> devices_;
  PcieConfig pcie_;
  RootComplexConfig root_;
};

}  // namespace kf::sim

#endif  // KF_SIM_DEVICE_GROUP_H_
