// Facade tying the device model together.
//
// A `DeviceSimulator` owns the device spec, the PCIe model, the kernel cost
// model, and a device-memory capacity model, and provides helpers to build
// timeline commands from high-level descriptions (transfer N bytes, run this
// kernel profile). The helpers are pure cost functions: what a run did is
// recorded by whoever runs the commands. Executors in `core/` talk to this
// facade only.
#ifndef KF_SIM_DEVICE_SIMULATOR_H_
#define KF_SIM_DEVICE_SIMULATOR_H_

#include <cstdint>
#include <string>

#include "sim/device_spec.h"
#include "sim/kernel_cost_model.h"
#include "sim/memory_model.h"
#include "sim/pcie_model.h"
#include "sim/timeline.h"

namespace kf::sim {

class DeviceSimulator {
 public:
  explicit DeviceSimulator(DeviceSpec spec = DeviceSpec::TeslaC2070(),
                           PcieConfig pcie = PcieConfig{})
      : spec_(std::move(spec)),
        pcie_(pcie),
        cost_model_(spec_),
        memory_(spec_.mem_capacity_bytes) {}

  const DeviceSpec& spec() const { return spec_; }
  const PcieModel& pcie() const { return pcie_; }
  const KernelCostModel& cost_model() const { return cost_model_; }
  DeviceMemoryModel& memory() { return memory_; }
  const DeviceMemoryModel& memory() const { return memory_; }

  // Instance label distinguishing devices of a DeviceGroup ("dev0", "dev1",
  // ...). Empty for a standalone device; QueryExecutor adds a `device` label
  // to every series a run records only when set, so single-device metrics
  // keep their original label sets.
  void set_instance_label(std::string label) { instance_label_ = std::move(label); }
  const std::string& instance_label() const { return instance_label_; }

  // Creates a fresh timeline bound to this device.
  Timeline NewTimeline() const { return Timeline(spec_); }

  // Builds a copy command of `bytes` in `direction` using `kind` host memory.
  CommandSpec MakeCopy(std::uint64_t bytes, CopyDirection direction,
                       HostMemoryKind kind, std::string label = {}) const {
    CommandSpec cmd;
    cmd.kind = direction == CopyDirection::kHostToDevice ? CommandKind::kCopyH2D
                                                         : CommandKind::kCopyD2H;
    cmd.duration = pcie_.TransferTime(bytes, kind, direction);
    cmd.label = std::move(label);
    return cmd;
  }

  // Builds a kernel command from a cost-model profile.
  CommandSpec MakeKernel(const KernelProfile& profile) const {
    const KernelCost cost = cost_model_.Cost(profile);
    CommandSpec cmd;
    cmd.kind = CommandKind::kKernel;
    cmd.solo_duration = cost.solo_duration;
    cmd.demand = cost.demand;
    cmd.label = profile.label;
    return cmd;
  }

  // Builds a host-side compute command (e.g. the CPU gather after fission)
  // modeled as memory-bandwidth-bound on the host.
  CommandSpec MakeHostWork(std::uint64_t bytes_touched, std::string label = {}) const {
    CommandSpec cmd;
    cmd.kind = CommandKind::kHostCompute;
    cmd.duration = static_cast<double>(bytes_touched) /
                   (spec_.host_mem_bandwidth_gbs * kGB);
    cmd.label = std::move(label);
    return cmd;
  }

 private:
  DeviceSpec spec_;
  PcieModel pcie_;
  KernelCostModel cost_model_;
  DeviceMemoryModel memory_;
  std::string instance_label_;
};

}  // namespace kf::sim

#endif  // KF_SIM_DEVICE_SIMULATOR_H_
