// Heterogeneous placement of fused kernels (paper Section III-C, closing
// paragraph): "if using an execution model translator such as Ocelot, it is
// possible to execute fused kernels on both the CPU and GPU to fully
// utilize the available computation power. This is the subject of ongoing
// research." This module implements that ongoing-research piece for the
// simulated machine: a cost-based placement decision per fusion cluster.
//
// The trade is exactly the one the paper's Figure 1 sets up: the device is
// ~10x faster at streaming computation, but host-resident inputs must cross
// PCIe to reach it. Small clusters therefore run cheaper on the host (the
// translated fused kernel over the host thread pool); large streaming
// clusters belong on the device. The crossover is a few megabytes.
#ifndef KF_CORE_HETERO_H_
#define KF_CORE_HETERO_H_

#include "core/fusion_planner.h"
#include "core/operator_cost.h"
#include "sim/device_simulator.h"

namespace kf::core {

class CostModelCalibrator;

enum class Placement : std::uint8_t { kDevice, kHost };
const char* ToString(Placement placement);

struct PlacementDecision {
  Placement placement = Placement::kDevice;
  // Cluster execution time on each engine, including the transfers that
  // placement implies (host-resident input: H2D+D2H for device placement,
  // nothing for host placement).
  SimTime device_time = 0.0;
  SimTime host_time = 0.0;
};

class HeterogeneousScheduler {
 public:
  // The translated fused kernel on the 16-thread host (Ocelot-style):
  // sustained memory bandwidth and scalar op rate.
  static constexpr double kHostMemBandwidthGbs = 12.0;
  static constexpr double kHostOpsPerSecond = 3.0e10;  // 8 cores x 2.27 GHz x ~1.65 IPC
  // Parallel-section launch overhead.
  static constexpr SimTime kDispatchOverhead = 20.0 * kMicrosecond;

  explicit HeterogeneousScheduler(const sim::DeviceSimulator& device) : device_(device) {}

  // Decides where one fused cluster should run. `input_on_host` says whether
  // the streamed input currently lives in host memory (true for sources);
  // `output_to_host` whether the result must end up there (true for sinks).
  PlacementDecision Decide(const OpGraph& graph, const FusionCluster& cluster,
                           const std::vector<RealizedSizes>& member_sizes,
                           bool input_on_host = true,
                           bool output_to_host = true) const;

  // Measured, not static, ratios (core/calibration.h): with a calibrator
  // attached, the device-side estimate uses the believed model × learned
  // corrections instead of the true device's analytic model — so placement
  // reflects what the device has actually been doing. The host side stays
  // analytic (the host is directly measurable and never miscalibrated here).
  void set_calibration(const CostModelCalibrator* calibration) {
    calibration_ = calibration;
  }

 private:
  const sim::DeviceSimulator& device_;
  const CostModelCalibrator* calibration_ = nullptr;
};

}  // namespace kf::core

#endif  // KF_CORE_HETERO_H_
