// CPU comparator for the SELECT operator (paper Fig 4a).
//
// `CpuSelectModel` is a throughput model of the paper's comparator (dual
// quad-core Xeon E5520, 16 threads), calibrated against Figure 4(a): roughly
// 7.5 GB/s at 10% selectivity falling to ~1.8 GB/s at 90%, 2.9x-8.8x below
// the device. The simulated experiments compare the device model against
// this model, not against the host CPU that runs them.
#ifndef KF_CPU_CPU_SELECT_H_
#define KF_CPU_CPU_SELECT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.h"

namespace kf::cpu {

// Throughput model of the paper's 16-thread Xeon E5520 comparator.
class CpuSelectModel {
 public:
  struct Config {
    int threads = 16;
    int calibration_threads = 16;  // thread count the table below reflects
    // Piecewise-linear calibration: selectivity -> input throughput (GB/s).
    // Interpolated; endpoints clamp.
    std::vector<std::pair<double, double>> throughput_gbs = {
        {0.0, 9.0}, {0.10, 7.5}, {0.25, 4.3}, {0.50, 2.3}, {0.75, 1.95},
        {0.90, 1.75}, {1.0, 1.6}};
    // Elements below which threading overhead dominates (throughput ramps
    // linearly from ~1/4 of peak).
    std::uint64_t ramp_elements = 1u << 20;
  };

  CpuSelectModel() = default;
  explicit CpuSelectModel(Config config) : config_(std::move(config)) {}

  // Input-side throughput in GB/s for selecting `selectivity` of `elements`
  // 32-bit integers.
  double ThroughputGBs(std::uint64_t elements, double selectivity) const;

  // Wall time for the same operation.
  SimTime SelectTime(std::uint64_t elements, double selectivity) const;

 private:
  Config config_;
};

}  // namespace kf::cpu

#endif  // KF_CPU_CPU_SELECT_H_
