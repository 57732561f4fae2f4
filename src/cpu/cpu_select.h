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

#include "common/units.h"

namespace kf::cpu {

// Throughput model of the paper's 16-thread Xeon E5520 comparator: a
// piecewise-linear calibration table (selectivity -> input throughput) with
// a ramp for small inputs (cpu_select.cc).
class CpuSelectModel {
 public:
  // Input-side throughput in GB/s for selecting `selectivity` of `elements`
  // 32-bit integers.
  double ThroughputGBs(std::uint64_t elements, double selectivity) const;

  // Wall time for the same operation.
  SimTime SelectTime(std::uint64_t elements, double selectivity) const;
};

}  // namespace kf::cpu

#endif  // KF_CPU_CPU_SELECT_H_
