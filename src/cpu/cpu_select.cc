#include "cpu/cpu_select.h"

#include <algorithm>

#include "common/error.h"

namespace kf::cpu {

double CpuSelectModel::ThroughputGBs(std::uint64_t elements, double selectivity) const {
  KF_REQUIRE(selectivity >= 0.0 && selectivity <= 1.0)
      << "selectivity " << selectivity << " out of [0,1]";
  const auto& table = config_.throughput_gbs;
  KF_REQUIRE(!table.empty()) << "empty calibration table";
  double base = table.back().second;
  if (selectivity <= table.front().first) {
    base = table.front().second;
  } else {
    for (std::size_t i = 1; i < table.size(); ++i) {
      if (selectivity <= table[i].first) {
        const auto [x0, y0] = table[i - 1];
        const auto [x1, y1] = table[i];
        base = y0 + (y1 - y0) * (selectivity - x0) / (x1 - x0);
        break;
      }
    }
  }
  // Thread scaling relative to the calibration point (sub-linear: the
  // comparator is memory-bound beyond ~half the sockets' cores).
  if (config_.threads != config_.calibration_threads) {
    const double ratio = static_cast<double>(config_.threads) /
                         static_cast<double>(config_.calibration_threads);
    base *= std::min(1.5, std::max(0.1, 0.4 + 0.6 * ratio));
  }
  // Small inputs pay threading/fork-join overhead.
  if (elements < config_.ramp_elements) {
    const double f = static_cast<double>(elements) /
                     static_cast<double>(config_.ramp_elements);
    base *= 0.25 + 0.75 * f;
  }
  return base;
}

SimTime CpuSelectModel::SelectTime(std::uint64_t elements, double selectivity) const {
  const double bytes = static_cast<double>(elements) * 4.0;
  return bytes / (ThroughputGBs(elements, selectivity) * kGB);
}

}  // namespace kf::cpu
