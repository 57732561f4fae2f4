#include "cpu/cpu_select.h"

#include <array>
#include <utility>

#include "common/error.h"

namespace kf::cpu {

namespace {

// Piecewise-linear calibration at the comparator's 16 threads: selectivity
// -> input throughput (GB/s). Interpolated; endpoints clamp.
constexpr std::array<std::pair<double, double>, 7> kThroughputGbs = {{
    {0.0, 9.0}, {0.10, 7.5}, {0.25, 4.3}, {0.50, 2.3}, {0.75, 1.95},
    {0.90, 1.75}, {1.0, 1.6}}};
// Elements below which threading overhead dominates (throughput ramps
// linearly from ~1/4 of peak).
constexpr std::uint64_t kRampElements = 1u << 20;

}  // namespace

double CpuSelectModel::ThroughputGBs(std::uint64_t elements, double selectivity) const {
  KF_REQUIRE(selectivity >= 0.0 && selectivity <= 1.0)
      << "selectivity " << selectivity << " out of [0,1]";
  const auto& table = kThroughputGbs;
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
  // Small inputs pay threading/fork-join overhead.
  if (elements < kRampElements) {
    const double f = static_cast<double>(elements) / static_cast<double>(kRampElements);
    base *= 0.25 + 0.75 * f;
  }
  return base;
}

SimTime CpuSelectModel::SelectTime(std::uint64_t elements, double selectivity) const {
  const double bytes = static_cast<double>(elements) * 4.0;
  return bytes / (ThroughputGBs(elements, selectivity) * kGB);
}

}  // namespace kf::cpu
