// Order statistics shared by the end-to-end harness and its compare tool.
#ifndef KF_BENCH_E2E_STATS_H_
#define KF_BENCH_E2E_STATS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace kf::bench::e2e {

// Linear-interpolated percentile `p` (0..100) of `values`; 0 when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

// The highest of the usual reporting percentiles that still has at least ten
// samples above it, so a tail number is never one or two outliers; 50 (the
// median) when even p75 is unsupported.
inline double HighestSupportedPercentile(std::size_t samples) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

// First quartile, median and third quartile with the exclusive method of
// Python's statistics.quantiles(values, n=4), so the numbers this tool prints
// match a spread computed by hand from the same runs. Needs two values; with
// one, all three are that value.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  // Interquartile range as a share of the median (0 when the median is 0).
  double RelativeSpread() const { return median != 0.0 ? (q3 - q1) / median : 0.0; }
};

inline Quartiles QuartilesOf(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) {
    q.q1 = q.median = q.q3 = values[0];
    return q;
  }
  auto exclusive = [&](long i) {
    // statistics.quantiles, method='exclusive': j = i*(n+1) // 4 clamped to
    // [1, n-1], then interpolation (or extrapolation, after clamping) by
    // delta = i*(n+1) - 4*j quarters.
    const long ld = static_cast<long>(n);
    const long scaled = i * (ld + 1);
    const long j = std::clamp(scaled / 4, 1L, ld - 1);
    const long delta = scaled - 4 * j;
    const auto lo = static_cast<std::size_t>(j - 1);
    return (values[lo] * static_cast<double>(4 - delta) +
            values[lo + 1] * static_cast<double>(delta)) /
           4.0;
  };
  q.q1 = exclusive(1);
  q.median = exclusive(2);
  q.q3 = exclusive(3);
  return q;
}

}  // namespace kf::bench::e2e

#endif  // KF_BENCH_E2E_STATS_H_
