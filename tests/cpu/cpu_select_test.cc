#include "cpu/cpu_select.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace kf::cpu {
namespace {

TEST(CpuSelectModel, CalibratedToPaperFig4a) {
  // Fig 4(a): CPU throughput falls from ~7.5 GB/s at 10% to ~1.8 at 90%.
  CpuSelectModel model;
  const std::uint64_t n = 200'000'000;
  EXPECT_NEAR(model.ThroughputGBs(n, 0.10), 7.5, 0.5);
  EXPECT_NEAR(model.ThroughputGBs(n, 0.50), 2.3, 0.3);
  EXPECT_NEAR(model.ThroughputGBs(n, 0.90), 1.75, 0.3);
}

TEST(CpuSelectModel, ThroughputMonotonicInSelectivity) {
  CpuSelectModel model;
  double last = 1e9;
  for (double s : {0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
    const double t = model.ThroughputGBs(100'000'000, s);
    EXPECT_LE(t, last) << "selectivity " << s;
    last = t;
  }
}

TEST(CpuSelectModel, SmallInputsRampDown) {
  CpuSelectModel model;
  EXPECT_LT(model.ThroughputGBs(10'000, 0.5), model.ThroughputGBs(100'000'000, 0.5));
}

TEST(CpuSelectModel, SelectTimeConsistentWithThroughput) {
  CpuSelectModel model;
  const std::uint64_t n = 50'000'000;
  const double gbs = model.ThroughputGBs(n, 0.5);
  EXPECT_NEAR(model.SelectTime(n, 0.5), n * 4.0 / (gbs * kGB), 1e-9);
}

TEST(CpuSelectModel, RejectsBadSelectivity) {
  CpuSelectModel model;
  EXPECT_THROW(model.ThroughputGBs(100, -0.1), Error);
  EXPECT_THROW(model.ThroughputGBs(100, 1.5), Error);
}

}  // namespace
}  // namespace kf::cpu
