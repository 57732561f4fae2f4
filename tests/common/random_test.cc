#include "common/random.h"

#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <limits>
#include <set>

namespace kf {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.UniformInt(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(Rng, UniformIntRejectsEmptyRange) {
  Rng rng(7);
  EXPECT_THROW(rng.UniformInt(3, 2), Error);
}

// Ranges wider than INT64_MAX compute their span and offset without signed
// overflow (run under UBSan), and ordinary ranges still draw the values that
// TPC-H datagen, the workloads and graph_fuzz were generated with.
TEST(Rng, UniformIntFullWidthRangesAndPinnedDraws) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Rng full(3), raw(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(full.UniformInt(kMin, kMax), static_cast<std::int64_t>(raw()));
  }
  Rng wide(4);
  bool negative = false, positive = false;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = wide.UniformInt(kMin, kMax - 1);
    EXPECT_LT(v, kMax);
    negative |= v < 0;
    positive |= v > 0;
  }
  EXPECT_TRUE(negative && positive);

  Rng rng(2024);
  const std::int64_t ranges[][2] = {{0, 9},
                                    {-50, 50},
                                    {0, (std::int64_t{1} << 31) - 1},
                                    {std::numeric_limits<std::int32_t>::min(),
                                     std::numeric_limits<std::int32_t>::max()},
                                    {-(std::int64_t{1} << 40), std::int64_t{1} << 40},
                                    {kMin / 2, kMax / 2}};
  const std::int64_t expected[][4] = {
      {0, 7, 0, 1},
      {28, -26, -11, -25},
      {1195687220, 108807715, 1546928772, 2000873751},
      {1640665861, -574130624, 1174285271, -1331842284},
      {-1005276586247, 335850775849, 681815499622, -215673786640},
      {1376175256636076296, -1807882634316991418, -2816231921752598201,
       -750201976001025157}};
  for (std::size_t r = 0; r < std::size(ranges); ++r) {
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(rng.UniformInt(ranges[r][0], ranges[r][1]), expected[r][i])
          << "range " << r << ", draw " << i;
    }
  }
}

TEST(Rng, UniformIntCoversRangeRoughlyUniformly) {
  Rng rng(99);
  std::array<int, 10> buckets{};
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++buckets[static_cast<std::size_t>(rng.UniformInt(0, 9))];
  for (int count : buckets) {
    EXPECT_NEAR(count, draws / 10, draws / 50);  // within 20% of expectation
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(11);
  int heads = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    if (rng.Bernoulli(0.3)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / draws, 0.3, 0.01);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(13);
  Rng child = parent.Split();
  std::set<std::uint64_t> values;
  for (int i = 0; i < 50; ++i) {
    values.insert(parent());
    values.insert(child());
  }
  EXPECT_EQ(values.size(), 100u);  // no collisions in practice
}

TEST(SplitMix, IsDeterministic) {
  std::uint64_t s1 = 42, s2 = 42;
  EXPECT_EQ(SplitMix64(s1), SplitMix64(s2));
  EXPECT_EQ(s1, s2);
}

}  // namespace
}  // namespace kf
