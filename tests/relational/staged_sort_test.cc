#include "relational/staged_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <numeric>

#include "common/error.h"
#include "common/random.h"

namespace kf::relational {
namespace {

std::vector<std::int32_t> RandomKeys(std::size_t n, std::uint64_t seed,
                                     std::int32_t lo, std::int32_t hi) {
  Rng rng(seed);
  std::vector<std::int32_t> v(n);
  for (auto& x : v) x = static_cast<std::int32_t>(rng.UniformInt(lo, hi));
  return v;
}

// Stable argsort by std::stable_sort: the permutation the radix passes
// must reproduce exactly.
std::vector<std::uint32_t> StableArgsort(const std::vector<std::int32_t>& keys) {
  std::vector<std::uint32_t> perm(keys.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return keys[a] < keys[b]; });
  return perm;
}

TEST(StagedRadixArgsort, ProducesSortedPermutation) {
  const auto keys = RandomKeys(20000, 11, -100, 100);
  const auto perm = StagedRadixArgsort(keys, 16);
  ASSERT_EQ(perm.size(), keys.size());
  for (std::size_t i = 1; i < perm.size(); ++i) {
    EXPECT_LE(keys[perm[i - 1]], keys[perm[i]]) << "at " << i;
  }
  // It is a permutation: every index exactly once.
  std::vector<bool> seen(keys.size(), false);
  for (std::uint32_t p : perm) {
    ASSERT_LT(p, keys.size());
    ASSERT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(StagedRadixArgsort, MatchesStdSortOnRandomData) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto keys = RandomKeys(10000, seed, -1000000, 1000000);
    EXPECT_EQ(StagedRadixArgsort(keys, 16), StableArgsort(keys)) << "seed " << seed;
  }
}

TEST(StagedRadixArgsort, HandlesNegativesAndExtremes) {
  const std::vector<std::int32_t> keys = {0,  -1, 1,  INT32_MAX, INT32_MIN,
                                          42, -42, 7, INT32_MIN, INT32_MAX};
  EXPECT_EQ(StagedRadixArgsort(keys, 3), StableArgsort(keys));
  const auto full_range = RandomKeys(5000, 9, INT32_MIN, INT32_MAX);
  EXPECT_EQ(StagedRadixArgsort(full_range, 16), StableArgsort(full_range));
}

TEST(StagedRadixArgsort, EmptyAndSingle) {
  EXPECT_TRUE(StagedRadixArgsort(std::vector<std::int32_t>{}, 4).empty());
  EXPECT_EQ(StagedRadixArgsort(std::vector<std::int32_t>{5}, 4),
            std::vector<std::uint32_t>{0});
}

TEST(StagedRadixArgsort, ChunkCountInvariance) {
  // Chunking changes how passes are split, never the result.
  const auto keys = RandomKeys(5000, 9, -500, 500);
  const auto expected = StableArgsort(keys);
  for (int chunks : {1, 3, 64, 448}) {
    EXPECT_EQ(StagedRadixArgsort(keys, chunks), expected) << chunks << " chunks";
  }
}

TEST(StagedRadixArgsort, ParallelMatchesSerial) {
  const auto keys = RandomKeys(100000, 10, INT32_MIN, INT32_MAX);
  ThreadPool pool(4);
  EXPECT_EQ(StagedRadixArgsort(keys, 32, &pool), StagedRadixArgsort(keys, 32));
}

TEST(StagedRadixArgsort, RejectsZeroChunks) {
  EXPECT_THROW(StagedRadixArgsort(std::vector<std::int32_t>{1}, 0), kf::Error);
}

TEST(StagedRadixArgsort, IsStable) {
  // Many duplicate keys: equal keys keep input order (LSD radix property) —
  // what makes multi-column lexicographic sorting by successive passes work.
  const auto keys = RandomKeys(5000, 12, 0, 7);
  const auto perm = StagedRadixArgsort(keys, 8);
  for (std::size_t i = 1; i < perm.size(); ++i) {
    if (keys[perm[i - 1]] == keys[perm[i]]) {
      EXPECT_LT(perm[i - 1], perm[i]) << "stability violated at " << i;
    }
  }
}

TEST(StagedRadixArgsort, ChainedPassesSortLexicographically) {
  // Sort by minor key then by major key (stable): lexicographic (major, minor).
  Rng rng(13);
  const std::size_t n = 3000;
  std::vector<std::int32_t> major(n), minor(n);
  for (std::size_t i = 0; i < n; ++i) {
    major[i] = static_cast<std::int32_t>(rng.UniformInt(0, 5));
    minor[i] = static_cast<std::int32_t>(rng.UniformInt(-9, 9));
  }
  // Pass 1: argsort by minor.
  const auto by_minor = StagedRadixArgsort(minor, 8);
  std::vector<std::int32_t> major_reordered(n), minor_reordered(n);
  for (std::size_t i = 0; i < n; ++i) {
    major_reordered[i] = major[by_minor[i]];
    minor_reordered[i] = minor[by_minor[i]];
  }
  // Pass 2: stable argsort by major.
  const auto by_major = StagedRadixArgsort(major_reordered, 8);
  std::int32_t last_major = INT32_MIN, last_minor = INT32_MIN;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t mj = major_reordered[by_major[i]];
    const std::int32_t mn = minor_reordered[by_major[i]];
    if (mj == last_major) {
      EXPECT_LE(last_minor, mn) << "at " << i;
    } else {
      EXPECT_LT(last_major, mj);
    }
    last_major = mj;
    last_minor = mn;
  }
}

}  // namespace
}  // namespace kf::relational
