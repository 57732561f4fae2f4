#include "relational/staged_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <limits>
#include <numeric>
#include <variant>

#include "common/error.h"
#include "common/random.h"
#include "relational/column.h"

namespace kf::relational {
namespace {

std::vector<std::int32_t> RandomKeys(std::size_t n, std::uint64_t seed,
                                     std::int32_t lo, std::int32_t hi) {
  Rng rng(seed);
  std::vector<std::int32_t> v(n);
  for (auto& x : v) x = static_cast<std::int32_t>(rng.UniformInt(lo, hi));
  return v;
}

// The radix argsort on one int32 key.
std::vector<std::uint32_t> StagedRadixArgsort(const std::vector<std::int32_t>& keys,
                                              int chunk_count,
                                              ThreadPool* pool = nullptr) {
  const RadixKey key{std::span<const std::int32_t>(keys)};
  return relational::StagedRadixArgsort(keys.size(), {&key, 1}, chunk_count, pool);
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

// A key column drawn from a small pool, so values repeat: negatives, zero,
// the type's extremes and their neighbours, and a few full-range values.
template <typename T>
std::vector<T> EdgeKeys(Rng& rng, std::size_t n) {
  using L = std::numeric_limits<T>;
  const T pool[] = {L::min(), L::min() + 1, -7, -1, 0, 1, 7, L::max() - 1, L::max()};
  std::vector<T> keys(n);
  for (T& key : keys) {
    switch (rng.UniformInt(0, 3)) {
      case 0: key = pool[rng.UniformInt(0, std::size(pool) - 1)]; break;
      case 1: key = static_cast<T>(rng()); break;
      default: key = static_cast<T>(rng.UniformInt(-3, 3)); break;
    }
  }
  return keys;
}

// Multi-key integer sorts of 0 to ~3000 rows, in 1 to 3 keys of mixed
// widths, against a stable sort under Value order.
TEST(StagedRadixArgsort, MatchesStableSortUnderValueOrder) {
  ThreadPool pool(2);
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed);
    const std::size_t sizes[] = {0, 1, 2, 3, 17, 1500, 3000};
    const std::size_t rows = sizes[rng.UniformInt(0, std::size(sizes) - 1)];
    const auto key_count = static_cast<std::size_t>(rng.UniformInt(1, 3));
    std::vector<std::vector<std::int32_t>> narrow;
    std::vector<std::vector<std::int64_t>> wide;
    std::vector<Column> columns;
    for (std::size_t k = 0; k < key_count; ++k) {
      const bool is_wide = rng.UniformInt(0, 1) == 1;
      columns.emplace_back(is_wide ? DataType::kInt64 : DataType::kInt32);
      if (is_wide) {
        wide.push_back(EdgeKeys<std::int64_t>(rng, rows));
        columns.back().AsInt64() = wide.back();
      } else {
        narrow.push_back(EdgeKeys<std::int32_t>(rng, rows));
        columns.back().AsInt32() = narrow.back();
      }
    }
    std::vector<RadixKey> keys;
    for (const Column& column : columns) {
      if (column.type() == DataType::kInt64) {
        keys.emplace_back(std::span<const std::int64_t>(column.AsInt64()));
      } else {
        keys.emplace_back(std::span<const std::int32_t>(column.AsInt32()));
      }
    }
    std::vector<std::uint32_t> expected(rows);
    std::iota(expected.begin(), expected.end(), 0u);
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       for (const Column& column : columns) {
                         if (column.Get(a) < column.Get(b)) return true;
                         if (column.Get(b) < column.Get(a)) return false;
                       }
                       return false;
                     });
    const int chunks = static_cast<int>(rng.UniformInt(1, 64));
    ThreadPool* on = rng.UniformInt(0, 1) == 1 ? &pool : nullptr;
    EXPECT_EQ(relational::StagedRadixArgsort(rows, keys, chunks, on), expected)
        << "seed " << seed << ": " << rows << " rows, " << key_count << " keys";
  }
}

TEST(StagedRadixArgsort, NoKeysIsTheIdentity) {
  EXPECT_EQ(relational::StagedRadixArgsort(3, {}), (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(StagedRadixArgsort, RejectsKeysOfAnotherLength) {
  const std::vector<std::int64_t> values = {3, 1};
  const RadixKey key{std::span<const std::int64_t>(values)};
  EXPECT_THROW(relational::StagedRadixArgsort(3, {&key, 1}), kf::Error);
}

}  // namespace
}  // namespace kf::relational
