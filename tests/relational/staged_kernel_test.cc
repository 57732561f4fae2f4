// The partition stage of the staged kernels (Fig 3).
#include "relational/staged_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"

namespace kf::relational {
namespace {

TEST(Partition, CoversInputExactly) {
  const auto chunks = PartitionInput(103, 8);
  ASSERT_EQ(chunks.size(), 8u);
  std::size_t covered = 0;
  std::size_t expected_begin = 0;
  for (const ChunkRange& c : chunks) {
    EXPECT_EQ(c.begin, expected_begin);
    covered += c.size();
    expected_begin = c.end;
  }
  EXPECT_EQ(covered, 103u);
  // Balanced: sizes differ by at most one.
  std::size_t lo = chunks[0].size(), hi = chunks[0].size();
  for (const ChunkRange& c : chunks) {
    lo = std::min(lo, c.size());
    hi = std::max(hi, c.size());
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(Partition, MoreChunksThanElements) {
  const auto chunks = PartitionInput(3, 8);
  std::size_t covered = 0;
  for (const ChunkRange& c : chunks) covered += c.size();
  EXPECT_EQ(covered, 3u);
}

TEST(Partition, RejectsZeroChunks) { EXPECT_THROW(PartitionInput(10, 0), kf::Error); }

}  // namespace
}  // namespace kf::relational
