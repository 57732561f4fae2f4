#include "relational/staged_kernel.h"

#include "common/error.h"

namespace kf::relational {

std::vector<ChunkRange> PartitionInput(std::size_t n, int chunk_count) {
  std::vector<ChunkRange> ranges;
  PartitionInputInto(n, chunk_count, ranges);
  return ranges;
}

void PartitionInputInto(std::size_t n, int chunk_count,
                        std::vector<ChunkRange>& ranges) {
  KF_REQUIRE(chunk_count > 0) << "chunk count must be positive";
  const auto chunks = static_cast<std::size_t>(chunk_count);
  ranges.resize(chunks);
  const std::size_t base = n / chunks;
  const std::size_t remainder = n % chunks;
  std::size_t begin = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t size = base + (c < remainder ? 1 : 0);
    ranges[c] = ChunkRange{begin, begin + size};
    begin += size;
  }
}

}  // namespace kf::relational
