#include "relational/staged_sort.h"

#include <array>

#include "common/error.h"
#include "relational/staged_kernel.h"

namespace kf::relational {

namespace {

constexpr int kDigitBits = 8;
constexpr int kBuckets = 1 << kDigitBits;
constexpr int kPasses = 32 / kDigitBits;

// Bias transform: signed order == unsigned order of (key ^ 0x80000000).
std::uint32_t Bias(std::int32_t key) {
  return static_cast<std::uint32_t>(key) ^ 0x80000000u;
}

std::uint32_t Digit(std::uint32_t key, int pass) {
  return (key >> (pass * kDigitBits)) & (kBuckets - 1);
}

// One radix pass over (key, row index) pairs: histogram / scan / scatter.
void RadixPass(std::vector<std::uint32_t>& keys, std::vector<std::uint32_t>& payload,
               std::vector<std::uint32_t>& keys_out,
               std::vector<std::uint32_t>& payload_out, int pass,
               std::span<const ChunkRange> chunks, ThreadPool* pool) {
  const std::size_t chunk_count = chunks.size();

  // Stage 1 — per-chunk histograms (one simulated CTA each).
  std::vector<std::array<std::uint32_t, kBuckets>> histograms(chunk_count);
  auto histogram_chunk = [&](std::size_t c) {
    auto& h = histograms[c];
    h.fill(0);
    for (std::size_t i = chunks[c].begin; i < chunks[c].end; ++i) {
      ++h[Digit(keys[i], pass)];
    }
  };
  if (pool != nullptr && chunk_count > 1) {
    pool->ParallelForEach(chunk_count, histogram_chunk);
  } else {
    for (std::size_t c = 0; c < chunk_count; ++c) histogram_chunk(c);
  }

  // Stage 2 — global bucket-major exclusive scan: output offset of each
  // (bucket, chunk) pair. This is the cross-CTA synchronization.
  std::vector<std::uint32_t> offsets(chunk_count * kBuckets);
  std::uint32_t running = 0;
  for (int bucket = 0; bucket < kBuckets; ++bucket) {
    for (std::size_t c = 0; c < chunk_count; ++c) {
      offsets[c * kBuckets + static_cast<std::size_t>(bucket)] = running;
      running += histograms[c][static_cast<std::size_t>(bucket)];
    }
  }

  // Stage 3 — stable scatter.
  auto scatter_chunk = [&](std::size_t c) {
    std::array<std::uint32_t, kBuckets> cursor;
    for (int bucket = 0; bucket < kBuckets; ++bucket) {
      cursor[static_cast<std::size_t>(bucket)] =
          offsets[c * kBuckets + static_cast<std::size_t>(bucket)];
    }
    for (std::size_t i = chunks[c].begin; i < chunks[c].end; ++i) {
      const std::uint32_t d = Digit(keys[i], pass);
      const std::uint32_t pos = cursor[d]++;
      keys_out[pos] = keys[i];
      payload_out[pos] = payload[i];
    }
  };
  if (pool != nullptr && chunk_count > 1) {
    pool->ParallelForEach(chunk_count, scatter_chunk);
  } else {
    for (std::size_t c = 0; c < chunk_count; ++c) scatter_chunk(c);
  }

  keys.swap(keys_out);
  payload.swap(payload_out);
}

}  // namespace

std::vector<std::uint32_t> StagedRadixArgsort(std::span<const std::int32_t> input,
                                              int chunk_count, ThreadPool* pool) {
  const std::vector<ChunkRange> chunks = PartitionInput(input.size(), chunk_count);
  std::vector<std::uint32_t> keys(input.size());
  std::vector<std::uint32_t> indices(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    keys[i] = Bias(input[i]);
    indices[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<std::uint32_t> keys_scratch(keys.size());
  std::vector<std::uint32_t> indices_scratch(indices.size());
  for (int pass = 0; pass < kPasses; ++pass) {
    RadixPass(keys, indices, keys_scratch, indices_scratch, pass, chunks, pool);
  }
  return indices;
}

}  // namespace kf::relational
