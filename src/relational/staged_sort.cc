#include "relational/staged_sort.h"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>

#include "common/error.h"
#include "relational/staged_kernel.h"

namespace kf::relational {

namespace {

constexpr std::size_t kMinChunkRows = 1024;
constexpr int kDigitBits = 8;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;

using Histogram = std::array<std::uint32_t, kBuckets>;

// Runs body(c) for every chunk: one simulated CTA each, on the pool when
// there is more than one.
template <typename F>
void ForEachChunk(std::span<const ChunkRange> chunks, ThreadPool* pool, const F& body) {
  if (pool != nullptr && chunks.size() > 1) {
    pool->ParallelForEach(chunks.size(), body);
  } else {
    for (std::size_t c = 0; c < chunks.size(); ++c) body(c);
  }
}

// The sort's state: row ids in current order and the digit words of the
// key being sorted, both double buffered, and one histogram per chunk. A
// key whose range fits in 32 bits sorts 32-bit words, halving the bytes
// each pass moves.
struct State {
  std::span<const ChunkRange> chunks;
  ThreadPool* pool = nullptr;
  std::vector<std::uint32_t> order, order_out;
  std::vector<std::uint32_t> narrow, narrow_out;
  std::vector<std::uint64_t> wide, wide_out;
  std::vector<Histogram> histograms;
  std::vector<std::int64_t> lo, hi;   // per-chunk key bounds
  std::vector<std::uint64_t> bits;    // per-chunk OR of digit words
};

// One radix pass over (digit word, row id) pairs on the byte at `shift`.
template <typename W>
void RadixPass(int shift, std::vector<W>& digits, std::vector<W>& digits_out, State& s) {
  const auto digit = [shift](W d) {
    return static_cast<std::size_t>(d >> shift) & (kBuckets - 1);
  };
  const std::span<const ChunkRange> chunks = s.chunks;

  // Stage 1 — per-chunk histograms.
  ForEachChunk(chunks, s.pool, [&](std::size_t c) {
    Histogram& h = s.histograms[c];
    h.fill(0);
    for (std::size_t i = chunks[c].begin; i < chunks[c].end; ++i) ++h[digit(digits[i])];
  });

  // Stage 2 — global bucket-major exclusive scan, in place: each (bucket,
  // chunk) count becomes that pair's output offset. This is the cross-CTA
  // synchronization.
  std::uint32_t running = 0;
  for (std::size_t bucket = 0; bucket < kBuckets; ++bucket) {
    for (Histogram& h : s.histograms) {
      const std::uint32_t count = h[bucket];
      h[bucket] = running;
      running += count;
    }
  }

  // Stage 3 — stable scatter.
  ForEachChunk(chunks, s.pool, [&](std::size_t c) {
    Histogram& cursor = s.histograms[c];
    for (std::size_t i = chunks[c].begin; i < chunks[c].end; ++i) {
      const std::uint32_t pos = cursor[digit(digits[i])]++;
      digits_out[pos] = digits[i];
      s.order_out[pos] = s.order[i];
    }
  });
  digits.swap(digits_out);
  s.order.swap(s.order_out);
}

// Stably reorders the rows by one key, as words `key - lo` of type W:
// unsigned, in signed order, 0 for the minimum. A byte that is 0 in every
// word would be an identity pass, and is skipped.
template <typename W, typename T>
void SortBy(std::span<const T> key, std::int64_t lo, std::vector<W>& digits,
            std::vector<W>& digits_out, State& s) {
  const std::size_t rows = key.size();
  digits.resize(rows);
  digits_out.resize(rows);
  const auto bias = static_cast<std::uint64_t>(lo);
  ForEachChunk(s.chunks, s.pool, [&](std::size_t c) {
    W any = 0;
    for (std::size_t i = s.chunks[c].begin; i < s.chunks[c].end; ++i) {
      const auto d = static_cast<W>(
          static_cast<std::uint64_t>(static_cast<std::int64_t>(key[s.order[i]])) - bias);
      digits[i] = d;
      any |= d;
    }
    s.bits[c] = any;
  });
  std::uint64_t any = 0;
  for (std::uint64_t b : s.bits) any |= b;
  for (int shift = 0; shift < static_cast<int>(8 * sizeof(W)); shift += kDigitBits) {
    if (((any >> shift) & (kBuckets - 1)) != 0) RadixPass(shift, digits, digits_out, s);
  }
}

template <typename T>
void SortBy(std::span<const T> key, State& s) {
  ForEachChunk(s.chunks, s.pool, [&](std::size_t c) {
    T lo = std::numeric_limits<T>::max();
    T hi = std::numeric_limits<T>::min();
    for (std::size_t i = s.chunks[c].begin; i < s.chunks[c].end; ++i) {
      lo = std::min(lo, key[i]);
      hi = std::max(hi, key[i]);
    }
    s.lo[c] = lo;
    s.hi[c] = hi;
  });
  const std::int64_t lo = *std::min_element(s.lo.begin(), s.lo.end());
  const std::int64_t hi = *std::max_element(s.hi.begin(), s.hi.end());
  if (static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) <=
      std::numeric_limits<std::uint32_t>::max()) {
    SortBy(key, lo, s.narrow, s.narrow_out, s);
  } else {
    SortBy(key, lo, s.wide, s.wide_out, s);
  }
}

}  // namespace

std::vector<std::uint32_t> StagedRadixArgsort(std::size_t rows,
                                              std::span<const RadixKey> keys,
                                              int chunk_count, ThreadPool* pool) {
  KF_REQUIRE(chunk_count > 0) << "chunk count must be positive";
  KF_REQUIRE(rows <= std::numeric_limits<std::uint32_t>::max())
      << "radix argsort of " << rows << " rows exceeds 32-bit row ids";
  for (const RadixKey& key : keys) {
    const std::size_t size = std::visit([](auto values) { return values.size(); }, key);
    KF_REQUIRE(size == rows) << "sort key holds " << size << " values for " << rows
                             << " rows";
  }
  const std::size_t chunk_n = std::clamp<std::size_t>(
      rows / kMinChunkRows, 1, static_cast<std::size_t>(chunk_count));
  const std::vector<ChunkRange> chunks = PartitionInput(rows, static_cast<int>(chunk_n));
  State s;
  s.chunks = chunks;
  s.pool = pool;
  s.order.resize(rows);
  std::iota(s.order.begin(), s.order.end(), 0u);
  if (keys.empty() || rows < 2) return std::move(s.order);
  s.order_out.resize(rows);
  s.histograms.resize(chunks.size());
  s.lo.resize(chunks.size());
  s.hi.resize(chunks.size());
  s.bits.resize(chunks.size());
  for (auto key = keys.rbegin(); key != keys.rend(); ++key) {
    std::visit([&](auto values) { SortBy(values, s); }, *key);
  }
  return std::move(s.order);
}

}  // namespace kf::relational
