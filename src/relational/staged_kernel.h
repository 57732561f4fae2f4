// Partition stage of the staged GPU-style kernels (paper Figure 3).
//
// Diamos et al.'s RA algorithms are multi-stage: the input is partitioned
// into chunks (one per CTA), each chunk is filtered in parallel into a dense
// per-chunk buffer, a global synchronization computes output offsets from the
// per-chunk match counts, and a second kernel gathers the buffers into the
// final dense array. core::ExecuteCluster runs those stages for every cluster
// (a fused cluster keeps a single partition and gather, Figure 6), and the
// radix sort's passes use the same chunking; both cut their input here.
#ifndef KF_RELATIONAL_STAGED_KERNEL_H_
#define KF_RELATIONAL_STAGED_KERNEL_H_

#include <cstddef>
#include <vector>

namespace kf::relational {

struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};

// Stage 1 — partition: split [0, n) into `chunk_count` contiguous chunks
// (the last may be short; empty chunks are produced when n < chunk_count).
std::vector<ChunkRange> PartitionInput(std::size_t n, int chunk_count);

// In-place variant for pooled workspaces (allocation-free when warm).
void PartitionInputInto(std::size_t n, int chunk_count,
                        std::vector<ChunkRange>& ranges);

}  // namespace kf::relational

#endif  // KF_RELATIONAL_STAGED_KERNEL_H_
