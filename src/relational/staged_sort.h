// Staged LSD radix sort — the GPU-style SORT substrate.
//
// SORT is the paper's canonical fusion barrier and, in Q1, 71% of the
// baseline runtime, so the substrate implements it with the same structure
// GPU radix sorts use (and the cost model charges for): per 8-bit digit
// pass, each chunk (simulated CTA) builds a local 256-bin histogram, a
// global bucket-major exclusive scan assigns every (bucket, chunk) pair its
// output range, and a stable scatter places the elements. Signed keys are
// handled with the usual bias transform.
#ifndef KF_RELATIONAL_STAGED_SORT_H_
#define KF_RELATIONAL_STAGED_SORT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.h"

namespace kf::relational {

// Stable argsort of 32-bit signed keys: returns the permutation `p` such
// that keys[p[0]] <= keys[p[1]] <= ... with ties in input order — how a GPU
// sorts whole rows (sort (key, index) pairs, then gather the payload
// columns). `chunk_count` chunks per pass.
std::vector<std::uint32_t> StagedRadixArgsort(std::span<const std::int32_t> keys,
                                              int chunk_count = 64,
                                              ThreadPool* pool = nullptr);

}  // namespace kf::relational

#endif  // KF_RELATIONAL_STAGED_SORT_H_
