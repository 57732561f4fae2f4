// Staged LSD radix sort — the GPU-style SORT substrate.
//
// SORT is the paper's canonical fusion barrier and, in Q1, 71% of the
// baseline runtime, so the substrate implements it with the same structure
// GPU radix sorts use (and the cost model charges for): per 8-bit digit
// pass, each chunk (simulated CTA) builds a local 256-bin histogram, a
// global bucket-major exclusive scan assigns every (bucket, chunk) pair its
// output range, and a stable scatter places the elements. Each key becomes
// an unsigned digit word by subtracting its minimum (a bias that keeps
// signed order; 32 bits wide when the key's range fits, else 64), and keys
// sort last first, so stable passes compose into lexicographic order. A
// byte in which no digit word varies would be an identity pass and is
// skipped: small-range keys take one or two passes.
#ifndef KF_RELATIONAL_STAGED_SORT_H_
#define KF_RELATIONAL_STAGED_SORT_H_

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "common/thread_pool.h"

namespace kf::relational {

// One integer sort key: a value per row.
using RadixKey =
    std::variant<std::span<const std::int32_t>, std::span<const std::int64_t>>;

// Stable argsort of `rows` rows by `keys`, lexicographically with keys[0]
// most significant: returns the permutation `p` such that rows p[0], p[1],
// ... are in ascending key order with ties in input order — how a GPU sorts
// whole rows (sort (key, index) pairs, then gather the payload columns).
// No keys is the identity. Each pass runs in at most `chunk_count` chunks
// of at least 1024 rows (fewer would spend more on the 256 bins than on the
// rows), on `pool` when given. Throws kf::Error when a key's length is not
// `rows` or `chunk_count` is not positive.
std::vector<std::uint32_t> StagedRadixArgsort(std::size_t rows,
                                              std::span<const RadixKey> keys,
                                              int chunk_count = 64,
                                              ThreadPool* pool = nullptr);

}  // namespace kf::relational

#endif  // KF_RELATIONAL_STAGED_SORT_H_
