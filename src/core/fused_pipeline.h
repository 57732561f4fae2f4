// Functional execution of a fusion cluster as ONE staged kernel — the only
// functional path the executor has, for every cluster of every strategy.
//
// A cluster without barriers is the composed kernel the paper's fusion
// transformation produces (Fig 6 / Section III-C), run column-at-a-time on
// the host (a singleton cluster is the same kernel with one member):
//
//   partition  the streamed primary input is cut into `chunk_count`
//              contiguous chunks (one per simulated CTA), all run by one
//              pool dispatch; empty chunks do nothing;
//   compute    per chunk, every member runs back-to-back over column
//              vectors held in per-worker arena scratch (the kernel's
//              registers and shared memory): SELECT compacts a selection
//              (typed FilterInt32 kernels for every predicate
//              CompilePredicate lowers on an int32 column, EvalExpr over a
//              reused scratch row otherwise), PROJECT remaps columns, ARITH
//              appends a typed column, JOIN/PRODUCT expand probe/build
//              row-id pairs against an index built once per cluster, and
//              AGGREGATE folds into per-chunk partials;
//   gather     each cluster output is materialized once, into typed
//              columns, chunk after chunk; aggregate partials merge in
//              chunk order.
//
// No intermediate relation leaves its chunk — that is the entire point of
// kernel fusion.
//
// A barrier (SORT, UNIQUE, UNION, INTERSECTION, DIFFERENCE) needs its whole
// input, so it is always alone in its cluster: SORT orders row ids (the
// staged radix argsort for one int32 key, else a stable sort with typed
// compares), UNIQUE and the set operators keep first-seen rows through a
// hash table of canonical key words, and every output column is gathered
// once, by type.
//
// relational::ApplyOperator is the reference this must match: the same rows
// in the same order (chunk, then probe, then build order), the same value
// type tags, the same aggregate group order. Float aggregates are the one
// difference: each chunk folds its rows, and the partials merge in chunk
// order, as a reduction partitioned across CTAs does. Float sums may differ
// in their last bits, and MIN/MAX over a column holding NaN may differ too
// (the fold order decides which values a NaN shadows).
#ifndef KF_CORE_FUSED_PIPELINE_H_
#define KF_CORE_FUSED_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <map>

#include "common/buffer_arena.h"
#include "common/thread_pool.h"
#include "core/fusion_planner.h"
#include "relational/table.h"

namespace kf::core {

struct ClusterExecution {
  // One materialized relation per cluster output node.
  std::map<NodeId, relational::Table> outputs;
  // Realized sizes, for the cost model.
  std::size_t primary_rows = 0;
  std::map<NodeId, std::size_t> output_rows;
  // Rows each member produced (cluster-internal intermediates included) —
  // these never touch memory, but the cost model charges their compute.
  std::map<NodeId, std::size_t> member_rows;
  int chunk_count = 0;
  // Per-output ChecksumTable digests, filled only when the caller asked for
  // them (the executor's audit mode compares these against downloaded bytes).
  std::map<NodeId, std::uint64_t> output_checksums;
};

// Looks up the materialized table standing for a node's output: sources'
// bound tables and previous clusters' outputs.
using TableLookup = std::function<const relational::Table&(NodeId)>;

// Executes `cluster` over `graph`. `table_of` must resolve the cluster's
// primary input and every build input. Chunks run on `pool` when given;
// scratch comes from `arena` when given, else the calling thread's arena.
// Throws kf::Error when a barrier shares its cluster or a reduction feeds a
// member (planner bugs), throws kf::InvalidArgument when `chunk_count` is
// not positive, and rethrows an expression's kf::Error (e.g. division by
// zero) from the lowest failing chunk. With
// `compute_checksums` set, every output table is additionally digested into
// `output_checksums` (one streaming pass; used by audit sampling).
ClusterExecution ExecuteCluster(const OpGraph& graph, const FusionCluster& cluster,
                                const TableLookup& table_of, int chunk_count = 448,
                                ThreadPool* pool = nullptr,
                                kf::BufferArena* arena = nullptr,
                                bool compute_checksums = false);

}  // namespace kf::core

#endif  // KF_CORE_FUSED_PIPELINE_H_
