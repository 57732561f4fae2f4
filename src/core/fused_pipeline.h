// Functional execution of a fusion cluster as ONE staged kernel.
//
// This is the composed kernel the paper's fusion transformation produces
// (Fig 6 / Section III-C), run column-at-a-time on the host:
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
// kernel fusion. The result is what applying the member operators one after
// another with ApplyOperator produces: the same rows in the same order
// (chunk, then probe, then build order), the same value type tags, the same
// aggregate group order. Float sums are the one difference a fused kernel
// has: each chunk sums its rows, and the partials add up in chunk order.
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
// Throws kf::Error when the cluster contains an operator the fused pipeline
// cannot stream (a planner bug), and rethrows an expression's kf::Error
// (e.g. division by zero) from the lowest failing chunk. With
// `compute_checksums` set, every output table is additionally digested into
// `output_checksums` (one streaming pass; used by audit sampling).
ClusterExecution ExecuteCluster(const OpGraph& graph, const FusionCluster& cluster,
                                const TableLookup& table_of, int chunk_count = 448,
                                ThreadPool* pool = nullptr,
                                kf::BufferArena* arena = nullptr,
                                bool compute_checksums = false);

}  // namespace kf::core

#endif  // KF_CORE_FUSED_PIPELINE_H_
