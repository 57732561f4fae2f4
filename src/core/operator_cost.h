// Cost profiles for staged RA operators — unfused and fused.
//
// Converts an operator (or a whole fusion cluster) plus *realized* data sizes
// into the `sim::KernelProfile`s the device cost model understands. This is
// where the structural facts behind the paper's measurements live:
//
//   * an unfused staged operator is two device kernels — compute (partition +
//     filter/probe/map + buffer) and gather — each reading and writing its
//     full data through device global memory;
//   * a fused cluster is ONE compute kernel that reads the streamed input
//     once, keeps every intermediate in registers, and buffers only rows
//     that leave the cluster, plus ONE gather kernel over the final output
//     (Fig 6). The traffic that disappears — the intermediates' stores and
//     reloads, and the extra partition/gather passes — is precisely benefits
//     (c)/(e) of Fig 7, and the launch count drops from 2k to 2.
//
// SORT is modeled as an LSD radix sort (4 passes over key+payload), matching
// the GPU sorting literature the paper builds on.
#ifndef KF_CORE_OPERATOR_COST_H_
#define KF_CORE_OPERATOR_COST_H_

#include <cstdint>
#include <vector>

#include "core/fusion_planner.h"
#include "core/op_graph.h"
#include "sim/kernel_cost_model.h"

namespace kf::core {

// Realized sizes of one operator execution.
struct RealizedSizes {
  std::uint64_t input_rows = 0;
  std::uint64_t input_row_bytes = 0;   // bytes per streamed input row
  std::uint64_t output_rows = 0;
  std::uint64_t output_row_bytes = 0;
  std::uint64_t build_bytes = 0;       // materialized JOIN/PRODUCT build side
};

class OperatorCostModel {
 public:
  // Launch geometry of a staged kernel (paper-style: enough CTAs/threads to
  // saturate a Fermi).
  static constexpr int kCtaCount = 448;
  static constexpr int kThreadsPerCta = 256;

  // Memory-access efficiency of the compute stage (buffered writes are not
  // perfectly coalesced) and of the gather stage (positioned block copies).
  static constexpr double kComputeAccessEfficiency = 0.55;
  static constexpr double kGatherAccessEfficiency = 0.70;
  // Hash probes are random access.
  static constexpr double kProbeAccessEfficiency = 0.35;

  // Baseline dynamic ops per element of the staged-kernel skeleton:
  // partition arithmetic, the intra-CTA compaction scans that position
  // matches in the buffer, and cursor maintenance — a few dozen scalar ops
  // per element in the real implementation. Calibrated so the staged SELECT
  // lands in Fig 4(a)'s throughput band across selectivities.
  static constexpr double kBaseOpsPerElement = 40.0;

  // Radix-sort passes: 8-bit digits over the 64-bit composite sort key the
  // row sorts of the TPC-H plans use.
  static constexpr int kSortPasses = 8;
  // Radix scatter writes are random access.
  static constexpr double kSortAccessEfficiency = 0.35;

  // Kernel profiles for running `node` as its own (unfused) staged operator.
  std::vector<sim::KernelProfile> UnfusedProfiles(const OpNode& node,
                                                  const RealizedSizes& sizes) const;

  // Kernel profiles (compute + gather) for running `cluster` as one fused
  // kernel. `per_member` maps each member node (cluster order) to its
  // realized sizes; the primary input sizes come from the first member.
  std::vector<sim::KernelProfile> FusedProfiles(
      const OpGraph& graph, const FusionCluster& cluster,
      const std::vector<RealizedSizes>& per_member) const;
};

}  // namespace kf::core

#endif  // KF_CORE_OPERATOR_COST_H_
