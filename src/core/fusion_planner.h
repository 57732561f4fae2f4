// The kernel-fusion planner (paper Section III-C, "Automating Fusion").
//
// Discovers feasible combinations of kernels to fuse via dependence analysis
// and greedily grows fusion clusters in topological order, guarded by a
// register-pressure cost function: each operator added to a cluster
// increases the per-thread live state of the fused kernel, and past the
// budget the planner starts a new cluster instead (fusing too much causes
// spills — the paper's stated reason to be judicious).
//
// A cluster is a connected set of operators executed as ONE fused staged
// kernel: a single partition stage, the member operators' compute stages
// interleaved in topological order with intermediates in registers, and a
// single gather stage. A cluster streams exactly one input (its primary);
// JOIN/PRODUCT build sides are materialized cluster-external inputs.
#ifndef KF_CORE_FUSION_PLANNER_H_
#define KF_CORE_FUSION_PLANNER_H_

#include <string>
#include <vector>

#include "core/dependence.h"
#include "core/op_graph.h"

namespace kf::core {

class CostModelCalibrator;

struct FusionCluster {
  std::vector<NodeId> nodes;        // member operators, topological order
  NodeId primary_input = kNoNode;   // node whose output is streamed
  std::vector<NodeId> build_inputs; // materialized side inputs (JOIN builds)
  std::vector<NodeId> outputs;      // members whose results leave the cluster
  int register_estimate = 0;        // per-thread registers of the fused kernel

  bool fused() const { return nodes.size() > 1; }
};

struct FusionPlan {
  std::vector<FusionCluster> clusters;  // topological cluster order
  std::vector<int> cluster_of;          // node id -> cluster index (-1: source)

  std::size_t fused_cluster_count() const;
  std::string ToString(const OpGraph& graph) const;
};

// Baseline register cost of the staged-kernel skeleton (partition cursors,
// buffer indices).
inline constexpr int kBaseRegisters = 10;

struct FusionOptions {
  bool enabled = true;
  // Per-thread register budget for a fused kernel. Fermi allows 63; leaving
  // headroom below the hardware cap avoids occupancy collapse.
  int register_budget = 48;
  // Feedback-driven replanning hook (core/calibration.h): when set, the
  // effective register budget is nudged by the measured kernel-cost
  // correction (kernels dearer than believed ⇒ fuse more, saving traffic).
  // The executor always plans with ExecutorOptions::calibration here
  // (EffectiveFusionOptions). Deliberately NOT rendered into
  // FusionOptionsKey — plan caches version entries by the calibrator's
  // epoch instead (see server/plan_cache.h).
  const CostModelCalibrator* calibration = nullptr;
};

FusionPlan PlanFusion(const OpGraph& graph, const FusionOptions& options = {});

}  // namespace kf::core

#endif  // KF_CORE_FUSION_PLANNER_H_
