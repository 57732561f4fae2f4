#include "core/fusion_planner.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"
#include "core/calibration.h"

namespace kf::core {

std::size_t FusionPlan::fused_cluster_count() const {
  return static_cast<std::size_t>(
      std::count_if(clusters.begin(), clusters.end(),
                    [](const FusionCluster& c) { return c.fused(); }));
}

std::string FusionPlan::ToString(const OpGraph& graph) const {
  std::ostringstream os;
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    const FusionCluster& cluster = clusters[c];
    os << "cluster " << c << (cluster.fused() ? " [FUSED]" : "") << " regs="
       << cluster.register_estimate << ": ";
    for (std::size_t i = 0; i < cluster.nodes.size(); ++i) {
      if (i) os << " -> ";
      os << graph.node(cluster.nodes[i]).name;
    }
    os << " (streams #" << cluster.primary_input;
    if (!cluster.build_inputs.empty()) {
      os << ", builds:";
      for (NodeId b : cluster.build_inputs) os << " #" << b;
    }
    os << ")\n";
  }
  return os.str();
}

namespace {

bool Contains(const std::vector<NodeId>& nodes, NodeId id) {
  return std::find(nodes.begin(), nodes.end(), id) != nodes.end();
}

// A reduction (AGGREGATION) folds the stream into per-chunk partials, and a
// barrier (SORT/UNIQUE/set op) is never part of a fused kernel at all;
// nothing can consume either's output inside the same fused kernel.
bool ClusterClosedBy(const OpGraph& graph, const FusionCluster& cluster, NodeId producer) {
  (void)cluster;
  const FusionClass c = Classify(graph.node(producer).desc.kind);
  return c == FusionClass::kReduction || c == FusionClass::kBarrier;
}

}  // namespace

FusionPlan PlanFusion(const OpGraph& graph, const FusionOptions& options) {
  FusionPlan plan;
  plan.cluster_of.assign(graph.node_count(), -1);

  // Feedback-driven replanning: the measured kernel-cost correction nudges
  // how aggressively clusters grow (see FusionOptions::calibration).
  const int register_budget =
      options.calibration != nullptr
          ? options.calibration->CalibratedRegisterBudget(options.register_budget,
                                                          kBaseRegisters)
          : options.register_budget;

  for (NodeId id : graph.TopologicalOrder()) {
    const OpNode& node = graph.node(id);
    if (node.is_source) continue;

    int target_cluster = -1;
    if (options.enabled && !node.inputs.empty() && CanFuseEdge(node.desc, 0)) {
      const NodeId primary = node.inputs[0];
      const OpNode& producer = graph.node(primary);
      int candidate = -1;
      if (!producer.is_source) {
        // Fuse into the producer's cluster (chain / pattern a,d,e,g,h).
        candidate = plan.cluster_of[primary];
      } else {
        // Producer is a source: fuse into an existing cluster streaming the
        // same source (pattern c — several SELECTs filtering one input).
        // Barrier clusters also "stream" their input but cannot host
        // additional members.
        for (std::size_t c = 0; c < plan.clusters.size(); ++c) {
          const FusionCluster& existing = plan.clusters[c];
          if (existing.primary_input != primary) continue;
          const bool has_barrier = std::any_of(
              existing.nodes.begin(), existing.nodes.end(), [&](NodeId member) {
                return Classify(graph.node(member).desc.kind) == FusionClass::kBarrier;
              });
          if (has_barrier) continue;
          candidate = static_cast<int>(c);
          break;
        }
      }
      if (candidate >= 0) {
        FusionCluster& cluster = plan.clusters[static_cast<std::size_t>(candidate)];
        const bool producer_in_cluster =
            producer.is_source ? cluster.primary_input == primary
                               : Contains(cluster.nodes, primary);
        const bool closed =
            !producer.is_source && ClusterClosedBy(graph, cluster, primary);
        // The build side of a JOIN must be materialized before this cluster
        // runs: it must come from outside the cluster, and from a cluster
        // that executes earlier (clusters run in creation order).
        bool build_ok = true;
        for (std::size_t i = 1; i < node.inputs.size(); ++i) {
          const NodeId build = node.inputs[i];
          if (Contains(cluster.nodes, build)) build_ok = false;
          if (!graph.node(build).is_source && plan.cluster_of[build] >= candidate) {
            build_ok = false;
          }
        }
        const int new_regs = cluster.register_estimate + RegisterDemand(graph, node);
        if (producer_in_cluster && !closed && build_ok &&
            new_regs <= register_budget) {
          target_cluster = candidate;
        }
      }
    }

    if (target_cluster < 0) {
      FusionCluster cluster;
      cluster.primary_input = node.inputs.empty() ? kNoNode : node.inputs[0];
      cluster.register_estimate = kBaseRegisters;
      plan.clusters.push_back(std::move(cluster));
      target_cluster = static_cast<int>(plan.clusters.size() - 1);
    }

    FusionCluster& cluster = plan.clusters[static_cast<std::size_t>(target_cluster)];
    cluster.nodes.push_back(id);
    cluster.register_estimate += RegisterDemand(graph, node);
    for (std::size_t i = 1; i < node.inputs.size(); ++i) {
      if (!Contains(cluster.build_inputs, node.inputs[i])) {
        cluster.build_inputs.push_back(node.inputs[i]);
      }
    }
    plan.cluster_of[id] = target_cluster;
  }

  // Cluster outputs: members consumed outside the cluster or by nobody.
  for (auto& cluster : plan.clusters) {
    for (NodeId member : cluster.nodes) {
      const std::vector<NodeId> consumers = graph.Consumers(member);
      const bool escapes =
          consumers.empty() ||
          std::any_of(consumers.begin(), consumers.end(), [&](NodeId c) {
            return !Contains(cluster.nodes, c);
          });
      if (escapes) cluster.outputs.push_back(member);
    }
    KF_REQUIRE(!cluster.outputs.empty()) << "cluster with no outputs";
  }
  return plan;
}

}  // namespace kf::core
