#include "core/plan_dot.h"

#include <sstream>

namespace kf::core {

namespace {

std::string EscapeDot(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void EmitNode(std::ostream& os, const OpNode& node, const char* indent) {
  os << indent << "n" << node.id << " [label=\"" << EscapeDot(node.name) << "\"";
  if (node.is_source) {
    os << ", shape=cylinder, fillcolor=\"#e8f0fe\", style=filled";
  } else {
    os << ", shape=box, style=rounded";
  }
  os << "];\n";
}

void EmitEdges(std::ostream& os, const OpGraph& graph) {
  for (NodeId id = 0; id < graph.node_count(); ++id) {
    const OpNode& node = graph.node(id);
    for (std::size_t i = 0; i < node.inputs.size(); ++i) {
      os << "  n" << node.inputs[i] << " -> n" << id;
      if (node.inputs.size() > 1) {
        os << " [label=\"" << (i == 0 ? "probe" : "build") << "\"]";
      }
      os << ";\n";
    }
  }
}

}  // namespace

std::string ToDot(const OpGraph& graph, const FusionPlan& plan) {
  std::ostringstream os;
  os << "digraph plan {\n  rankdir=TB;\n  compound=true;\n";
  for (NodeId id : graph.Sources()) {
    EmitNode(os, graph.node(id), "  ");
  }
  for (std::size_t c = 0; c < plan.clusters.size(); ++c) {
    const FusionCluster& cluster = plan.clusters[c];
    os << "  subgraph cluster_" << c << " {\n"
       << "    label=\"" << (cluster.fused() ? "fused kernel " : "kernel ") << c
       << " (regs " << cluster.register_estimate << ")\";\n"
       << "    style=filled;\n    fillcolor=\""
       << (cluster.fused() ? "#d7f0d7" : "#f2f2f2") << "\";\n";
    for (NodeId member : cluster.nodes) {
      EmitNode(os, graph.node(member), "    ");
    }
    os << "  }\n";
  }
  EmitEdges(os, graph);
  os << "}\n";
  return os.str();
}

}  // namespace kf::core
