#include "server/plan_cache.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "common/error.h"

namespace kf::server {

namespace {

using core::FusionCluster;
using core::FusionPlan;
using core::NodeId;
using core::OpGraph;
using core::OpNode;

void AppendInts(std::ostringstream& os, const std::vector<int>& values) {
  os << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) os << ',';
    os << values[i];
  }
  os << ']';
}

// Structural content of one node, excluding anything cosmetic (labels) or
// data-dependent (row hints): what the node *is*, not what flows through it.
std::string ContentSignature(const OpNode& node) {
  std::ostringstream os;
  if (node.is_source) {
    os << "src|" << node.name << '|' << node.schema.ToString();
    return os.str();
  }
  const relational::OperatorDesc& desc = node.desc;
  os << "op|" << relational::ToString(desc.kind);
  switch (desc.kind) {
    case relational::OpKind::kSelect:
      os << '|' << desc.predicate.ToString();
      break;
    case relational::OpKind::kProject:
      os << '|';
      AppendInts(os, desc.fields);
      break;
    case relational::OpKind::kJoin:
      os << '|' << desc.left_key << ':' << desc.right_key;
      break;
    case relational::OpKind::kSort:
      os << '|';
      AppendInts(os, desc.sort_keys);
      break;
    case relational::OpKind::kAggregate:
      os << '|';
      AppendInts(os, desc.group_by);
      os << '|';
      for (const relational::AggregateSpec& agg : desc.aggregates) {
        os << static_cast<int>(agg.func) << ':' << agg.field << ':' << agg.name
           << ';';
      }
      break;
    case relational::OpKind::kArith:
      os << '|' << desc.arith.ToString() << '|' << desc.arith_name << '|'
         << static_cast<int>(desc.arith_type);
      break;
    default:
      break;  // kind alone identifies the set operators and PRODUCT/UNIQUE
  }
  return os.str();
}

// Maps `id` through the canonical positions, preserving kNoNode.
std::size_t PositionOf(const CanonicalGraph& canonical, NodeId id) {
  return canonical.position.at(id);
}

FusionPlan MapPlan(const FusionPlan& plan, std::size_t node_count,
                   const std::function<NodeId(NodeId)>& map_node) {
  FusionPlan out;
  out.cluster_of.assign(node_count, -1);
  out.clusters.reserve(plan.clusters.size());
  for (std::size_t c = 0; c < plan.clusters.size(); ++c) {
    const FusionCluster& cluster = plan.clusters[c];
    FusionCluster mapped;
    mapped.register_estimate = cluster.register_estimate;
    mapped.primary_input = cluster.primary_input == core::kNoNode
                               ? core::kNoNode
                               : map_node(cluster.primary_input);
    for (NodeId id : cluster.nodes) {
      const NodeId m = map_node(id);
      mapped.nodes.push_back(m);
      out.cluster_of[m] = static_cast<int>(c);
    }
    for (NodeId id : cluster.build_inputs) mapped.build_inputs.push_back(map_node(id));
    for (NodeId id : cluster.outputs) mapped.outputs.push_back(map_node(id));
    out.clusters.push_back(std::move(mapped));
  }
  return out;
}

}  // namespace

CanonicalGraph CanonicalizeGraph(const OpGraph& graph) {
  const std::size_t n = graph.node_count();
  CanonicalGraph canonical;
  canonical.order.reserve(n);
  canonical.position.assign(n, n);  // n = "not yet placed"

  std::vector<std::string> content(n);
  for (NodeId id = 0; id < n; ++id) content[id] = ContentSignature(graph.node(id));

  // Deterministic topological order: repeatedly place the ready node (all
  // inputs already placed) with the smallest (content, input positions)
  // tuple. Both components are insertion-order independent, so two builds of
  // the same DAG converge on the same ordering; a full tie means the
  // candidates are structurally interchangeable up to their consumers, and
  // insertion order is an acceptable final tie-break (either choice yields
  // the same key when the graphs really are equal).
  auto input_positions = [&](NodeId id) {
    std::vector<std::size_t> positions;
    for (NodeId input : graph.node(id).inputs) {
      positions.push_back(canonical.position[input]);
    }
    return positions;
  };
  for (std::size_t placed = 0; placed < n; ++placed) {
    NodeId best = core::kNoNode;
    std::vector<std::size_t> best_inputs;
    for (NodeId id = 0; id < n; ++id) {
      if (canonical.position[id] != n) continue;  // already placed
      const OpNode& node = graph.node(id);
      bool ready = true;
      for (NodeId input : node.inputs) {
        if (canonical.position[input] == n) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      std::vector<std::size_t> inputs = input_positions(id);
      if (best == core::kNoNode || content[id] < content[best] ||
          (content[id] == content[best] && inputs < best_inputs)) {
        best = id;
        best_inputs = std::move(inputs);
      }
    }
    KF_REQUIRE_AS(::kf::InvalidArgument, best != core::kNoNode)
        << "operator graph has a cycle";
    canonical.position[best] = canonical.order.size();
    canonical.order.push_back(best);
  }

  std::ostringstream key;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const NodeId id = canonical.order[pos];
    key << pos << ':' << content[id] << '(';
    const OpNode& node = graph.node(id);
    for (std::size_t i = 0; i < node.inputs.size(); ++i) {
      if (i) key << ',';
      key << canonical.position[node.inputs[i]];
    }
    key << ")\n";
  }
  canonical.key = key.str();
  return canonical;
}

std::string FusionOptionsKey(const core::FusionOptions& options) {
  std::ostringstream os;
  os << "fusion{enabled=" << (options.enabled ? 1 : 0)
     << ",budget=" << options.register_budget << '}';
  return os.str();
}

namespace {
// Version 0 keeps the historical unversioned key so existing entries,
// tests, and logs are unchanged when no versioned state is in play.
std::string VersionPrefix(std::uint64_t version) {
  return version == 0 ? std::string()
                      : "v" + std::to_string(version) + "||";
}
}  // namespace

std::string FusionPlanCache::KeyFor(const OpGraph& graph,
                                    const core::FusionOptions& options,
                                    std::uint64_t version) {
  return VersionPrefix(version) + FusionOptionsKey(options) + "||" +
         CanonicalizeGraph(graph).key;
}

FusionPlan FusionPlanCache::GetOrPlan(const OpGraph& graph,
                                      const core::FusionOptions& options,
                                      bool* hit, std::uint64_t version) {
  const CanonicalGraph canonical = CanonicalizeGraph(graph);
  const std::string key =
      VersionPrefix(version) + FusionOptionsKey(options) + "||" + canonical.key;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // mark most-recent
      ++hits_;
      metrics().GetCounter("server.plan_cache.hits").Increment();
      if (hit != nullptr) *hit = true;
      // Rehydrate: canonical positions -> this graph's node ids.
      return MapPlan(it->second->canonical_plan, graph.node_count(),
                     [&](NodeId pos) { return canonical.order.at(pos); });
    }
  }

  // Plan outside the lock — planning is the expensive part we cache.
  FusionPlan plan = PlanFusion(graph, options);
  FusionPlan canonical_plan =
      MapPlan(plan, graph.node_count(), [&](NodeId id) {
        return static_cast<NodeId>(PositionOf(canonical, id));
      });

  std::lock_guard<std::mutex> lock(mutex_);
  ++misses_;
  metrics().GetCounter("server.plan_cache.misses").Increment();
  if (by_key_.count(key) == 0) {
    lru_.push_front(Entry{key, std::move(canonical_plan)});
    by_key_[key] = lru_.begin();
    while (lru_.size() > capacity_) {
      by_key_.erase(lru_.back().key);
      lru_.pop_back();
      metrics().GetCounter("server.plan_cache.evictions").Increment();
    }
    metrics().GetGauge("server.plan_cache.size").Set(static_cast<double>(lru_.size()));
  }
  if (hit != nullptr) *hit = false;
  return plan;
}

std::size_t FusionPlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

double FusionPlanCache::HitRate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t total = hits() + misses();
  return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
}

void FusionPlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  by_key_.clear();
}

}  // namespace kf::server
