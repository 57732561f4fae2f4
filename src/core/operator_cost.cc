#include "core/operator_cost.h"

#include <algorithm>

#include "common/error.h"
#include "relational/expr.h"

namespace kf::core {

using relational::ExprOps;
using relational::OpKind;
using sim::KernelProfile;

namespace {

KernelProfile BaseProfile(std::string label, std::uint64_t elements) {
  KernelProfile profile;
  profile.label = std::move(label);
  profile.elements = elements;
  profile.cta_count = OperatorCostModel::kCtaCount;
  profile.threads_per_cta = OperatorCostModel::kThreadsPerCta;
  profile.registers_per_thread = 16;
  profile.launches = 1;
  return profile;
}

double OperatorOps(const OpNode& node) {
  switch (node.desc.kind) {
    case OpKind::kSelect:
      return ExprOps(node.desc.predicate) + 2;
    case OpKind::kArith:
      return ExprOps(node.desc.arith) + 2;
    case OpKind::kProject:
      return static_cast<double>(node.desc.fields.size()) + 1;
    case OpKind::kJoin:
      return 14.0;  // hash, probe chain walk, emit
    case OpKind::kProduct:
      return 6.0;
    case OpKind::kAggregate:
      return 4.0 + 3.0 * static_cast<double>(node.desc.aggregates.size());
    case OpKind::kSort:
      return 12.0;  // per element per pass, applied below
    case OpKind::kUnique:
      return 8.0;
    case OpKind::kUnion:
    case OpKind::kIntersect:
    case OpKind::kDifference:
      return 10.0;
    default:
      return 8.0;
  }
}

}  // namespace

std::vector<KernelProfile> OperatorCostModel::UnfusedProfiles(
    const OpNode& node, const RealizedSizes& sizes) const {
  KF_REQUIRE(!node.is_source) << "sources have no kernels";
  const std::uint64_t in_bytes = sizes.input_rows * sizes.input_row_bytes;
  const std::uint64_t out_bytes = sizes.output_rows * sizes.output_row_bytes;
  std::vector<KernelProfile> profiles;

  switch (node.desc.kind) {
    case OpKind::kSort: {
      // LSD radix sort: each pass streams key+payload in and out.
      KernelProfile pass = BaseProfile(node.name + "/radix", sizes.input_rows);
      pass.ops_per_element = kBaseOpsPerElement + OperatorOps(node);
      pass.global_bytes_read = in_bytes;
      pass.global_bytes_written = in_bytes;
      pass.memory_access_efficiency = kSortAccessEfficiency;
      pass.launches = 2;  // histogram + scatter per pass
      for (int p = 0; p < kSortPasses; ++p) {
        KernelProfile copy = pass;
        copy.label += "[" + std::to_string(p) + "]";
        profiles.push_back(std::move(copy));
      }
      return profiles;
    }
    case OpKind::kAggregate: {
      KernelProfile compute = BaseProfile(node.name + "/reduce", sizes.input_rows);
      compute.ops_per_element = kBaseOpsPerElement + OperatorOps(node);
      compute.global_bytes_read = in_bytes;
      // Per-chunk partials only.
      compute.global_bytes_written =
          static_cast<std::uint64_t>(kCtaCount) * sizes.output_row_bytes;
      compute.memory_access_efficiency = kComputeAccessEfficiency;
      profiles.push_back(std::move(compute));

      KernelProfile combine = BaseProfile(node.name + "/combine",
                                          std::max<std::uint64_t>(sizes.output_rows, 1));
      combine.ops_per_element = 8.0;
      combine.global_bytes_read =
          static_cast<std::uint64_t>(kCtaCount) * sizes.output_row_bytes;
      combine.global_bytes_written = out_bytes;
      combine.memory_access_efficiency = kGatherAccessEfficiency;
      profiles.push_back(std::move(combine));
      return profiles;
    }
    default:
      break;
  }

  // Generic staged operator: compute kernel (partition + op + buffer) then
  // gather kernel.
  KernelProfile compute = BaseProfile(node.name + "/compute", sizes.input_rows);
  compute.ops_per_element = kBaseOpsPerElement + OperatorOps(node);
  compute.global_bytes_read = in_bytes + sizes.build_bytes;
  compute.global_bytes_written = out_bytes;  // per-chunk buffers
  compute.memory_access_efficiency =
      node.desc.kind == OpKind::kJoin || node.desc.kind == OpKind::kProduct ||
              node.desc.kind == OpKind::kUnion || node.desc.kind == OpKind::kIntersect ||
              node.desc.kind == OpKind::kDifference
          ? kProbeAccessEfficiency
          : kComputeAccessEfficiency;
  profiles.push_back(std::move(compute));

  KernelProfile gather = BaseProfile(node.name + "/gather",
                                     std::max<std::uint64_t>(sizes.output_rows, 1));
  gather.ops_per_element = 2.0;
  gather.global_bytes_read = out_bytes;
  gather.global_bytes_written = out_bytes;
  gather.memory_access_efficiency = kGatherAccessEfficiency;
  profiles.push_back(std::move(gather));
  return profiles;
}

std::vector<KernelProfile> OperatorCostModel::FusedProfiles(
    const OpGraph& graph, const FusionCluster& cluster,
    const std::vector<RealizedSizes>& per_member) const {
  KF_REQUIRE_AS(::kf::InvalidArgument, per_member.size() == cluster.nodes.size())
      << "realized sizes for " << per_member.size() << " members, cluster has "
      << cluster.nodes.size();
  KF_REQUIRE(!per_member.empty()) << "empty cluster";

  // The fused compute kernel reads the streamed input once plus every build
  // side once; intermediates stay in registers. It writes only the rows that
  // leave the cluster, into per-chunk buffers.
  const RealizedSizes& head = per_member.front();
  std::uint64_t read_bytes = head.input_rows * head.input_row_bytes;
  std::uint64_t elements = head.input_rows;
  double ops = kBaseOpsPerElement;
  int registers = cluster.register_estimate;
  double min_access_efficiency = kComputeAccessEfficiency;

  std::uint64_t output_bytes = 0;
  std::uint64_t output_rows = 0;
  for (std::size_t m = 0; m < cluster.nodes.size(); ++m) {
    const OpNode& node = graph.node(cluster.nodes[m]);
    const RealizedSizes& sizes = per_member[m];
    // Ops are paid per element the member actually processes; normalize to
    // the streamed element count.
    const double share =
        elements == 0 ? 0.0
                      : static_cast<double>(sizes.input_rows) / static_cast<double>(elements);
    ops += OperatorOps(node) * share;
    read_bytes += sizes.build_bytes;
    if (node.desc.kind == OpKind::kJoin || node.desc.kind == OpKind::kProduct) {
      min_access_efficiency =
          std::min(min_access_efficiency, kProbeAccessEfficiency);
    }
    const bool is_output = std::find(cluster.outputs.begin(), cluster.outputs.end(),
                                     cluster.nodes[m]) != cluster.outputs.end();
    if (is_output) {
      output_bytes += sizes.output_rows * sizes.output_row_bytes;
      output_rows += sizes.output_rows;
    }
  }

  std::vector<KernelProfile> profiles;
  KernelProfile compute = BaseProfile("fused/compute", elements);
  compute.ops_per_element = ops;
  compute.global_bytes_read = read_bytes;
  compute.global_bytes_written = output_bytes;
  compute.memory_access_efficiency = min_access_efficiency;
  compute.registers_per_thread = std::max(16, registers);
  profiles.push_back(std::move(compute));

  KernelProfile gather =
      BaseProfile("fused/gather", std::max<std::uint64_t>(output_rows, 1));
  gather.ops_per_element = 2.0;
  gather.global_bytes_read = output_bytes;
  gather.global_bytes_written = output_bytes;
  gather.memory_access_efficiency = kGatherAccessEfficiency;
  gather.registers_per_thread = 16;
  profiles.push_back(std::move(gather));
  return profiles;
}

}  // namespace kf::core
