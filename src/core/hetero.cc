#include "core/hetero.h"

#include "common/error.h"
#include "core/calibration.h"

namespace kf::core {

const char* ToString(Placement placement) {
  return placement == Placement::kDevice ? "device" : "host";
}

PlacementDecision HeterogeneousScheduler::Decide(
    const OpGraph& graph, const FusionCluster& cluster,
    const std::vector<RealizedSizes>& member_sizes, bool input_on_host,
    bool output_to_host) const {
  KF_REQUIRE_AS(::kf::InvalidArgument, member_sizes.size() == cluster.nodes.size())
      << "sizes for " << member_sizes.size() << " members, cluster has "
      << cluster.nodes.size();
  PlacementDecision decision;

  // --- Device: fused kernel cost + the PCIe crossings placement implies.
  // With a calibrator attached the device side is estimated from the
  // believed model × measured corrections; otherwise from the true device's
  // analytic model (the static behavior every existing caller keeps). -------
  const auto profiles = OperatorCostModel{}.FusedProfiles(graph, cluster, member_sizes);
  const KernelClass kernel_class =
      cluster.fused() ? KernelClass::kFused
      : Classify(graph.node(cluster.nodes.front()).desc.kind) ==
              FusionClass::kBarrier
          ? KernelClass::kBarrier
          : KernelClass::kStaged;
  auto device_kernel_time = [&](const sim::KernelProfile& profile) {
    return calibration_ != nullptr
               ? calibration_->EstimateKernelTime(kernel_class, profile)
               : device_.cost_model().Cost(profile).solo_duration;
  };
  auto device_transfer_time = [&](std::uint64_t bytes,
                                  sim::CopyDirection direction) {
    return calibration_ != nullptr
               ? calibration_->EstimateTransferTime(
                     bytes, sim::HostMemoryKind::kPinned, direction)
               : device_.pcie().TransferTime(bytes, sim::HostMemoryKind::kPinned,
                                             direction);
  };
  for (const auto& profile : profiles) {
    decision.device_time += device_kernel_time(profile);
  }
  const RealizedSizes& head = member_sizes.front();
  const std::uint64_t input_bytes = head.input_rows * head.input_row_bytes;
  std::uint64_t build_bytes = 0;
  for (const RealizedSizes& sizes : member_sizes) build_bytes += sizes.build_bytes;
  std::uint64_t output_bytes = 0;
  for (std::size_t m = 0; m < cluster.nodes.size(); ++m) {
    if (std::find(cluster.outputs.begin(), cluster.outputs.end(), cluster.nodes[m]) !=
        cluster.outputs.end()) {
      output_bytes += member_sizes[m].output_rows * member_sizes[m].output_row_bytes;
    }
  }
  if (input_on_host) {
    decision.device_time += device_transfer_time(
        input_bytes + build_bytes, sim::CopyDirection::kHostToDevice);
  }
  if (output_to_host) {
    decision.device_time +=
        device_transfer_time(output_bytes, sim::CopyDirection::kDeviceToHost);
  }

  // --- Host: the translated fused kernel streams the same bytes at host
  // rates; no PCIe either way (and a D2H first if the input is stranded on
  // the device). ---------------------------------------------------------------
  double host_bytes = static_cast<double>(input_bytes + build_bytes + output_bytes);
  double host_ops = 0.0;
  for (const auto& profile : profiles) {
    host_ops += profile.ops_per_element * static_cast<double>(profile.elements);
  }
  decision.host_time = kDispatchOverhead +
                       std::max(host_bytes / (kHostMemBandwidthGbs * kGB),
                                host_ops / kHostOpsPerSecond);
  if (!input_on_host) {
    decision.host_time +=
        device_transfer_time(input_bytes, sim::CopyDirection::kDeviceToHost);
  }

  decision.placement = decision.device_time <= decision.host_time
                           ? Placement::kDevice
                           : Placement::kHost;
  return decision;
}

}  // namespace kf::core
