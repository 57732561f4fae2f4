#include "sim/device_group.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace kf::sim {

DeviceGroup::DeviceGroup(std::vector<DeviceSpec> specs, PcieConfig pcie) : pcie_(pcie) {
  KF_REQUIRE_AS(::kf::InvalidArgument, !specs.empty())
      << "a device group needs at least one device";
  devices_.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto device = std::make_unique<DeviceSimulator>(std::move(specs[i]), pcie_);
    device->set_instance_label("dev" + std::to_string(i));
    devices_.push_back(std::move(device));
  }
}

DeviceGroup DeviceGroup::Homogeneous(int device_count, DeviceSpec spec,
                                     PcieConfig pcie) {
  KF_REQUIRE_AS(::kf::InvalidArgument, device_count > 0)
      << "device_count must be positive, got " << device_count;
  std::vector<DeviceSpec> specs(static_cast<std::size_t>(device_count), spec);
  return DeviceGroup(std::move(specs), pcie);
}

double DeviceGroup::DeviceLinkPeakGbs(int i) const {
  KF_REQUIRE_AS(::kf::InvalidArgument, i >= 0 && i < device_count())
      << "device index " << i << " out of range (group has " << device_count()
      << ")";
  // Links are shared PcieConfig today; kept per-device for future
  // heterogeneous link speeds.
  (void)i;
  return std::max(pcie_.pinned_h2d_gbs, pcie_.pinned_d2h_gbs);
}

double DeviceGroup::TransferDerating(int concurrent) const {
  concurrent = std::clamp(concurrent, 1, device_count());
  if (concurrent <= 1) return 1.0;
  // Worst case: the `concurrent` fastest links all stream at pinned peak.
  std::vector<double> peaks;
  peaks.reserve(static_cast<std::size_t>(device_count()));
  for (int i = 0; i < device_count(); ++i) peaks.push_back(DeviceLinkPeakGbs(i));
  std::sort(peaks.begin(), peaks.end(), std::greater<>());
  double demand = 0.0;
  for (int i = 0; i < concurrent; ++i) demand += peaks[static_cast<std::size_t>(i)];
  return std::max(1.0, demand / kAggregateBandwidthGbs);
}

DeviceSimulator DeviceGroup::ContendedView(int i, int concurrent) const {
  KF_REQUIRE_AS(::kf::InvalidArgument, i >= 0 && i < device_count())
      << "device index " << i << " out of range (group has " << device_count()
      << ")";
  const double derating = TransferDerating(concurrent);
  PcieConfig derated = pcie_;
  derated.pinned_h2d_gbs /= derating;
  derated.pinned_d2h_gbs /= derating;
  derated.pageable_h2d_gbs /= derating;
  derated.pageable_d2h_gbs /= derating;
  DeviceSimulator view(device(i).spec(), derated);
  view.set_instance_label(device(i).instance_label());
  return view;
}

}  // namespace kf::sim
