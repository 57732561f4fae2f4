#include "core/calibration.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace kf::core {

const char* ToString(KernelClass cls) {
  switch (cls) {
    case KernelClass::kStaged: return "staged";
    case KernelClass::kFused: return "fused";
    case KernelClass::kBarrier: return "barrier";
  }
  return "?";
}

namespace {

constexpr double kTinyTime = 1e-12;  // guards ratios of degenerate durations

std::size_t DirIndex(sim::CopyDirection direction) {
  return direction == sim::CopyDirection::kHostToDevice ? 0 : 1;
}
std::size_t KindIndex(sim::HostMemoryKind kind) {
  return kind == sim::HostMemoryKind::kPageable ? 0 : 1;
}

}  // namespace

CostModelCalibrator::CostModelCalibrator(sim::DeviceSpec believed_spec,
                                         sim::PcieConfig believed_pcie,
                                         CalibrationOptions options)
    : options_(options),
      believed_pcie_(believed_pcie),
      believed_kernels_(std::move(believed_spec)) {
  epoch_snapshot_ = CorrectionSnapshot();
}

std::size_t CostModelCalibrator::SizeClass(std::uint64_t bytes) {
  if (bytes < KiB(256)) return 0;
  if (bytes < MiB(8)) return 1;
  if (bytes < MiB(128)) return 2;
  return 3;
}

void CostModelCalibrator::Update(Ewma& cell, double ratio) {
  if (cell.samples == 0) {
    cell.value = ratio;  // snap: makes re-calibration an exact fixed point
  } else {
    cell.value += kEwmaAlpha * (ratio - cell.value);
  }
  ++cell.samples;
}

double CostModelCalibrator::Corrected(const Ewma& cell, const Ewma& fallback) {
  const auto enough = [](const Ewma& e) { return e.samples >= kMinSamples; };
  if (enough(cell)) return cell.value;
  if (enough(fallback)) return fallback.value;
  return 1.0;
}

void CostModelCalibrator::RecordError(double believed, double observed,
                                      double correction) {
  if (observed <= kTinyTime) return;
  const double estimate = believed * correction;
  const double err = std::abs(observed - estimate) / observed;
  if (error_samples_ == 0) {
    error_ewma_ = err;
  } else {
    error_ewma_ += kEwmaAlpha * (err - error_ewma_);
  }
  ++error_samples_;
  ++observations_;
}

void CostModelCalibrator::ObserveCopy(sim::CopyDirection direction,
                                      sim::HostMemoryKind kind,
                                      std::uint64_t bytes, SimTime observed) {
  if (options_.frozen) return;
  const SimTime believed = believed_pcie_.TransferTime(bytes, kind, direction);
  if (believed <= kTinyTime || observed <= kTinyTime) return;
  const double ratio = observed / believed;
  std::lock_guard<std::mutex> lock(mutex_);
  Ewma& cell = copy_[DirIndex(direction)][KindIndex(kind)][SizeClass(bytes)];
  RecordError(believed, observed, Corrected(cell, copy_dir_[DirIndex(direction)]));
  Update(cell, ratio);
  Update(copy_dir_[DirIndex(direction)], ratio);
}

void CostModelCalibrator::ObserveKernel(KernelClass cls,
                                        const sim::KernelProfile& profile,
                                        SimTime observed) {
  if (options_.frozen) return;
  const SimTime believed = believed_kernels_.Cost(profile).solo_duration;
  if (believed <= kTinyTime || observed <= kTinyTime) return;
  const double ratio = observed / believed;
  std::lock_guard<std::mutex> lock(mutex_);
  Ewma& cell = kernel_class_[static_cast<std::size_t>(cls)];
  RecordError(believed, observed, Corrected(cell, kernel_all_));
  Update(cell, ratio);
  Update(kernel_all_, ratio);
}

void CostModelCalibrator::ObserveStalls(std::size_t commands, std::size_t stalled) {
  if (options_.frozen) return;
  std::lock_guard<std::mutex> lock(mutex_);
  stall_commands_ += commands;
  stall_stalled_ += stalled;
}

std::vector<double> CostModelCalibrator::CorrectionSnapshot() const {
  std::vector<double> snapshot;
  snapshot.reserve(2 * 2 * kSizeClasses + 3);
  for (const auto& by_kind : copy_) {
    for (const auto& by_class : by_kind) {
      for (const Ewma& cell : by_class) snapshot.push_back(cell.value);
    }
  }
  for (const Ewma& cell : kernel_class_) snapshot.push_back(cell.value);
  return snapshot;
}

void CostModelCalibrator::EndRun() {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<double> current = CorrectionSnapshot();
  for (std::size_t i = 0; i < current.size(); ++i) {
    const double base = std::max(std::abs(epoch_snapshot_[i]), kTinyTime);
    if (std::abs(current[i] - epoch_snapshot_[i]) / base > kEpochThreshold) {
      ++epoch_;
      epoch_snapshot_ = current;
      return;
    }
  }
}

SimTime CostModelCalibrator::EstimateTransferTime(
    std::uint64_t bytes, sim::HostMemoryKind kind,
    sim::CopyDirection direction) const {
  const SimTime believed = believed_pcie_.TransferTime(bytes, kind, direction);
  if (options_.frozen) return believed;
  std::lock_guard<std::mutex> lock(mutex_);
  return believed * Corrected(copy_[DirIndex(direction)][KindIndex(kind)][SizeClass(bytes)],
                              copy_dir_[DirIndex(direction)]);
}

SimTime CostModelCalibrator::EstimateKernelTime(
    KernelClass cls, const sim::KernelProfile& profile) const {
  const SimTime believed = believed_kernels_.Cost(profile).solo_duration;
  if (options_.frozen) return believed;
  std::lock_guard<std::mutex> lock(mutex_);
  return believed * Corrected(kernel_class_[static_cast<std::size_t>(cls)], kernel_all_);
}

int CostModelCalibrator::PlanFissionSegments(const PipelineEstimate& estimate,
                                             int min_segments) const {
  static constexpr int kCandidates[] = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64};
  const sim::DeviceSpec& spec = believed_spec();
  const SimTime launch_overhead =
      static_cast<double>(std::max(1, estimate.launches)) * spec.kernel_launch_overhead;
  // Kernel work excluding the per-segment launch cost (added back per segment).
  const SimTime kernel_work =
      std::max<SimTime>(0.0, estimate.kernel_time - launch_overhead);

  int best = std::max(1, min_segments);
  SimTime best_time = -1.0;
  for (int n : kCandidates) {
    if (n < min_segments || n > kMaxSegments) continue;
    const std::uint64_t seg = static_cast<std::uint64_t>(n);
    const SimTime h =
        estimate.h2d_bytes > 0
            ? EstimateTransferTime(estimate.h2d_bytes / seg, estimate.host_memory,
                                   sim::CopyDirection::kHostToDevice)
            : 0.0;
    const SimTime d =
        estimate.d2h_bytes > 0
            ? EstimateTransferTime(estimate.d2h_bytes / seg, estimate.host_memory,
                                   sim::CopyDirection::kDeviceToHost)
            : 0.0;
    const SimTime k = kernel_work / static_cast<double>(n) + launch_overhead;
    const SimTime bottleneck = std::max({h, k, d});
    // Steady-state pipeline: the bottleneck stage back-to-back, a ramp of the
    // other stages, and per-segment sync overhead.
    const SimTime total = static_cast<double>(n) * bottleneck +
                          (h + k + d - bottleneck) +
                          static_cast<double>(n) * spec.stream_sync_overhead;
    if (best_time < 0.0 || total < best_time) {
      best_time = total;
      best = n;
    }
  }
  return best;
}

int CostModelCalibrator::ChooseStreamCount(bool d2h_present) const {
  int streams = d2h_present ? 3 : 2;
  if (StallRate() > kStallStreamThreshold) ++streams;
  return std::min(streams, 4);
}

int CostModelCalibrator::CalibratedRegisterBudget(int register_budget,
                                                  int base_registers) const {
  double correction;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (options_.frozen || kernel_all_.samples < kMinSamples) {
      return register_budget;
    }
    correction = kernel_all_.value;
  }
  if (correction > 1.15) {
    return std::min(register_budget + 8,
                    sim::KernelCostModel::kMaxRegistersPerThread - 3);
  }
  if (correction < 0.85) {
    return std::max(register_budget - 8, base_registers + 4);
  }
  return register_budget;
}

bool CostModelCalibrator::NeedsExploration() const {
  if (options_.frozen) return false;  // a frozen model never learns anyway
  std::lock_guard<std::mutex> lock(mutex_);
  return kernel_all_.samples == 0 || copy_dir_[0].samples == 0;
}

std::uint64_t CostModelCalibrator::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

void CostModelCalibrator::AdvanceEpoch() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++epoch_;
  epoch_snapshot_ = CorrectionSnapshot();
}

double CostModelCalibrator::error() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return error_ewma_;
}

double CostModelCalibrator::StallRate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stall_commands_ > 0 ? static_cast<double>(stall_stalled_) /
                                   static_cast<double>(stall_commands_)
                             : 0.0;
}

std::uint64_t CostModelCalibrator::observations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return observations_;
}

double CostModelCalibrator::CopyCorrection(sim::CopyDirection direction) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return copy_dir_[DirIndex(direction)].value;
}

double CostModelCalibrator::KernelCorrection() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return kernel_all_.value;
}

}  // namespace kf::core
