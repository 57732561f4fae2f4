// Adaptive cost-model calibration (feedback-driven replanning).
//
// Every planning decision in this codebase — fission segment counts, stream
// counts, CPU/GPU placement, the fusion planner's register budget — is made
// against an *analytic* cost model seeded from a DeviceSpec/PcieConfig. On a
// real deployment that seed is never exactly right: PCIe links share a root
// complex, ECC steals bandwidth, driver versions move launch overheads. The
// `CostModelCalibrator` closes the loop: the executor feeds it per-command
// outcomes from the simulated `sim::Timeline` after every run (observed copy
// time per direction × host-memory kind × size class, kernel time per stage
// category, stall rates), and the calibrator maintains EWMA correction
// ratios (observed / believed) that overlay the believed model:
//
//     estimate = believed_model(bytes or profile) × correction
//
// Decisions made from those calibrated estimates converge to the true device
// even when the believed spec is 2× optimistic or pessimistic (see
// bench_adaptive and docs/adaptive.md).
//
// Metamorphic properties (tests/core/calibration_test.cc):
//   * monotonicity — observing higher bandwidth (smaller times) never raises
//     a transfer estimate, because the correction is a multiplier on a
//     monotone believed model;
//   * idempotence — the first sample of a class *snaps* the correction to
//     the observed ratio, and the EWMA update is `c += α·(r − c)`, so
//     re-feeding an identical timeline is an exact fixed point;
//   * convergence — on a stationary device the mean relative estimate error
//     is non-increasing run over run and reaches ~0.
//
// Epochs: corrections drift as observations arrive. When any correction has
// moved by more than `kEpochThreshold` (relative) since the last epoch, the
// epoch counter bumps. Plan caches version their entries by this epoch
// (`FusionPlanCache::GetOrPlan(..., version)`), so plans costed under stale
// corrections are re-planned instead of served stale.
//
// Thread safety: all methods are safe to call concurrently (one mutex; every
// path here is cold compared to execution itself).
#ifndef KF_CORE_CALIBRATION_H_
#define KF_CORE_CALIBRATION_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/units.h"
#include "sim/device_spec.h"
#include "sim/kernel_cost_model.h"
#include "sim/pcie_model.h"

namespace kf::core {

// Stage category a kernel observation is keyed by: fused clusters, unfused
// staged kernels, and barrier operators (sorts) have different believed-model
// error profiles, so they calibrate independently (with a shared all-kernel
// correction as fallback until a category has samples).
enum class KernelClass : std::uint8_t { kStaged = 0, kFused = 1, kBarrier = 2 };
const char* ToString(KernelClass cls);

struct CalibrationOptions {
  // Frozen calibrators never learn: estimates come from the raw believed
  // model. This is the "uncalibrated executor" arm of bench_adaptive — the
  // adaptive decision logic runs, but against the (miscalibrated) static
  // model, exactly like a deployment that trusts its seed constants.
  bool frozen = false;
};

// Believed per-cluster pipeline shape, used by the adaptive fission planner.
// All quantities describe the WHOLE cluster at one segment.
struct PipelineEstimate {
  std::uint64_t h2d_bytes = 0;  // streamed input upload
  std::uint64_t d2h_bytes = 0;  // host-bound output download (0: stays resident)
  SimTime kernel_time = 0.0;    // calibrated kernel time, single segment
  int launches = 1;             // kernel launches per segment
  sim::HostMemoryKind host_memory = sim::HostMemoryKind::kPinned;
};

class CostModelCalibrator {
 public:
  static constexpr std::size_t kSizeClasses = 4;

  // EWMA weight of each new observation after the first (the first sample of
  // a class snaps the correction — see header comment).
  static constexpr double kEwmaAlpha = 0.35;

  // Relative correction drift that bumps the calibration epoch (checked once
  // per run in EndRun()).
  static constexpr double kEpochThreshold = 0.10;

  // Samples a (direction × kind × size-class) or kernel-category cell needs
  // before its correction is trusted; cells below fall back to the
  // direction-global / all-kernel correction, then to 1.0.
  static constexpr std::uint64_t kMinSamples = 1;

  // Stall rate above which the executor provisions one extra stream.
  static constexpr double kStallStreamThreshold = 0.05;

  // Upper bound for adaptively chosen fission segment counts.
  static constexpr int kMaxSegments = 64;

  explicit CostModelCalibrator(
      sim::DeviceSpec believed_spec = sim::DeviceSpec::TeslaC2070(),
      sim::PcieConfig believed_pcie = sim::PcieConfig{},
      CalibrationOptions options = CalibrationOptions{});

  CostModelCalibrator(const CostModelCalibrator&) = delete;
  CostModelCalibrator& operator=(const CostModelCalibrator&) = delete;

  // --- Observation feed (executor → calibrator, after each run). ----------
  // All no-ops when frozen.
  void ObserveCopy(sim::CopyDirection direction, sim::HostMemoryKind kind,
                   std::uint64_t bytes, SimTime observed);
  void ObserveKernel(KernelClass cls, const sim::KernelProfile& profile,
                     SimTime observed);
  void ObserveStalls(std::size_t commands, std::size_t stalled);
  // Once per finished run: checks correction drift against the last epoch
  // snapshot and bumps the epoch on > kEpochThreshold movement. Records
  // nothing: the executor reads the state below into its run's `calib.*`
  // series.
  void EndRun();

  // --- Calibrated estimates (believed model × learned correction). --------
  SimTime EstimateTransferTime(std::uint64_t bytes, sim::HostMemoryKind kind,
                               sim::CopyDirection direction) const;
  SimTime EstimateKernelTime(KernelClass cls,
                             const sim::KernelProfile& profile) const;

  // --- Adaptive decisions. -------------------------------------------------
  // Segment count minimizing the believed+corrected pipeline makespan
  //   T(N) = N·max(h,k,d) + ramp + N·sync
  // over a fixed candidate set, never below `min_segments` (the capacity
  // floor). Returns 1 when segmentation does not pay (per-segment PCIe
  // latency and launch overhead exceed the overlap win) — the executor then
  // runs the cluster resident, which is the replanning half of the loop.
  int PlanFissionSegments(const PipelineEstimate& estimate,
                          int min_segments) const;

  // 3 streams when a D2H leg exists (H2D/compute/D2H pipeline), 2 otherwise,
  // plus one when the measured stall rate exceeds the threshold (a stalled
  // stream strands its queued segments; a spare keeps the engines fed).
  int ChooseStreamCount(bool d2h_present) const;

  // Register budget for the fusion planner: kernels measuring more expensive
  // than believed (correction > 1.15) make intermediate traffic dearer, so
  // fuse more aggressively (+8, capped below the Fermi spill limit); kernels
  // measuring cheaper (< 0.85) relax the pressure (−8).
  int CalibratedRegisterBudget(int register_budget, int base_registers) const;

  // True until the calibrator has at least one kernel and one H2D sample:
  // the executor keeps clusters on the device while this holds, so a
  // pessimistically believed device cannot starve itself of the very
  // observations that would correct it.
  bool NeedsExploration() const;

  // --- Introspection. ------------------------------------------------------
  // Monotone counter versioning cached plans; starts at 1.
  std::uint64_t epoch() const;
  // Manual epoch bump (operational plan-cache flush; also used by tests).
  void AdvanceEpoch();
  // EWMA of relative estimate error |observed − estimate| / observed across
  // all observations, measured *before* each correction update. ~0 once
  // converged; large when the believed spec is badly wrong.
  double error() const;
  double StallRate() const;
  std::uint64_t observations() const;
  // Direction-global copy correction and all-kernel correction (tests).
  double CopyCorrection(sim::CopyDirection direction) const;
  double KernelCorrection() const;

  bool frozen() const { return options_.frozen; }
  const sim::DeviceSpec& believed_spec() const { return believed_kernels_.spec(); }
  const sim::PcieConfig& believed_pcie() const { return believed_pcie_.config(); }

  // Size-class bucketing of transfer bytes (<256 KiB, <8 MiB, <128 MiB, rest):
  // small transfers are latency-dominated, large ones bandwidth-dominated,
  // and the pinned-degradation regime only shows past hundreds of MiB, so
  // their observed/believed ratios differ.
  static std::size_t SizeClass(std::uint64_t bytes);

 private:
  // One EWMA correction cell. `value` is observed/believed; the first sample
  // snaps (idempotence — see header comment).
  struct Ewma {
    double value = 1.0;
    std::uint64_t samples = 0;
  };
  void Update(Ewma& cell, double ratio);
  // Correction for a cell with fallback: cell → fallback → 1.0.
  static double Corrected(const Ewma& cell, const Ewma& fallback);
  void RecordError(double believed, double observed, double correction);
  std::vector<double> CorrectionSnapshot() const;  // all cells, fixed order

  const CalibrationOptions options_;
  const sim::PcieModel believed_pcie_;
  const sim::KernelCostModel believed_kernels_;

  mutable std::mutex mutex_;
  // [direction][kind][size class] and direction-global fallbacks.
  Ewma copy_[2][2][kSizeClasses];
  Ewma copy_dir_[2];
  // [KernelClass] and all-kernel fallback.
  Ewma kernel_class_[3];
  Ewma kernel_all_;

  std::uint64_t epoch_ = 1;
  std::vector<double> epoch_snapshot_;

  double error_ewma_ = 0.0;
  std::uint64_t error_samples_ = 0;
  std::uint64_t observations_ = 0;
  std::uint64_t stall_commands_ = 0;
  std::uint64_t stall_stalled_ = 0;
};

}  // namespace kf::core

#endif  // KF_CORE_CALIBRATION_H_
