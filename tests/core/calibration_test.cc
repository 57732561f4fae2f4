// Metamorphic and behavioral tests for the adaptive cost-model calibrator
// (core/calibration.h): monotonicity, idempotence, convergence, epoch
// semantics, the adaptive deciders, and end-to-end executor integration.
#include "core/calibration.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "core/query_executor.h"
#include "sim/device_simulator.h"
#include "sim/kernel_cost_model.h"
#include "sim/pcie_model.h"
#include "tests/core/byte_identical.h"
#include "tests/core/random_graph.h"

namespace kf::core {
namespace {

using sim::CopyDirection;
using sim::HostMemoryKind;

// A believed PCIe link `factor`× faster than the default (true) one —
// factor > 1 models an optimistic seed, factor < 1 a pessimistic one.
sim::PcieConfig ScaledPcie(double factor) {
  sim::PcieConfig config;
  config.pinned_h2d_gbs *= factor;
  config.pinned_d2h_gbs *= factor;
  config.pageable_h2d_gbs *= factor;
  config.pageable_d2h_gbs *= factor;
  return config;
}

sim::KernelProfile StreamProfile(std::uint64_t elements) {
  sim::KernelProfile profile;
  profile.label = "test";
  profile.elements = elements;
  profile.global_bytes_read = elements * 16;
  profile.global_bytes_written = elements * 16;
  return profile;
}

TEST(Calibration, SizeClassBoundaries) {
  EXPECT_EQ(CostModelCalibrator::SizeClass(1), 0u);
  EXPECT_EQ(CostModelCalibrator::SizeClass(KiB(256) - 1), 0u);
  EXPECT_EQ(CostModelCalibrator::SizeClass(KiB(256)), 1u);
  EXPECT_EQ(CostModelCalibrator::SizeClass(MiB(8) - 1), 1u);
  EXPECT_EQ(CostModelCalibrator::SizeClass(MiB(8)), 2u);
  EXPECT_EQ(CostModelCalibrator::SizeClass(MiB(128) - 1), 2u);
  EXPECT_EQ(CostModelCalibrator::SizeClass(MiB(128)), 3u);
  EXPECT_EQ(CostModelCalibrator::SizeClass(GiB(2)), 3u);
}

TEST(Calibration, UncalibratedEstimatesEqualBelievedModel) {
  const sim::PcieConfig pcie = ScaledPcie(2.0);
  CostModelCalibrator calib(sim::DeviceSpec::TeslaC2070(), pcie);
  const sim::PcieModel believed(pcie);
  for (std::uint64_t bytes : {KiB(64), MiB(1), MiB(64), MiB(512)}) {
    EXPECT_DOUBLE_EQ(
        calib.EstimateTransferTime(bytes, HostMemoryKind::kPinned,
                                   CopyDirection::kHostToDevice),
        believed.TransferTime(bytes, HostMemoryKind::kPinned,
                              CopyDirection::kHostToDevice));
  }
  const sim::KernelCostModel kernels(sim::DeviceSpec::TeslaC2070());
  const sim::KernelProfile profile = StreamProfile(1 << 20);
  EXPECT_DOUBLE_EQ(calib.EstimateKernelTime(KernelClass::kStaged, profile),
                   kernels.Cost(profile).solo_duration);
}

// --- Idempotence: the first sample snaps, identical re-feeds are a fixed
// point of the EWMA update. --------------------------------------------------

TEST(Calibration, FirstSampleSnapsToObservedRatio) {
  CostModelCalibrator calib;
  const sim::PcieModel believed{};
  const std::uint64_t bytes = MiB(4);
  const SimTime truth = 2.0 * believed.TransferTime(bytes, HostMemoryKind::kPinned,
                                                    CopyDirection::kHostToDevice);
  calib.ObserveCopy(CopyDirection::kHostToDevice, HostMemoryKind::kPinned, bytes,
                    truth);
  EXPECT_NEAR(calib.CopyCorrection(CopyDirection::kHostToDevice), 2.0, 1e-9);
}

TEST(Calibration, IdenticalObservationsAreAFixedPoint) {
  CostModelCalibrator calib;
  const sim::PcieModel believed{};
  const std::uint64_t bytes = MiB(4);
  const SimTime observed =
      1.7 * believed.TransferTime(bytes, HostMemoryKind::kPinned,
                                  CopyDirection::kHostToDevice);
  calib.ObserveCopy(CopyDirection::kHostToDevice, HostMemoryKind::kPinned, bytes,
                    observed);
  const double correction = calib.CopyCorrection(CopyDirection::kHostToDevice);
  const SimTime estimate = calib.EstimateTransferTime(
      bytes, HostMemoryKind::kPinned, CopyDirection::kHostToDevice);
  // Re-feeding the exact same timeline must not move anything — the EWMA
  // update c += alpha*(r - c) is exactly zero at r == c.
  for (int i = 0; i < 10; ++i) {
    calib.ObserveCopy(CopyDirection::kHostToDevice, HostMemoryKind::kPinned,
                      bytes, observed);
  }
  EXPECT_DOUBLE_EQ(calib.CopyCorrection(CopyDirection::kHostToDevice), correction);
  EXPECT_DOUBLE_EQ(calib.EstimateTransferTime(bytes, HostMemoryKind::kPinned,
                                              CopyDirection::kHostToDevice),
                   estimate);
  // And once the feed matches the estimate, the error EWMA decays toward
  // zero (it still carries a trace of the one pre-calibration sample).
  EXPECT_LT(calib.error(), 0.01);
}

// --- Monotonicity. ----------------------------------------------------------

TEST(Calibration, FasterObservationsNeverRaiseEstimates) {
  CostModelCalibrator calib;
  const sim::PcieModel believed{};
  const std::uint64_t bytes = MiB(4);
  const SimTime base = believed.TransferTime(bytes, HostMemoryKind::kPinned,
                                             CopyDirection::kHostToDevice);
  // Start calibrated to a device 3x slower than believed, then observe
  // progressively faster transfers; the estimate must be non-increasing.
  SimTime previous_estimate = -1.0;
  for (double factor : {3.0, 2.5, 2.0, 1.5, 1.0, 0.8}) {
    calib.ObserveCopy(CopyDirection::kHostToDevice, HostMemoryKind::kPinned,
                      bytes, factor * base);
    const SimTime estimate = calib.EstimateTransferTime(
        bytes, HostMemoryKind::kPinned, CopyDirection::kHostToDevice);
    if (previous_estimate >= 0.0) EXPECT_LE(estimate, previous_estimate + 1e-15);
    previous_estimate = estimate;
  }
}

TEST(Calibration, EstimatesMonotoneInBytes) {
  CostModelCalibrator calib;
  // Seed every size class with the same slowdown so the correction overlay
  // cannot invert the believed model's monotonicity in bytes.
  const sim::PcieModel believed{};
  for (std::uint64_t bytes : {KiB(64), MiB(1), MiB(32), MiB(256)}) {
    calib.ObserveCopy(CopyDirection::kHostToDevice, HostMemoryKind::kPinned,
                      bytes,
                      2.0 * believed.TransferTime(bytes, HostMemoryKind::kPinned,
                                                  CopyDirection::kHostToDevice));
  }
  SimTime previous = 0.0;
  for (std::uint64_t bytes = KiB(16); bytes <= MiB(64); bytes *= 2) {
    const SimTime estimate = calib.EstimateTransferTime(
        bytes, HostMemoryKind::kPinned, CopyDirection::kHostToDevice);
    EXPECT_GE(estimate, previous);
    previous = estimate;
  }
}

// --- Convergence. -----------------------------------------------------------

TEST(Calibration, ConvergesFromTwoXOptimisticBelief) {
  // Believed link is 2x faster than the true device: initial estimates are
  // ~2x short. Feeding true observations must drive the relative error to
  // (near) zero and the estimate to the true time.
  CostModelCalibrator calib(sim::DeviceSpec::TeslaC2070(), ScaledPcie(2.0));
  const sim::PcieModel truth{};  // the real link
  const std::uint64_t bytes = MiB(4);
  const SimTime true_time = truth.TransferTime(bytes, HostMemoryKind::kPinned,
                                               CopyDirection::kHostToDevice);

  const SimTime before = calib.EstimateTransferTime(
      bytes, HostMemoryKind::kPinned, CopyDirection::kHostToDevice);
  EXPECT_LT(before, 0.75 * true_time);  // optimistic belief underestimates

  double previous_error = -1.0;
  for (int run = 0; run < 8; ++run) {
    calib.ObserveCopy(CopyDirection::kHostToDevice, HostMemoryKind::kPinned,
                      bytes, true_time);
    calib.EndRun();
    if (previous_error >= 0.0) EXPECT_LE(calib.error(), previous_error + 1e-12);
    previous_error = calib.error();
  }
  const SimTime after = calib.EstimateTransferTime(
      bytes, HostMemoryKind::kPinned, CopyDirection::kHostToDevice);
  EXPECT_NEAR(after, true_time, 0.02 * true_time);
  EXPECT_LT(calib.error(), 0.05);
}

TEST(Calibration, KernelClassesCalibrateIndependentlyWithFallback) {
  CostModelCalibrator calib;
  const sim::KernelCostModel believed(sim::DeviceSpec::TeslaC2070());
  const sim::KernelProfile profile = StreamProfile(1 << 20);
  const SimTime base = believed.Cost(profile).solo_duration;

  calib.ObserveKernel(KernelClass::kStaged, profile, 2.0 * base);
  // kStaged has its own correction; kFused has no samples and falls back to
  // the all-kernel correction (also 2.0 after one observation).
  EXPECT_NEAR(calib.EstimateKernelTime(KernelClass::kStaged, profile),
              2.0 * base, 1e-9 * base);
  EXPECT_NEAR(calib.EstimateKernelTime(KernelClass::kFused, profile), 2.0 * base,
              1e-9 * base);

  // A fused observation at 1.2x splits the classes apart.
  calib.ObserveKernel(KernelClass::kFused, profile, 1.2 * base);
  EXPECT_NEAR(calib.EstimateKernelTime(KernelClass::kFused, profile), 1.2 * base,
              1e-9 * base);
  EXPECT_NEAR(calib.EstimateKernelTime(KernelClass::kStaged, profile),
              2.0 * base, 1e-9 * base);
}

// --- Epochs. ----------------------------------------------------------------

TEST(Calibration, EpochBumpsOnDriftThenStabilizes) {
  CostModelCalibrator calib(sim::DeviceSpec::TeslaC2070(), sim::PcieConfig{});
  EXPECT_EQ(calib.epoch(), 1u);

  const sim::PcieModel believed{};
  const std::uint64_t bytes = MiB(4);
  const SimTime slow = 2.0 * believed.TransferTime(bytes, HostMemoryKind::kPinned,
                                                   CopyDirection::kHostToDevice);
  // First run: correction snaps 1.0 -> 2.0, >10% drift, epoch bumps.
  calib.ObserveCopy(CopyDirection::kHostToDevice, HostMemoryKind::kPinned, bytes,
                    slow);
  calib.EndRun();
  EXPECT_EQ(calib.epoch(), 2u);

  // Steady-state runs: corrections are at their fixed point, no more bumps.
  for (int run = 0; run < 5; ++run) {
    calib.ObserveCopy(CopyDirection::kHostToDevice, HostMemoryKind::kPinned,
                      bytes, slow);
    calib.EndRun();
  }
  EXPECT_EQ(calib.epoch(), 2u);
}

TEST(Calibration, AdvanceEpochIsManualBump) {
  CostModelCalibrator calib;
  EXPECT_EQ(calib.epoch(), 1u);
  calib.AdvanceEpoch();
  EXPECT_EQ(calib.epoch(), 2u);
  // The manual bump re-snapshots: an immediately following EndRun with no
  // new observations must not double-bump.
  calib.EndRun();
  EXPECT_EQ(calib.epoch(), 2u);
}

// --- Frozen mode. -----------------------------------------------------------

TEST(Calibration, FrozenCalibratorNeverLearns) {
  CalibrationOptions options;
  options.frozen = true;
  CostModelCalibrator calib(sim::DeviceSpec::TeslaC2070(), ScaledPcie(2.0),
                            options);
  const sim::PcieModel believed(ScaledPcie(2.0));
  const std::uint64_t bytes = MiB(4);
  const SimTime believed_time = believed.TransferTime(
      bytes, HostMemoryKind::kPinned, CopyDirection::kHostToDevice);

  for (int i = 0; i < 10; ++i) {
    calib.ObserveCopy(CopyDirection::kHostToDevice, HostMemoryKind::kPinned,
                      bytes, 10.0 * believed_time);
  }
  EXPECT_EQ(calib.observations(), 0u);
  EXPECT_DOUBLE_EQ(calib.CopyCorrection(CopyDirection::kHostToDevice), 1.0);
  EXPECT_DOUBLE_EQ(calib.EstimateTransferTime(bytes, HostMemoryKind::kPinned,
                                              CopyDirection::kHostToDevice),
                   believed_time);
  // A frozen model never explores — it would never use the observations.
  EXPECT_FALSE(calib.NeedsExploration());
}

// --- Adaptive deciders. -----------------------------------------------------

TEST(Calibration, FissionSegmentsOverlapLargePipelines) {
  CostModelCalibrator calib;
  PipelineEstimate estimate;
  estimate.h2d_bytes = MiB(512);
  estimate.d2h_bytes = MiB(512);
  estimate.kernel_time =
      calib.EstimateKernelTime(KernelClass::kStaged, StreamProfile(64 << 20));
  const int segments = calib.PlanFissionSegments(estimate, 1);
  // A large balanced pipeline wants real overlap depth...
  EXPECT_GE(segments, 8);
  EXPECT_LE(segments, CostModelCalibrator::kMaxSegments);
}

TEST(Calibration, FissionSegmentsCollapseToResidentForTinyClusters) {
  CostModelCalibrator calib;
  PipelineEstimate estimate;
  estimate.h2d_bytes = KiB(32);
  estimate.d2h_bytes = KiB(32);
  estimate.kernel_time = 20.0 * kMicrosecond;
  // ...but a tiny cluster is dominated by per-segment PCIe latency and
  // launch overhead: segmentation does not pay, N = 1 (resident replanning).
  EXPECT_EQ(calib.PlanFissionSegments(estimate, 1), 1);
}

TEST(Calibration, FissionSegmentsRespectCapacityFloor) {
  CostModelCalibrator calib;
  PipelineEstimate estimate;
  estimate.h2d_bytes = KiB(32);
  estimate.kernel_time = 20.0 * kMicrosecond;
  // min_segments is the capacity floor (data does not fit at fewer): the
  // picked count can never go below it even when overlap does not pay.
  EXPECT_GE(calib.PlanFissionSegments(estimate, 6), 6);
}

TEST(Calibration, StreamCountMatchesPipelineLegsAndStalls) {
  CostModelCalibrator calib;
  EXPECT_EQ(calib.ChooseStreamCount(/*d2h_present=*/false), 2);
  EXPECT_EQ(calib.ChooseStreamCount(/*d2h_present=*/true), 3);
  // A measured stall rate above the threshold provisions one spare stream.
  calib.ObserveStalls(/*commands=*/100, /*stalled=*/20);
  EXPECT_EQ(calib.ChooseStreamCount(/*d2h_present=*/false), 3);
  EXPECT_EQ(calib.ChooseStreamCount(/*d2h_present=*/true), 4);  // capped at 4
}

TEST(Calibration, RegisterBudgetFollowsKernelCorrection) {
  const sim::KernelCostModel believed(sim::DeviceSpec::TeslaC2070());
  const sim::KernelProfile profile = StreamProfile(1 << 20);
  const SimTime base = believed.Cost(profile).solo_duration;

  CostModelCalibrator neutral;
  EXPECT_EQ(neutral.CalibratedRegisterBudget(32, 10), 32);  // no samples yet

  CostModelCalibrator expensive;
  expensive.ObserveKernel(KernelClass::kStaged, profile, 2.0 * base);
  EXPECT_EQ(expensive.CalibratedRegisterBudget(32, 10), 40);  // fuse harder
  EXPECT_EQ(expensive.CalibratedRegisterBudget(58, 10),
            sim::KernelCostModel::kMaxRegistersPerThread - 3);  // capped

  CostModelCalibrator cheap;
  cheap.ObserveKernel(KernelClass::kStaged, profile, 0.5 * base);
  EXPECT_EQ(cheap.CalibratedRegisterBudget(32, 10), 24);      // relax
  EXPECT_EQ(cheap.CalibratedRegisterBudget(16, 10), 14);      // floored
}

TEST(Calibration, ExplorationEndsAfterKernelAndCopySamples) {
  CostModelCalibrator calib;
  EXPECT_TRUE(calib.NeedsExploration());
  calib.ObserveKernel(KernelClass::kStaged, StreamProfile(1 << 20),
                      1.0 * kMicrosecond * 1000);
  EXPECT_TRUE(calib.NeedsExploration());  // still no H2D sample
  const sim::PcieModel believed{};
  calib.ObserveCopy(CopyDirection::kHostToDevice, HostMemoryKind::kPinned,
                    MiB(1),
                    believed.TransferTime(MiB(1), HostMemoryKind::kPinned,
                                          CopyDirection::kHostToDevice));
  EXPECT_FALSE(calib.NeedsExploration());
}

// --- Executor integration. --------------------------------------------------

TEST(Calibration, ExecutorFeedsCalibratorAndStaysByteIdentical) {
  const RandomQuery q = MakeRandomQuery(20260808);
  const std::map<NodeId, relational::Table> truth = ReferenceResults(q);

  sim::DeviceSimulator device;
  QueryExecutor executor(device);

  // Believed spec 2x optimistic on PCIe: the calibrator must learn the ~2x
  // correction purely from the executor's observation feed.
  CostModelCalibrator calib(device.spec(), ScaledPcie(2.0));
  for (Strategy strategy : {Strategy::kSerial, Strategy::kFused,
                            Strategy::kFission, Strategy::kFusedFission}) {
    ExecutorOptions options;
    options.strategy = strategy;
    options.calibration = &calib;
    for (int run = 0; run < 3; ++run) {
      const ExecutionReport report = executor.Execute(q.graph, q.sources, options);
      for (NodeId sink : q.graph.Sinks()) {
        ASSERT_EQ(report.sink_results.count(sink), 1u);
        EXPECT_TRUE(ByteIdentical(report.sink_results.at(sink), truth.at(sink)))
            << ToString(strategy) << " run " << run;
      }
    }
  }
  EXPECT_GT(calib.observations(), 0u);
  // The learned H2D correction reflects the 2x-optimistic believed link.
  EXPECT_GT(calib.CopyCorrection(CopyDirection::kHostToDevice), 1.3);
  // The drift bumped the epoch past its initial value.
  EXPECT_GT(calib.epoch(), 1u);
}

TEST(Calibration, CalibratedTimingMatchesStaticWhenBeliefIsTrue) {
  // With a correctly believed spec and a converged calibrator, the adaptive
  // executor's *results* are identical and its makespan is finite and sane.
  const RandomQuery q = MakeRandomQuery(77);
  sim::DeviceSimulator device;
  QueryExecutor executor(device);

  CostModelCalibrator calib(device.spec(), sim::PcieConfig{});
  ExecutorOptions adaptive;
  adaptive.strategy = Strategy::kFusedFission;
  adaptive.calibration = &calib;

  ExecutorOptions fixed;
  fixed.strategy = Strategy::kFusedFission;

  const ExecutionReport a = executor.Execute(q.graph, q.sources, adaptive);
  const ExecutionReport b = executor.Execute(q.graph, q.sources, fixed);
  ASSERT_EQ(a.sink_results.size(), b.sink_results.size());
  for (const auto& [sink, table] : b.sink_results) {
    EXPECT_TRUE(ByteIdentical(a.sink_results.at(sink), table));
  }
  EXPECT_GT(a.makespan, 0.0);
}

}  // namespace
}  // namespace kf::core
