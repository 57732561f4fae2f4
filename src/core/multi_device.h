// Sharded query execution across a simulated device group.
//
// The paper's fission pass segments a streamable operator chain so copy and
// compute overlap on one card; the same segmentation is the unit for sharding
// the chain across *several* cards. `MultiDeviceExecutor` row-slices the
// query's shard source (the relation every sink's probe-side chain reads),
// broadcasts every other source, runs the existing `QueryExecutor` per device
// — against `DeviceGroup::ContendedView`s so concurrent PCIe traffic is
// derated — and concatenates sink results in device order. Because the
// shardable operator set (SELECT, ARITH, probe-side JOIN) is row-wise and
// order-preserving, the concatenation is byte-identical to a single-device
// run over the full input (see docs/multi_device.md).
#ifndef KF_CORE_MULTI_DEVICE_H_
#define KF_CORE_MULTI_DEVICE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "core/query_executor.h"
#include "sim/device_group.h"

namespace kf::core {

struct MultiDeviceOptions {
  // Per-shard executor configuration (strategy, fission segments, streams,
  // resilience...). `base.fault_injector` applies to every shard unless a
  // per-device injector overrides it below.
  ExecutorOptions base;

  // Optional per-device fault injectors, indexed by *group* device index
  // (shorter vectors / nullptr entries fall back to `base.fault_injector`).
  // This is how per-device fault domains are modeled: device k's shards see
  // only device k's faults.
  std::vector<const sim::FaultInjector*> per_device_injectors;

  // Optional per-device calibrators (core/calibration.h), indexed by *group*
  // device index (shorter vectors / nullptr entries fall back to
  // `base.calibration`). Each device learns corrections from its own shards
  // only, so one drifting card does not skew its siblings' models.
  std::vector<CostModelCalibrator*> per_device_calibrations;

  // Group device indices to shard across; empty means every device. Order
  // defines shard order (results concatenate in this order).
  std::vector<int> devices;

  // On a group-wide capacity failure (a shard cannot fit even after the
  // executor's own segmentation/spill handling), rerun the whole query on
  // the host engine instead of failing. Mirrors the PR 4 degrade path.
  bool allow_host_fallback = true;
};

struct ShardReport {
  int device = 0;           // group device index
  std::uint64_t rows = 0;   // shard-source rows assigned to this device
  ExecutionReport report;   // the per-shard single-device report
};

struct MultiDeviceReport {
  // Group-level view: `combined.makespan` is the slowest shard plus the
  // cross-device gather; byte/launch/fault counters are summed across
  // shards; `combined.sink_results` holds the concatenated tables.
  ExecutionReport combined;
  std::vector<ShardReport> shards;

  int devices_used = 1;            // shards that received rows
  bool sharded = false;            // false: single-device or host fallback
  bool host_fallback = false;      // group-wide OOM rerouted to the host
  double transfer_derating = 1.0;  // PCIe derating applied to every shard
  SimTime gather_time = 0.0;       // host-side concatenation of shard results
};

class MultiDeviceExecutor {
 public:
  explicit MultiDeviceExecutor(const sim::DeviceGroup& group,
                               OperatorCostModel cost_model = OperatorCostModel{},
                               ThreadPool* pool = nullptr)
      : group_(group), cost_model_(std::move(cost_model)), pool_(pool) {}

  // True when the graph has the shape sharding preserves: every sink's
  // probe-side (inputs[0]) chain reaches one shared source through
  // SELECT/ARITH/JOIN nodes only, every JOIN's build side is a source, and
  // the shard source feeds no build side. Everything else (sorts,
  // aggregations, set operators, multiple fan-in sources) runs unsharded on
  // a single device.
  static bool Shardable(const OpGraph& graph);

  // Functional + timed execution. Falls back to one device (the first
  // active one) when the graph is not shardable or only one device is
  // active; that path is byte- and timing-identical to `QueryExecutor`.
  MultiDeviceReport Execute(const OpGraph& graph,
                            const std::map<NodeId, relational::Table>& sources,
                            const MultiDeviceOptions& options) const;

  // Timing-only execution for data volumes that cannot be materialized.
  // `row_counts` follows `QueryExecutor::EstimateOnly` semantics for the
  // full (unsharded) query; per-shard counts are scaled by shard fraction.
  MultiDeviceReport EstimateOnly(const OpGraph& graph,
                                 const std::map<NodeId, std::uint64_t>& row_counts,
                                 const MultiDeviceOptions& options) const;

  const sim::DeviceGroup& group() const { return group_; }

 private:
  // Shared engine behind Execute/EstimateOnly (mirrors QueryExecutor::Run:
  // `sources` non-null selects functional mode).
  MultiDeviceReport Run(const OpGraph& graph,
                        const std::map<NodeId, relational::Table>* sources,
                        const std::map<NodeId, std::uint64_t>& row_counts,
                        const MultiDeviceOptions& options) const;

  std::vector<int> ActiveDevices(const MultiDeviceOptions& options) const;
  const sim::FaultInjector* InjectorFor(int device,
                                        const MultiDeviceOptions& options) const;
  CostModelCalibrator* CalibrationFor(int device,
                                      const MultiDeviceOptions& options) const;

  const sim::DeviceGroup& group_;
  OperatorCostModel cost_model_;
  ThreadPool* pool_;
};

}  // namespace kf::core

#endif  // KF_CORE_MULTI_DEVICE_H_
