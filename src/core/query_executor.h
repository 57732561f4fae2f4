// Query execution strategies: serial, fused, fission, fused+fission.
//
// The executor runs an operator graph against the simulated device and
// produces (a) functionally correct results and (b) a simulated timeline.
//
//   kSerial       — the paper's baseline: every operator is its own staged
//                   kernel pair, executed in one stream; intermediates are
//                   materialized in device memory (and, depending on the
//                   intermediate policy or capacity pressure, round-trip
//                   through host memory over PCIe).
//   kFused        — kernel fusion (Section III): the fusion planner clusters
//                   the graph; each cluster runs as one fused staged kernel
//                   with intermediates in registers.
//   kFission      — kernel fission (Section IV): streamable operator chains
//                   are segmented, and segments pipeline over three streams
//                   so H2D copy, compute, and D2H copy overlap (Fig 13);
//                   kernels stay unfused. Results reaching the host out of
//                   order require a final CPU gather (Fig 15). Fission uses
//                   pinned host memory.
//   kFusedFission — both (Section IV-C): fission applied to fused clusters.
//
// Inputs larger than device memory are automatically processed in segments
// in every strategy (serially in kSerial/kFused — the "no fission" baseline
// of Fig 14 — and pipelined in the fission strategies).
#ifndef KF_CORE_QUERY_EXECUTOR_H_
#define KF_CORE_QUERY_EXECUTOR_H_

#include <map>
#include <optional>
#include <string>

#include "common/buffer_arena.h"
#include "common/thread_pool.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "core/calibration.h"
#include "core/fused_pipeline.h"
#include "core/fusion_planner.h"
#include "core/integrity.h"
#include "core/op_graph.h"
#include "core/operator_cost.h"
#include "sim/device_simulator.h"
#include "sim/fault_injector.h"

namespace kf::core {

enum class Strategy : std::uint8_t { kSerial, kFused, kFission, kFusedFission };
const char* ToString(Strategy strategy);

enum class IntermediatePolicy : std::uint8_t {
  // Intermediates stay in device memory; spill to host only on capacity
  // pressure ("without round trip").
  kKeepOnDevice,
  // Every intermediate crossing a cluster boundary returns to host memory
  // and is re-uploaded before its consumer ("with round trip" — what a
  // system must do when device memory cannot hold the working set).
  kRoundTrip,
};

// Fault recovery policy. The retry unit is what the paper's fission pass
// naturally provides: a resident cluster runs as one unit, every fission
// segment is its own unit, and each final sink download is a unit. A failed
// unit is re-issued on a fresh stream with exponential backoff charged to the
// simulated clock; a unit that exhausts its retries degrades its whole
// cluster to the host (Ocelot-style translated execution, see core/hetero.h)
// instead of failing the query. Functional results are computed host-side
// before the timing simulation, so recovered and degraded queries return
// byte-identical results by construction.
struct ResilienceOptions {
  int max_retries = 3;                       // attempts per failed unit
  SimTime backoff_base = 250 * kMicrosecond; // first-retry delay
  double backoff_factor = 2.0;               // delay multiplier per attempt
  bool degrade_to_host = true;  // false: throw kf::DeviceFault instead
  // Simulated-time budget for the whole query (0 = none). Exceeding it —
  // including backoff and degraded host reruns — throws kf::Timeout.
  SimTime deadline = 0.0;
};

struct ExecutorOptions {
  Strategy strategy = Strategy::kSerial;
  IntermediatePolicy intermediates = IntermediatePolicy::kKeepOnDevice;
  FusionOptions fusion;

  // Host staging memory. Fission requires pinned buffers (the paper notes
  // this is its main drawback); the serial strategies default to pinned too
  // so strategy comparisons isolate scheduling effects.
  sim::HostMemoryKind host_memory = sim::HostMemoryKind::kPinned;

  // Segments per fissioned cluster (at least stream_count to fill the
  // pipeline; raised automatically when the data exceeds device memory).
  int fission_segments = 12;
  int stream_count = 3;

  // Simulated CTAs per cluster kernel in the functional pass, whatever the
  // strategy: every cluster's primary input is cut into this many chunks,
  // and float SUM/AVG add up per chunk, so the sink bytes depend on it (not
  // on the strategy). Must be positive; Execute throws kf::InvalidArgument
  // otherwise.
  int chunk_count = 64;

  // Fraction of device memory a single resident working set may use before
  // segmentation kicks in.
  double device_memory_budget = 0.45;

  // Registry every run records into (launches, transfer bytes, engine busy
  // time, spill events, cluster counts, per-stage timings), labeled by
  // strategy. nullptr means the process-wide default registry; pass a
  // private registry for isolated measurement.
  obs::MetricsRegistry* metrics = nullptr;

  // Precomputed fusion plan for this graph (e.g. from a FusionPlanCache).
  // When set, the executor skips PlanFusion entirely; the plan must have
  // been produced for this graph shape with EffectiveFusionOptions(*this)
  // — the executor validates only that the node counts line up.
  const FusionPlan* plan = nullptr;

  // Fault injection + recovery. With an injector attached the executor
  // checks per-command outcomes after every simulated run and applies
  // `resilience`; nullptr executes the legacy always-succeeds path.
  const sim::FaultInjector* fault_injector = nullptr;
  ResilienceOptions resilience;

  // Route every cluster to the host engine (circuit-breaker open, or an
  // explicit CPU run). No device commands are issued at all.
  bool force_host = false;

  // Workspace pool for the functional pass (cluster kernels check their
  // chunk scratch out of it, so repeated queries hit warm buffers). nullptr
  // uses the executing thread's scratch arena. The arena
  // only affects allocation behavior, never results — it is deliberately NOT
  // part of any execution-compatibility key.
  kf::BufferArena* arena = nullptr;

  // Adaptive cost-model calibration (core/calibration.h). When set, the run
  //   * replaces the fixed `fission_segments`/`stream_count` constants with
  //     choices from calibrated pipeline estimates,
  //   * places clusters on the host engine when measured ratios say the CPU
  //     wins (timing-only: functional results are always computed host-side
  //     first, so placement never changes results),
  //   * feeds the finished timeline's per-command outcomes back into the
  //     calibrator and records `calib.*` metrics.
  // nullptr keeps the exact static behavior of every previous PR. The
  // calibrator must outlive the executor call and may be shared across
  // threads (it locks internally).
  CostModelCalibrator* calibration = nullptr;

  // Data-integrity verification (core/integrity.h): checksummed transfers
  // and sampled host audits, with detected mismatches healed through the
  // retry-unit machinery. Disabled by default — the legacy trusting path.
  IntegrityOptions integrity;

  // End-to-end tracing (obs/tracer.h). When set, the run records a span tree
  // for `trace.query_id` (allocated from the tracer when 0): a root execute
  // span covering the whole simulated makespan, plan/functional spans,
  // per-cluster + per-segment + per-retry spans, and one leaf span per
  // stream command, all annotated with faults, stalls, corruption, and
  // re-executions. `trace_parent` nests the run under an enclosing span
  // (scheduler batch, multi-device shard). nullptr records nothing.
  obs::Tracer* tracer = nullptr;
  obs::TraceContext trace;
  obs::SpanId trace_parent = 0;
};

// The fusion options Run() plans with: `fusion` from the options, with
// `enabled` forced on whenever the strategy fuses or fissions (clusters are
// also the scheduling granularity) or intermediates stay on-device. Exposed
// so plan caches key on exactly what the executor would ask the planner.
FusionOptions EffectiveFusionOptions(const ExecutorOptions& options);

struct ExecutionReport {
  sim::TimelineStats timeline;
  SimTime makespan = 0.0;

  // Serialized duration sums by category (Fig 9's decomposition).
  SimTime input_output_time = 0.0;  // source H2D + sink D2H
  SimTime round_trip_time = 0.0;    // intermediate spills/round trips
  SimTime compute_time = 0.0;       // kernel solo durations
  SimTime host_gather_time = 0.0;   // CPU gather after fission

  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t peak_device_bytes = 0;
  std::size_t kernel_launches = 0;

  // Capacity-pressure evictions: resident intermediates forced back to host
  // memory because an allocation did not fit (the involuntary round trips of
  // Fig 7(a); policy-driven round trips are not counted here).
  std::size_t spill_count = 0;

  // Fusion plan shape this run executed with.
  std::size_t cluster_count = 0;
  std::size_t fused_cluster_count = 0;

  // Fault-injection outcomes (all zero/false without an injector).
  std::size_t fault_count = 0;       // injected failures observed (all runs)
  std::size_t retried_units = 0;     // retry units that were re-issued
  std::size_t retry_attempts = 0;    // total re-issues across those units
  std::size_t degraded_clusters = 0; // clusters rerun on the host engine
  bool degraded = false;             // at least one cluster degraded
  bool ran_on_host = false;          // force_host routed clusters to the CPU
  // Clusters the calibrated placement decision routed to the host engine
  // (adaptive runs only; force_host clusters are not counted here).
  std::size_t host_placed_clusters = 0;
  SimTime backoff_time = 0.0;        // simulated retry backoff charged
  // Device bytes still reserved when the run finished — must be zero; a
  // nonzero value means a fault path leaked a reservation.
  std::uint64_t leaked_device_bytes = 0;

  // Data-integrity outcomes (all zero/false unless corruption was injected
  // or IntegrityOptions enabled something).
  std::size_t corrupted_commands = 0;     // injected corruptions, all attempts
  std::size_t corruption_detected = 0;    // caught by checksum/audit
  // Corruptions that reached accepted results unnoticed. Corruption on an
  // attempt that was discarded for another reason counts in
  // `corrupted_commands` only, so detected + undetected <= corrupted.
  std::size_t corruption_undetected = 0;
  std::size_t corruption_reexecutions = 0; // retry attempts owed to detection
  std::size_t audited_clusters = 0;        // clusters host-audited this run
  bool silent_corruption = false;  // some sink bytes are silently wrong
  SimTime integrity_time = 0.0;    // checksum + audit host-engine seconds
  // Host-audit digests for every output of an audited cluster, computed by
  // the functional layer (FusedPipeline fills them for fused clusters).
  std::map<NodeId, std::uint64_t> audit_checksums;

  // Span-derived totals (tracer-attached runs only). `trace_spans` counts
  // the spans this run recorded; `trace_covered` is the root execute span's
  // simulated duration (always the full makespan); `trace_stage_seconds`
  // sums the main run's leaf command occupancy per stage category — on a
  // fault-free serial run these match the stage sums above exactly.
  std::size_t trace_spans = 0;
  SimTime trace_covered = 0.0;
  std::map<std::string, SimTime> trace_stage_seconds;

  // Per-cluster kernel-time breakdown (execution order): where the compute
  // time goes — e.g. Q1's SORT share, or the fused block's contribution.
  struct ClusterTiming {
    std::string label;
    SimTime compute = 0.0;
    std::size_t launches = 0;
    bool fused = false;
  };
  std::vector<ClusterTiming> cluster_timings;

  // Functional results, one per sink node (functional mode only).
  std::map<NodeId, relational::Table> sink_results;

  // Input-side throughput: source bytes / makespan.
  double ThroughputGBs(std::uint64_t source_bytes) const {
    return makespan > 0 ? static_cast<double>(source_bytes) / kGB / makespan : 0.0;
  }
};

class QueryExecutor {
 public:
  QueryExecutor(const sim::DeviceSimulator& device,
                OperatorCostModel cost_model = OperatorCostModel{},
                ThreadPool* pool = nullptr)
      : device_(device), cost_model_(std::move(cost_model)), pool_(pool) {}

  // Functional + timed execution. `sources` binds every source node.
  ExecutionReport Execute(const OpGraph& graph,
                          const std::map<NodeId, relational::Table>& sources,
                          const ExecutorOptions& options) const;

  // Timing-only execution for data volumes that cannot be materialized
  // (Figs 14/16 run billions of elements). `row_counts` gives the realized
  // output row count of every non-source node; source rows come from their
  // row hints.
  ExecutionReport EstimateOnly(const OpGraph& graph,
                               const std::map<NodeId, std::uint64_t>& row_counts,
                               const ExecutorOptions& options) const;

 private:
  struct NodeSizes;  // realized row counts and widths per node

  ExecutionReport Run(const OpGraph& graph,
                      const std::map<NodeId, relational::Table>* sources,
                      std::map<NodeId, std::uint64_t> row_counts,
                      const ExecutorOptions& options) const;

  const sim::DeviceSimulator& device_;
  OperatorCostModel cost_model_;
  ThreadPool* pool_;
};

}  // namespace kf::core

#endif  // KF_CORE_QUERY_EXECUTOR_H_
