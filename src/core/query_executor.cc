#include "core/query_executor.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <limits>
#include <set>

#include "common/error.h"
#include "common/random.h"
#include "core/hetero.h"
#include "relational/operators.h"

namespace kf::core {

using relational::OpKind;
using relational::Table;
using sim::CommandId;
using sim::CommandSpec;

const char* ToString(Strategy strategy) {
  switch (strategy) {
    case Strategy::kSerial: return "serial";
    case Strategy::kFused: return "fusion";
    case Strategy::kFission: return "fission";
    case Strategy::kFusedFission: return "fusion+fission";
  }
  return "?";
}

namespace {

// Stage of a stream command (Fig 9's decomposition); kIntegrity is checksum
// passes and host audits on the host engine.
enum class Category : std::uint8_t {
  kInputOutput, kRoundTrip, kCompute, kHostGather, kIntegrity
};

// By Category: the stage's name (a leaf span's category) and report sum.
constexpr const char* kCategoryNames[] = {"input_output", "round_trip", "compute",
                                          "host_gather", "integrity"};
constexpr SimTime ExecutionReport::*kStageSums[] = {
    &ExecutionReport::input_output_time, &ExecutionReport::round_trip_time,
    &ExecutionReport::compute_time, &ExecutionReport::host_gather_time,
    &ExecutionReport::integrity_time};

const char* CategoryName(Category category) {
  return kCategoryNames[static_cast<std::size_t>(category)];
}

bool Fuses(Strategy strategy) {
  return strategy == Strategy::kFused || strategy == Strategy::kFusedFission;
}

bool Fissions(Strategy strategy) {
  return strategy == Strategy::kFission || strategy == Strategy::kFusedFission;
}

bool IsCopy(sim::CommandKind kind) {
  return kind == sim::CommandKind::kCopyH2D || kind == sim::CommandKind::kCopyD2H;
}

// Serialized duration: a kernel's solo time, any other command's own.
SimTime SerialDuration(const CommandSpec& spec) {
  return spec.kind == sim::CommandKind::kKernel ? spec.solo_duration : spec.duration;
}

// Where a node's data currently lives while the schedule is built.
struct Residency {
  bool on_device = false;
  bool on_host = true;
  std::uint64_t bytes = 0;
  std::optional<sim::AllocationId> alloc;
  std::optional<CommandId> ready;  // command that made the data available
  int pending_uses = 0;            // cluster reads still to come
};

std::uint64_t DivCeil(std::uint64_t a, std::uint64_t b) { return (a + b - 1) / b; }

// Default row-count propagation for timing-only mode (overrides win).
std::uint64_t EstimateRows(const OpGraph& graph, NodeId id,
                           const std::map<NodeId, std::uint64_t>& rows) {
  const OpNode& node = graph.node(id);
  auto input_rows = [&](std::size_t i) { return rows.at(node.inputs[i]); };
  switch (node.desc.kind) {
    case OpKind::kProduct:
      return input_rows(0) * input_rows(1);
    case OpKind::kAggregate:
      return std::min<std::uint64_t>(input_rows(0), 64);
    case OpKind::kJoin:
    case OpKind::kSelect:
    case OpKind::kIntersect:
    case OpKind::kDifference:
      return input_rows(0);  // upper bound; callers should override
    case OpKind::kUnion:
      return input_rows(0) + input_rows(1);
    default:
      return input_rows(0);
  }
}

// --- The schedule: one record of every decision a run makes. ---------------

// Segment of a command issued outside any fission segment.
constexpr int kWholeCluster = -1;

// The executor's tags on one timeline command: everything the phases after
// BuildSchedule derive from it beyond its spec and stream.
struct ScheduledCommand {
  Category category = Category::kCompute;
  std::uint64_t bytes = 0;  // bytes copied, checksummed or audited
  int launches = 0;         // kernel launches (stage sums count at least 1)
  // Retry unit (see ResilienceOptions) and the cluster owning it.
  int unit = 0;
  std::size_t cluster = 0;
  int segment = kWholeCluster;  // fission segment, or kWholeCluster
  int profile = -1;             // Schedule::profiles index, kernels only
};

struct ScheduledCluster {
  std::string label;        // member names joined by '+'
  SimTime host_time = 0.0;  // host-engine cost (placement, audit, degradation)
  KernelClass kernel_class = KernelClass::kStaged;  // calibration category
  bool fused = false;        // runs as one fused kernel
  bool host_placed = false;  // calibrated placement chose the host engine
  bool audited = false;      // a host audit re-checks the outputs
  int segments = 0;          // fission segments; 0 when not segmented
};

// `timeline` holds every stream command once, in issue order, and
// commands[i] tags timeline command i, so dependencies name row indices.
struct Schedule {
  sim::Timeline timeline;
  std::vector<ScheduledCommand> commands = {};
  std::vector<sim::KernelProfile> profiles = {};
  std::vector<ScheduledCluster> clusters = {};  // one per plan cluster
  int stream_count = 1;          // compute streams
  int lanes = 1;                 // plus the integrity stream when verifying
  int calibrated_segments = 0;   // last calibrated segment count; 0 if none
  std::size_t spill_count = 0;
  std::uint64_t checksummed_bytes = 0;
  std::uint64_t peak_device_bytes = 0;
  std::uint64_t leaked_device_bytes = 0;
};

// Where one run sits in a trace; inert when `tracer` is null.
struct RunTrace {
  obs::Tracer* tracer = nullptr;
  obs::TraceContext context;
  obs::SpanId root = 0;
};

// What every phase except BuildSchedule reads; Plan opens the trace.
struct RunContext {
  const OpGraph& graph;
  const ExecutorOptions& options;
  const sim::DeviceSimulator& device;
  obs::MetricsRegistry& metrics;
  // Labels of every series the run records: its strategy, and the device's
  // instance label when the device belongs to a group.
  obs::Labels labels;
  RunTrace trace = {};
};

// --- Plan. ------------------------------------------------------------------

struct Planned {
  FusionPlan plan;
  std::vector<char> audited;  // per cluster: drawn for a host audit
};

// Clusters, audit draws, and the root and plan spans. Grouping decides
// *scheduling* granularity: members of one cluster execute back-to-back with
// intermediates in device memory (kernels still separate unless the strategy
// fuses them), and data larger than the device streams through the whole
// chain segment-wise. Only the round-trip regime — intermediates evicted to
// host after every operator — needs ungrouped clusters.
Planned Plan(RunContext& run) {
  const ExecutorOptions& options = run.options;
  Planned out;
  // The root "execute" span covers the whole simulated run; every span of
  // the later phases nests under it. All sim times of a run are run-local;
  // trace.sim_offset re-bases them onto the session clock in the tracer.
  obs::Tracer* const tracer = options.tracer;
  RunTrace& trace = run.trace;
  trace.tracer = tracer;
  trace.context = options.trace;
  obs::SpanId plan_span = 0;
  if (tracer != nullptr) {
    if (trace.context.query_id == 0) trace.context.query_id = tracer->NextQueryId();
    trace.root = tracer->BeginSpan(trace.context, options.trace_parent,
                                   std::string("execute/") + ToString(options.strategy),
                                   "executor", 0.0);
    plan_span = tracer->BeginSpan(trace.context, trace.root, "plan", "executor", 0.0);
  }

  if (options.plan != nullptr) {
    KF_REQUIRE_AS(::kf::InvalidArgument,
                  options.plan->cluster_of.size() == run.graph.node_count())
        << "precomputed fusion plan covers " << options.plan->cluster_of.size()
        << " nodes but the graph has " << run.graph.node_count();
  }
  out.plan = options.plan != nullptr ? *options.plan
                                     : PlanFusion(run.graph, EffectiveFusionOptions(options));
  if (tracer != nullptr) {
    const bool hit = options.plan != nullptr;
    tracer->EndSpan(trace.context, plan_span, 0.0);
    tracer->Annotate(trace.context, plan_span,
                     hit ? obs::SpanAnnotationKind::kCacheHit
                         : obs::SpanAnnotationKind::kCacheMiss,
                     hit ? "precomputed fusion plan" : "planned fresh", 0.0);
  }

  // Which clusters are audited is fixed for the run, retries included: a
  // pure draw from the audit seed, the injector's epoch and the cluster.
  const double audit_fraction = std::clamp(options.integrity.audit_fraction, 0.0, 1.0);
  out.audited.assign(out.plan.clusters.size(), 0);
  if (audit_fraction > 0.0) {
    const std::uint64_t run_salt =
        options.fault_injector != nullptr ? options.fault_injector->epoch() : 0;
    for (std::size_t c = 0; c < out.plan.clusters.size(); ++c) {
      out.audited[c] =
          AuditSampled(options.integrity.audit_seed, run_salt, c, audit_fraction) ? 1 : 0;
    }
  }
  return out;
}

// --- Functional. ------------------------------------------------------------

struct FunctionalPass {
  std::map<NodeId, Table> computed;      // cluster outputs
  std::map<NodeId, std::uint64_t> rows;  // realized (or estimated) row counts
  std::map<NodeId, std::uint64_t> audit_checksums;
  // Traced functional runs: each cluster's ExecuteCluster call, in the
  // tracer's wall seconds.
  std::vector<std::pair<double, double>> cluster_wall;
};

// Functional mode runs every cluster as one staged kernel (fused or a
// singleton), whatever the strategy — the strategy changes only the
// schedule — and records realized row counts. Timing-only mode (`sources`
// null) takes operator rows from `overrides`, with structural estimates as
// fallback, and source rows from their hints.
FunctionalPass Functional(const RunContext& run, const Planned& planned,
                          const std::map<NodeId, Table>* sources,
                          const std::map<NodeId, std::uint64_t>& overrides,
                          ThreadPool* pool) {
  const OpGraph& graph = run.graph;
  FunctionalPass out;
  if (sources == nullptr) {
    for (NodeId id : graph.TopologicalOrder()) {
      const auto it = overrides.find(id);
      out.rows[id] = it != overrides.end()        ? it->second
                     : graph.node(id).is_source ? graph.node(id).row_hint
                                                : EstimateRows(graph, id, out.rows);
    }
    return out;
  }

  // Wall-time-only span: the functional pass happens before the simulated
  // clock starts, so its sim interval is a zero-width marker at t=0.
  const RunTrace& trace = run.trace;
  const obs::SpanId span = trace.tracer != nullptr
                               ? trace.tracer->BeginSpan(trace.context, trace.root,
                                                         "functional", "executor", 0.0)
                               : 0;
  auto lookup = [&](NodeId id) -> const Table& {
    auto source = sources->find(id);
    if (source != sources->end()) return source->second;
    auto it = out.computed.find(id);
    KF_REQUIRE(it != out.computed.end()) << "node #" << id << " not materialized";
    return it->second;
  };
  for (NodeId src : graph.Sources()) {
    KF_REQUIRE_AS(::kf::InvalidArgument, sources->count(src) != 0)
        << "source '" << graph.node(src).name << "' not bound";
    out.rows[src] = sources->at(src).row_count();
  }
  for (std::size_t c = 0; c < planned.plan.clusters.size(); ++c) {
    const double wall_start = span != 0 ? trace.tracer->WallNow() : 0.0;
    ClusterExecution exec =
        ExecuteCluster(graph, planned.plan.clusters[c], lookup, run.options.chunk_count,
                       pool, planned.audited[c] != 0);
    if (span != 0) out.cluster_wall.emplace_back(wall_start, trace.tracer->WallNow());
    for (const auto& [id, digest] : exec.output_checksums) {
      out.audit_checksums[id] = digest;
    }
    for (auto& [id, table] : exec.outputs) {
      out.rows[id] = table.row_count();
      out.computed.emplace(id, std::move(table));
    }
    for (const auto& [id, count] : exec.member_rows) out.rows.try_emplace(id, count);
  }
  if (span != 0) trace.tracer->EndSpan(trace.context, span, 0.0);
  return out;
}

// --- BuildSchedule. -----------------------------------------------------------

// Builds the schedule over a device-memory model: residency, capacity
// spills, segmentation, CPU/GPU placement and audits. Calibrated *decisions*
// happen here; every observation of the run (trace, metrics, calibrator
// feed) is derived from the finished record.
class ScheduleBuilder {
 public:
  ScheduleBuilder(const OpGraph& graph, const Planned& planned,
                  const std::map<NodeId, std::uint64_t>& rows,
                  const ExecutorOptions& options, const sim::DeviceSimulator& device,
                  const OperatorCostModel& cost_model)
      : graph_(graph), plan_(planned.plan), audit_draws_(planned.audited), rows_(rows),
        options_(options), device_(device), cost_model_(cost_model),
        calib_(options.calibration), fuse_(Fuses(options.strategy)),
        fission_(Fissions(options.strategy)),
        audit_on_(std::clamp(options.integrity.audit_fraction, 0.0, 1.0) > 0.0),
        device_budget_(static_cast<std::uint64_t>(
            static_cast<double>(device.spec().mem_capacity_bytes) *
            options.device_memory_budget)),
        sinks_(graph.Sinks()), is_sink_(graph.node_count(), 0),
        memory_(device.spec().mem_capacity_bytes), residency_(graph.node_count()),
        schedule_{device.NewTimeline()} {
    // Adaptive stream-count selection: fission pipelines get one stream per
    // overlappable engine leg (H2D/compute/D2H) from the calibrator, plus a
    // spare under measured stall pressure, instead of the fixed constant.
    schedule_.stream_count =
        calib_ != nullptr && fission_
            ? calib_->ChooseStreamCount(/*d2h_present=*/!sinks_.empty())
            : std::max(1, options.stream_count);
    // Verification work (checksum passes, host audits) gets a dedicated extra
    // stream so it never serializes behind compute-stream commands and the
    // compute schedule is unchanged whether verification is on or off.
    const bool integrity_stream = options.integrity.verify_transfers || audit_on_;
    schedule_.lanes = schedule_.stream_count + (integrity_stream ? 1 : 0);
    crc_stream_ = integrity_stream ? schedule_.stream_count : 0;

    memory_.set_fault_injector(options.fault_injector);
    // Pending uses: how many clusters read a node.
    for (NodeId id = 0; id < graph.node_count(); ++id) {
      residency_[id].bytes = NodeBytes(id);
      residency_[id].on_host = graph.node(id).is_source;
    }
    for (const FusionCluster& cluster : plan_.clusters) {
      ++residency_[cluster.primary_input].pending_uses;
      for (NodeId build : cluster.build_inputs) ++residency_[build].pending_uses;
    }
    for (NodeId sink : sinks_) is_sink_[sink] = 1;
    // Host-side cost of each cluster, needed when a cluster may run on the
    // CPU: every cluster under force_host, any persistently failing cluster
    // when an injector is attached (graceful degradation), every audited
    // cluster, and every cluster when a calibrator drives placement.
    if (options.fault_injector != nullptr || options.force_host || calib_ != nullptr ||
        audit_on_) {
      hetero_.emplace(device_);
      if (calib_ != nullptr) hetero_->set_calibration(calib_);
    }
  }

  Schedule Build() && {
    schedule_.clusters.resize(plan_.clusters.size());
    for (std::size_t c = 0; c < plan_.clusters.size(); ++c) EmitCluster(c);
    schedule_.peak_device_bytes = memory_.high_water_mark();
    schedule_.leaked_device_bytes = memory_.used();
    return std::move(schedule_);
  }

 private:
  // The cluster being emitted.
  struct ClusterWork {
    const FusionCluster& cluster;
    ScheduledCluster& info;
    std::vector<RealizedSizes> member_sizes = {};
    bool barrier = false;
    std::uint64_t input_bytes = 0;
    std::uint64_t outputs_bytes = 0;
    std::vector<NodeId> pinned = {};  // must stay resident while the cluster runs
    std::vector<char> to_host = {};   // per output: leaves the device
  };

  std::uint64_t NodeBytes(NodeId id) const {
    return rows_.at(id) * graph_.node(id).schema.row_width_bytes();
  }

  void BeginUnit() { unit_ = next_unit_++; }

  // Adds one command to the timeline and its row, tagged with the current
  // unit, cluster and segment, plus the transfer-verification chaser: with
  // verify_transfers, every copy gets a host-engine checksum pass over the
  // same bytes on the integrity stream — an H2D stages the host buffer's
  // digest (no dependency: it overlaps the upload), a D2H verifies the
  // downloaded bytes (depends on the copy). The chaser joins the copy's retry
  // unit, so re-executed units re-verify too.
  CommandId Issue(sim::StreamId stream, CommandSpec spec, Category category,
                  std::uint64_t bytes, int launches = 0, int profile = -1) {
    const CommandId id = schedule_.timeline.AddCommand(stream, std::move(spec));
    schedule_.commands.push_back(
        {category, bytes, launches, unit_, cluster_, segment_, profile});
    const CommandSpec& issued = schedule_.timeline.command(id);
    if (options_.integrity.verify_transfers && IsCopy(issued.kind) && bytes > 0) {
      const bool h2d = issued.kind == sim::CommandKind::kCopyH2D;
      CommandSpec crc = device_.MakeHostWork(
          bytes, issued.label + (h2d ? "/crc-stage" : "/crc-verify"));
      if (!h2d) crc.dependencies.push_back(id);
      schedule_.timeline.AddCommand(crc_stream_, std::move(crc));
      schedule_.commands.push_back(
          {Category::kIntegrity, bytes, 0, unit_, cluster_, segment_, -1});
      schedule_.checksummed_bytes += bytes;
    }
    return id;
  }

  // Makes `spec` wait for the cluster's build-side inputs and, when
  // `with_primary`, for its streamed input.
  void DependOnInputs(CommandSpec& spec, const FusionCluster& cluster,
                      bool with_primary) {
    if (with_primary && residency_[cluster.primary_input].ready.has_value()) {
      spec.dependencies.push_back(*residency_[cluster.primary_input].ready);
    }
    for (NodeId build : cluster.build_inputs) {
      if (residency_[build].ready.has_value()) {
        spec.dependencies.push_back(*residency_[build].ready);
      }
    }
  }

  // Allocates device space, spilling resident intermediates (not `pinned`)
  // back to host memory on capacity pressure — the forced round trip the
  // paper describes when intermediates exceed GPU memory. The victim is the
  // largest spillable node, the lowest id among equals.
  sim::AllocationId AllocateWithSpill(std::uint64_t bytes, const std::string& label,
                                      const std::vector<NodeId>& pinned) {
    while (!memory_.CanAllocate(bytes)) {
      NodeId victim = kNoNode;
      std::uint64_t victim_bytes = 0;
      for (NodeId id = 0; id < residency_.size(); ++id) {
        const Residency& r = residency_[id];
        if (!r.on_device || !r.alloc.has_value()) continue;
        if (std::find(pinned.begin(), pinned.end(), id) != pinned.end()) continue;
        if (r.bytes > victim_bytes) {
          victim = id;
          victim_bytes = r.bytes;
        }
      }
      KF_REQUIRE_AS(::kf::CapacityExceeded, victim != kNoNode)
          << "device OOM allocating " << bytes << " bytes for '" << label
          << "' with nothing spillable (" << memory_.used() << "/" << memory_.capacity()
          << " in use)";
      ++schedule_.spill_count;
      SpillToHost(victim, Category::kRoundTrip);
    }
    return memory_.Allocate(bytes, label);
  }

  // Allocates a cluster output that stays on the device.
  void KeepOnDevice(NodeId id, const std::vector<NodeId>& pinned) {
    Residency& r = residency_[id];
    r.alloc = AllocateWithSpill(r.bytes, graph_.node(id).name, pinned);
    r.on_device = true;
    r.on_host = false;
  }

  // Copies node `id` wholesale on stream 0, after whatever made it ready.
  void CopyNode(NodeId id, sim::CopyDirection direction, Category category) {
    Residency& r = residency_[id];
    const bool up = direction == sim::CopyDirection::kHostToDevice;
    CommandSpec copy = device_.MakeCopy(r.bytes, direction, options_.host_memory,
                                        graph_.node(id).name + (up ? "/h2d" : "/d2h"));
    if (r.ready.has_value()) copy.dependencies.push_back(*r.ready);
    r.ready = Issue(0, std::move(copy), category, r.bytes);
    r.on_device = up;
    r.on_host = r.on_host || !up;
  }

  void FreeDeviceCopy(Residency& r) {
    if (r.alloc.has_value()) memory_.Free(*r.alloc);
    r.alloc.reset();
    r.on_device = false;
  }

  // Uploads a host-resident node wholesale (allocating device space).
  void EnsureResident(NodeId id, const std::vector<NodeId>& pinned) {
    Residency& r = residency_[id];
    if (r.on_device) return;
    KF_REQUIRE(r.on_host) << "node #" << id << " lost";
    r.alloc = AllocateWithSpill(r.bytes, graph_.node(id).name, pinned);
    CopyNode(id, sim::CopyDirection::kHostToDevice,
             graph_.node(id).is_source ? Category::kInputOutput : Category::kRoundTrip);
  }

  // Sends a device-resident node back to the host and frees its space.
  void SpillToHost(NodeId id, Category category) {
    KF_REQUIRE(residency_[id].on_device) << "spill of non-resident node #" << id;
    CopyNode(id, sim::CopyDirection::kDeviceToHost, category);
    FreeDeviceCopy(residency_[id]);
  }

  void ReleaseUse(NodeId id) {
    Residency& r = residency_[id];
    if (--r.pending_uses <= 0 && r.alloc.has_value()) FreeDeviceCopy(r);
  }

  void EmitCluster(std::size_t c) {
    cluster_ = c;
    ClusterWork w{plan_.clusters[c], schedule_.clusters[c]};
    const FusionCluster& cluster = w.cluster;
    for (std::size_t m = 0; m < cluster.nodes.size(); ++m) {
      if (m) w.info.label += "+";
      w.info.label += graph_.node(cluster.nodes[m]).name;
    }
    w.info.fused = fuse_ && cluster.fused();
    const OpKind head = graph_.node(cluster.nodes.front()).desc.kind;
    w.barrier = cluster.nodes.size() == 1 && Classify(head) == FusionClass::kBarrier;
    w.info.kernel_class = w.barrier ? KernelClass::kBarrier
                          : fuse_   ? KernelClass::kFused
                                    : KernelClass::kStaged;
    w.input_bytes = NodeBytes(cluster.primary_input);
    for (NodeId out : cluster.outputs) w.outputs_bytes += NodeBytes(out);
    for (NodeId id : cluster.nodes) {
      const OpNode& node = graph_.node(id);
      RealizedSizes sizes;
      sizes.input_rows = rows_.at(node.inputs[0]);
      sizes.input_row_bytes = graph_.node(node.inputs[0]).schema.row_width_bytes();
      sizes.output_rows = rows_.at(id);
      sizes.output_row_bytes = node.schema.row_width_bytes();
      if (node.inputs.size() > 1) sizes.build_bytes = NodeBytes(node.inputs[1]);
      w.member_sizes.push_back(sizes);
    }

    std::optional<PlacementDecision> placement;
    if (hetero_.has_value()) {
      placement = hetero_->Decide(graph_, cluster, w.member_sizes);
      w.info.host_time = placement->host_time;
    }
    // Calibrated CPU/GPU placement: run the cluster on the host engine when
    // the measured ratios say the CPU wins and its inputs are host-resident
    // anyway. Exploration guard: until the calibrator has device samples it
    // stays on the device, so a pessimistically believed model cannot starve
    // itself of the very observations that would correct it. Placement is
    // timing-only — functional results are always computed host-side first.
    if (!options_.force_host && calib_ != nullptr && placement.has_value() &&
        placement->placement == Placement::kHost && !calib_->NeedsExploration()) {
      const auto on_host = [&](NodeId id) {
        return residency_[id].on_host && !residency_[id].on_device;
      };
      w.info.host_placed =
          on_host(cluster.primary_input) &&
          std::all_of(cluster.build_inputs.begin(), cluster.build_inputs.end(), on_host);
    }

    if (options_.force_host || w.info.host_placed) {
      EmitHostCluster(w);
    } else {
      EmitDeviceCluster(w);
    }
    ReleaseUse(cluster.primary_input);
    for (NodeId build : cluster.build_inputs) ReleaseUse(build);
  }

  // The whole cluster becomes one host-engine command (circuit breaker open,
  // explicit CPU run, or calibrated placement). The host never faults, inputs
  // and outputs stay in host memory, and nothing touches the device.
  void EmitHostCluster(ClusterWork& w) {
    BeginUnit();
    CommandSpec work;
    work.kind = sim::CommandKind::kHostCompute;
    work.duration = w.info.host_time;
    work.label = "host/" + w.info.label;
    DependOnInputs(work, w.cluster, /*with_primary=*/true);
    const CommandId id = Issue(0, std::move(work), Category::kCompute, 0);
    for (NodeId out : w.cluster.outputs) {
      residency_[out].on_host = true;
      residency_[out].on_device = false;
      residency_[out].ready = id;
    }
  }

  void EmitDeviceCluster(ClusterWork& w) {
    const FusionCluster& cluster = w.cluster;
    // The cluster prologue (build uploads) and the resident execution form
    // one retry unit; each fission segment opens its own.
    BeginUnit();
    // Build inputs must be fully resident before the cluster streams.
    w.pinned = cluster.build_inputs;
    w.pinned.push_back(cluster.primary_input);
    w.pinned.insert(w.pinned.end(), cluster.outputs.begin(), cluster.outputs.end());
    for (NodeId build : cluster.build_inputs) EnsureResident(build, w.pinned);

    const int segments =
        w.barrier || residency_[cluster.primary_input].on_device ? 1 : ChooseSegments(w);
    // Output routing: an output goes to host when it is a sink, or when the
    // round-trip policy evicts it; otherwise it stays resident. Outputs too
    // large to keep resident must stream out.
    for (NodeId out : cluster.outputs) {
      w.to_host.push_back(is_sink_[out] ||
                          options_.intermediates == IntermediatePolicy::kRoundTrip ||
                          (segments > 1 && w.outputs_bytes > device_budget_ / 2));
    }
    if (segments <= 1) {
      EmitResident(w);
    } else {
      EmitSegmented(w, segments);
    }

    // Sampled host audit: re-execute the cluster on the host engine and
    // compare bytes (host time + one digest pass over the outputs), after
    // every output is complete. Runs on the integrity stream, inside the
    // cluster's last retry unit, so a healed re-execution is re-audited.
    if (audit_on_ && audit_draws_[cluster_] != 0) {
      w.info.audited = true;
      CommandSpec audit = device_.MakeHostWork(w.outputs_bytes, w.info.label + "/audit");
      audit.duration += w.info.host_time;
      for (NodeId out : cluster.outputs) {
        if (residency_[out].ready.has_value()) {
          audit.dependencies.push_back(*residency_[out].ready);
        }
      }
      Issue(crc_stream_, std::move(audit), Category::kIntegrity, w.outputs_bytes);
    }
  }

  // Segments for a streamable cluster: the capacity floor, raised to the
  // configured count under fission — or, with a calibrator, the count
  // minimizing the calibrated pipeline makespan, never below the floor. A
  // choice of 1 replans the cluster back to resident execution (the overlap
  // win does not cover per-segment latency and launches).
  int ChooseSegments(const ClusterWork& w) {
    const std::uint64_t working = w.input_bytes + w.outputs_bytes;
    const int floor =
        working > device_budget_ ? static_cast<int>(DivCeil(working, device_budget_)) : 1;
    if (!fission_) return floor;
    if (calib_ == nullptr) return std::max(floor, options_.fission_segments);
    PipelineEstimate estimate;
    estimate.h2d_bytes = w.input_bytes;
    for (NodeId out : w.cluster.outputs) {
      if (is_sink_[out]) estimate.d2h_bytes += NodeBytes(out);
    }
    estimate.host_memory = options_.host_memory;
    estimate.launches = 0;
    for (const sim::KernelProfile& profile : SegmentProfiles(w, 1)) {
      estimate.kernel_time += calib_->EstimateKernelTime(w.info.kernel_class, profile);
      estimate.launches += profile.launches;
    }
    schedule_.calibrated_segments = calib_->PlanFissionSegments(estimate, floor);
    return schedule_.calibrated_segments;
  }

  // Kernel profiles for one of `segments` segments (sizes scaled down).
  std::vector<sim::KernelProfile> SegmentProfiles(const ClusterWork& w,
                                                  int segments) const {
    const auto scale = [&](RealizedSizes s) {
      s.input_rows /= static_cast<std::uint64_t>(segments);
      s.output_rows /= static_cast<std::uint64_t>(segments);
      // Build sides stay resident across segments; each segment probes its
      // share of them rather than re-reading the whole table.
      s.build_bytes /= static_cast<std::uint64_t>(segments);
      return s;
    };
    if (fuse_ && !w.barrier) {
      std::vector<RealizedSizes> scaled;
      for (const RealizedSizes& s : w.member_sizes) scaled.push_back(scale(s));
      return cost_model_.FusedProfiles(graph_, w.cluster, scaled);
    }
    std::vector<sim::KernelProfile> profiles;
    for (std::size_t m = 0; m < w.cluster.nodes.size(); ++m) {
      for (sim::KernelProfile& p : cost_model_.UnfusedProfiles(
               graph_.node(w.cluster.nodes[m]), scale(w.member_sizes[m]))) {
        profiles.push_back(std::move(p));
      }
    }
    return profiles;
  }

  // Resident execution: the whole input on device, kernels in stream 0.
  void EmitResident(const ClusterWork& w) {
    const FusionCluster& cluster = w.cluster;
    EnsureResident(cluster.primary_input, w.pinned);
    for (NodeId out : cluster.outputs) KeepOnDevice(out, w.pinned);
    // Unfused members materialize their intermediates in device memory for
    // the duration of the cluster (fused kernels keep them in registers).
    std::optional<sim::AllocationId> transient;
    if (!fuse_ || w.barrier) {
      std::uint64_t members_bytes = 0;  // the outputs are members too
      for (NodeId member : cluster.nodes) members_bytes += NodeBytes(member);
      if (members_bytes > w.outputs_bytes) {
        transient = AllocateWithSpill(members_bytes - w.outputs_bytes, "intermediates",
                                      w.pinned);
      }
    }
    std::optional<CommandId> last;
    for (sim::KernelProfile& profile : SegmentProfiles(w, 1)) {
      CommandSpec kernel = device_.MakeKernel(profile);
      DependOnInputs(kernel, cluster, /*with_primary=*/true);
      const int launches = profile.launches;
      schedule_.profiles.push_back(std::move(profile));
      last = Issue(0, std::move(kernel), Category::kCompute, 0, launches,
                   static_cast<int>(schedule_.profiles.size()) - 1);
    }
    if (transient.has_value()) memory_.Free(*transient);
    for (std::size_t o = 0; o < cluster.outputs.size(); ++o) {
      const NodeId out = cluster.outputs[o];
      residency_[out].ready = last;
      if (w.to_host[o]) {
        SpillToHost(out, is_sink_[out] ? Category::kInputOutput : Category::kRoundTrip);
      }
    }
  }

  // Segmented execution (Fig 13/15): H2D, kernels, D2H per segment; fission
  // spreads segments over the compute streams, serial keeps one stream so
  // everything serializes (Fig 14's baseline).
  void EmitSegmented(ClusterWork& w, int segments) {
    const FusionCluster& cluster = w.cluster;
    const OpNode& primary = graph_.node(cluster.primary_input);
    const auto per_segment = [&](std::uint64_t bytes) {
      return bytes / static_cast<std::uint64_t>(segments);
    };
    w.info.segments = segments;
    const int first_profile = static_cast<int>(schedule_.profiles.size());
    for (sim::KernelProfile& profile : SegmentProfiles(w, segments)) {
      schedule_.profiles.push_back(std::move(profile));
    }
    const int end_profile = static_cast<int>(schedule_.profiles.size());
    // Segment staging buffers (double-buffered per active stream).
    const int active = fission_ ? schedule_.stream_count : 1;
    const std::uint64_t staging =
        per_segment(w.input_bytes + w.outputs_bytes) *
        static_cast<std::uint64_t>(std::min(segments, active * 2));
    const sim::AllocationId staging_alloc = AllocateWithSpill(
        std::min(staging, memory_.free_bytes()), "segment staging", w.pinned);
    // Device-resident outputs accumulate across segments.
    std::uint64_t host_bound_bytes = 0;
    bool sink_bound = false;
    for (std::size_t o = 0; o < cluster.outputs.size(); ++o) {
      const NodeId out = cluster.outputs[o];
      if (!w.to_host[o]) KeepOnDevice(out, w.pinned);
      if (w.to_host[o]) host_bound_bytes += NodeBytes(out);
      sink_bound = sink_bound || (w.to_host[o] && is_sink_[out]);
    }

    std::optional<CommandId> last_output;
    std::optional<CommandId> last_kernel;
    for (int s = 0; s < segments; ++s) {
      BeginUnit();  // each segment retries independently
      segment_ = s;
      const std::string tag = "[" + std::to_string(s) + "]";
      const sim::StreamId stream = fission_ ? s % schedule_.stream_count : 0;
      const std::uint64_t in_bytes = per_segment(w.input_bytes);
      Issue(stream,
            device_.MakeCopy(in_bytes, sim::CopyDirection::kHostToDevice,
                             options_.host_memory, primary.name + "/h2d" + tag),
            primary.is_source ? Category::kInputOutput : Category::kRoundTrip, in_bytes);
      for (int p = first_profile; p < end_profile; ++p) {
        const sim::KernelProfile& profile = schedule_.profiles[p];
        CommandSpec kernel = device_.MakeKernel(profile);
        DependOnInputs(kernel, cluster, /*with_primary=*/false);
        last_kernel = Issue(stream, std::move(kernel), Category::kCompute, 0,
                            profile.launches, p);
      }
      if (host_bound_bytes > 0) {
        const std::uint64_t bytes = per_segment(host_bound_bytes);
        last_output =
            Issue(stream,
                  device_.MakeCopy(bytes, sim::CopyDirection::kDeviceToHost,
                                   options_.host_memory, "result/d2h" + tag),
                  sink_bound ? Category::kInputOutput : Category::kRoundTrip, bytes);
        // Out-of-order host arrival needs a CPU-side gather (Fig 15): each
        // segment is repositioned as it lands, overlapping the pipeline (the
        // host engine is idle while the device streams).
        if (fission_) {
          CommandSpec gather = device_.MakeHostWork(2 * bytes, "cpu-gather" + tag);
          gather.dependencies = {*last_output};
          Issue(0, std::move(gather), Category::kHostGather, bytes);
        }
      }
    }
    segment_ = kWholeCluster;

    for (std::size_t o = 0; o < cluster.outputs.size(); ++o) {
      Residency& r = residency_[cluster.outputs[o]];
      if (w.to_host[o]) {
        r.on_host = true;
        r.on_device = false;
      }
      r.ready = w.to_host[o] ? last_output : last_kernel;
    }
    memory_.Free(staging_alloc);
  }

  const OpGraph& graph_;
  const FusionPlan& plan_;
  const std::vector<char>& audit_draws_;
  const std::map<NodeId, std::uint64_t>& rows_;
  const ExecutorOptions& options_;
  const sim::DeviceSimulator& device_;
  const OperatorCostModel& cost_model_;
  CostModelCalibrator* const calib_;
  const bool fuse_;
  const bool fission_;
  const bool audit_on_;
  const std::uint64_t device_budget_;
  const std::vector<NodeId> sinks_;
  std::vector<char> is_sink_;
  std::optional<HeterogeneousScheduler> hetero_;
  sim::DeviceMemoryModel memory_;
  std::vector<Residency> residency_;  // by node id

  Schedule schedule_;
  sim::StreamId crc_stream_ = 0;  // the integrity stream (or stream 0)
  // Tags of the rows being issued.
  int next_unit_ = 0;
  int unit_ = 0;
  std::size_t cluster_ = 0;
  int segment_ = kWholeCluster;
};

Schedule BuildSchedule(const OpGraph& graph, const Planned& planned,
                       const std::map<NodeId, std::uint64_t>& rows,
                       const ExecutorOptions& options, const sim::DeviceSimulator& device,
                       const OperatorCostModel& cost_model) {
  return ScheduleBuilder(graph, planned, rows, options, device, cost_model).Build();
}

// --- Simulate. ----------------------------------------------------------------

struct Simulated {
  sim::TimelineStats timeline;             // the main run
  std::vector<obs::SpanId> cluster_spans;  // per cluster; empty untraced
};

// Records schedule command `i` of a run as a leaf span under `parent`: its
// label (or kind), lane, stage category and interval shifted by `base`,
// annotated with its fault or stall and any silent corruption.
void AddLeaf(const RunTrace& trace, obs::SpanId parent, const Schedule& schedule,
             std::size_t i, const std::string& lane, const sim::CommandTiming& timing,
             SimTime base) {
  obs::Tracer& tracer = *trace.tracer;
  const CommandSpec& spec = schedule.timeline.command(i);
  const obs::SpanId leaf = tracer.AddSpan(
      trace.context, parent, spec.label.empty() ? sim::ToString(spec.kind) : spec.label,
      lane, base + timing.start, base + timing.end,
      CategoryName(schedule.commands[i].category));
  if (timing.fault != sim::FaultKind::kNone) {
    const bool stall = timing.fault == sim::FaultKind::kStreamStall;
    tracer.Annotate(
        trace.context, leaf,
        stall ? obs::SpanAnnotationKind::kStall : obs::SpanAnnotationKind::kFault,
        sim::ToString(timing.fault), base + timing.end);
  }
  if (timing.corrupted) {
    tracer.Annotate(trace.context, leaf, obs::SpanAnnotationKind::kCorruption,
                    "silent corruption", base + timing.end);
  }
}

// Runs the schedule's timeline. With a tracer, the cluster and segment spans
// open first, in schedule order; then every row becomes a leaf under the span
// it names, in issue order, and each structural span takes the sim interval
// of its commands. A cluster span's wall interval is its functional run
// (`cluster_wall`), empty in a timing-only run.
Simulated Simulate(const RunContext& run, const Schedule& schedule,
                   const std::vector<std::pair<double, double>>& cluster_wall) {
  const RunTrace& trace = run.trace;
  Simulated out;
  if (trace.tracer == nullptr) {
    out.timeline = schedule.timeline.Run(run.options.fault_injector);
    return out;
  }
  // Structural spans in opening order: each cluster, then its segments.
  struct Structural {
    obs::SpanId id = 0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
  };
  obs::Tracer& tracer = *trace.tracer;
  std::vector<Structural> spans;
  std::vector<std::size_t> cluster_slot;
  for (std::size_t c = 0; c < schedule.clusters.size(); ++c) {
    const ScheduledCluster& info = schedule.clusters[c];
    const obs::SpanId span = tracer.BeginSpan(
        trace.context, trace.root, "cluster " + std::to_string(c) + ": " + info.label,
        "executor", 0.0);
    if (info.host_placed) {
      tracer.Annotate(trace.context, span, obs::SpanAnnotationKind::kPlacement,
                      "calibrated host placement", 0.0);
    }
    out.cluster_spans.push_back(span);
    cluster_slot.push_back(spans.size());
    spans.push_back({span});
    for (int s = 0; s < info.segments; ++s) {
      const std::string name = "segment " + std::to_string(s);
      spans.push_back({tracer.BeginSpan(trace.context, span, name, "executor", 0.0)});
    }
  }
  out.timeline = schedule.timeline.Run(run.options.fault_injector);

  // Every row becomes a leaf, in issue order, under its innermost structural
  // span; a structural span covers the min start / max end of its commands.
  std::vector<std::string> lanes;
  for (int s = 0; s < schedule.lanes; ++s) lanes.push_back("stream " + std::to_string(s));
  for (std::size_t i = 0; i < schedule.commands.size(); ++i) {
    const ScheduledCommand& row = schedule.commands[i];
    const sim::CommandTiming& t = out.timeline.commands[i];
    const auto stream = static_cast<std::size_t>(schedule.timeline.stream(i));
    const std::string& lane = lanes[stream];
    const std::size_t cluster = cluster_slot[row.cluster];
    const std::size_t inner = cluster + static_cast<std::size_t>(row.segment + 1);
    AddLeaf(trace, spans[inner].id, schedule, i, lane, t, 0.0);
    for (std::size_t slot : {cluster, inner}) {
      spans[slot].lo = std::min(spans[slot].lo, t.start);
      spans[slot].hi = std::max(spans[slot].hi, t.end);
    }
  }
  for (const Structural& span : spans) {
    if (span.lo <= span.hi) {
      tracer.SetSpanInterval(trace.context, span.id, span.lo, span.hi);
    } else {
      tracer.EndSpan(trace.context, span.id, 0.0);
    }
  }
  const double now = tracer.WallNow();
  for (std::size_t c = 0; c < out.cluster_spans.size(); ++c) {
    const auto [start, end] =
        c < cluster_wall.size() ? cluster_wall[c] : std::pair{now, now};
    tracer.SetSpanWall(trace.context, out.cluster_spans[c], start, end);
  }
  return out;
}

// --- Recover. -----------------------------------------------------------------

struct Recovery {
  SimTime makespan = 0.0;  // main run plus backoff, retries and host reruns
  // Clusters whose accepted results carry unnoticed corruption.
  std::set<std::size_t> silent_clusters;
  // A typed failure (deadline, or retries exhausted with degradation off),
  // rethrown by Account once the calibrator has seen the main run.
  std::exception_ptr failure;
};

// How one run of a retry unit's commands went.
struct UnitOutcome {
  bool loud = false;       // some command failed outright
  bool detected = false;   // verification caught corrupted bytes
  std::size_t silent = 0;  // corrupt commands nothing noticed
};

// Fault + corruption recovery: troubled retry units re-issue on a fresh
// single-stream timeline with exponential backoff in virtual time. A unit
// retries when a command failed outright (loud) OR a verification point
// caught corrupted bytes; units that exhaust their budget degrade their
// cluster to the host engine (or throw, typed by cause).
class Recoverer {
 public:
  Recoverer(const RunContext& run, const Schedule& schedule, const Simulated& simulated,
            ExecutionReport& report)
      : options_(run.options), res_(run.options.resilience), run_(run), trace_(run.trace),
        schedule_(schedule), rows_(schedule.commands), clusters_(schedule.clusters),
        simulated_(simulated), report_(report) {}

  Recovery Run() && {
    recovery_.makespan = simulated_.timeline.makespan;
    report_.fault_count = simulated_.timeline.fault_count;
    try {
      RecoverUnits();
      CheckDeadline();
    } catch (...) {
      recovery_.failure = std::current_exception();
    }
    return std::move(recovery_);
  }

 private:
  void CheckDeadline() const {
    KF_REQUIRE_AS(::kf::Timeout,
                  res_.deadline <= 0 || recovery_.makespan <= res_.deadline)
        << "query exceeded its deadline of " << res_.deadline
        << "s (simulated clock at " << recovery_.makespan << "s)";
  }

  // Folds the result of schedule command `i` into `outcome`. Corruption is
  // caught for transfers by the checksum chasers and for kernels by the
  // owning cluster's host audit; host commands never corrupt.
  void Classify(const sim::CommandTiming& timing, std::size_t i, UnitOutcome& outcome) {
    if (!timing.ok) {
      outcome.loud = true;
      return;
    }
    if (!timing.corrupted) return;
    ++report_.corrupted_commands;
    const sim::CommandKind kind = schedule_.timeline.command(i).kind;
    const bool caught = IsCopy(kind) ? options_.integrity.verify_transfers
                                     : kind == sim::CommandKind::kKernel &&
                                           clusters_[rows_[i].cluster].audited;
    if (caught) {
      ++report_.corruption_detected;
      outcome.detected = true;
    } else {
      ++outcome.silent;
    }
  }

  // An accepted run's unnoticed corruption is final: its wrong bytes flow on
  // (realized as real sink bit flips by Account).
  void Accept(std::size_t cluster, const UnitOutcome& outcome) {
    if (outcome.silent == 0) return;
    report_.corruption_undetected += outcome.silent;
    recovery_.silent_clusters.insert(cluster);
  }

  void RecoverUnits() {
    std::map<int, UnitOutcome> outcomes;  // ordered: deterministic retries
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const sim::CommandTiming& timing = simulated_.timeline.commands[i];
      if (!timing.ok || timing.corrupted) {
        Classify(timing, i, outcomes[rows_[i].unit]);
      }
    }
    if (outcomes.empty()) return;
    std::map<int, std::vector<std::size_t>> members;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (outcomes.count(rows_[i].unit) != 0) members[rows_[i].unit].push_back(i);
    }

    const int corruption_budget = std::max(0, options_.integrity.max_reexecutions);
    // Clusters with a unit that never recovered, and whether one of them
    // still failed loudly (the rest kept returning corrupt bytes).
    std::map<std::size_t, bool> failed;
    for (const auto& [unit, outcome] : outcomes) {
      const std::size_t cluster = rows_[members[unit].front()].cluster;
      // Units where nothing was noticed never re-execute.
      if (!outcome.loud && !outcome.detected) {
        Accept(cluster, outcome);
        continue;
      }
      ++report_.retried_units;
      const int budget = std::max(outcome.loud ? res_.max_retries : 0,
                                  outcome.detected ? corruption_budget : 0);
      UnitOutcome last = outcome;
      bool recovered = false;
      for (int attempt = 1; attempt <= budget && !recovered; ++attempt) {
        last = Retry(unit, attempt, members[unit], last);
        recovered = !last.loud && !last.detected;
      }
      if (recovered) {
        Accept(cluster, last);
      } else {
        failed[cluster] = failed[cluster] || last.loud;
      }
    }

    for (const auto& [cluster, loud] : failed) {
      const ScheduledCluster& info = clusters_[cluster];
      if (!res_.degrade_to_host) {
        KF_REQUIRE_AS(::kf::DeviceFault, !loud)
            << "cluster '" << info.label << "' still failing after " << res_.max_retries
            << " retries";
        KF_FAIL_AS(::kf::DataCorruption)
            << "cluster '" << info.label << "' still returning corrupt bytes after "
            << corruption_budget << " re-executions";
      }
      Degrade(cluster, info);
    }
  }

  // One re-issue of a unit after its backoff. The unit's commands are
  // rebuilt on one stream of a fresh timeline, where members[k] becomes
  // command k: dependencies inside the unit follow, dependencies on other
  // units are dropped — their producers completed in the original run.
  UnitOutcome Retry(int unit, int attempt, const std::vector<std::size_t>& members,
                    const UnitOutcome& previous) {
    const SimTime retry_start = recovery_.makespan;
    const SimTime backoff = ResilienceOptions::kBackoffBase *
                            std::pow(ResilienceOptions::kBackoffFactor, attempt - 1);
    recovery_.makespan += backoff;
    report_.backoff_time += backoff;
    CheckDeadline();

    obs::Tracer* const tracer = trace_.tracer;
    obs::SpanId span = 0;
    if (tracer != nullptr) {
      span = tracer->BeginSpan(
          trace_.context, trace_.root,
          "retry unit " + std::to_string(unit) + " attempt " + std::to_string(attempt),
          "executor", retry_start);
      const std::string where =
          "cluster '" + clusters_[rows_[members.front()].cluster].label + "'";
      tracer->Annotate(trace_.context, span, obs::SpanAnnotationKind::kReExecution,
                       (previous.loud ? "fault in " : "re-execution of ") + where,
                       retry_start);
      if (previous.detected) {
        tracer->Annotate(trace_.context, span,
                         obs::SpanAnnotationKind::kCorruptionDetected,
                         "corrupted bytes detected in " + where, retry_start);
      }
    }

    // One stream and no cross-stream waits: the unit runs on a fresh timeline.
    sim::Timeline timeline = run_.device.NewTimeline();
    for (std::size_t i : members) {
      CommandSpec spec = schedule_.timeline.command(i);
      std::erase_if(spec.dependencies, [&](CommandId dep) {
        return !std::binary_search(members.begin(), members.end(), dep);
      });
      for (CommandId& dep : spec.dependencies) {
        dep = std::lower_bound(members.begin(), members.end(), dep) - members.begin();
      }
      timeline.AddCommand(0, std::move(spec));
    }
    const sim::TimelineStats stats = timeline.Run(options_.fault_injector);
    if (tracer != nullptr) {  // leaves start after the backoff
      const std::string lane = "stream 0";
      for (std::size_t k = 0; k < members.size(); ++k) {
        AddLeaf(trace_, span, schedule_, members[k], lane, stats.commands[k],
                recovery_.makespan);
      }
    }
    ++report_.retry_attempts;
    if (previous.detected) ++report_.corruption_reexecutions;
    recovery_.makespan += stats.makespan;
    report_.fault_count += stats.fault_count;
    if (tracer != nullptr) tracer->EndSpan(trace_.context, span, recovery_.makespan);
    CheckDeadline();

    UnitOutcome outcome;
    for (std::size_t k = 0; k < members.size(); ++k) {
      Classify(stats.commands[k], members[k], outcome);
    }
    return outcome;
  }

  // Graceful degradation: rerun the whole cluster on the host engine.
  // Functional results were computed host-side up front, so the answer is
  // byte-identical; only the simulated clock pays the host cost. The host
  // rerun replaces the cluster's outputs wholesale, washing out any silent
  // corruption previously recorded for it.
  void Degrade(std::size_t cluster, const ScheduledCluster& info) {
    const SimTime start = recovery_.makespan;
    recovery_.makespan += info.host_time;
    ++report_.degraded_clusters;
    report_.degraded = true;
    recovery_.silent_clusters.erase(cluster);
    if (trace_.tracer != nullptr) {
      const obs::SpanId span = simulated_.cluster_spans[cluster];
      trace_.tracer->Annotate(trace_.context, span, obs::SpanAnnotationKind::kDegraded,
                              "degraded to host engine after exhausted retries", start);
      trace_.tracer->AddSpan(trace_.context, span, "degraded host rerun: " + info.label,
                             "host", start, recovery_.makespan, "compute");
    }
    CheckDeadline();
  }

  const ExecutorOptions& options_;
  const ResilienceOptions& res_;
  const RunContext& run_;
  const RunTrace& trace_;
  const Schedule& schedule_;
  const std::vector<ScheduledCommand>& rows_;
  const std::vector<ScheduledCluster>& clusters_;
  const Simulated& simulated_;
  ExecutionReport& report_;
  Recovery recovery_;
};

Recovery Recover(const RunContext& run, const Schedule& schedule,
                 const Simulated& simulated, ExecutionReport& report) {
  return Recoverer(run, schedule, simulated, report).Run();
}

// --- Account. -----------------------------------------------------------------

// Feeds the main run's `ok` commands back into the calibrator (retries run
// under fault pressure and would bias it): copies with their observed time,
// then kernels with their solo duration (wall time would confound
// co-residency sharing with model error), then the stall pressure. Records
// the calibrated decisions and the calibrator's state as `calib.*` metrics.
void AccountCalibration(const RunContext& run, const Schedule& schedule,
                        const ExecutionReport& report) {
  const sim::TimelineStats& timeline = report.timeline;
  const RunTrace& trace = run.trace;
  CostModelCalibrator* const calib = run.options.calibration;
  if (calib == nullptr) return;
  const obs::Labels& labels = run.labels;
  if (Fissions(run.options.strategy)) {
    run.metrics.GetGauge("calib.stream_count", labels)
        .Set(static_cast<double>(schedule.stream_count));
  }
  if (schedule.calibrated_segments > 0) {
    run.metrics.GetGauge("calib.segments", labels)
        .Set(static_cast<double>(schedule.calibrated_segments));
  }
  if (report.host_placed_clusters > 0) {
    run.metrics.GetCounter("calib.host_placements", labels)
        .Increment(report.host_placed_clusters);
  }

  const std::vector<ScheduledCommand>& rows = schedule.commands;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const sim::CommandKind kind = schedule.timeline.command(i).kind;
    const sim::CommandTiming& timing = timeline.commands[i];
    if (!IsCopy(kind) || !timing.ok) continue;
    calib->ObserveCopy(kind == sim::CommandKind::kCopyH2D
                           ? sim::CopyDirection::kHostToDevice
                           : sim::CopyDirection::kDeviceToHost,
                       run.options.host_memory, rows[i].bytes, timing.end - timing.start);
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CommandSpec& spec = schedule.timeline.command(i);
    if (spec.kind != sim::CommandKind::kKernel) continue;
    if (!timeline.commands[i].ok) continue;
    calib->ObserveKernel(schedule.clusters[rows[i].cluster].kernel_class,
                         schedule.profiles[static_cast<std::size_t>(rows[i].profile)],
                         spec.solo_duration);
  }
  calib->ObserveStalls(timeline.commands.size(), timeline.stall_count);
  calib->EndRun();
  if (trace.tracer != nullptr) {
    trace.tracer->Annotate(trace.context, trace.root,
                           obs::SpanAnnotationKind::kCalibrationEpoch,
                           "epoch " + std::to_string(calib->epoch()), timeline.makespan);
  }
  run.metrics.GetGauge("calib.epoch", labels).Set(static_cast<double>(calib->epoch()));
  run.metrics.GetGauge("calib.estimate_error", labels).Set(calib->error());
  run.metrics.GetGauge("calib.observations", labels)
      .Set(static_cast<double>(calib->observations()));
  run.metrics.GetGauge("calib.stall_rate", labels).Set(calib->StallRate());
  const auto record_correction = [&](const char* kind, double correction) {
    obs::Labels by_kind = labels;
    by_kind.emplace_back("kind", kind);
    run.metrics.GetGauge("calib.correction", by_kind).Set(correction);
  };
  record_correction("copy_h2d", calib->CopyCorrection(sim::CopyDirection::kHostToDevice));
  record_correction("copy_d2h", calib->CopyCorrection(sim::CopyDirection::kDeviceToHost));
  record_correction("kernel", calib->KernelCorrection());
}

// Stage sums (Fig 9's decomposition), transfer bytes, launches and the
// per-cluster compute breakdown, host and device clusters alike.
void SumStages(const Schedule& schedule, ExecutionReport& report) {
  for (const ScheduledCluster& info : schedule.clusters) {
    ExecutionReport::ClusterTiming timing;
    timing.label = info.label;
    timing.fused = info.fused;
    report.cluster_timings.push_back(std::move(timing));
    report.host_placed_clusters += info.host_placed ? 1 : 0;
    report.audited_clusters += info.audited ? 1 : 0;
  }
  for (std::size_t i = 0; i < schedule.commands.size(); ++i) {
    const ScheduledCommand& row = schedule.commands[i];
    const CommandSpec& spec = schedule.timeline.command(i);
    const SimTime duration = SerialDuration(spec);
    report.*kStageSums[static_cast<std::size_t>(row.category)] += duration;
    if (row.category == Category::kCompute) {
      const auto launches = static_cast<std::size_t>(std::max(1, row.launches));
      report.kernel_launches += launches;
      report.cluster_timings[row.cluster].compute += duration;
      report.cluster_timings[row.cluster].launches += launches;
    }
    if (spec.kind == sim::CommandKind::kCopyH2D) report.h2d_bytes += row.bytes;
    if (spec.kind == sim::CommandKind::kCopyD2H) report.d2h_bytes += row.bytes;
  }
}

// Functional results, one per sink. Undetected corruption becomes real wrong
// answers: a deterministic bit flips in every sink table downstream of a
// silently-corrupted cluster. Only this run's returned tables change; a
// re-run with verification recomputes the true bytes from the sources.
void DeliverSinks(const RunContext& run, const FusionPlan& plan,
                  const std::map<NodeId, Table>& sources, FunctionalPass& functional,
                  const Recovery& recovery, ExecutionReport& report) {
  const std::vector<NodeId> sinks = run.graph.Sinks();
  for (NodeId sink : sinks) {
    auto it = functional.computed.find(sink);
    if (it != functional.computed.end()) {
      report.sink_results.emplace(sink, std::move(it->second));
    } else if (sources.count(sink) != 0) {
      report.sink_results.emplace(sink, sources.at(sink));
    }
  }
  const std::uint64_t base_seed = run.options.fault_injector != nullptr
                                      ? run.options.fault_injector->config().seed
                                      : 0;
  for (std::size_t c : recovery.silent_clusters) {
    // Node ids are topological, so one forward sweep finds the descendants.
    std::vector<char> reached(run.graph.node_count(), 0);
    for (NodeId out : plan.clusters[c].outputs) reached[out] = 1;
    for (NodeId id = 0; id < run.graph.node_count(); ++id) {
      for (NodeId input : run.graph.node(id).inputs) reached[id] |= reached[input];
    }
    for (NodeId sink : sinks) {
      auto it = report.sink_results.find(sink);
      if (!reached[sink] || it == report.sink_results.end()) continue;
      std::uint64_t state = base_seed ^ (c * 0x9e3779b97f4a7c15ULL) ^
                            (static_cast<std::uint64_t>(sink) * 0xbf58476d1ce4e5b9ULL) ^
                            0x626974ULL;  // "bit"
      FlipRandomBit(it->second, SplitMix64(state));
    }
  }
}

// Records the run into the metrics registry under the run's labels; with
// AccountCalibration's `calib.*` gauges, this is everything a run writes.
// Counters accumulate across runs; gauges hold the most recent run;
// histograms keep every simulated duration.
void RecordMetrics(const RunContext& run, const Schedule& schedule,
                   const ExecutionReport& report) {
  obs::MetricsRegistry& metrics = run.metrics;
  const ExecutorOptions& options = run.options;
  const obs::Labels& by_run = run.labels;
  metrics.GetCounter("executor.runs", by_run).Increment();
  metrics.GetCounter("executor.kernel_launches", by_run)
      .Increment(report.kernel_launches);
  metrics.GetCounter("executor.h2d_bytes", by_run).Increment(report.h2d_bytes);
  metrics.GetCounter("executor.d2h_bytes", by_run).Increment(report.d2h_bytes);
  metrics.GetCounter("executor.spills", by_run).Increment(report.spill_count);
  metrics.GetCounter("executor.clusters", by_run).Increment(report.cluster_count);
  metrics.GetCounter("executor.fused_clusters", by_run)
      .Increment(report.fused_cluster_count);
  metrics.GetHistogram("executor.makespan_seconds", by_run).Record(report.makespan);
  const auto record_stage = [&](const char* stage, SimTime duration) {
    obs::Labels labels = by_run;
    labels.emplace_back("stage", stage);
    metrics.GetHistogram("executor.stage_seconds", labels).Record(duration);
  };
  record_stage("input_output", report.input_output_time);
  record_stage("round_trip", report.round_trip_time);
  record_stage("compute", report.compute_time);
  record_stage("host_gather", report.host_gather_time);
  const auto record_busy = [&](const char* engine, SimTime busy) {
    obs::Labels labels = by_run;
    labels.emplace_back("engine", engine);
    metrics.GetGauge("executor.engine_busy_seconds", labels).Set(busy);
  };
  record_busy("h2d", report.timeline.h2d_busy);
  record_busy("d2h", report.timeline.d2h_busy);
  record_busy("compute", report.timeline.compute_busy);
  record_busy("host", report.timeline.host_busy);
  metrics.GetGauge("executor.peak_device_bytes", by_run)
      .Set(static_cast<double>(report.peak_device_bytes));
  // The main run's command mix; kinds it never issued get no series.
  std::array<std::uint64_t, static_cast<std::size_t>(sim::CommandKind::kHostCompute) + 1>
      kinds{};
  for (CommandId id = 0; id < schedule.timeline.command_count(); ++id) {
    ++kinds[static_cast<std::size_t>(schedule.timeline.command(id).kind)];
  }
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    if (kinds[k] == 0) continue;
    obs::Labels labels = by_run;
    labels.emplace_back("kind", sim::ToString(static_cast<sim::CommandKind>(k)));
    metrics.GetCounter("executor.commands", labels).Increment(kinds[k]);
  }
  // Counters that stay at zero are not created.
  const auto count = [&](const char* name, std::uint64_t value) {
    if (value > 0) metrics.GetCounter(name, by_run).Increment(value);
  };
  if (options.fault_injector != nullptr || options.force_host) {
    count("resilience.faults_observed", report.fault_count);
    count("resilience.stalled_commands", report.timeline.stall_count);
    count("resilience.unit_retries", report.retry_attempts);
    count("resilience.degraded_clusters", report.degraded_clusters);
    if (report.backoff_time > 0) {
      metrics.GetHistogram("resilience.backoff_seconds", by_run)
          .Record(report.backoff_time);
    }
    count("resilience.host_runs", report.ran_on_host ? 1 : 0);
  }
  if (options.integrity.Enabled() || report.corrupted_commands > 0) {
    count("integrity.checksummed_bytes", schedule.checksummed_bytes);
    count("integrity.audited_clusters", report.audited_clusters);
    count("integrity.corrupted_commands", report.corrupted_commands);
    count("integrity.detected", report.corruption_detected);
    count("integrity.undetected", report.corruption_undetected);
    count("integrity.reexecutions", report.corruption_reexecutions);
    if (options.integrity.Enabled()) record_stage("integrity", report.integrity_time);
  }
}

// Derives the report, sink results, calibrator feed, root span and registry
// from the finished schedule. A failure Recover deferred is rethrown once
// the calibrator has seen the main run.
void Account(const RunContext& run, const Planned& planned,
             const std::map<NodeId, Table>* sources, FunctionalPass functional,
             const Schedule& schedule, Simulated simulated, const Recovery& recovery,
             ExecutionReport& report) {
  const RunTrace& trace = run.trace;
  report.timeline = std::move(simulated.timeline);
  SumStages(schedule, report);
  AccountCalibration(run, schedule, report);
  if (recovery.failure) std::rethrow_exception(recovery.failure);

  report.makespan = report.timeline.makespan = recovery.makespan;
  report.cluster_count = planned.plan.clusters.size();
  report.fused_cluster_count = planned.plan.fused_cluster_count();
  report.spill_count = schedule.spill_count;
  report.peak_device_bytes = schedule.peak_device_bytes;
  report.leaked_device_bytes = schedule.leaked_device_bytes;
  report.ran_on_host = run.options.force_host && !schedule.clusters.empty();
  report.silent_corruption = !recovery.silent_clusters.empty();
  report.audit_checksums = std::move(functional.audit_checksums);
  if (sources != nullptr) {
    DeliverSinks(run, planned.plan, *sources, functional, recovery, report);
  }

  if (obs::Tracer* const tracer = trace.tracer; tracer != nullptr) {
    if (run.options.force_host) {
      tracer->Annotate(trace.context, trace.root, obs::SpanAnnotationKind::kPlacement,
                       "force_host: all clusters on the host engine", 0.0);
    }
    if (report.corruption_undetected > 0) {
      tracer->Annotate(trace.context, trace.root, obs::SpanAnnotationKind::kCorruption,
                       std::to_string(report.corruption_undetected) +
                           " corruption(s) escaped detection",
                       report.makespan);
    }
    tracer->EndSpan(trace.context, trace.root, report.makespan);
  }
  RecordMetrics(run, schedule, report);
}

}  // namespace

FusionOptions EffectiveFusionOptions(const ExecutorOptions& options) {
  FusionOptions fusion_options = options.fusion;
  fusion_options.enabled = Fuses(options.strategy) || Fissions(options.strategy) ||
                           options.intermediates == IntermediatePolicy::kKeepOnDevice;
  fusion_options.calibration = options.calibration;
  return fusion_options;
}

ExecutionReport QueryExecutor::Execute(const OpGraph& graph,
                                       const std::map<NodeId, Table>& sources,
                                       const ExecutorOptions& options) const {
  KF_REQUIRE_AS(::kf::InvalidArgument, options.chunk_count > 0)
      << "chunk_count must be positive, got " << options.chunk_count;
  return Run(graph, &sources, {}, options);
}

ExecutionReport QueryExecutor::EstimateOnly(
    const OpGraph& graph, const std::map<NodeId, std::uint64_t>& row_counts,
    const ExecutorOptions& options) const {
  return Run(graph, nullptr, row_counts, options);
}

ExecutionReport QueryExecutor::Run(const OpGraph& graph,
                                   const std::map<NodeId, Table>* sources,
                                   const std::map<NodeId, std::uint64_t>& row_counts,
                                   const ExecutorOptions& options) const {
  RunContext run{graph, options, device_,
                 options.metrics != nullptr ? *options.metrics
                                            : obs::MetricsRegistry::Default(),
                 {{"strategy", ToString(options.strategy)}}};
  if (!device_.instance_label().empty()) {
    run.labels.emplace_back("device", device_.instance_label());
  }
  const Planned planned = Plan(run);
  FunctionalPass functional = Functional(run, planned, sources, row_counts, pool_);
  const Schedule schedule =
      BuildSchedule(graph, planned, functional.rows, options, device_, cost_model_);
  Simulated simulated = Simulate(run, schedule, functional.cluster_wall);
  ExecutionReport report;
  const Recovery recovery = Recover(run, schedule, simulated, report);
  Account(run, planned, sources, std::move(functional), schedule, std::move(simulated),
          recovery, report);
  return report;
}

}  // namespace kf::core
