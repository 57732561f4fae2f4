#include "core/query_executor.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <unordered_map>

#include "common/error.h"
#include "common/random.h"
#include "core/hetero.h"
#include "obs/hostperf_export.h"
#include "relational/operators.h"
#include "stream/stream_pool.h"

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

enum class Category : std::uint8_t {
  kInputOutput,
  kRoundTrip,
  kCompute,
  kHostGather,
  kIntegrity,  // checksum passes + host audits on the host engine
};

const char* CategoryName(Category category) {
  switch (category) {
    case Category::kInputOutput: return "input_output";
    case Category::kRoundTrip: return "round_trip";
    case Category::kCompute: return "compute";
    case Category::kHostGather: return "host_gather";
    case Category::kIntegrity: return "integrity";
  }
  return "?";
}

// Where a node's data currently lives during timeline construction.
struct Residency {
  bool on_device = false;
  bool on_host = true;
  std::uint64_t bytes = 0;
  std::optional<sim::AllocationId> alloc;
  std::optional<CommandId> ready;  // command that made the data available
  int pending_uses = 0;            // cluster reads + final sink download
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

}  // namespace

FusionOptions EffectiveFusionOptions(const ExecutorOptions& options) {
  const bool fuse = options.strategy == Strategy::kFused ||
                    options.strategy == Strategy::kFusedFission;
  const bool fission = options.strategy == Strategy::kFission ||
                       options.strategy == Strategy::kFusedFission;
  FusionOptions fusion_options = options.fusion;
  fusion_options.enabled =
      fuse || fission || options.intermediates == IntermediatePolicy::kKeepOnDevice;
  if (fusion_options.calibration == nullptr) {
    fusion_options.calibration = options.calibration;
  }
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
                                   std::map<NodeId, std::uint64_t> rows,
                                   const ExecutorOptions& options) const {
  const bool fuse = options.strategy == Strategy::kFused ||
                    options.strategy == Strategy::kFusedFission;
  const bool fission = options.strategy == Strategy::kFission ||
                       options.strategy == Strategy::kFusedFission;

  // --- Plan clusters. Grouping decides *scheduling* granularity: members of
  // one cluster execute back-to-back with intermediates in device memory
  // (kernels still separate unless the strategy fuses them), and data larger
  // than the device streams through the whole chain segment-wise. Only the
  // round-trip regime — intermediates evicted to host after every operator —
  // needs ungrouped clusters. ---------------------------------------------------
  obs::MetricsRegistry& metrics =
      options.metrics != nullptr ? *options.metrics : obs::MetricsRegistry::Default();

  // --- Tracing. The root "execute" span covers the whole simulated run;
  // every structural span below (plan, functional, clusters, segments,
  // retries) and every stream-command leaf nests under it. All sim times in
  // this function are run-local; trace.sim_offset re-bases them onto the
  // session clock inside the tracer.
  obs::Tracer* const tracer = options.tracer;
  obs::TraceContext trace_ctx = options.trace;
  obs::SpanId root_span = 0;
  obs::SpanId plan_span = 0;
  if (tracer != nullptr) {
    if (trace_ctx.query_id == 0) trace_ctx.query_id = tracer->NextQueryId();
    root_span = tracer->BeginSpan(
        trace_ctx, options.trace_parent,
        std::string("execute/") + ToString(options.strategy), "executor", 0.0);
    plan_span = tracer->BeginSpan(trace_ctx, root_span, "plan", "executor", 0.0);
  }

  FusionOptions fusion_options = EffectiveFusionOptions(options);
  if (fusion_options.metrics == nullptr) fusion_options.metrics = &metrics;
  if (options.plan != nullptr) {
    KF_REQUIRE_AS(::kf::InvalidArgument,
                  options.plan->cluster_of.size() == graph.node_count())
        << "precomputed fusion plan covers " << options.plan->cluster_of.size()
        << " nodes but the graph has " << graph.node_count();
  }
  const FusionPlan plan =
      options.plan != nullptr ? *options.plan : PlanFusion(graph, fusion_options);
  if (tracer != nullptr) {
    tracer->EndSpan(trace_ctx, plan_span, 0.0);
    tracer->Annotate(trace_ctx, plan_span,
                     options.plan != nullptr
                         ? obs::SpanAnnotationKind::kCacheHit
                         : obs::SpanAnnotationKind::kCacheMiss,
                     options.plan != nullptr ? "precomputed fusion plan"
                                             : "planned fresh",
                     0.0);
  }

  ExecutionReport report;
  report.cluster_count = plan.clusters.size();
  report.fused_cluster_count = plan.fused_cluster_count();

  // --- Integrity configuration. Which clusters are audited is decided up
  // front (fixed for this run, retries included): a pure draw from the audit
  // seed, the injector's current epoch, and the cluster index. ----------------
  const IntegrityOptions& integ = options.integrity;
  const bool verify_transfers = integ.verify_transfers;
  const double audit_fraction = std::clamp(integ.audit_fraction, 0.0, 1.0);
  const bool audit_on = audit_fraction > 0.0;
  std::vector<char> audited(plan.clusters.size(), 0);
  if (audit_on) {
    const std::uint64_t run_salt =
        options.fault_injector != nullptr ? options.fault_injector->epoch() : 0;
    for (std::size_t c = 0; c < plan.clusters.size(); ++c) {
      audited[c] =
          AuditSampled(integ.audit_seed, run_salt, c, audit_fraction) ? 1 : 0;
    }
  }

  // --- Functional pass: materialize source/cluster-output tables and record
  // realized row counts. -------------------------------------------------------
  std::map<NodeId, Table> computed;  // cluster outputs
  auto lookup = [&](NodeId id) -> const Table& {
    if (sources != nullptr) {
      auto it = sources->find(id);
      if (it != sources->end()) return it->second;
    }
    auto it = computed.find(id);
    KF_REQUIRE(it != computed.end()) << "node #" << id << " not materialized";
    return it->second;
  };

  // Wall-time-only span: the functional pass happens before the simulated
  // clock starts, so its sim interval is a zero-width marker at t=0.
  const obs::SpanId functional_span =
      tracer != nullptr && sources != nullptr
          ? tracer->BeginSpan(trace_ctx, root_span, "functional", "executor", 0.0)
          : 0;

  if (sources != nullptr) {
    for (NodeId src : graph.Sources()) {
      KF_REQUIRE_AS(::kf::InvalidArgument, sources->count(src) != 0)
          << "source '" << graph.node(src).name << "' not bound";
      rows[src] = sources->at(src).row_count();
    }
    // Every cluster of every strategy runs as one staged kernel (fused or a
    // singleton); the strategy changes only the simulated schedule below.
    for (std::size_t ci = 0; ci < plan.clusters.size(); ++ci) {
      ClusterExecution exec =
          ExecuteCluster(graph, plan.clusters[ci], lookup, options.chunk_count, pool_,
                         options.arena, audited[ci] != 0);
      for (const auto& [id, digest] : exec.output_checksums) {
        report.audit_checksums[id] = digest;
      }
      for (auto& [id, table] : exec.outputs) {
        rows[id] = table.row_count();
        computed.emplace(id, std::move(table));
      }
      for (const auto& [id, count] : exec.member_rows) {
        if (rows.count(id) == 0) rows[id] = count;
      }
    }
  } else {
    // Timing-only: source rows from hints; operators from overrides, with
    // structural estimates as fallback.
    std::map<NodeId, std::uint64_t> overrides = rows;
    for (NodeId id : graph.TopologicalOrder()) {
      const OpNode& node = graph.node(id);
      if (node.is_source) {
        rows[id] = overrides.count(id) != 0 ? overrides[id] : node.row_hint;
      } else if (overrides.count(id) != 0) {
        rows[id] = overrides[id];
      } else {
        rows[id] = EstimateRows(graph, id, rows);
      }
    }
  }
  if (functional_span != 0) tracer->EndSpan(trace_ctx, functional_span, 0.0);

  auto row_bytes = [&](NodeId id) -> std::uint64_t {
    return graph.node(id).schema.row_width_bytes();
  };
  auto node_bytes = [&](NodeId id) -> std::uint64_t { return rows.at(id) * row_bytes(id); };

  // --- Timeline construction over the Stream Pool. ---------------------------
  // Adaptive stream-count selection: fission pipelines get one stream per
  // overlappable engine leg (H2D/compute/D2H) from the calibrator, plus a
  // spare under measured stall pressure, instead of the fixed constant.
  CostModelCalibrator* const calib = options.calibration;
  int stream_count = std::max(1, options.stream_count);
  if (calib != nullptr && fission) {
    stream_count = calib->ChooseStreamCount(/*d2h_present=*/!graph.Sinks().empty());
    metrics
        .GetGauge("calib.stream_count",
                  obs::Labels{{"strategy", ToString(options.strategy)}})
        .Set(static_cast<double>(stream_count));
  }
  // Verification work (checksum passes, host audits) gets a dedicated extra
  // stream so it never serializes behind compute-stream commands and the
  // compute schedule is unchanged whether verification is on or off.
  const bool integrity_stream = verify_transfers || audit_on;
  stream::StreamPool streams(device_, stream_count + (integrity_stream ? 1 : 0),
                             &metrics, options.fault_injector);
  std::vector<stream::StreamHandle> handles;
  for (int s = 0; s < stream_count; ++s) {
    handles.push_back(streams.GetAvailableStream());
  }
  const stream::StreamHandle main_stream = handles[0];
  const stream::StreamHandle crc_stream =
      integrity_stream ? streams.GetAvailableStream() : main_stream;

  struct TaggedCommand {
    CommandId id;
    Category category;
    sim::CommandKind kind;
    SimTime duration;
    std::uint64_t bytes;
    int launches;
    int unit;  // retry unit, -1 when fault recovery is off
  };
  std::vector<TaggedCommand> tagged;
  // Specs kept for fault recovery: a failed unit is rebuilt command-by-command
  // on a fresh stream. Parallel to `tagged`.
  std::vector<CommandSpec> specs;

  // Tracing state, parallel to `tagged`: the enclosing structural span and
  // stage category of every issued command (leaf spans attach through the
  // pool's trace sink after the timeline runs).
  std::vector<obs::SpanId> cmd_parents;
  std::vector<std::string> cmd_categories;
  obs::SpanId trace_cmd_parent = root_span;
  // Structural spans whose sim interval is only known once the timeline ran:
  // resolved to the min-start/max-end of their tagged command range.
  struct PendingIntervalSpan {
    obs::SpanId span;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<PendingIntervalSpan> pending_interval_spans;
  std::vector<obs::SpanId> cluster_spans(plan.clusters.size(), 0);

  // Retry units (see ResilienceOptions): unit -> owning cluster index.
  std::vector<int> unit_cluster;
  int active_unit = -1;
  auto begin_unit = [&](int cluster_index) {
    unit_cluster.push_back(cluster_index);
    active_unit = static_cast<int>(unit_cluster.size()) - 1;
  };

  // Per-command observations destined for the calibrator: copies keyed by
  // direction and bytes (observed time read from the finished timeline),
  // kernels by stage category and profile (observed time is the realized solo
  // duration — wall time would confound co-residency sharing with model
  // error; stall pressure is fed separately from the timeline's counters).
  struct PendingCopyObs {
    sim::CopyDirection direction;
    std::uint64_t bytes;
    std::size_t tagged_index;
  };
  struct PendingKernelObs {
    sim::KernelProfile profile;
    KernelClass cls;
    std::size_t tagged_index;
  };
  std::vector<PendingCopyObs> pending_copy_obs;
  std::vector<PendingKernelObs> pending_kernel_obs;

  const bool track_units = options.fault_injector != nullptr;
  auto issue_cmd = [&](stream::StreamHandle stream, CommandSpec spec,
                       Category category, std::uint64_t bytes, int launches = 0) {
    const SimTime duration =
        spec.kind == sim::CommandKind::kKernel ? spec.solo_duration : spec.duration;
    const sim::CommandKind kind = spec.kind;
    const CommandId id = streams.SetStreamCommand(stream, stream::PoolCommand{spec, {}});
    tagged.push_back(TaggedCommand{id, category, kind, duration, bytes, launches,
                                   track_units ? active_unit : -1});
    if (tracer != nullptr) {
      cmd_parents.push_back(trace_cmd_parent);
      cmd_categories.push_back(CategoryName(category));
    }
    if (calib != nullptr &&
        (kind == sim::CommandKind::kCopyH2D || kind == sim::CommandKind::kCopyD2H)) {
      pending_copy_obs.push_back(
          PendingCopyObs{kind == sim::CommandKind::kCopyH2D
                             ? sim::CopyDirection::kHostToDevice
                             : sim::CopyDirection::kDeviceToHost,
                         bytes, tagged.size() - 1});
    }
    if (track_units) specs.push_back(std::move(spec));
    return id;
  };

  // issue_cmd plus the transfer-verification chaser: every copy gets a
  // host-engine checksum pass over the same bytes on the crc stream — an H2D
  // stages the host buffer's digest (no dependency: it overlaps the upload),
  // a D2H verifies the downloaded bytes (depends on the copy). The chaser
  // joins the copy's retry unit, so re-executed units re-verify too.
  std::uint64_t checksummed_bytes = 0;
  auto issue = [&](stream::StreamHandle stream, CommandSpec spec, Category category,
                   std::uint64_t bytes, int launches = 0) {
    const sim::CommandKind kind = spec.kind;
    const bool is_copy =
        kind == sim::CommandKind::kCopyH2D || kind == sim::CommandKind::kCopyD2H;
    const std::string label = is_copy && verify_transfers ? spec.label : "";
    const CommandId id = issue_cmd(stream, std::move(spec), category, bytes, launches);
    if (verify_transfers && is_copy && bytes > 0) {
      CommandSpec crc = device_.MakeHostWork(
          bytes, label + (kind == sim::CommandKind::kCopyH2D ? "/crc-stage"
                                                             : "/crc-verify"));
      if (kind == sim::CommandKind::kCopyD2H) crc.dependencies.push_back(id);
      issue_cmd(crc_stream, std::move(crc), Category::kIntegrity, bytes);
      checksummed_bytes += bytes;
    }
    return id;
  };

  sim::DeviceMemoryModel memory(device_.spec().mem_capacity_bytes);
  memory.set_fault_injector(options.fault_injector);
  std::map<NodeId, Residency> residency;

  // Pending uses: how many clusters read this node, plus one if it is a sink.
  const std::vector<NodeId> sinks = graph.Sinks();
  for (NodeId id = 0; id < graph.node_count(); ++id) {
    Residency r;
    r.bytes = node_bytes(id);
    r.on_host = graph.node(id).is_source;
    r.on_device = false;
    residency[id] = r;
  }
  for (const FusionCluster& cluster : plan.clusters) {
    ++residency[cluster.primary_input].pending_uses;
    for (NodeId build : cluster.build_inputs) ++residency[build].pending_uses;
  }
  for (NodeId sink : sinks) ++residency[sink].pending_uses;

  auto release_use = [&](NodeId id) {
    Residency& r = residency[id];
    if (--r.pending_uses <= 0 && r.alloc.has_value()) {
      memory.Free(*r.alloc);
      r.alloc.reset();
      r.on_device = false;
    }
  };

  // Sends a device-resident intermediate back to the host and frees it
  // (declared below; needed by the spilling allocator).
  std::function<void(NodeId, Category)> spill_to_host;

  // Allocates device space for `id`, spilling resident intermediates (not in
  // `pinned_nodes`) back to host memory on capacity pressure — the forced
  // round trip the paper describes when intermediates exceed GPU memory.
  auto allocate_with_spill = [&](std::uint64_t bytes, const std::string& label,
                                 const std::vector<NodeId>& pinned_nodes) {
    while (!memory.CanAllocate(bytes)) {
      NodeId victim = kNoNode;
      std::uint64_t victim_bytes = 0;
      for (auto& [id, r] : residency) {
        if (!r.on_device || !r.alloc.has_value()) continue;
        if (std::find(pinned_nodes.begin(), pinned_nodes.end(), id) !=
            pinned_nodes.end()) {
          continue;
        }
        if (r.bytes > victim_bytes) {
          victim = id;
          victim_bytes = r.bytes;
        }
      }
      KF_REQUIRE_AS(::kf::CapacityExceeded, victim != kNoNode)
          << "device OOM allocating " << bytes << " bytes for '" << label
          << "' with nothing spillable (" << memory.used() << "/" << memory.capacity()
          << " in use)";
      ++report.spill_count;
      spill_to_host(victim, Category::kRoundTrip);
    }
    return memory.Allocate(bytes, label);
  };

  // Uploads a host-resident node wholesale (allocating device space).
  auto ensure_resident = [&](NodeId id, const std::vector<NodeId>& pinned_nodes) {
    Residency& r = residency[id];
    if (r.on_device) return;
    KF_REQUIRE(r.on_host) << "node #" << id << " lost";
    r.alloc = allocate_with_spill(r.bytes, graph.node(id).name, pinned_nodes);
    CommandSpec copy = device_.MakeCopy(r.bytes, sim::CopyDirection::kHostToDevice,
                                        options.host_memory, graph.node(id).name + "/h2d");
    if (r.ready.has_value()) copy.dependencies.push_back(*r.ready);
    const Category category =
        graph.node(id).is_source ? Category::kInputOutput : Category::kRoundTrip;
    r.ready = issue(main_stream, std::move(copy), category, r.bytes);
    r.on_device = true;
  };

  spill_to_host = [&](NodeId id, Category category) {
    Residency& r = residency[id];
    KF_REQUIRE(r.on_device) << "spill of non-resident node #" << id;
    CommandSpec copy = device_.MakeCopy(r.bytes, sim::CopyDirection::kDeviceToHost,
                                        options.host_memory, graph.node(id).name + "/d2h");
    if (r.ready.has_value()) copy.dependencies.push_back(*r.ready);
    r.ready = issue(main_stream, std::move(copy), category, r.bytes);
    r.on_host = true;
    r.on_device = false;
    if (r.alloc.has_value()) {
      memory.Free(*r.alloc);
      r.alloc.reset();
    }
  };

  const std::uint64_t device_budget = static_cast<std::uint64_t>(
      static_cast<double>(device_.spec().mem_capacity_bytes) *
      options.device_memory_budget);

  // Host-side cost of each cluster, needed when a cluster may run on the CPU:
  // every cluster under force_host, any persistently failing cluster when an
  // injector is attached (graceful degradation), and every cluster when a
  // calibrator drives adaptive CPU/GPU placement.
  std::optional<HeterogeneousScheduler> hetero;
  if (options.fault_injector != nullptr || options.force_host ||
      calib != nullptr || audit_on) {
    hetero.emplace(device_, cost_model_);
    if (calib != nullptr) hetero->set_calibration(calib);
  }
  std::vector<SimTime> cluster_host_time(plan.clusters.size(), 0.0);

  auto cluster_label = [&](const FusionCluster& cluster) {
    std::string label;
    for (std::size_t m = 0; m < cluster.nodes.size(); ++m) {
      if (m) label += "+";
      label += graph.node(cluster.nodes[m]).name;
    }
    return label;
  };

  for (std::size_t c = 0; c < plan.clusters.size(); ++c) {
    const FusionCluster& cluster = plan.clusters[c];
    const std::size_t tagged_before = tagged.size();
    if (tracer != nullptr) {
      cluster_spans[c] = tracer->BeginSpan(
          trace_ctx, root_span,
          "cluster " + std::to_string(c) + ": " + cluster_label(cluster),
          "executor", 0.0);
      trace_cmd_parent = cluster_spans[c];
    }
    const NodeId primary = cluster.primary_input;
    const OpNode& head = graph.node(cluster.nodes.front());
    const bool barrier_cluster =
        cluster.nodes.size() == 1 && Classify(head.desc.kind) == FusionClass::kBarrier;

    // Realized sizes for every member.
    std::vector<RealizedSizes> member_sizes;
    member_sizes.reserve(cluster.nodes.size());
    for (NodeId id : cluster.nodes) {
      const OpNode& node = graph.node(id);
      RealizedSizes sizes;
      sizes.input_rows = rows.at(node.inputs[0]);
      sizes.input_row_bytes = row_bytes(node.inputs[0]);
      sizes.output_rows = rows.at(id);
      sizes.output_row_bytes = row_bytes(id);
      if (node.inputs.size() > 1) sizes.build_bytes = node_bytes(node.inputs[1]);
      member_sizes.push_back(sizes);
    }

    std::optional<PlacementDecision> placement;
    if (hetero.has_value()) {
      placement = hetero->Decide(graph, cluster, member_sizes);
      cluster_host_time[c] = placement->host_time;
    }

    // Calibrated CPU/GPU placement: run the cluster on the host engine when
    // the measured ratios say the CPU wins and its inputs are host-resident
    // anyway. Exploration guard: until the calibrator has device samples it
    // stays on the device, so a pessimistically believed model cannot starve
    // itself of the very observations that would correct it. Placement is
    // timing-only — functional results are always computed host-side first.
    bool run_on_host = options.force_host;
    if (!run_on_host && calib != nullptr && placement.has_value() &&
        placement->placement == Placement::kHost && !calib->NeedsExploration()) {
      bool inputs_on_host =
          residency[primary].on_host && !residency[primary].on_device;
      for (NodeId build : cluster.build_inputs) {
        const Residency& r = residency[build];
        inputs_on_host = inputs_on_host && r.on_host && !r.on_device;
      }
      if (inputs_on_host) {
        run_on_host = true;
        ++report.host_placed_clusters;
        if (tracer != nullptr) {
          tracer->Annotate(trace_ctx, cluster_spans[c],
                           obs::SpanAnnotationKind::kPlacement,
                           "calibrated host placement", 0.0);
        }
        metrics
            .GetCounter("calib.host_placements",
                        obs::Labels{{"strategy", ToString(options.strategy)}})
            .Increment();
      }
    }

    if (run_on_host) {
      // Circuit-breaker open (or explicit CPU run): the whole cluster becomes
      // one host-engine command. The host never faults, inputs and outputs
      // stay in host memory, and nothing touches the device.
      begin_unit(static_cast<int>(c));
      CommandSpec work;
      work.kind = sim::CommandKind::kHostCompute;
      work.duration = cluster_host_time[c];
      work.label = "host/" + cluster_label(cluster);
      if (residency[primary].ready.has_value()) {
        work.dependencies.push_back(*residency[primary].ready);
      }
      for (NodeId build : cluster.build_inputs) {
        if (residency[build].ready.has_value()) {
          work.dependencies.push_back(*residency[build].ready);
        }
      }
      const CommandId host_id =
          issue(main_stream, std::move(work), Category::kCompute, 0);
      for (NodeId out : cluster.outputs) {
        Residency& r = residency[out];
        r.on_host = true;
        r.on_device = false;
        r.ready = host_id;
      }
      if (options.force_host) report.ran_on_host = true;

      ExecutionReport::ClusterTiming timing;
      timing.label = cluster_label(cluster);
      timing.compute = cluster_host_time[c];
      timing.launches = 1;
      timing.fused = fuse && cluster.fused();
      report.cluster_timings.push_back(std::move(timing));

      if (tracer != nullptr) {
        pending_interval_spans.push_back(
            {cluster_spans[c], tagged_before, tagged.size()});
        trace_cmd_parent = root_span;
      }
      release_use(primary);
      for (NodeId build : cluster.build_inputs) release_use(build);
      continue;
    }

    // Device path. The cluster prologue (build uploads) and the resident
    // execution form one retry unit; each fission segment below opens its own.
    begin_unit(static_cast<int>(c));

    // Output routing: a cluster output goes to host when it is a sink or the
    // round-trip policy is active; otherwise it stays resident.
    std::uint64_t outputs_bytes = 0;
    for (NodeId out : cluster.outputs) outputs_bytes += node_bytes(out);
    const std::uint64_t input_bytes = node_bytes(primary);

    // Build inputs must be fully resident before the cluster streams.
    std::vector<NodeId> pinned_nodes = cluster.build_inputs;
    pinned_nodes.push_back(primary);
    for (NodeId out : cluster.outputs) pinned_nodes.push_back(out);
    for (NodeId build : cluster.build_inputs) ensure_resident(build, pinned_nodes);

    const bool primary_on_host = !residency[primary].on_device;
    const bool streamable = !barrier_cluster && primary_on_host;

    // Stage category this cluster's kernels calibrate under.
    const KernelClass kernel_class = barrier_cluster ? KernelClass::kBarrier
                                     : fuse          ? KernelClass::kFused
                                                     : KernelClass::kStaged;

    // Kernel profiles for one segment (scale sizes by 1/segments).
    auto segment_profiles = [&](int seg_count) {
      std::vector<sim::KernelProfile> profiles;
      auto scale = [&](RealizedSizes s) {
        s.input_rows /= static_cast<std::uint64_t>(seg_count);
        s.output_rows /= static_cast<std::uint64_t>(seg_count);
        // Build sides stay resident across segments; each segment probes its
        // share of them rather than re-reading the whole table.
        s.build_bytes /= static_cast<std::uint64_t>(seg_count);
        return s;
      };
      if (fuse && !barrier_cluster) {
        std::vector<RealizedSizes> scaled;
        scaled.reserve(member_sizes.size());
        for (const RealizedSizes& s : member_sizes) scaled.push_back(scale(s));
        profiles = cost_model_.FusedProfiles(graph, cluster, scaled);
      } else {
        for (std::size_t m = 0; m < cluster.nodes.size(); ++m) {
          auto member_profiles =
              cost_model_.UnfusedProfiles(graph.node(cluster.nodes[m]),
                                          scale(member_sizes[m]));
          for (auto& p : member_profiles) profiles.push_back(std::move(p));
        }
      }
      return profiles;
    };

    int segments = 1;
    if (streamable) {
      const std::uint64_t working = input_bytes + outputs_bytes;
      if (working > device_budget) {
        segments = static_cast<int>(DivCeil(working, device_budget));
      }
      if (fission) {
        if (calib != nullptr) {
          // Adaptive fission sizing: the segment count minimizing the
          // calibrated pipeline makespan, never below the capacity floor. A
          // choice of 1 replans the cluster back to resident execution (the
          // overlap win does not cover per-segment latency and launches).
          PipelineEstimate estimate;
          estimate.h2d_bytes = input_bytes;
          for (NodeId out : cluster.outputs) {
            if (std::find(sinks.begin(), sinks.end(), out) != sinks.end()) {
              estimate.d2h_bytes += node_bytes(out);
            }
          }
          estimate.host_memory = options.host_memory;
          estimate.launches = 0;
          for (const sim::KernelProfile& profile : segment_profiles(1)) {
            estimate.kernel_time += calib->EstimateKernelTime(kernel_class, profile);
            estimate.launches += profile.launches;
          }
          segments = calib->PlanFissionSegments(estimate, segments);
          metrics
              .GetGauge("calib.segments",
                        obs::Labels{{"strategy", ToString(options.strategy)}})
              .Set(static_cast<double>(segments));
        } else {
          segments = std::max(segments, options.fission_segments);
        }
      }
    }

    // Decide per-output destination.
    std::map<NodeId, bool> output_to_host;
    for (NodeId out : cluster.outputs) {
      const bool is_sink =
          std::find(sinks.begin(), sinks.end(), out) != sinks.end();
      const bool has_consumers = residency[out].pending_uses > (is_sink ? 1 : 0);
      bool to_host = is_sink && !has_consumers;
      if (options.intermediates == IntermediatePolicy::kRoundTrip && has_consumers) {
        to_host = true;
      }
      // Outputs too large to keep resident must stream out.
      if (!to_host && segments > 1 && outputs_bytes > device_budget / 2) to_host = true;
      output_to_host[out] = to_host;
    }

    if (segments <= 1) {
      // --- Resident execution: whole input on device, kernels in stream 0. --
      ensure_resident(primary, pinned_nodes);
      for (NodeId out : cluster.outputs) {
        Residency& r = residency[out];
        r.alloc = allocate_with_spill(r.bytes, graph.node(out).name, pinned_nodes);
        r.on_device = true;
        r.on_host = false;
      }
      // Unfused members materialize their intermediates in device memory for
      // the duration of the cluster (fused kernels keep them in registers).
      std::optional<sim::AllocationId> transient;
      if (!fuse || barrier_cluster) {
        std::uint64_t transient_bytes = 0;
        for (NodeId member : cluster.nodes) {
          if (std::find(cluster.outputs.begin(), cluster.outputs.end(), member) ==
              cluster.outputs.end()) {
            transient_bytes += node_bytes(member);
          }
        }
        if (transient_bytes > 0) {
          transient = allocate_with_spill(transient_bytes, "intermediates",
                                          pinned_nodes);
        }
      }
      std::optional<CommandId> last;
      for (const sim::KernelProfile& profile : segment_profiles(1)) {
        CommandSpec kernel = device_.MakeKernel(profile);
        if (residency[primary].ready.has_value()) {
          kernel.dependencies.push_back(*residency[primary].ready);
        }
        for (NodeId build : cluster.build_inputs) {
          if (residency[build].ready.has_value()) {
            kernel.dependencies.push_back(*residency[build].ready);
          }
        }
        last = issue(main_stream, std::move(kernel), Category::kCompute, 0,
                     profile.launches);
        if (calib != nullptr) {
          pending_kernel_obs.push_back(
              PendingKernelObs{profile, kernel_class, tagged.size() - 1});
        }
      }
      if (transient.has_value()) memory.Free(*transient);
      for (NodeId out : cluster.outputs) {
        residency[out].ready = last;
        if (output_to_host[out]) {
          const bool is_sink =
              std::find(sinks.begin(), sinks.end(), out) != sinks.end();
          spill_to_host(out, is_sink ? Category::kInputOutput : Category::kRoundTrip);
        }
      }
    } else {
      // --- Segmented execution (Fig 13/15): H2D, kernels, D2H per segment;
      // fission spreads segments over the stream pool, serial keeps one
      // stream so everything serializes (Fig 14's baseline). ------------------
      const std::vector<sim::KernelProfile> profiles = segment_profiles(segments);
      // Segment staging buffers (double-buffered per active stream).
      const int active = fission ? stream_count : 1;
      const std::uint64_t staging =
          (input_bytes + outputs_bytes) / static_cast<std::uint64_t>(segments) *
          static_cast<std::uint64_t>(std::min(segments, active * 2));
      const sim::AllocationId staging_alloc =
          allocate_with_spill(std::min(staging, memory.free_bytes()),
                              "segment staging", pinned_nodes);

      // Device-resident outputs accumulate across segments.
      for (NodeId out : cluster.outputs) {
        if (!output_to_host[out]) {
          Residency& r = residency[out];
          r.alloc = allocate_with_spill(r.bytes, graph.node(out).name, pinned_nodes);
          r.on_device = true;
          r.on_host = false;
        }
      }

      std::vector<CommandId> segment_outputs;
      std::vector<CommandId> last_kernels;
      for (int s = 0; s < segments; ++s) {
        begin_unit(static_cast<int>(c));  // each segment retries independently
        const std::size_t segment_tagged_before = tagged.size();
        if (tracer != nullptr) {
          const obs::SpanId segment_span = tracer->BeginSpan(
              trace_ctx, cluster_spans[c], "segment " + std::to_string(s),
              "executor", 0.0);
          trace_cmd_parent = segment_span;
          pending_interval_spans.push_back(
              {segment_span, segment_tagged_before, 0});  // end patched below
        }
        const stream::StreamHandle stream =
            fission ? handles[static_cast<std::size_t>(s) % handles.size()]
                    : main_stream;
        CommandSpec copy_in = device_.MakeCopy(
            input_bytes / static_cast<std::uint64_t>(segments),
            sim::CopyDirection::kHostToDevice, options.host_memory,
            graph.node(primary).name + "/h2d[" + std::to_string(s) + "]");
        const Category in_category = graph.node(primary).is_source
                                         ? Category::kInputOutput
                                         : Category::kRoundTrip;
        issue(stream, std::move(copy_in), in_category,
              input_bytes / static_cast<std::uint64_t>(segments));

        std::optional<CommandId> last;
        for (const sim::KernelProfile& profile : profiles) {
          CommandSpec kernel = device_.MakeKernel(profile);
          for (NodeId build : cluster.build_inputs) {
            if (residency[build].ready.has_value()) {
              kernel.dependencies.push_back(*residency[build].ready);
            }
          }
          last = issue(stream, std::move(kernel), Category::kCompute, 0,
                       profile.launches);
          if (calib != nullptr) {
            pending_kernel_obs.push_back(
                PendingKernelObs{profile, kernel_class, tagged.size() - 1});
          }
        }
        if (last.has_value()) last_kernels.push_back(*last);

        std::uint64_t host_bound_bytes = 0;
        for (NodeId out : cluster.outputs) {
          if (output_to_host[out]) host_bound_bytes += node_bytes(out);
        }
        if (host_bound_bytes > 0) {
          const std::uint64_t segment_bytes =
              host_bound_bytes / static_cast<std::uint64_t>(segments);
          CommandSpec copy_out = device_.MakeCopy(
              segment_bytes, sim::CopyDirection::kDeviceToHost, options.host_memory,
              "result/d2h[" + std::to_string(s) + "]");
          bool sink_bound = false;
          for (NodeId out : cluster.outputs) {
            if (output_to_host[out] &&
                std::find(sinks.begin(), sinks.end(), out) != sinks.end()) {
              sink_bound = true;
            }
          }
          const CommandId d2h_id =
              issue(stream, std::move(copy_out),
                    sink_bound ? Category::kInputOutput : Category::kRoundTrip,
                    segment_bytes);
          segment_outputs.push_back(d2h_id);

          // Out-of-order host arrival needs a CPU-side gather (Fig 15): each
          // segment is repositioned as it lands, overlapping the pipeline
          // (the host engine is idle while the device streams).
          if (fission) {
            CommandSpec gather = device_.MakeHostWork(
                2 * segment_bytes, "cpu-gather[" + std::to_string(s) + "]");
            gather.dependencies = {d2h_id};
            issue(main_stream, std::move(gather), Category::kHostGather,
                  segment_bytes);
          }
        }
        if (tracer != nullptr) {
          pending_interval_spans.back().end = tagged.size();
          trace_cmd_parent = cluster_spans[c];
        }
      }

      for (NodeId out : cluster.outputs) {
        Residency& r = residency[out];
        if (output_to_host[out]) {
          r.on_host = true;
          r.on_device = false;
          r.ready = segment_outputs.empty() ? std::nullopt
                                            : std::optional(segment_outputs.back());
        } else {
          r.ready = last_kernels.empty() ? std::nullopt
                                         : std::optional(last_kernels.back());
        }
      }
      memory.Free(staging_alloc);
    }

    // Sampled host audit: re-execute the cluster on the host engine and
    // compare bytes (host time + one digest pass over the outputs), after
    // every output is complete. Runs on the crc stream, inside the cluster's
    // last retry unit, so a healed re-execution is re-audited.
    if (audit_on && audited[c] != 0) {
      ++report.audited_clusters;
      CommandSpec audit =
          device_.MakeHostWork(outputs_bytes, cluster_label(cluster) + "/audit");
      audit.duration += cluster_host_time[c];
      for (NodeId out : cluster.outputs) {
        if (residency[out].ready.has_value()) {
          audit.dependencies.push_back(*residency[out].ready);
        }
      }
      issue(crc_stream, std::move(audit), Category::kIntegrity, outputs_bytes);
    }

    // Per-cluster compute accounting for the report.
    ExecutionReport::ClusterTiming timing;
    timing.fused = fuse && cluster.fused();
    timing.label = cluster_label(cluster);
    for (std::size_t i = tagged_before; i < tagged.size(); ++i) {
      if (tagged[i].category == Category::kCompute) {
        timing.compute += tagged[i].duration;
        timing.launches += static_cast<std::size_t>(std::max(1, tagged[i].launches));
      }
    }
    report.cluster_timings.push_back(std::move(timing));

    if (tracer != nullptr) {
      pending_interval_spans.push_back(
          {cluster_spans[c], tagged_before, tagged.size()});
      trace_cmd_parent = root_span;
    }

    // Inputs consumed.
    release_use(primary);
    for (NodeId build : cluster.build_inputs) release_use(build);
  }

  // Final downloads for sinks still on the device (each its own retry unit,
  // owned by the cluster that produced the sink).
  for (NodeId sink : sinks) {
    if (residency[sink].on_device) {
      begin_unit(plan.cluster_of[static_cast<std::size_t>(sink)]);
      spill_to_host(sink, Category::kInputOutput);
    }
    release_use(sink);
  }

  // --- Simulate. --------------------------------------------------------------
  if (tracer != nullptr) {
    // Leaf spans: one per stream command, parented to its cluster/segment
    // span. cmd_parents/cmd_categories are indexed in issue order, which is
    // exactly the pool's command-id order.
    stream::PoolTraceSink sink;
    sink.tracer = tracer;
    sink.context = trace_ctx;
    sink.parent = root_span;
    sink.parents = cmd_parents;
    sink.categories = cmd_categories;
    streams.set_trace(std::move(sink));
  }
  streams.StartStreams();
  report.timeline = streams.WaitAll();
  SimTime total_makespan = report.timeline.makespan;
  report.fault_count = report.timeline.fault_count;

  // Resolve structural span intervals now that command times are known.
  if (tracer != nullptr) {
    for (const PendingIntervalSpan& pending : pending_interval_spans) {
      double lo = 0.0, hi = 0.0;
      bool any = false;
      for (std::size_t i = pending.begin; i < pending.end; ++i) {
        const sim::CommandTiming& timing = report.timeline.commands[tagged[i].id];
        lo = any ? std::min(lo, timing.start) : timing.start;
        hi = any ? std::max(hi, timing.end) : timing.end;
        any = true;
      }
      if (any) {
        tracer->SetSpanInterval(trace_ctx, pending.span, lo, hi);
      } else {
        tracer->EndSpan(trace_ctx, pending.span, 0.0);
      }
    }
  }

  // --- Feed per-command outcomes back into the calibrator (main run only;
  // retries below re-execute under fault pressure and would bias the model).
  if (calib != nullptr) {
    for (const PendingCopyObs& obs : pending_copy_obs) {
      const TaggedCommand& cmd = tagged[obs.tagged_index];
      const sim::CommandTiming& timing = report.timeline.commands[cmd.id];
      if (!timing.ok) continue;
      calib->ObserveCopy(obs.direction, options.host_memory, obs.bytes,
                         timing.end - timing.start);
    }
    for (const PendingKernelObs& obs : pending_kernel_obs) {
      const TaggedCommand& cmd = tagged[obs.tagged_index];
      if (!report.timeline.commands[cmd.id].ok) continue;
      calib->ObserveKernel(obs.cls, obs.profile, cmd.duration);
    }
    calib->ObserveStalls(report.timeline.commands.size(),
                         report.timeline.stall_count);
    calib->EndRun();
    if (tracer != nullptr) {
      tracer->Annotate(trace_ctx, root_span,
                       obs::SpanAnnotationKind::kCalibrationEpoch,
                       "epoch " + std::to_string(calib->epoch()),
                       total_makespan);
    }
    const obs::Labels calib_labels{{"strategy", ToString(options.strategy)}};
    metrics.GetGauge("calib.epoch", calib_labels)
        .Set(static_cast<double>(calib->epoch()));
    metrics.GetGauge("calib.estimate_error", calib_labels).Set(calib->error());
  }

  const ResilienceOptions& res = options.resilience;
  auto check_deadline = [&] {
    KF_REQUIRE_AS(::kf::Timeout,
                  res.deadline <= 0 || total_makespan <= res.deadline)
        << "query exceeded its deadline of " << res.deadline
        << "s (simulated clock at " << total_makespan << "s)";
  };

  // Clusters whose accepted results carry unnoticed corruption: their
  // downstream sinks get a real bit flipped below.
  std::set<std::size_t> silent_clusters;

  if (options.fault_injector != nullptr &&
      (report.timeline.fault_count > 0 || report.timeline.corrupted_count > 0)) {
    // --- Fault + corruption recovery: re-issue troubled retry units on a
    // fresh single-stream pool with exponential backoff in virtual time. A
    // unit retries when a command failed outright (loud) OR a verification
    // point caught corrupted bytes; units that exhaust their budget degrade
    // their cluster to the host engine (or throw, typed by cause). ----------
    std::vector<std::vector<std::size_t>> unit_members(unit_cluster.size());
    for (std::size_t i = 0; i < tagged.size(); ++i) {
      if (tagged[i].unit >= 0) {
        unit_members[static_cast<std::size_t>(tagged[i].unit)].push_back(i);
      }
    }

    // Whether corruption of `kind` inside `unit` is caught: transfers by the
    // checksum chasers, kernels by the owning cluster's host audit.
    auto caught = [&](sim::CommandKind kind, int unit) {
      if (kind == sim::CommandKind::kCopyH2D ||
          kind == sim::CommandKind::kCopyD2H) {
        return verify_transfers;
      }
      if (kind == sim::CommandKind::kKernel) {
        const int cluster = unit_cluster[static_cast<std::size_t>(unit)];
        return audit_on && audited[static_cast<std::size_t>(cluster)] != 0;
      }
      return false;  // host commands never corrupt
    };

    struct UnitIssue {
      bool loud = false;       // some command failed outright
      bool detected = false;   // verification caught corrupted bytes
      std::size_t silent = 0;  // corrupt commands nothing noticed
    };
    std::map<int, UnitIssue> unit_issues;  // ordered: deterministic retries
    for (std::size_t i = 0; i < tagged.size(); ++i) {
      const sim::CommandTiming& timing = report.timeline.commands[tagged[i].id];
      if (!timing.ok) {
        unit_issues[tagged[i].unit].loud = true;
      } else if (timing.corrupted) {
        ++report.corrupted_commands;
        if (caught(tagged[i].kind, tagged[i].unit)) {
          ++report.corruption_detected;
          unit_issues[tagged[i].unit].detected = true;
        } else {
          ++unit_issues[tagged[i].unit].silent;
        }
      }
    }

    // Units where nothing was noticed never re-execute: their wrong bytes
    // flow on silently (realized as real sink bit flips below).
    for (auto it = unit_issues.begin(); it != unit_issues.end();) {
      if (!it->second.loud && !it->second.detected) {
        if (it->second.silent > 0) {
          report.corruption_undetected += it->second.silent;
          silent_clusters.insert(static_cast<std::size_t>(
              unit_cluster[static_cast<std::size_t>(it->first)]));
        }
        it = unit_issues.erase(it);
      } else {
        ++it;
      }
    }

    const int corruption_budget = std::max(0, integ.max_reexecutions);
    std::set<int> failed_loud;     // exhausted loud-fault retries
    std::set<int> failed_corrupt;  // kept returning corrupt bytes
    for (auto& [unit, issue_state] : unit_issues) {
      ++report.retried_units;
      const int budget =
          std::max(issue_state.loud ? res.max_retries : 0,
                   issue_state.detected ? corruption_budget : 0);
      bool recovered = false;
      bool last_loud = issue_state.loud;
      bool last_detected = issue_state.detected;
      for (int attempt = 1; attempt <= budget; ++attempt) {
        const SimTime retry_span_start = total_makespan;
        const SimTime backoff =
            res.backoff_base * std::pow(res.backoff_factor, attempt - 1);
        total_makespan += backoff;
        report.backoff_time += backoff;
        check_deadline();

        obs::SpanId retry_span = 0;
        if (tracer != nullptr) {
          retry_span = tracer->BeginSpan(
              trace_ctx, root_span,
              "retry unit " + std::to_string(unit) + " attempt " +
                  std::to_string(attempt),
              "executor", retry_span_start);
          const std::string where =
              "cluster '" +
              cluster_label(
                  plan.clusters[static_cast<std::size_t>(
                      unit_cluster[static_cast<std::size_t>(unit)])]) +
              "'";
          tracer->Annotate(trace_ctx, retry_span,
                           obs::SpanAnnotationKind::kReExecution,
                           (last_loud ? "fault in " : "re-execution of ") + where,
                           retry_span_start);
          if (last_detected) {
            tracer->Annotate(trace_ctx, retry_span,
                             obs::SpanAnnotationKind::kCorruptionDetected,
                             "corrupted bytes detected in " + where,
                             retry_span_start);
          }
        }

        // Rebuild the unit's commands on a fresh stream. Dependencies inside
        // the unit are remapped; dependencies on other units are dropped —
        // their producers completed in the original run.
        stream::StreamPool retry_pool(device_, 1, &metrics,
                                      options.fault_injector);
        const stream::StreamHandle retry_stream =
            retry_pool.GetAvailableStream();
        std::unordered_map<CommandId, CommandId> remap;
        const auto& members = unit_members[static_cast<std::size_t>(unit)];
        for (std::size_t i : members) {
          CommandSpec spec = specs[i];
          std::vector<CommandId> deps;
          for (CommandId dep : spec.dependencies) {
            auto it = remap.find(dep);
            if (it != remap.end()) deps.push_back(it->second);
          }
          spec.dependencies = std::move(deps);
          remap.emplace(tagged[i].id,
                        retry_pool.SetStreamCommand(
                            retry_stream,
                            stream::PoolCommand{std::move(spec), {}}));
        }
        if (tracer != nullptr) {
          stream::PoolTraceSink sink;
          sink.tracer = tracer;
          sink.context = trace_ctx;
          sink.parent = retry_span;
          sink.sim_base = total_makespan;  // retries start after the backoff
          for (std::size_t i : members) {
            sink.categories.push_back(CategoryName(tagged[i].category));
          }
          retry_pool.set_trace(std::move(sink));
        }
        retry_pool.StartStreams();
        const sim::TimelineStats& retry_stats = retry_pool.WaitAll();
        ++report.retry_attempts;
        if (last_detected) ++report.corruption_reexecutions;
        total_makespan += retry_stats.makespan;
        report.fault_count += retry_stats.fault_count;
        if (tracer != nullptr) {
          tracer->EndSpan(trace_ctx, retry_span, total_makespan);
        }
        check_deadline();

        // Classify this attempt. Retry-pool command k re-ran members[k], so
        // corruption is judged against the original command's kind/unit.
        bool retry_loud = !retry_stats.AllOk();
        bool retry_detected = false;
        std::size_t retry_silent = 0;
        for (std::size_t k = 0; k < members.size(); ++k) {
          const sim::CommandTiming& timing = retry_stats.commands[k];
          if (!timing.ok || !timing.corrupted) continue;
          ++report.corrupted_commands;
          if (caught(tagged[members[k]].kind, unit)) {
            ++report.corruption_detected;
            retry_detected = true;
          } else {
            ++retry_silent;
          }
        }
        last_loud = retry_loud;
        last_detected = retry_detected;
        if (!retry_loud && !retry_detected) {
          recovered = true;
          // Accepted attempt: any unnoticed corruption in it is final.
          if (retry_silent > 0) {
            report.corruption_undetected += retry_silent;
            silent_clusters.insert(static_cast<std::size_t>(
                unit_cluster[static_cast<std::size_t>(unit)]));
          }
          break;
        }
      }
      if (!recovered) {
        const int cluster = unit_cluster[static_cast<std::size_t>(unit)];
        if (last_loud) {
          failed_loud.insert(cluster);
        } else {
          failed_corrupt.insert(cluster);
        }
      }
    }

    std::set<int> failed_clusters = failed_loud;
    failed_clusters.insert(failed_corrupt.begin(), failed_corrupt.end());
    for (int failed_cluster : failed_clusters) {
      const std::string label =
          cluster_label(plan.clusters[static_cast<std::size_t>(failed_cluster)]);
      if (!res.degrade_to_host) {
        KF_REQUIRE_AS(::kf::DeviceFault, failed_loud.count(failed_cluster) == 0)
            << "cluster '" << label << "' still failing after "
            << res.max_retries << " retries";
        KF_FAIL_AS(::kf::DataCorruption)
            << "cluster '" << label << "' still returning corrupt bytes after "
            << corruption_budget << " re-executions";
      }
      // Graceful degradation: rerun the whole cluster on the host engine.
      // Functional results were computed host-side up front, so the answer is
      // byte-identical; only the simulated clock pays the host cost. The host
      // rerun replaces the cluster's outputs wholesale, washing out any
      // silent corruption previously recorded for it.
      const SimTime degrade_start = total_makespan;
      total_makespan += cluster_host_time[static_cast<std::size_t>(failed_cluster)];
      ++report.degraded_clusters;
      report.degraded = true;
      silent_clusters.erase(static_cast<std::size_t>(failed_cluster));
      if (tracer != nullptr) {
        const obs::SpanId cluster_span =
            cluster_spans[static_cast<std::size_t>(failed_cluster)];
        tracer->Annotate(trace_ctx, cluster_span,
                         obs::SpanAnnotationKind::kDegraded,
                         "degraded to host engine after exhausted retries",
                         degrade_start);
        tracer->AddSpan(trace_ctx, cluster_span, "degraded host rerun: " + label,
                        "host", degrade_start, total_makespan, "compute");
      }
      check_deadline();
    }
  }
  report.silent_corruption = !silent_clusters.empty();
  check_deadline();

  report.makespan = total_makespan;
  report.timeline.makespan = total_makespan;
  report.peak_device_bytes = memory.high_water_mark();
  report.leaked_device_bytes = memory.used();

  if (tracer != nullptr) {
    if (options.force_host) {
      tracer->Annotate(trace_ctx, root_span, obs::SpanAnnotationKind::kPlacement,
                       "force_host: all clusters on the host engine", 0.0);
    }
    if (report.corruption_undetected > 0) {
      tracer->Annotate(trace_ctx, root_span, obs::SpanAnnotationKind::kCorruption,
                       std::to_string(report.corruption_undetected) +
                           " corruption(s) escaped detection",
                       total_makespan);
    }
    tracer->EndSpan(trace_ctx, root_span, total_makespan);
    // Span-derived totals for the report: root coverage plus main-run leaf
    // occupancy per stage category (cross-checkable against the stage sums
    // below — exact on fault-free serial runs, where commands never share
    // an engine or stretch under stalls).
    report.trace_covered = total_makespan;
    for (std::size_t i = 0; i < tagged.size(); ++i) {
      const sim::CommandTiming& timing = report.timeline.commands[tagged[i].id];
      report.trace_stage_seconds[CategoryName(tagged[i].category)] +=
          timing.end - timing.start;
    }
    report.trace_spans =
        tracer->Snapshot(trace_ctx.query_id).spans.size() -
        (static_cast<std::size_t>(root_span) - 1);
  }

  for (const TaggedCommand& cmd : tagged) {
    switch (cmd.category) {
      case Category::kInputOutput:
        report.input_output_time += cmd.duration;
        break;
      case Category::kRoundTrip:
        report.round_trip_time += cmd.duration;
        break;
      case Category::kCompute:
        report.compute_time += cmd.duration;
        report.kernel_launches += static_cast<std::size_t>(std::max(1, cmd.launches));
        break;
      case Category::kHostGather:
        report.host_gather_time += cmd.duration;
        break;
      case Category::kIntegrity:
        report.integrity_time += cmd.duration;
        break;
    }
  }
  for (const TaggedCommand& cmd : tagged) {
    if (cmd.kind == sim::CommandKind::kCopyH2D) report.h2d_bytes += cmd.bytes;
    if (cmd.kind == sim::CommandKind::kCopyD2H) report.d2h_bytes += cmd.bytes;
  }

  if (sources != nullptr) {
    for (NodeId sink : sinks) {
      auto it = computed.find(sink);
      if (it != computed.end()) {
        report.sink_results.emplace(sink, std::move(it->second));
      } else if (sources->count(sink) != 0) {
        report.sink_results.emplace(sink, sources->at(sink));
      }
    }

    // Undetected corruption becomes real wrong answers: flip a deterministic
    // bit in every sink table downstream-reachable from a silently-corrupted
    // cluster. Only this run's returned tables change; a re-run with
    // verification recomputes the true bytes from the sources.
    for (std::size_t c : silent_clusters) {
      std::set<NodeId> reached;
      std::vector<NodeId> frontier(plan.clusters[c].outputs.begin(),
                                   plan.clusters[c].outputs.end());
      while (!frontier.empty()) {
        const NodeId n = frontier.back();
        frontier.pop_back();
        if (!reached.insert(n).second) continue;
        for (NodeId consumer : graph.Consumers(n)) frontier.push_back(consumer);
      }
      const std::uint64_t base_seed =
          options.fault_injector != nullptr
              ? options.fault_injector->config().seed
              : 0;
      for (NodeId sink : sinks) {
        if (reached.count(sink) == 0) continue;
        auto it = report.sink_results.find(sink);
        if (it == report.sink_results.end()) continue;
        std::uint64_t state =
            base_seed ^ (c * 0x9e3779b97f4a7c15ULL) ^
            (static_cast<std::uint64_t>(sink) * 0xbf58476d1ce4e5b9ULL) ^
            0x626974ULL;  // "bit"
        FlipRandomBit(it->second, SplitMix64(state));
      }
    }
  }

  // --- Record the run into the metrics registry, labeled by strategy. Counters
  // accumulate across runs; gauges hold the most recent run; histograms keep
  // every simulated duration. -------------------------------------------------
  const obs::Labels by_strategy{{"strategy", ToString(options.strategy)}};
  metrics.GetCounter("executor.runs", by_strategy).Increment();
  metrics.GetCounter("executor.kernel_launches", by_strategy)
      .Increment(report.kernel_launches);
  metrics.GetCounter("executor.h2d_bytes", by_strategy).Increment(report.h2d_bytes);
  metrics.GetCounter("executor.d2h_bytes", by_strategy).Increment(report.d2h_bytes);
  metrics.GetCounter("executor.spills", by_strategy).Increment(report.spill_count);
  metrics.GetCounter("executor.clusters", by_strategy).Increment(report.cluster_count);
  metrics.GetCounter("executor.fused_clusters", by_strategy)
      .Increment(report.fused_cluster_count);
  metrics.GetHistogram("executor.makespan_seconds", by_strategy)
      .Record(report.makespan);
  auto record_stage = [&](const char* stage, SimTime duration) {
    obs::Labels labels = by_strategy;
    labels.emplace_back("stage", stage);
    metrics.GetHistogram("executor.stage_seconds", labels).Record(duration);
  };
  record_stage("input_output", report.input_output_time);
  record_stage("round_trip", report.round_trip_time);
  record_stage("compute", report.compute_time);
  record_stage("host_gather", report.host_gather_time);
  auto record_busy = [&](const char* engine, SimTime busy) {
    obs::Labels labels = by_strategy;
    labels.emplace_back("engine", engine);
    metrics.GetGauge("executor.engine_busy_seconds", labels).Set(busy);
  };
  record_busy("h2d", report.timeline.h2d_busy);
  record_busy("d2h", report.timeline.d2h_busy);
  record_busy("compute", report.timeline.compute_busy);
  record_busy("host", report.timeline.host_busy);
  metrics.GetGauge("executor.peak_device_bytes", by_strategy)
      .Set(static_cast<double>(report.peak_device_bytes));
  if (options.fault_injector != nullptr || options.force_host) {
    if (report.fault_count > 0) {
      metrics.GetCounter("resilience.faults_observed", by_strategy)
          .Increment(report.fault_count);
    }
    if (report.retry_attempts > 0) {
      metrics.GetCounter("resilience.unit_retries", by_strategy)
          .Increment(report.retry_attempts);
    }
    if (report.degraded_clusters > 0) {
      metrics.GetCounter("resilience.degraded_clusters", by_strategy)
          .Increment(report.degraded_clusters);
    }
    if (report.backoff_time > 0) {
      metrics.GetHistogram("resilience.backoff_seconds", by_strategy)
          .Record(report.backoff_time);
    }
    if (report.ran_on_host) {
      metrics.GetCounter("resilience.host_runs", by_strategy).Increment();
    }
  }
  if (integ.Enabled() || report.corrupted_commands > 0) {
    if (checksummed_bytes > 0) {
      metrics.GetCounter("integrity.checksummed_bytes", by_strategy)
          .Increment(checksummed_bytes);
    }
    if (report.audited_clusters > 0) {
      metrics.GetCounter("integrity.audited_clusters", by_strategy)
          .Increment(report.audited_clusters);
    }
    if (report.corrupted_commands > 0) {
      metrics.GetCounter("integrity.corrupted_commands", by_strategy)
          .Increment(report.corrupted_commands);
    }
    if (report.corruption_detected > 0) {
      metrics.GetCounter("integrity.detected", by_strategy)
          .Increment(report.corruption_detected);
    }
    if (report.corruption_undetected > 0) {
      metrics.GetCounter("integrity.undetected", by_strategy)
          .Increment(report.corruption_undetected);
    }
    if (report.corruption_reexecutions > 0) {
      metrics.GetCounter("integrity.reexecutions", by_strategy)
          .Increment(report.corruption_reexecutions);
    }
    if (integ.Enabled()) record_stage("integrity", report.integrity_time);
  }
  // Snapshot of the host-substrate counters (arena reuse, typed/fallback
  // predicate mix) — updated cold, here, never from the kernel hot paths.
  obs::RecordHostPerfMetrics(metrics);

  return report;
}

}  // namespace kf::core
