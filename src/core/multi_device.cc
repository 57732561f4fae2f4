#include "core/multi_device.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <set>
#include <utility>

#include "common/error.h"

namespace kf::core {

namespace {

using relational::OpKind;
using relational::Table;

// The relation sharding row-slices: every sink's probe-side (inputs[0])
// chain must reach it through SELECT/ARITH/JOIN nodes, every JOIN build
// side must be a source (broadcast whole to each device), and the shard
// source itself must not feed a build side (slicing a build input would
// drop join matches). Returns nullopt when no such source exists.
std::optional<NodeId> FindShardSource(const OpGraph& graph) {
  const std::vector<NodeId> sinks = graph.Sinks();
  if (sinks.empty()) return std::nullopt;
  NodeId shard_source = kNoNode;
  for (NodeId sink : sinks) {
    NodeId cur = sink;
    while (!graph.node(cur).is_source) {
      const OpNode& node = graph.node(cur);
      const OpKind kind = node.desc.kind;
      if (kind != OpKind::kSelect && kind != OpKind::kArith &&
          kind != OpKind::kJoin) {
        return std::nullopt;
      }
      if (kind == OpKind::kJoin &&
          (node.inputs.size() < 2 || !graph.node(node.inputs[1]).is_source)) {
        return std::nullopt;
      }
      cur = node.inputs[0];
    }
    if (shard_source == kNoNode) {
      shard_source = cur;
    } else if (shard_source != cur) {
      return std::nullopt;
    }
  }
  for (NodeId id = 0; id < static_cast<NodeId>(graph.node_count()); ++id) {
    const OpNode& node = graph.node(id);
    if (node.inputs.size() > 1 && node.inputs[1] == shard_source) {
      return std::nullopt;
    }
  }
  return shard_source;
}

// Nodes whose row counts scale with the shard fraction: the shard source
// plus every node on a sink's probe-side chain.
std::set<NodeId> ShardScaledNodes(const OpGraph& graph, NodeId shard_source) {
  std::set<NodeId> scaled;
  scaled.insert(shard_source);
  for (NodeId sink : graph.Sinks()) {
    NodeId cur = sink;
    while (!graph.node(cur).is_source) {
      scaled.insert(cur);
      cur = graph.node(cur).inputs[0];
    }
  }
  return scaled;
}

Table SliceRows(const Table& table, std::uint64_t begin, std::uint64_t end) {
  Table out(table.schema());
  out.AppendRows(table, static_cast<std::size_t>(begin), static_cast<std::size_t>(end));
  return out;
}

// Shard-source row ranges: `bounds[k]..bounds[k+1]` is shard k, equal row
// counts with the remainder rows on the first shards. Always monotone and
// covering [0, total_rows].
std::vector<std::uint64_t> ShardBounds(std::uint64_t total_rows, std::size_t shards) {
  std::vector<std::uint64_t> bounds(shards + 1, 0);
  bounds[shards] = total_rows;
  const std::uint64_t base = total_rows / shards;
  const std::uint64_t remainder = total_rows % shards;
  for (std::size_t k = 1; k < shards; ++k) {
    bounds[k] = bounds[k - 1] + base + (k <= remainder ? 1 : 0);
  }
  return bounds;
}

// One shard's assignment: a contiguous row range of the shard source.
struct ShardSlot {
  int device = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

}  // namespace

bool MultiDeviceExecutor::Shardable(const OpGraph& graph) {
  return FindShardSource(graph).has_value();
}

std::vector<int> MultiDeviceExecutor::ActiveDevices(
    const MultiDeviceOptions& options) const {
  std::vector<int> active = options.devices;
  if (active.empty()) {
    for (int i = 0; i < group_.device_count(); ++i) active.push_back(i);
  }
  std::set<int> seen;
  for (int d : active) {
    KF_REQUIRE_AS(::kf::InvalidArgument, d >= 0 && d < group_.device_count())
        << "device index " << d << " out of range (group has "
        << group_.device_count() << ")";
    KF_REQUIRE_AS(::kf::InvalidArgument, seen.insert(d).second)
        << "device index " << d << " listed twice";
  }
  return active;
}

const sim::FaultInjector* MultiDeviceExecutor::InjectorFor(
    int device, const MultiDeviceOptions& options) const {
  const auto& injectors = options.per_device_injectors;
  if (device < static_cast<int>(injectors.size()) &&
      injectors[static_cast<std::size_t>(device)] != nullptr) {
    return injectors[static_cast<std::size_t>(device)];
  }
  return options.base.fault_injector;
}

MultiDeviceReport MultiDeviceExecutor::Execute(
    const OpGraph& graph, const std::map<NodeId, relational::Table>& sources,
    const MultiDeviceOptions& options) const {
  return Run(graph, &sources, {}, options);
}

MultiDeviceReport MultiDeviceExecutor::EstimateOnly(
    const OpGraph& graph, const std::map<NodeId, std::uint64_t>& row_counts,
    const MultiDeviceOptions& options) const {
  return Run(graph, nullptr, row_counts, options);
}

MultiDeviceReport MultiDeviceExecutor::Run(
    const OpGraph& graph, const std::map<NodeId, relational::Table>* sources,
    const std::map<NodeId, std::uint64_t>& row_counts,
    const MultiDeviceOptions& options) const {
  const std::vector<int> active = ActiveDevices(options);
  obs::MetricsRegistry& gm = options.base.metrics != nullptr
                                 ? *options.base.metrics
                                 : obs::MetricsRegistry::Default();

  // Single-device execution on group device `idx` (also the host-fallback
  // vehicle). Uses the persistent device directly — no contention, no
  // slicing — so one active device degenerates to QueryExecutor exactly.
  std::function<MultiDeviceReport(int, bool)> run_single =
      [&](int idx, bool force_host) -> MultiDeviceReport {
    ExecutorOptions opts = options.base;
    opts.fault_injector = InjectorFor(idx, options);
    opts.trace.device = idx;
    if (force_host) {
      opts.force_host = true;
      opts.fault_injector = nullptr;  // the host engine has no device faults
    }
    QueryExecutor executor(group_.device(idx));
    MultiDeviceReport out;
    ShardReport shard;
    shard.device = idx;
    try {
      shard.report = sources != nullptr
                         ? executor.Execute(graph, *sources, opts)
                         : executor.EstimateOnly(graph, row_counts, opts);
    } catch (const kf::CapacityExceeded&) {
      if (force_host) throw;
      gm.GetCounter("sim.group.host_fallbacks").Increment();
      if (options.base.tracer != nullptr) {
        options.base.tracer->Annotate(
            options.base.trace, 0, obs::SpanAnnotationKind::kDegraded,
            "group host fallback: device capacity exceeded", 0.0);
      }
      MultiDeviceReport fallback = run_single(idx, /*force_host=*/true);
      fallback.host_fallback = true;
      return fallback;
    }
    // The sink tables move to `combined` (only the sharded combine reads
    // per-shard sink results); every other field is copied.
    auto sink_results = std::exchange(shard.report.sink_results, {});
    out.combined = shard.report;
    out.combined.sink_results = std::move(sink_results);
    shard.rows = 0;
    out.shards.push_back(std::move(shard));
    out.devices_used = 1;
    return out;
  };

  const std::optional<NodeId> shard_source = FindShardSource(graph);
  if (!shard_source.has_value() || active.size() < 2) {
    return run_single(active.front(), /*force_host=*/false);
  }

  // Shard-source row count: the bound table in functional mode, the
  // caller's override (falling back to the row hint) in estimate mode.
  std::uint64_t total_rows = 0;
  if (sources != nullptr) {
    total_rows = sources->at(*shard_source).row_count();
  } else {
    auto it = row_counts.find(*shard_source);
    total_rows =
        it != row_counts.end() ? it->second : graph.node(*shard_source).row_hint;
  }

  const std::vector<std::uint64_t> bounds = ShardBounds(total_rows, active.size());
  std::vector<ShardSlot> slots;
  for (std::size_t k = 0; k < active.size(); ++k) {
    if (bounds[k + 1] > bounds[k]) {
      slots.push_back({active[k], bounds[k], bounds[k + 1]});
    }
  }
  // More devices than rows (or an empty input) leaves fewer populated
  // shards than devices; one or zero shards is just a single-device run.
  if (slots.size() < 2) {
    return run_single(slots.empty() ? active.front() : slots.front().device,
                      /*force_host=*/false);
  }

  const int devices_used = static_cast<int>(slots.size());
  const double derating = group_.TransferDerating(devices_used);
  const std::set<NodeId> scaled_nodes = ShardScaledNodes(graph, *shard_source);

  std::vector<ShardReport> shards;
  shards.reserve(slots.size());
  try {
    for (const ShardSlot& slot : slots) {
      const sim::DeviceSimulator view =
          group_.ContendedView(slot.device, devices_used);
      gm.GetCounter("sim.group.contended_views").Increment();
      gm.GetGauge("sim.group.transfer_derating").Set(derating);
      QueryExecutor executor(view);
      ExecutorOptions opts = options.base;
      opts.fault_injector = InjectorFor(slot.device, options);
      // Shard tracing: each shard's execute span carries its device and
      // shard index, so the session exporter links them back to the query
      // with flow events.
      opts.trace.device = slot.device;
      opts.trace.shard = static_cast<int>(shards.size());

      ShardReport shard;
      shard.device = slot.device;
      shard.rows = slot.end - slot.begin;
      if (sources != nullptr) {
        std::map<NodeId, Table> shard_sources;
        for (const auto& [id, table] : *sources) {
          if (id == *shard_source) {
            shard_sources.emplace(id, SliceRows(table, slot.begin, slot.end));
          } else {
            shard_sources.emplace(id, table);  // broadcast build tables whole
          }
        }
        shard.report = executor.Execute(graph, shard_sources, opts);
      } else {
        const double fraction =
            total_rows > 0
                ? static_cast<double>(shard.rows) / static_cast<double>(total_rows)
                : 0.0;
        std::map<NodeId, std::uint64_t> shard_counts = row_counts;
        for (NodeId id : scaled_nodes) {
          auto it = row_counts.find(id);
          const std::uint64_t full =
              it != row_counts.end()
                  ? it->second
                  : (graph.node(id).is_source ? graph.node(id).row_hint : 0);
          if (id == *shard_source) {
            shard_counts[id] = shard.rows;
          } else if (it != row_counts.end() || graph.node(id).is_source) {
            shard_counts[id] = static_cast<std::uint64_t>(
                std::llround(static_cast<double>(full) * fraction));
          }
        }
        shard.report = executor.EstimateOnly(graph, shard_counts, opts);
      }
      shards.push_back(std::move(shard));
    }
  } catch (const kf::CapacityExceeded&) {
    // Group-wide capacity failure: a shard's working set cannot fit even
    // after the executor's own segmentation. Degrade the whole query to
    // the host engine rather than failing it.
    gm.GetCounter("sim.group.host_fallbacks").Increment();
    if (options.base.tracer != nullptr) {
      options.base.tracer->Annotate(
          options.base.trace, 0, obs::SpanAnnotationKind::kDegraded,
          "group host fallback: a shard exceeded device capacity", 0.0);
    }
    MultiDeviceReport fallback = run_single(active.front(), /*force_host=*/true);
    fallback.host_fallback = true;
    return fallback;
  }

  // --- Combine: slowest shard bounds the group makespan; traffic and fault
  // counters sum; results concatenate in shard (device) order. -------------
  std::size_t slowest = 0;
  for (std::size_t i = 1; i < shards.size(); ++i) {
    if (shards[i].report.makespan > shards[slowest].report.makespan) slowest = i;
  }

  MultiDeviceReport out;
  out.combined = shards[slowest].report;
  out.devices_used = devices_used;
  out.sharded = true;
  out.transfer_derating = derating;

  ExecutionReport& combined = out.combined;
  combined.input_output_time = combined.round_trip_time = 0.0;
  combined.compute_time = combined.host_gather_time = 0.0;
  combined.backoff_time = 0.0;
  combined.h2d_bytes = combined.d2h_bytes = 0;
  combined.peak_device_bytes = combined.leaked_device_bytes = 0;
  combined.kernel_launches = combined.spill_count = 0;
  combined.fault_count = combined.retried_units = combined.retry_attempts = 0;
  combined.degraded_clusters = combined.host_placed_clusters = 0;
  combined.degraded = combined.ran_on_host = false;
  combined.corrupted_commands = combined.corruption_detected = 0;
  combined.corruption_undetected = combined.corruption_reexecutions = 0;
  combined.audited_clusters = 0;
  combined.silent_corruption = false;
  combined.integrity_time = 0.0;
  SimTime max_makespan = 0.0;
  for (const ShardReport& shard : shards) {
    const ExecutionReport& r = shard.report;
    max_makespan = std::max(max_makespan, r.makespan);
    combined.input_output_time += r.input_output_time;
    combined.round_trip_time += r.round_trip_time;
    combined.compute_time += r.compute_time;
    combined.host_gather_time += r.host_gather_time;
    combined.backoff_time += r.backoff_time;
    combined.h2d_bytes += r.h2d_bytes;
    combined.d2h_bytes += r.d2h_bytes;
    combined.peak_device_bytes = std::max(combined.peak_device_bytes, r.peak_device_bytes);
    combined.leaked_device_bytes += r.leaked_device_bytes;
    combined.kernel_launches += r.kernel_launches;
    combined.spill_count += r.spill_count;
    combined.fault_count += r.fault_count;
    combined.retried_units += r.retried_units;
    combined.retry_attempts += r.retry_attempts;
    combined.degraded_clusters += r.degraded_clusters;
    combined.host_placed_clusters += r.host_placed_clusters;
    combined.degraded = combined.degraded || r.degraded;
    combined.ran_on_host = combined.ran_on_host || r.ran_on_host;
    combined.corrupted_commands += r.corrupted_commands;
    combined.corruption_detected += r.corruption_detected;
    combined.corruption_undetected += r.corruption_undetected;
    combined.corruption_reexecutions += r.corruption_reexecutions;
    combined.audited_clusters += r.audited_clusters;
    combined.silent_corruption = combined.silent_corruption || r.silent_corruption;
    combined.integrity_time += r.integrity_time;
  }

  // Cross-device gather: the host concatenates every shard's sink rows into
  // the final result. One streaming pass over the result bytes — shards
  // arrive in order, so unlike the fission reorder gather of Fig 15 there is
  // no second permutation pass.
  std::uint64_t sink_bytes = 0;
  if (sources != nullptr) {
    combined.sink_results.clear();
    for (NodeId sink : graph.Sinks()) {
      Table merged(graph.node(sink).schema);
      std::size_t rows = 0;
      for (const ShardReport& shard : shards) {
        rows += shard.report.sink_results.at(sink).row_count();
      }
      merged.Reserve(rows);
      for (const ShardReport& shard : shards) {
        const Table& part = shard.report.sink_results.at(sink);
        merged.AppendRows(part, 0, part.row_count());
      }
      sink_bytes += merged.byte_size();
      combined.sink_results.emplace(sink, std::move(merged));
    }
  } else {
    for (NodeId sink : graph.Sinks()) {
      auto it = row_counts.find(sink);
      const std::uint64_t rows = it != row_counts.end() ? it->second : total_rows;
      sink_bytes += rows * graph.node(sink).schema.row_width_bytes();
    }
  }
  out.gather_time =
      group_.device(active.front())
          .MakeHostWork(sink_bytes, "multi_device gather")
          .duration;
  // Gather verification: with checksummed transfers on, the host re-verifies
  // every shard's sink bytes as it concatenates them (a second streaming
  // pass), so cross-device assembly is covered end to end.
  if (options.base.integrity.verify_transfers && sink_bytes > 0) {
    const SimTime verify_time =
        group_.device(active.front())
            .MakeHostWork(sink_bytes, "multi_device gather verify")
            .duration;
    out.gather_time += verify_time;
    combined.integrity_time += verify_time;
    gm.GetHistogram("sim.group.gather_checksum_seconds").Record(verify_time);
  }
  combined.makespan = max_makespan + out.gather_time;
  combined.host_gather_time += out.gather_time;

  // Cross-device gather span: the host-side concatenation (and optional
  // verification) that serializes after the slowest shard.
  if (options.base.tracer != nullptr) {
    obs::TraceContext gather_ctx = options.base.trace;
    gather_ctx.device = active.front();
    options.base.tracer->AddSpan(gather_ctx, options.base.trace_parent,
                                 "multi-device gather", "host", max_makespan,
                                 combined.makespan, "host_gather");
  }

  gm.GetCounter("sim.group.sharded_runs").Increment();
  gm.GetGauge("sim.group.devices_used").Set(static_cast<double>(devices_used));
  gm.GetHistogram("sim.group.gather_seconds").Record(out.gather_time);
  for (const ShardReport& shard : shards) {
    const std::string& label = group_.device(shard.device).instance_label();
    gm.GetCounter("sim.group.shard_rows", {{"device", label}})
        .Increment(shard.rows);
    gm.GetHistogram("sim.group.shard_makespan_seconds", {{"device", label}})
        .Record(shard.report.makespan);
  }

  out.shards = std::move(shards);
  return out;
}

}  // namespace kf::core
