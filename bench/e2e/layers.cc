#include "bench/e2e/layers.h"

#include <algorithm>

#include "bench/e2e/stats.h"
#include "core/fusion_planner.h"
#include "core/integrity.h"
#include "server/plan_cache.h"

namespace kf::bench::e2e {

namespace {

using core::NodeId;
using relational::Table;

const char* KindName(relational::OpKind kind) {
  using relational::OpKind;
  switch (kind) {
    case OpKind::kSelect: return "select";
    case OpKind::kProject: return "project";
    case OpKind::kProduct: return "product";
    case OpKind::kJoin: return "join";
    case OpKind::kUnion: return "union";
    case OpKind::kIntersect: return "intersect";
    case OpKind::kDifference: return "difference";
    case OpKind::kAggregate: return "aggregate";
    case OpKind::kArith: return "arith";
    case OpKind::kSort: return "sort";
    case OpKind::kUnique: return "unique";
  }
  return "unknown";
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder* recorder, std::string name)
    : recorder_(recorder), start_(Clock::now()) {
  if (recorder_ != nullptr) recorder_->stack_.push_back(Frame{std::move(name), 0.0});
}

double SpanRecorder::Scope::Close() {
  if (!open_) return duration_s_;
  open_ = false;
  duration_s_ = SecondsBetween(start_, Clock::now());
  if (recorder_ == nullptr) return duration_s_;
  Frame frame = std::move(recorder_->stack_.back());
  recorder_->stack_.pop_back();
  if (!recorder_->stack_.empty()) recorder_->stack_.back().child_s += duration_s_;
  Stat& stat = recorder_->stats_[frame.name];
  ++stat.count;
  stat.total_s += duration_s_;
  stat.self_s += duration_s_ - frame.child_s;
  stat.durations_s.push_back(duration_s_);
  return duration_s_;
}

double SpanRecorder::Median(const std::string& name) const {
  auto it = stats_.find(name);
  return it == stats_.end() ? 0.0 : Percentile(it->second.durations_s, 50.0);
}

void SpanRecorder::Attribute(const std::string& from, const std::string& to,
                             double seconds) {
  stats_[from].self_s -= seconds;
  Stat& stat = stats_[to];
  ++stat.count;
  stat.total_s += seconds;
  stat.self_s += seconds;
  stat.durations_s.push_back(seconds);
}

obs::Json SpanRecorder::ToJson() const {
  obs::Json out = obs::Json::MakeObject();
  for (const auto& [name, stat] : stats_) {
    obs::Json entry = obs::Json::MakeObject();
    entry["count"] = obs::Json(stat.count);
    entry["total_s"] = obs::Json(stat.total_s);
    entry["self_s"] = obs::Json(stat.self_s);
    entry["p50_s"] = obs::Json(Percentile(stat.durations_s, 50.0));
    out[name] = std::move(entry);
  }
  return out;
}

double PhaseResult::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

void PhaseResult::AddReport(const core::ExecutionReport& r, double weight) {
  if (!counting()) return;
  sim_s += r.makespan * weight;
  Count("queries", 1.0);
  Count("core.clusters", static_cast<double>(r.cluster_count) * weight);
  Count("core.fused_clusters", static_cast<double>(r.fused_cluster_count) * weight);
  Count("core.launches", static_cast<double>(r.kernel_launches) * weight);
  Count("core.h2d_bytes", static_cast<double>(r.h2d_bytes) * weight);
  Count("core.d2h_bytes", static_cast<double>(r.d2h_bytes) * weight);
  Count("core.retry_attempts", static_cast<double>(r.retry_attempts) * weight);
  Count("core.integrity.detected", static_cast<double>(r.corruption_detected) * weight);
  Count("core.integrity.reexecutions",
        static_cast<double>(r.corruption_reexecutions) * weight);
  Count("core.integrity.audited", static_cast<double>(r.audited_clusters) * weight);
  Count("sim.commands", static_cast<double>(r.timeline.commands.size()) * weight);
  Count("sim.makespan", r.timeline.makespan * weight);
  Count("sim.h2d_busy", r.timeline.h2d_busy * weight);
  Count("sim.d2h_busy", r.timeline.d2h_busy * weight);
  Count("sim.compute_busy", r.timeline.compute_busy * weight);
  Count("sim.faults", static_cast<double>(r.fault_count) * weight);
  Count("sim.stalls", static_cast<double>(r.timeline.stall_count) * weight);
  Count("sim.corrupted", static_cast<double>(r.corrupted_commands) * weight);
}

std::map<NodeId, Table> ReferenceWalk(const core::OpGraph& graph,
                                      const std::map<NodeId, Table>& sources,
                                      SpanRecorder* spans, ReplayResult* result) {
  std::map<NodeId, Table> tables;
  for (NodeId id : graph.TopologicalOrder()) {
    const core::OpNode& node = graph.node(id);
    if (node.is_source) {
      tables.emplace(id, sources.at(id));
      continue;
    }
    const Table& left = tables.at(node.inputs[0]);
    const Table* right = node.inputs.size() > 1 ? &tables.at(node.inputs[1]) : nullptr;
    const char* kind = KindName(node.desc.kind);
    SpanRecorder::Scope scope(spans, std::string("relational.") + kind);
    Table out = relational::ApplyOperator(node.desc, left, right);
    scope.Close();
    if (result != nullptr) {
      result->rows_by_kind[kind] += static_cast<double>(
          left.row_count() + (right != nullptr ? right->row_count() : 0));
    }
    tables.emplace(id, std::move(out));
  }
  return tables;
}

std::map<NodeId, std::uint64_t> SinkChecksums(const core::OpGraph& graph,
                                              const std::map<NodeId, Table>& tables) {
  std::map<NodeId, std::uint64_t> sums;
  for (NodeId sink : graph.Sinks()) sums[sink] = core::ChecksumTable(tables.at(sink));
  return sums;
}

void ReplayLayers(const ReplayQuery& query, const core::QueryExecutor& executor,
                  SpanRecorder& spans, ReplayResult& result) {
  const core::OpGraph& graph = *query.graph;
  const core::FusionOptions fusion = core::EffectiveFusionOptions(query.options);
  ++result.items;
  {
    SpanRecorder::Scope scope(&spans, "server.plan_key");
    (void)server::FusionPlanCache::KeyFor(graph, fusion);
  }
  core::FusionPlan plan;
  {
    SpanRecorder::Scope scope(&spans, "core.plan_fusion");
    plan = core::PlanFusion(graph, fusion);
  }
  core::ExecutorOptions options = query.options;
  options.plan = &plan;
  options.fault_injector = nullptr;
  options.tracer = nullptr;

  std::map<NodeId, std::uint64_t> rows;
  if (query.sources != nullptr) {
    std::map<NodeId, Table> walked;
    {
      SpanRecorder::Scope scope(&spans, "relational.reference");
      walked = ReferenceWalk(graph, *query.sources, &spans, &result);
    }
    for (const auto& [id, table] : walked) {
      if (!graph.node(id).is_source) rows[id] = table.row_count();
    }
  } else {
    rows = *query.row_counts;
  }

  SpanRecorder::Scope estimate_scope(&spans, "core.schedule_sim");
  const core::ExecutionReport estimate = executor.EstimateOnly(graph, rows, options);
  const double estimate_s = estimate_scope.Close();
  result.commands += static_cast<double>(estimate.timeline.commands.size());
  if (query.sources == nullptr) return;

  SpanRecorder::Scope execute_scope(&spans, "core.execute");
  const core::ExecutionReport executed = executor.Execute(graph, *query.sources, options);
  const double execute_s = execute_scope.Close();
  const double functional_s = std::max(0.0, execute_s - estimate_s);
  result.execute_s.push_back(execute_s);
  result.functional_s.push_back(functional_s);
  spans.Attribute("core.execute", "core.functional", functional_s);

  SpanRecorder::Scope checksum_scope(&spans, "common.checksum");
  std::map<NodeId, std::uint64_t> sums;
  for (const auto& [sink, table] : executed.sink_results) {
    sums[sink] = core::ChecksumTable(table);
    result.checksum_bytes += static_cast<double>(table.byte_size());
  }
  checksum_scope.Close();
  if (query.oracle != nullptr && sums != *query.oracle) ++result.wrong;
}

std::vector<LayerMetric> LayerMetrics(const PhaseResult& traced,
                                      const ReplayResult& replay,
                                      const SpanRecorder& spans, double overhead_ratio,
                                      double export_s) {
  const double queries = traced.Counter("queries");
  auto per_query = [&](const std::string& name) {
    return Ratio(traced.Counter(name), queries);
  };
  auto total = [&](const std::string& name) {
    auto it = spans.stats().find(name);
    return it == spans.stats().end() ? 0.0 : it->second.total_s;
  };
  auto mrows_s = [&](const std::string& kind) {
    auto it = replay.rows_by_kind.find(kind);
    const double rows = it == replay.rows_by_kind.end() ? 0.0 : it->second;
    return Ratio(rows, total("relational." + kind)) / 1e6;
  };
  double functional_total = 0.0;
  for (double s : replay.functional_s) functional_total += s;

  return {
      {"server.queue_wait_ms.p50", "ms", "lower", Percentile(traced.queue_wait_s, 50) * 1e3},
      {"server.service_ms.p50", "ms", "lower", Percentile(traced.service_s, 50) * 1e3},
      {"server.overhead_ms.p50", "ms", "lower", Percentile(replay.overhead_s, 50) * 1e3},
      {"server.plan_key_us.p50", "us", "lower", spans.Median("server.plan_key") * 1e6},
      {"server.plan_cache.hit_rate", "ratio", "higher", per_query("server.cache_hits")},
      {"server.batch_size.mean", "count", "higher", per_query("server.batch_size")},
      {"server.merged_share", "ratio", "higher", per_query("server.merged")},
      {"server.retries_per_query", "count", "lower", per_query("server.retries")},
      {"server.degraded_share", "ratio", "lower", per_query("server.degraded")},
      {"server.host_routed_share", "ratio", "lower", per_query("server.host_routed")},
      {"server.sharded_share", "ratio", "higher", per_query("server.sharded")},
      {"core.plan_fusion_us.p50", "us", "lower", spans.Median("core.plan_fusion") * 1e6},
      {"core.merge_graphs_us.p50", "us", "lower", spans.Median("core.merge_graphs") * 1e6},
      {"core.clusters_per_query", "count", "lower", per_query("core.clusters")},
      {"core.fused_clusters_per_query", "count", "higher",
       per_query("core.fused_clusters")},
      {"core.launches_per_query", "count", "lower", per_query("core.launches")},
      {"core.h2d_mb_per_query", "MB", "lower", per_query("core.h2d_bytes") / 1e6},
      {"core.d2h_mb_per_query", "MB", "lower", per_query("core.d2h_bytes") / 1e6},
      {"core.schedule_sim_us.p50", "us", "lower",
       spans.Median("core.schedule_sim") * 1e6},
      {"core.multi_device.estimate_us.p50", "us", "lower",
       spans.Median("core.multi_device.estimate") * 1e6},
      {"core.execute_ms.p50", "ms", "lower", spans.Median("core.execute") * 1e3},
      {"core.functional_ms.p50", "ms", "lower", Percentile(replay.functional_s, 50) * 1e3},
      {"core.functional_vs_reference", "ratio", "lower",
       Ratio(functional_total, total("relational.reference"))},
      {"core.retry_attempts_per_query", "count", "lower",
       per_query("core.retry_attempts")},
      {"core.integrity.detected_per_query", "count", "higher",
       per_query("core.integrity.detected")},
      {"core.integrity.reexecutions_per_query", "count", "lower",
       per_query("core.integrity.reexecutions")},
      {"core.integrity.audited_per_query", "count", "lower",
       per_query("core.integrity.audited")},
      {"core.multi_device.devices_used.mean", "count", "higher",
       per_query("core.devices_used")},
      {"relational.select.mrows_s", "Mrows/s", "higher", mrows_s("select")},
      {"relational.project.mrows_s", "Mrows/s", "higher", mrows_s("project")},
      {"relational.arith.mrows_s", "Mrows/s", "higher", mrows_s("arith")},
      {"relational.join.mrows_s", "Mrows/s", "higher", mrows_s("join")},
      {"relational.sort.mrows_s", "Mrows/s", "higher", mrows_s("sort")},
      {"relational.aggregate.mrows_s", "Mrows/s", "higher", mrows_s("aggregate")},
      {"relational.reference_ms.p50", "ms", "lower",
       spans.Median("relational.reference") * 1e3},
      {"common.checksum_gbs", "GB/s", "higher",
       Ratio(replay.checksum_bytes, total("common.checksum")) / 1e9},
      {"sim.commands_per_query", "count", "lower", per_query("sim.commands")},
      {"sim.us_per_command", "us", "lower",
       Ratio(total("core.schedule_sim"), replay.commands) * 1e6},
      {"sim.h2d_busy_share", "ratio", "higher",
       Ratio(traced.Counter("sim.h2d_busy"), traced.Counter("sim.makespan"))},
      {"sim.d2h_busy_share", "ratio", "higher",
       Ratio(traced.Counter("sim.d2h_busy"), traced.Counter("sim.makespan"))},
      {"sim.compute_busy_share", "ratio", "higher",
       Ratio(traced.Counter("sim.compute_busy"), traced.Counter("sim.makespan"))},
      {"sim.faults_per_query", "count", "lower", per_query("sim.faults")},
      {"sim.stalls_per_query", "count", "lower", per_query("sim.stalls")},
      {"sim.corrupted_per_query", "count", "lower", per_query("sim.corrupted")},
      {"tpch.datagen_s", "s", "lower", replay.datagen_s},
      {"obs.trace_overhead_ratio", "ratio", "lower", overhead_ratio},
      {"obs.session_export_ms", "ms", "lower", export_s * 1e3},
  };
}

}  // namespace kf::bench::e2e
