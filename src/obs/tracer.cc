#include "obs/tracer.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <utility>

#include "common/error.h"

namespace kf::obs {

namespace {

std::string EnvTraceDir() {
  const char* env = std::getenv("KF_TRACE_DIR");
  return env != nullptr ? std::string(env) : std::string();
}

Json AnnotationToJson(const SpanAnnotation& annotation) {
  Json::Object out;
  out["kind"] = Json(std::string(ToString(annotation.kind)));
  out["detail"] = Json(annotation.detail);
  out["sim_time"] = Json(annotation.sim_time);
  return Json(std::move(out));
}

Json SpanToJson(const Span& span, bool include_wall) {
  Json::Object out;
  out["id"] = Json(static_cast<std::uint64_t>(span.id));
  out["parent"] = Json(static_cast<std::uint64_t>(span.parent));
  out["name"] = Json(span.name);
  out["lane"] = Json(span.lane);
  if (!span.category.empty()) out["category"] = Json(span.category);
  out["device"] = Json(span.device);
  out["shard"] = Json(span.shard);
  out["attempt"] = Json(span.attempt);
  out["sim_start"] = Json(span.sim_start);
  out["sim_end"] = Json(span.sim_end);
  if (include_wall) {
    out["wall_start"] = Json(span.wall_start);
    out["wall_end"] = Json(span.wall_end);
  }
  if (!span.annotations.empty()) {
    Json annotations = Json::MakeArray();
    for (const SpanAnnotation& a : span.annotations) {
      annotations.push_back(AnnotationToJson(a));
    }
    out["annotations"] = std::move(annotations);
  }
  return Json(std::move(out));
}

}  // namespace

const char* ToString(SpanAnnotationKind kind) {
  switch (kind) {
    case SpanAnnotationKind::kFault: return "fault";
    case SpanAnnotationKind::kStall: return "stall";
    case SpanAnnotationKind::kCorruption: return "corruption";
    case SpanAnnotationKind::kCorruptionDetected: return "corruption_detected";
    case SpanAnnotationKind::kReExecution: return "re_execution";
    case SpanAnnotationKind::kCacheHit: return "cache_hit";
    case SpanAnnotationKind::kCacheMiss: return "cache_miss";
    case SpanAnnotationKind::kBreakerOpen: return "breaker_open";
    case SpanAnnotationKind::kBreakerClose: return "breaker_close";
    case SpanAnnotationKind::kQuarantine: return "quarantine";
    case SpanAnnotationKind::kUnquarantine: return "unquarantine";
    case SpanAnnotationKind::kCalibrationEpoch: return "calibration_epoch";
    case SpanAnnotationKind::kDegraded: return "degraded";
    case SpanAnnotationKind::kPlacement: return "placement";
    case SpanAnnotationKind::kBatchMerge: return "batch_merge";
    case SpanAnnotationKind::kSoloRetry: return "solo_retry";
    case SpanAnnotationKind::kFailure: return "failure";
  }
  return "unknown";
}

const Span* QueryTrace::FindSpan(SpanId id) const {
  if (id == 0 || id > spans.size()) return nullptr;
  return &spans[id - 1];
}

Json QueryTrace::ToJson(bool include_wall) const {
  Json::Object out;
  out["query_id"] = Json(query_id);
  out["finished"] = Json(finished);
  out["failed"] = Json(failed);
  out["failure"] = Json(failure);
  Json span_array = Json::MakeArray();
  for (const Span& span : spans) {
    span_array.push_back(SpanToJson(span, include_wall));
  }
  out["spans"] = std::move(span_array);
  return Json(std::move(out));
}

Tracer::Tracer(TracerOptions options)
    : trace_dir_(options.trace_dir.empty() ? EnvTraceDir()
                                           : std::move(options.trace_dir)),
      origin_(std::chrono::steady_clock::now()) {}

double Tracer::WallNow() const {
  const auto elapsed = std::chrono::steady_clock::now() - origin_;
  return std::chrono::duration<double>(elapsed).count();
}

SpanId Tracer::BeginSpan(const TraceContext& ctx, SpanId parent,
                         std::string name, std::string lane,
                         double sim_start) {
  const double wall = WallNow();
  Stripe& stripe = StripeFor(ctx.query_id);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  QueryTrace& trace = stripe.live[ctx.query_id];
  trace.query_id = ctx.query_id;
  Span span;
  span.id = static_cast<SpanId>(trace.spans.size() + 1);
  span.parent = parent;
  span.name = std::move(name);
  span.lane = std::move(lane);
  span.device = ctx.device;
  span.shard = ctx.shard;
  span.attempt = ctx.attempt;
  span.sim_start = ctx.sim_offset + sim_start;
  span.sim_end = span.sim_start;
  span.wall_start = wall;
  span.wall_end = wall;
  trace.spans.push_back(std::move(span));
  return trace.spans.back().id;
}

void Tracer::EndSpan(const TraceContext& ctx, SpanId id, double sim_end) {
  const double wall = WallNow();
  Stripe& stripe = StripeFor(ctx.query_id);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.live.find(ctx.query_id);
  if (it == stripe.live.end() || id == 0 || id > it->second.spans.size()) return;
  Span& span = it->second.spans[id - 1];
  span.sim_end = ctx.sim_offset + sim_end;
  span.wall_end = wall;
}

void Tracer::SetSpanInterval(const TraceContext& ctx, SpanId id,
                             double sim_start, double sim_end) {
  const double wall = WallNow();
  Stripe& stripe = StripeFor(ctx.query_id);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.live.find(ctx.query_id);
  if (it == stripe.live.end() || id == 0 || id > it->second.spans.size()) return;
  Span& span = it->second.spans[id - 1];
  span.sim_start = ctx.sim_offset + sim_start;
  span.sim_end = ctx.sim_offset + sim_end;
  span.wall_end = wall;
}

void Tracer::SetSpanWall(const TraceContext& ctx, SpanId id, double wall_start,
                         double wall_end) {
  Stripe& stripe = StripeFor(ctx.query_id);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.live.find(ctx.query_id);
  if (it == stripe.live.end() || id == 0 || id > it->second.spans.size()) return;
  Span& span = it->second.spans[id - 1];
  span.wall_start = wall_start;
  span.wall_end = wall_end;
}

SpanId Tracer::AddSpan(const TraceContext& ctx, SpanId parent,
                       std::string name, std::string lane, double sim_start,
                       double sim_end, std::string category) {
  const double wall = WallNow();
  Stripe& stripe = StripeFor(ctx.query_id);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  QueryTrace& trace = stripe.live[ctx.query_id];
  trace.query_id = ctx.query_id;
  Span span;
  span.id = static_cast<SpanId>(trace.spans.size() + 1);
  span.parent = parent;
  span.name = std::move(name);
  span.lane = std::move(lane);
  span.category = std::move(category);
  span.device = ctx.device;
  span.shard = ctx.shard;
  span.attempt = ctx.attempt;
  span.sim_start = ctx.sim_offset + sim_start;
  span.sim_end = ctx.sim_offset + sim_end;
  span.wall_start = wall;
  span.wall_end = wall;
  trace.spans.push_back(std::move(span));
  return trace.spans.back().id;
}

void Tracer::Annotate(const TraceContext& ctx, SpanId id,
                      SpanAnnotationKind kind, std::string detail,
                      double sim_time) {
  Stripe& stripe = StripeFor(ctx.query_id);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.live.find(ctx.query_id);
  if (it == stripe.live.end() || it->second.spans.empty()) return;
  QueryTrace& trace = it->second;
  const SpanId target = id == 0 ? 1 : id;  // id 0 -> the query root span
  if (target > trace.spans.size()) return;
  trace.spans[target - 1].annotations.push_back(
      {kind, std::move(detail), ctx.sim_offset + sim_time});
}

std::string Tracer::FinishQuery(const TraceContext& ctx, bool failed,
                                const std::string& failure) {
  QueryTrace trace;
  {
    Stripe& stripe = StripeFor(ctx.query_id);
    std::lock_guard<std::mutex> lock(stripe.mutex);
    auto it = stripe.live.find(ctx.query_id);
    if (it == stripe.live.end()) return "";
    trace = std::move(it->second);
    stripe.live.erase(it);
  }
  trace.finished = true;
  trace.failed = failed;
  trace.failure = failure;
  finished_count_.fetch_add(1);

  std::string dump_path;
  if (failed && !trace_dir_.empty()) dump_path = WriteDump(trace);

  {
    std::lock_guard<std::mutex> lock(flight_mutex_);
    flight_.push_back(std::move(trace));
    while (flight_.size() > kFlightCapacity) {
      flight_.pop_front();
      dropped_count_.fetch_add(1);
    }
  }
  return dump_path;
}

QueryTrace Tracer::Snapshot(std::uint64_t query_id) const {
  {
    Stripe& stripe = StripeFor(query_id);
    std::lock_guard<std::mutex> lock(stripe.mutex);
    auto it = stripe.live.find(query_id);
    if (it != stripe.live.end()) return it->second;
  }
  std::lock_guard<std::mutex> lock(flight_mutex_);
  for (auto it = flight_.rbegin(); it != flight_.rend(); ++it) {
    if (it->query_id == query_id) return *it;
  }
  return QueryTrace{};
}

std::vector<QueryTrace> Tracer::FlightRecorder() const {
  std::lock_guard<std::mutex> lock(flight_mutex_);
  return {flight_.begin(), flight_.end()};
}

std::string Tracer::WriteDump(const QueryTrace& trace) const {
  std::error_code ec;
  std::filesystem::create_directories(trace_dir_, ec);
  if (ec) return "";
  const std::filesystem::path path =
      std::filesystem::path(trace_dir_) /
      ("trace_query_" + std::to_string(trace.query_id) + ".json");
  std::ofstream out(path);
  if (!out) return "";
  out << trace.ToJson(/*include_wall=*/true).Dump(2) << "\n";
  return path.string();
}

namespace {

// Stable lane -> tid assignment: lanes sorted by name across the whole
// session, tid starts at 1. Deterministic for seeded runs.
std::map<std::string, int> AssignLaneTids(
    const std::vector<QueryTrace>& traces) {
  std::set<std::string> lanes;
  for (const QueryTrace& trace : traces) {
    for (const Span& span : trace.spans) lanes.insert(span.lane);
  }
  std::map<std::string, int> tids;
  int next = 1;
  for (const std::string& lane : lanes) tids[lane] = next++;
  return tids;
}

Json MetadataEvent(const std::string& name, int pid, int tid,
                   const std::string& value) {
  Json::Object args;
  args["name"] = Json(value);
  Json::Object event;
  event["ph"] = Json("M");
  event["name"] = Json(name);
  event["pid"] = Json(pid);
  event["tid"] = Json(tid);
  event["args"] = Json(std::move(args));
  return Json(std::move(event));
}

}  // namespace

Json ToSessionTraceJson(const Tracer& tracer, bool include_wall) {
  // Gather every finished tree; live queries are intentionally excluded so
  // the export never races in-flight span mutation.
  std::vector<QueryTrace> traces = tracer.FlightRecorder();
  std::sort(traces.begin(), traces.end(),
            [](const QueryTrace& a, const QueryTrace& b) {
              return a.query_id < b.query_id;
            });

  const std::map<std::string, int> lane_tids = AssignLaneTids(traces);
  Json events = Json::MakeArray();

  // Process/thread naming metadata: one process per device, one named
  // thread per lane within each device that uses it.
  std::set<std::pair<int, int>> named_threads;
  for (const QueryTrace& trace : traces) {
    for (const Span& span : trace.spans) {
      const int pid = std::max(span.device, 0);
      const int tid = lane_tids.at(span.lane);
      if (named_threads.insert({pid, tid}).second) {
        events.push_back(MetadataEvent("process_name", pid, 0,
                                       "device " + std::to_string(pid)));
        events.push_back(MetadataEvent("thread_name", pid, tid, span.lane));
      }
    }
  }

  std::uint64_t next_flow_id = 1;
  for (const QueryTrace& trace : traces) {
    for (const Span& span : trace.spans) {
      const int pid = std::max(span.device, 0);
      const int tid = lane_tids.at(span.lane);
      Json::Object args;
      args["query"] = Json(trace.query_id);
      args["span"] = Json(static_cast<std::uint64_t>(span.id));
      args["parent"] = Json(static_cast<std::uint64_t>(span.parent));
      args["attempt"] = Json(span.attempt);
      args["shard"] = Json(span.shard);
      if (!span.category.empty()) args["category"] = Json(span.category);
      if (include_wall) {
        args["wall_ms"] = Json((span.wall_end - span.wall_start) * 1e3);
      }
      if (!span.annotations.empty()) {
        Json notes = Json::MakeArray();
        for (const SpanAnnotation& a : span.annotations) {
          std::string note = ToString(a.kind);
          if (!a.detail.empty()) note += ": " + a.detail;
          notes.push_back(Json(std::move(note)));
        }
        args["annotations"] = std::move(notes);
      }
      Json::Object event;
      event["ph"] = Json("X");
      event["name"] = Json(span.name);
      event["cat"] = Json(span.category.empty() ? std::string("span")
                                                : span.category);
      event["pid"] = Json(pid);
      event["tid"] = Json(tid);
      event["ts"] = Json(span.sim_start * 1e6);
      event["dur"] = Json(std::max(span.sim_end - span.sim_start, 0.0) * 1e6);
      event["args"] = Json(std::move(args));
      events.push_back(Json(std::move(event)));
    }

    // Flow events: link a query's spans across attempts and shards so a
    // retried / sharded query reads as one connected story in Perfetto.
    // A span opens a new leg when its attempt or shard differs from its
    // parent's (or it is a non-root span with no parent).
    const Span* root = trace.FindSpan(1);
    if (root == nullptr) continue;
    for (const Span& span : trace.spans) {
      if (span.id == 1) continue;
      const Span* parent = trace.FindSpan(span.parent);
      const Span& from = parent != nullptr ? *parent : *root;
      const bool new_leg = parent == nullptr ||
                           span.attempt != parent->attempt ||
                           span.shard != parent->shard;
      if (!new_leg) continue;
      const std::uint64_t flow_id = next_flow_id++;
      Json::Object start;
      start["ph"] = Json("s");
      start["name"] = Json("query " + std::to_string(trace.query_id));
      start["cat"] = Json("flow");
      start["id"] = Json(flow_id);
      start["pid"] = Json(std::max(from.device, 0));
      start["tid"] = Json(lane_tids.at(from.lane));
      start["ts"] = Json(from.sim_start * 1e6);
      events.push_back(Json(std::move(start)));
      Json::Object finish;
      finish["ph"] = Json("f");
      finish["bp"] = Json("e");
      finish["name"] = Json("query " + std::to_string(trace.query_id));
      finish["cat"] = Json("flow");
      finish["id"] = Json(flow_id);
      finish["pid"] = Json(std::max(span.device, 0));
      finish["tid"] = Json(lane_tids.at(span.lane));
      finish["ts"] = Json(span.sim_start * 1e6);
      events.push_back(Json(std::move(finish)));
    }
  }

  Json::Object root;
  root["traceEvents"] = std::move(events);
  root["displayTimeUnit"] = Json("ms");
  return Json(std::move(root));
}

std::string ToSessionTrace(const Tracer& tracer) {
  return ToSessionTraceJson(tracer).Dump(-1);
}

}  // namespace kf::obs
