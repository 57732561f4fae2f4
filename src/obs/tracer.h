// End-to-end query tracing: span trees, a session-wide Perfetto exporter,
// and a failure flight recorder.
//
// The paper's argument is a timing decomposition (Figs 9/10: input-output vs
// round-trip vs compute), and the metrics registry only aggregates those
// numbers. The tracer keeps the per-query picture: every layer of the stack
// (scheduler admission, planning, fusion clusters, fission segments, retries,
// integrity chasers, per-command stream activity) records spans into a tree
// keyed by a propagated TraceContext, carrying both virtual sim-time and
// wall-time plus typed annotations (fault, stall, corruption, re-execution,
// cache hit/miss, breaker/quarantine transitions, calibration epochs).
//
// Two sinks:
//   * ToSessionTrace() renders every recorded query into one Chrome
//     trace-event JSON document (pid = device, tid = lane, flow events
//     linking a query's spans across retries and shards) that loads directly
//     in ui.perfetto.dev. It is the only Chrome exporter. The executor
//     records one leaf span per stream command from its schedule (see
//     examples/streaming_fission.cpp for a traced fission run).
//   * A bounded flight recorder retains the last 64 finished query trees; any
//     query finishing with a typed failure dumps its full tree as JSON into
//     `KF_TRACE_DIR` (or TracerOptions::trace_dir), so fuzz/soak/CI failures
//     ship their own trace.
//
// Thread safety: span storage is lock-striped by query id, so concurrent
// scheduler workers tracing different queries never contend on one mutex.
// All sim-time fields are deterministic for seeded runs; wall-time fields are
// excluded from deterministic serializations (ToJson(include_wall=false)).
#ifndef KF_OBS_TRACER_H_
#define KF_OBS_TRACER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"

namespace kf::obs {

// Propagated alongside a query through scheduler -> executor.
// `sim_offset` re-bases run-local virtual times onto the session's device
// clock so concurrent queries land side by side in the session trace.
struct TraceContext {
  std::uint64_t query_id = 0;
  int attempt = 0;    // whole-query attempt (scheduler-level retries)
  int device = 0;     // group device index (0 for standalone devices)
  int shard = -1;     // multi-device shard index; -1 when unsharded
  double sim_offset = 0.0;
};

enum class SpanAnnotationKind {
  kFault,               // injected device fault (copy/kernel/oom)
  kStall,               // stream stall stretched a command
  kCorruption,          // silent corruption happened (ground truth)
  kCorruptionDetected,  // the integrity layer caught corrupted bytes
  kReExecution,         // a retry unit re-ran after fault/corruption
  kCacheHit,            // plan cache hit
  kCacheMiss,           // plan cache miss
  kBreakerOpen,         // circuit breaker opened on this query's device
  kBreakerClose,        // circuit breaker closed again (probe succeeded)
  kQuarantine,          // device quarantined
  kUnquarantine,        // device released from quarantine
  kCalibrationEpoch,    // cost-model calibration epoch observed at plan time
  kDegraded,            // cluster degraded to the host engine
  kPlacement,           // scheduler placed the batch on a device
  kBatchMerge,          // query executed as part of a merged batch
  kSoloRetry,           // merged batch failed; query re-ran solo
  kFailure,             // query finished with a typed error
};
const char* ToString(SpanAnnotationKind kind);

// Span ids are dense per query: spans[i].id == i + 1; 0 means "no parent".
using SpanId = std::uint32_t;

struct SpanAnnotation {
  SpanAnnotationKind kind = SpanAnnotationKind::kFault;
  std::string detail;
  double sim_time = 0.0;
};

struct Span {
  SpanId id = 0;
  SpanId parent = 0;
  std::string name;
  std::string lane;      // session-trace thread grouping ("scheduler",
                         // "executor", "stream 0", "host", ...)
  std::string category;  // executor stage for leaf commands (input_output,
                         // round_trip, compute, host_gather, integrity)
  int device = 0;
  int shard = -1;
  int attempt = 0;
  double sim_start = 0.0;
  double sim_end = 0.0;
  double wall_start = 0.0;  // seconds since tracer construction
  double wall_end = 0.0;
  std::vector<SpanAnnotation> annotations;
};

// One query's full span tree.
struct QueryTrace {
  std::uint64_t query_id = 0;
  bool finished = false;
  bool failed = false;
  std::string failure;  // error code string for failed queries

  std::vector<Span> spans;  // allocation order; spans[i].id == i + 1

  bool empty() const { return spans.empty(); }
  const Span* FindSpan(SpanId id) const;
  // Serializes the tree. `include_wall == false` drops every wall-clock
  // field, leaving only deterministic content (the determinism tests compare
  // these dumps byte-for-byte across identical seeded runs).
  Json ToJson(bool include_wall = true) const;
};

struct TracerOptions {
  // Directory for failure dumps. Empty falls back to $KF_TRACE_DIR; if that
  // is also unset, no dumps are written.
  std::string trace_dir;
};

class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Monotonic query-id allocator (first id is 1). Callers that already have
  // stable ids (the scheduler) may use their own instead.
  std::uint64_t NextQueryId() { return next_query_id_.fetch_add(1) + 1; }

  // Opens a span; sim_start is run-local and gets ctx.sim_offset added.
  // Returns the new span's id (parent for children).
  SpanId BeginSpan(const TraceContext& ctx, SpanId parent, std::string name,
                   std::string lane, double sim_start);
  // Closes a span. Unknown ids are ignored (a span may outlive pruning).
  void EndSpan(const TraceContext& ctx, SpanId id, double sim_end);
  // Rewrites a span's sim interval (used when the real interval is only
  // known after the timeline ran) and closes its wall interval now.
  void SetSpanInterval(const TraceContext& ctx, SpanId id, double sim_start,
                       double sim_end);
  // Rewrites a span's wall interval (WallNow seconds), for work timed before
  // its span was opened.
  void SetSpanWall(const TraceContext& ctx, SpanId id, double wall_start,
                   double wall_end);
  // Records a complete leaf span in one call.
  SpanId AddSpan(const TraceContext& ctx, SpanId parent, std::string name,
                 std::string lane, double sim_start, double sim_end,
                 std::string category = "");
  // Attaches a typed annotation to a span (id 0 targets the query root).
  void Annotate(const TraceContext& ctx, SpanId id, SpanAnnotationKind kind,
                std::string detail, double sim_time);

  // Moves the query's tree into the flight recorder. A failed finish with a
  // configured trace dir writes the full tree as JSON and returns the path
  // (empty when no dump was written).
  std::string FinishQuery(const TraceContext& ctx, bool failed,
                          const std::string& failure);

  // Copies one query's tree (live or flight-recorded); empty() when unknown.
  QueryTrace Snapshot(std::uint64_t query_id) const;
  // Flight-recorder contents, oldest first.
  std::vector<QueryTrace> FlightRecorder() const;

  const std::string& trace_dir() const { return trace_dir_; }
  std::size_t finished_count() const { return finished_count_.load(); }
  std::size_t dropped_count() const { return dropped_count_.load(); }

  // Seconds since tracer construction (steady clock).
  double WallNow() const;

  // Finished trees the flight recorder retains (a ring, oldest dropped).
  static constexpr std::size_t kFlightCapacity = 64;

 private:
  struct Stripe {
    mutable std::mutex mutex;
    std::map<std::uint64_t, QueryTrace> live;
  };

  // Lock stripes for live queries.
  static constexpr std::size_t kStripeCount = 16;

  Stripe& StripeFor(std::uint64_t query_id) const {
    return stripes_[query_id % kStripeCount];
  }
  std::string WriteDump(const QueryTrace& trace) const;

  std::string trace_dir_;
  std::chrono::steady_clock::time_point origin_;
  std::atomic<std::uint64_t> next_query_id_{0};
  std::atomic<std::size_t> finished_count_{0};
  std::atomic<std::size_t> dropped_count_{0};

  mutable std::array<Stripe, kStripeCount> stripes_;

  mutable std::mutex flight_mutex_;
  std::deque<QueryTrace> flight_;
};

// Renders every query the tracer has seen (live and flight-recorded) into a
// Chrome trace-event JSON document: pid = device, tid = lane, complete ("X")
// slices per span, flow events linking a query's spans across attempts and
// shards. Open the output in ui.perfetto.dev or chrome://tracing.
Json ToSessionTraceJson(const Tracer& tracer, bool include_wall = true);
std::string ToSessionTrace(const Tracer& tracer);

}  // namespace kf::obs

#endif  // KF_OBS_TRACER_H_
