// Layer measurement from outside the program: wall-clock spans the harness
// records around its own calls into each module's public functions, the
// per-query counters it reads off execution reports, and the replay of one
// query through every layer in turn.
#ifndef KF_BENCH_E2E_LAYERS_H_
#define KF_BENCH_E2E_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/query_executor.h"
#include "obs/json.h"

namespace kf::bench::e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Nested wall-clock spans keyed by name. Single-threaded: the harness thread
// opens and closes every span. A span's self time is its duration minus the
// time its direct children cover.
class SpanRecorder {
 public:
  struct Stat {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    std::vector<double> durations_s;
  };

  // Closes its span on destruction (or on an explicit Close()). A scope made
  // from a null recorder records nothing, so call sites need no branches for
  // untraced runs.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string name);
    ~Scope() { Close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Returns the span's duration in seconds (0 for a null recorder).
    double Close();

   private:
    SpanRecorder* recorder_;
    Clock::time_point start_;
    double duration_s_ = 0.0;
    bool open_ = true;
  };

  const std::map<std::string, Stat>& stats() const { return stats_; }
  double Median(const std::string& name) const;  // seconds; 0 when absent

  // Moves `seconds` of the self time of spans named `from` into a derived
  // child `to`, for work a span does that no call boundary separates.
  void Attribute(const std::string& from, const std::string& to, double seconds);
  obs::Json ToJson() const;

 private:
  struct Frame {
    std::string name;
    double child_s = 0.0;
  };
  std::vector<Frame> stack_;
  std::map<std::string, Stat> stats_;
};

// A measured phase runs at least this many rounds, and its counters and
// simulated time cover these rounds only: for a seed they then cover the same
// queries, and repeat exactly, whatever the wall speed. adhoc_group needs
// several of its rounds to average its random faults out.
constexpr std::size_t kCountedRounds = 8;

// Everything one measured phase produced. Report-derived counters are
// weighted by 1 / batch size, so a merged batch's launches, bytes and
// simulated time are shared out over the queries it served.
struct PhaseResult {
  // One timed repetition of a workload's fixed unit of work: the latency
  // samples [begin, end) it added and its wall time. Throughput is a median
  // over rounds, so a few seconds of interference from other processes move
  // a few rounds and not the reported value.
  struct Round {
    std::size_t begin = 0;
    std::size_t end = 0;
    double wall_s = 0.0;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // typed errors plus wrong results
  std::uint64_t wrong = 0;   // results the oracle rejected
  double wall_s = 0.0;
  std::vector<double> latency_s;
  std::vector<Round> rounds;
  // Over the first kCountedRounds rounds.
  double sim_s = 0.0;
  std::map<std::string, double> counters;
  // Scheduler workloads only.
  std::vector<double> queue_wait_s;
  std::vector<double> service_s;

  bool counting() const { return rounds.size() < kCountedRounds; }
  double Counter(const std::string& name) const;  // 0 when never counted
  void AddReport(const core::ExecutionReport& report, double weight);
  void Count(const std::string& name, double amount) {
    if (counting()) counters[name] += amount;
  }
};

// Per-item numbers of a replay that spans alone do not give.
struct ReplayResult {
  std::uint64_t items = 0;
  std::uint64_t wrong = 0;
  std::vector<double> functional_s;  // Execute minus EstimateOnly, per item
  std::vector<double> execute_s;     // per item
  // Scheduler workloads: service time of the replayed query or batch in the
  // measured phase minus its replayed Execute.
  std::vector<double> overhead_s;
  std::map<std::string, double> rows_by_kind;
  double checksum_bytes = 0.0;
  double commands = 0.0;
  double datagen_s = 0.0;  // TPC-H workloads: MakeTpchData and plan building
};

// One query as the replay sees it. With `sources` bound the replay walks the
// graph operator at a time, executes it and checksums the sinks; without,
// it only plans and estimates from `row_counts`.
struct ReplayQuery {
  const core::OpGraph* graph = nullptr;
  const std::map<core::NodeId, relational::Table>* sources = nullptr;
  const std::map<core::NodeId, std::uint64_t>* row_counts = nullptr;
  core::ExecutorOptions options;
  // Sink checksums the executed result must reproduce (optional).
  const std::map<core::NodeId, std::uint64_t>* oracle = nullptr;
};

// Calls KeyFor, PlanFusion, the ApplyOperator walk, EstimateOnly and Execute
// (both with the plan supplied, no fault injector) and ChecksumTable, each in
// its own span. Execute's functional pass, its time minus that of the
// EstimateOnly call on the same realized sizes, is attributed to a derived
// child span "core.functional".
void ReplayLayers(const ReplayQuery& query, const core::QueryExecutor& executor,
                  SpanRecorder& spans, ReplayResult& result);

// Operator-at-a-time reference results of every node, keyed by node id.
std::map<core::NodeId, relational::Table> ReferenceWalk(
    const core::OpGraph& graph,
    const std::map<core::NodeId, relational::Table>& sources,
    SpanRecorder* spans = nullptr, ReplayResult* result = nullptr);

// ChecksumTable of every sink of `graph` in `tables`.
std::map<core::NodeId, std::uint64_t> SinkChecksums(
    const core::OpGraph& graph,
    const std::map<core::NodeId, relational::Table>& tables);

// One per-layer metric: name, unit, whether higher or lower is better, and
// the value.
struct LayerMetric {
  std::string name;
  std::string unit;
  std::string better;
  double value = 0.0;
};

// The per-layer metrics of a traced run, the BENCHMARK.json per-layer list.
// Every workload reports all of them; a metric of work the workload does not
// do (merging on a workload without a scheduler, say) reads 0.
std::vector<LayerMetric> LayerMetrics(const PhaseResult& traced,
                                      const ReplayResult& replay,
                                      const SpanRecorder& replay_spans,
                                      double overhead_ratio, double export_s);

}  // namespace kf::bench::e2e

#endif  // KF_BENCH_E2E_LAYERS_H_
