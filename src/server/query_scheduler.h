// Concurrent multi-query serving on top of QueryExecutor.
//
// The paper's stated ongoing work is sharing data paths *across* queries;
// `graph_merge` implements the graph splice, and this layer makes it a
// serving system: clients submit operator graphs asynchronously and get a
// future; a bounded admission queue applies backpressure; worker threads
// batch compatible in-flight queries through `MergeGraphs` so one scan of a
// shared relation feeds every query in the batch (cross-query kernel
// fusion); a `FusionPlanCache` keyed by canonical graph shape lets repeated
// query templates skip the fusion planner entirely; and an admission
// controller arbitrates the simulated device's 6 GB memory across
// concurrent batches.
//
// One serving path: every scheduler serves a `sim::DeviceGroup` through
// `core::MultiDeviceExecutor`; a standalone device is served as a group of
// one that mirrors it.
//
// Device-time accounting: each device is one shared resource, so the
// scheduler keeps a virtual clock per device — a batch starts when its
// devices are free (and no earlier than its latest member's submit) and
// advances them by its simulated makespan, and every query records its
// simulated submit/complete times against those clocks. Batching helps
// because a merged batch's makespan is far less than the sum of its members'
// solo makespans (shared scans amortize PCIe transfers); wall-clock
// concurrency additionally overlaps the host-side functional execution.
//
// Device health: each device runs a circuit breaker (fed by loud faults) and
// a corruption quarantine (fed by detected corruption), two instances of one
// DeviceHealth policy. A drained device's batches go to its siblings, or
// host-side when every device is drained.
//
// Determinism: with `worker_count = 1` and paused start (submit everything,
// then Start()), batching, plan-cache hits, and all simulated times are
// fully deterministic — that is how bench_server_throughput produces its
// CI-gated numbers. With multiple workers, batching depends on arrival
// interleaving; results stay correct, only the grouping varies.
#ifndef KF_SERVER_QUERY_SCHEDULER_H_
#define KF_SERVER_QUERY_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/multi_device.h"
#include "core/query_executor.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "server/plan_cache.h"
#include "sim/device_simulator.h"

namespace kf::server {

// One query submission: a graph, its bound source tables, and executor
// options. `merge_class` opts the query into cross-query batching: queries
// with the same non-empty class and identical executor options may be merged
// into one execution, and the caller guarantees that same-named sources
// across the class are bound to identical tables (the scheduler verifies
// schemas and row counts, not contents). An empty class never merges.
// Tables share their rows between copies (relational::Column is copy-on-
// write), so submitting, merging and routing results copy no rows.
struct QueryRequest {
  core::OpGraph graph;
  std::map<core::NodeId, relational::Table> sources;
  core::ExecutorOptions options;
  std::string merge_class;

  // Allow this query to be sharded across every healthy device of the group
  // (when its graph is shardable — see core::MultiDeviceExecutor::Shardable).
  // Off, the query runs whole on the least-loaded device. Part of batch
  // compatibility.
  bool allow_sharding = false;
};

// What a client's future resolves to.
struct QueryResult {
  // This query's sink outputs, keyed by ITS OWN graph's node ids (results of
  // merged batches are split and remapped back before delivery).
  std::map<core::NodeId, relational::Table> results;

  // The executing run's report (shared by every query of a merged batch;
  // sink_results are stripped — use `results`).
  core::ExecutionReport report;

  std::size_t batch_size = 1;   // queries co-executed in the same run
  bool merged = false;          // batch_size > 1
  bool plan_cache_hit = false;  // the run skipped PlanFusion

  // Fault-recovery outcomes (see docs/resilience.md). Results are
  // byte-identical in every case; these report how the run got there.
  bool degraded = false;          // a cluster reran on the host engine
  bool ran_on_host = false;       // circuit breaker routed the run host-side
  std::size_t device_retries = 0; // whole-query re-runs after kf::DeviceFault

  // Group index of the device the run landed on (a standalone device is
  // device 0 of its group of one). For sharded runs `device` is the first
  // shard's device.
  int device = 0;
  int devices_used = 1;
  bool sharded = false;

  // Virtual-device-clock times (seconds of simulated device time).
  double sim_submit = 0.0;
  double sim_complete = 0.0;
  double sim_latency() const { return sim_complete - sim_submit; }

  // Host wall-clock observability.
  double queue_wait_seconds = 0.0;  // submit -> batch pickup
  double wall_latency_seconds = 0.0;  // submit -> future fulfilled

  // Tracer query id assigned at submission (0 when no tracer is configured).
  // Look the query's span tree up via Tracer::FlightRecorder()/Snapshot().
  std::uint64_t trace_query_id = 0;
};

struct SchedulerOptions {
  // Worker threads picking and executing batches. One worker serializes
  // batch execution (deterministic); more overlap host-side work.
  std::size_t worker_count = 2;

  // Bounded admission queue: Submit blocks (backpressure) and TrySubmit
  // rejects when `max_queue_depth` queries are waiting.
  std::size_t max_queue_depth = 64;

  // Maximum queries merged into one execution.
  std::size_t max_batch = 8;

  // When true, workers do not pick up work until Start() — lets callers
  // enqueue a whole workload first for deterministic batching.
  bool start_paused = false;

  // Fraction of device memory the admission controller hands out to
  // concurrently executing batches (estimated by source + sink footprint).
  // A batch larger than the whole allowance still runs — alone.
  double admission_memory_fraction = 1.0;

  // Registry the scheduler and its plan cache record into (`server.*`), and
  // every execution whose request left `ExecutorOptions::metrics` unset;
  // nullptr = process default.
  obs::MetricsRegistry* metrics = nullptr;

  // End-to-end tracer. When set, every submitted query gets a span tree
  // (root + queue-wait at Submit, one execution-attempt span per whole-query
  // retry, the executor's plan/cluster/segment/command subtree underneath,
  // and breaker/quarantine/cache/batch annotations), finished into the
  // tracer's flight recorder when the future is fulfilled. Requests that
  // attach their own `ExecutorOptions::tracer` keep it — the scheduler only
  // wires the executor when the request left tracing unset. The tracer must
  // outlive the scheduler.
  obs::Tracer* tracer = nullptr;

  // Thread pool for intra-query functional execution (fused pipelines);
  // nullptr = none (single-threaded cluster execution).
  ThreadPool* execution_pool = nullptr;

  // Fault injector applied to every execution whose request did not attach
  // its own (per-query `ExecutorOptions::fault_injector` wins). nullptr
  // disables scheduler-level fault handling.
  const sim::FaultInjector* fault_injector = nullptr;

  // Whole-query re-runs after a batch fails with kf::DeviceFault (e.g. an
  // injected reservation fault) before the error reaches the futures.
  std::size_t query_retry_limit = 2;

  // Per-device circuit breaker: after `breaker_threshold` consecutive device
  // faults (thrown kf::DeviceFault or degraded runs) on a device its breaker
  // opens and new batches drain to its siblings — host-side (force_host)
  // when every breaker is open; every `breaker_probe_interval`-th batch while
  // open probes the device, and a successful probe closes the breaker. A
  // threshold of 0 disables it.
  std::size_t breaker_threshold = 4;
  std::size_t breaker_probe_interval = 4;

  // Integrity verification applied to every execution whose request left
  // integrity fully off (per-query `ExecutorOptions::integrity` wins).
  core::IntegrityOptions integrity;

  // Device quarantine: every batch with detected corruption on a device adds
  // 1 to that device's corruption score, every clean batch halves it; at
  // `quarantine_threshold` the device is quarantined — new batches drain to
  // its siblings (or host when none are left) — and every
  // `quarantine_probe_interval`-th batch while quarantined probes it, a
  // clean probe re-admitting it. 0 disables quarantine. The breaker's policy,
  // keyed on *corruption* (wrong bytes) instead of loud faults. A lone device
  // has no sibling to drain to, so it is never quarantined; its corrupt
  // batches still heal by verified re-execution.
  std::size_t quarantine_threshold = 3;
  std::size_t quarantine_probe_interval = 4;

  // Shutdown(): fail still-queued queries with kf::Cancelled instead of
  // draining them (in-flight batches always complete).
  bool cancel_pending_on_shutdown = false;

  // Per-device fault injectors, indexed by group device index (nullptr
  // entries fall back to `fault_injector`).
  std::vector<const sim::FaultInjector*> device_injectors;

  // --- Adaptive calibration (core/calibration.h). ------------------------
  // Scheduler-level calibrator applied to every execution whose request did
  // not attach its own (per-query `ExecutorOptions::calibration` wins).
  // Plan-cache entries are keyed by the run's calibration epoch, so a plan
  // cached before the model drifted is invalidated — re-planned, never
  // reused stale. The calibrator must outlive the scheduler; nullptr keeps
  // serving fully static.
  core::CostModelCalibrator* calibration = nullptr;
};

class QueryScheduler {
 public:
  // Serves a standalone device as a group of one: an owned one-device group
  // with `device`'s spec, PCIe link and instance label.
  explicit QueryScheduler(const sim::DeviceSimulator& device,
                          SchedulerOptions options = SchedulerOptions());

  // Serves across `group`, placing batches on its least-loaded healthy
  // device and sharding opted-in queries across every healthy device. The
  // group must outlive the scheduler.
  explicit QueryScheduler(const sim::DeviceGroup& group,
                          SchedulerOptions options = SchedulerOptions());

  // Drains outstanding work and joins the workers; queued queries still
  // complete. Futures never dangle.
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  // Enqueues a query. Blocks while the queue is full (backpressure); throws
  // kf::Cancelled after Shutdown().
  std::future<QueryResult> Submit(QueryRequest request);

  // Non-blocking admission: returns nullopt (and counts a rejection) when
  // the queue is full.
  std::optional<std::future<QueryResult>> TrySubmit(QueryRequest request);

  // Releases paused workers (no-op when not started paused).
  void Start();

  // Blocks until the queue is empty and no batch is executing.
  void Drain();

  // Stops accepting new queries, drains, and joins workers (idempotent;
  // also run by the destructor).
  void Shutdown();

  // Latest simulated completion time over every device (for one device: the
  // sum of executed batch makespans).
  double sim_clock() const;

  std::size_t queue_depth() const;
  const FusionPlanCache& plan_cache() const { return plan_cache_; }

  // True when every device's circuit breaker is open, i.e. new batches are
  // routed host-side (except the periodic probes).
  bool breaker_open() const;

  // Per-device breaker state (false for an out-of-range index).
  bool breaker_open(int device) const;

  // Per-device quarantine state (false for an out-of-range index).
  bool quarantined(int device) const;

  // Per-device corruption score (0 for an out-of-range index).
  std::size_t corruption_score(int device) const;

 private:
  struct Job {
    QueryRequest request;
    std::promise<QueryResult> promise;
    double sim_submit = 0.0;
    double queue_wait = 0.0;
    std::chrono::steady_clock::time_point wall_submit;
    // Tracing state (only used when SchedulerOptions::tracer is set).
    obs::TraceContext trace;
    obs::SpanId root_span = 0;   // "query" span, open submit -> fulfilled
    obs::SpanId queue_span = 0;  // "queue wait" span, open submit -> pickup
  };
  using JobPtr = std::unique_ptr<Job>;

  // One "score -> threshold -> drain -> probe -> readmit" policy. A bad
  // outcome adds 1 to the score and opens (drains) the device at `threshold`
  // (0 disables the policy); while open, every `probe_interval`-th placement
  // admits it as a probe (0: never). A good outcome closes an open device
  // and zeroes the score, and decays a closed device's score. Guarded by
  // mutex_.
  struct DeviceHealth {
    enum class Decay { kReset, kHalve };
    enum class Admission { kAdmit, kProbe, kDrain };

    std::size_t threshold = 0;
    std::size_t probe_interval = 0;
    Decay decay = Decay::kReset;
    std::size_t score = 0;
    bool open = false;
    std::size_t open_batches = 0;  // batches seen while open (probe cadence)

    Admission Admit();   // once per placement
    bool RecordBad();    // true when it opened the device
    bool RecordGood();   // true when it closed the device
  };

  // Where one attempt of a batch runs.
  struct Placement {
    std::vector<int> devices;  // group indices; shard order when sharded
    bool host_route = false;   // every device drained: force_host, accounted
                               // on the least-loaded device
    double start = 0.0;        // predicted start on the virtual clocks
  };

  // `owned_group` is a standalone device's group of one, else null.
  QueryScheduler(std::unique_ptr<const sim::DeviceGroup> owned_group,
                 const sim::DeviceGroup* group, SchedulerOptions options);

  void WorkerLoop();
  // Stamps, traces and enqueues an admitted job; called with mutex_ held.
  void Enqueue(JobPtr job);
  // True when `candidate` can join a batch led by `leader`.
  static bool Compatible(const QueryRequest& leader, const QueryRequest& candidate);
  // Executes `batch` as one (possibly merged) run and fulfills its promises.
  void ExecuteBatch(std::vector<JobPtr> batch);
  // Estimated device footprint of a batch (sources + sinks, deduplicated
  // shared sources by name).
  static std::uint64_t EstimateBytes(const std::vector<JobPtr>& batch);

  // Picks from the healthy devices plus any drained device whose probe is
  // due: the least-loaded one, or every one when `shard`.
  Placement Place(const std::vector<JobPtr>& batch, bool shard);

  // A fault (thrown kf::DeviceFault or degraded shard) or success feeds
  // `device`'s breaker; a shard with detected corruption or a clean one
  // feeds its quarantine. Each returns true when it transitioned the policy,
  // so the caller can annotate the triggering query's trace.
  bool RecordDeviceFault(int device);
  bool RecordDeviceSuccess(int device);
  bool RecordDeviceCorruption(int device, std::size_t detected);
  bool RecordDeviceClean(int device);

  const std::string& DeviceLabel(int device) const {
    return group_.device(device).instance_label();
  }

  obs::MetricsRegistry& metrics() const {
    return options_.metrics != nullptr ? *options_.metrics
                                       : obs::MetricsRegistry::Default();
  }

  // Fusion plans the scheduler's LRU cache keeps.
  static constexpr std::size_t kPlanCacheCapacity = 128;

  std::unique_ptr<const sim::DeviceGroup> owned_group_;
  const sim::DeviceGroup& group_;
  SchedulerOptions options_;
  core::MultiDeviceExecutor runner_;
  FusionPlanCache plan_cache_;

  mutable std::mutex mutex_;
  std::condition_variable work_available_;   // workers wait for jobs/Start
  std::condition_variable space_available_;  // submitters wait for room
  std::condition_variable admission_;        // batches wait for device memory
  std::condition_variable idle_;             // Drain waits here
  std::deque<JobPtr> queue_;
  bool started_ = true;
  bool stopping_ = false;
  std::size_t executing_ = 0;          // batches currently running
  std::uint64_t inflight_bytes_ = 0;   // admission-controller ledger
  double sim_clock_ = 0.0;

  // Per-device virtual clock and health, indexed like the group (guarded by
  // mutex_).
  struct DeviceState {
    double clock = 0.0;  // simulated busy-until time
    DeviceHealth breaker;
    DeviceHealth quarantine;
  };
  std::vector<DeviceState> devices_;

  std::vector<std::thread> workers_;
};

}  // namespace kf::server

#endif  // KF_SERVER_QUERY_SCHEDULER_H_
