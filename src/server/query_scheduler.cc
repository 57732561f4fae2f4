#include "server/query_scheduler.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "core/graph_merge.h"

namespace kf::server {

namespace {

using core::NodeId;
using relational::Table;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Everything about ExecutorOptions that must match for two queries to share
// one execution. The fusion knobs go through EffectiveFusionOptions so two
// option structs that plan identically compare equal. Doubles render exactly
// (hexfloat): near-equal values must not share a key.
std::string ExecOptionsKey(const core::ExecutorOptions& options) {
  std::ostringstream os;
  os << static_cast<int>(options.strategy) << '|'
     << static_cast<int>(options.intermediates) << '|'
     << static_cast<int>(options.host_memory) << '|' << options.fission_segments
     << '|' << options.stream_count << '|' << options.chunk_count << '|'
     << static_cast<const void*>(options.fault_injector) << '|'
     << options.force_host << '|'
     << static_cast<const void*>(options.calibration) << '|'
     << options.integrity.verify_transfers << '|' << std::hexfloat
     << options.integrity.audit_fraction << std::defaultfloat << '|'
     << options.integrity.audit_seed << '|'
     << FusionOptionsKey(core::EffectiveFusionOptions(options));
  return os.str();
}

// A one-device group mirroring `device`, so a standalone device serves
// exactly as the only member of its group.
std::unique_ptr<const sim::DeviceGroup> GroupOfOne(
    const sim::DeviceSimulator& device) {
  auto group = std::make_unique<sim::DeviceGroup>(
      std::vector<sim::DeviceSpec>{device.spec()}, device.pcie().config());
  group->device(0).set_instance_label(device.instance_label());
  return group;
}

}  // namespace

QueryScheduler::DeviceHealth::Admission QueryScheduler::DeviceHealth::Admit() {
  if (!open) return Admission::kAdmit;
  ++open_batches;
  return probe_interval > 0 && open_batches % probe_interval == 0
             ? Admission::kProbe
             : Admission::kDrain;
}

bool QueryScheduler::DeviceHealth::RecordBad() {
  ++score;
  if (open || threshold == 0 || score < threshold) return false;
  open = true;
  open_batches = 0;
  return true;
}

bool QueryScheduler::DeviceHealth::RecordGood() {
  if (open) {
    open = false;
    score = 0;
    return true;
  }
  score = decay == Decay::kHalve ? score / 2 : 0;
  return false;
}

QueryScheduler::QueryScheduler(const sim::DeviceSimulator& device,
                               SchedulerOptions options)
    : QueryScheduler(GroupOfOne(device), nullptr, std::move(options)) {}

QueryScheduler::QueryScheduler(const sim::DeviceGroup& group,
                               SchedulerOptions options)
    : QueryScheduler(nullptr, &group, std::move(options)) {}

QueryScheduler::QueryScheduler(std::unique_ptr<const sim::DeviceGroup> owned_group,
                               const sim::DeviceGroup* group,
                               SchedulerOptions options)
    : owned_group_(std::move(owned_group)),
      group_(owned_group_ != nullptr ? *owned_group_ : *group),
      options_(std::move(options)),
      runner_(group_),
      plan_cache_(kPlanCacheCapacity, options_.metrics),
      started_(!options_.start_paused) {
  if (options_.worker_count == 0) options_.worker_count = 1;
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.max_queue_depth == 0) options_.max_queue_depth = 1;
  // Quarantine drains a device to its siblings; a lone device has none, so
  // it is never quarantined (its corrupt batches still heal by verified
  // re-execution).
  const std::size_t quarantine_threshold =
      group_.device_count() > 1 ? options_.quarantine_threshold : 0;
  devices_.assign(static_cast<std::size_t>(group_.device_count()),
                  DeviceState{0.0,
                              {options_.breaker_threshold,
                               options_.breaker_probe_interval,
                               DeviceHealth::Decay::kReset},
                              {quarantine_threshold,
                               options_.quarantine_probe_interval,
                               DeviceHealth::Decay::kHalve}});
  workers_.reserve(options_.worker_count);
  for (std::size_t i = 0; i < options_.worker_count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryScheduler::~QueryScheduler() { Shutdown(); }

void QueryScheduler::Enqueue(JobPtr job) {
  job->sim_submit = sim_clock_;
  job->wall_submit = std::chrono::steady_clock::now();
  if (options_.tracer != nullptr) {
    job->trace.query_id = options_.tracer->NextQueryId();
    job->root_span = options_.tracer->BeginSpan(job->trace, 0, "query",
                                                "scheduler", job->sim_submit);
    job->queue_span = options_.tracer->BeginSpan(
        job->trace, job->root_span, "queue wait", "scheduler", job->sim_submit);
  }
  queue_.push_back(std::move(job));
  metrics().GetCounter("server.submitted").Increment();
  metrics().GetGauge("server.queue_depth").Set(static_cast<double>(queue_.size()));
}

std::future<QueryResult> QueryScheduler::Submit(QueryRequest request) {
  auto job = std::make_unique<Job>();
  job->request = std::move(request);
  std::future<QueryResult> future = job->promise.get_future();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    space_available_.wait(lock, [&] {
      return stopping_ || queue_.size() < options_.max_queue_depth;
    });
    KF_REQUIRE_AS(::kf::Cancelled, !stopping_) << "QueryScheduler is shut down";
    Enqueue(std::move(job));
  }
  work_available_.notify_one();
  return future;
}

std::optional<std::future<QueryResult>> QueryScheduler::TrySubmit(
    QueryRequest request) {
  auto job = std::make_unique<Job>();
  job->request = std::move(request);
  std::future<QueryResult> future = job->promise.get_future();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_ || queue_.size() >= options_.max_queue_depth) {
      metrics().GetCounter("server.rejected").Increment();
      return std::nullopt;
    }
    Enqueue(std::move(job));
  }
  work_available_.notify_one();
  return future;
}

void QueryScheduler::Start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    started_ = true;
  }
  work_available_.notify_all();
}

void QueryScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [&] { return queue_.empty() && executing_ == 0; });
}

void QueryScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    started_ = true;  // a paused scheduler still drains its queue
  }
  work_available_.notify_all();
  space_available_.notify_all();
  admission_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

double QueryScheduler::sim_clock() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sim_clock_;
}

std::size_t QueryScheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

bool QueryScheduler::breaker_open() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::all_of(devices_.begin(), devices_.end(),
                     [](const DeviceState& state) { return state.breaker.open; });
}

bool QueryScheduler::breaker_open(int device) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (device < 0 || device >= static_cast<int>(devices_.size())) return false;
  return devices_[static_cast<std::size_t>(device)].breaker.open;
}

bool QueryScheduler::quarantined(int device) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (device < 0 || device >= static_cast<int>(devices_.size())) return false;
  return devices_[static_cast<std::size_t>(device)].quarantine.open;
}

std::size_t QueryScheduler::corruption_score(int device) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (device < 0 || device >= static_cast<int>(devices_.size())) return 0;
  return devices_[static_cast<std::size_t>(device)].quarantine.score;
}

bool QueryScheduler::RecordDeviceFault(int device) {
  bool opened = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    opened = devices_.at(static_cast<std::size_t>(device)).breaker.RecordBad();
  }
  if (opened) {
    metrics().GetCounter("resilience.breaker_opened").Increment();
    metrics()
        .GetCounter("server.device.breaker_opened", {{"device", DeviceLabel(device)}})
        .Increment();
  }
  return opened;
}

bool QueryScheduler::RecordDeviceSuccess(int device) {
  bool closed = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed = devices_.at(static_cast<std::size_t>(device)).breaker.RecordGood();
  }
  if (closed) {
    metrics().GetCounter("resilience.breaker_closed").Increment();
    metrics()
        .GetCounter("server.device.breaker_closed", {{"device", DeviceLabel(device)}})
        .Increment();
  }
  return closed;
}

bool QueryScheduler::RecordDeviceCorruption(int device, std::size_t detected) {
  bool opened = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    opened = devices_.at(static_cast<std::size_t>(device)).quarantine.RecordBad();
  }
  const std::string& label = DeviceLabel(device);
  metrics().GetCounter("server.device.corrupt_batches", {{"device", label}})
      .Increment();
  metrics()
      .GetCounter("integrity.corruption_detected", {{"device", label}})
      .Increment(detected);
  if (opened) {
    metrics().GetCounter("integrity.quarantine_opened").Increment();
    metrics().GetCounter("server.device.quarantined", {{"device", label}})
        .Increment();
  }
  return opened;
}

bool QueryScheduler::RecordDeviceClean(int device) {
  bool closed = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A clean batch while quarantined is necessarily a probe (nothing else
    // lands there): the device delivers honest bytes again.
    closed = devices_.at(static_cast<std::size_t>(device)).quarantine.RecordGood();
  }
  if (closed) {
    metrics().GetCounter("integrity.quarantine_closed").Increment();
    metrics()
        .GetCounter("server.device.unquarantined", {{"device", DeviceLabel(device)}})
        .Increment();
  }
  return closed;
}

bool QueryScheduler::Compatible(const QueryRequest& leader,
                                const QueryRequest& candidate) {
  if (leader.merge_class.empty() || leader.merge_class != candidate.merge_class) {
    return false;
  }
  if (leader.allow_sharding != candidate.allow_sharding) return false;
  if (leader.options.metrics != candidate.options.metrics) return false;
  if (ExecOptionsKey(leader.options) != ExecOptionsKey(candidate.options)) {
    return false;
  }
  // Same-named sources must agree on schema (MergeGraphs would throw) and on
  // row count (a cheap proxy for "same table"; identical contents are the
  // merge_class contract).
  for (NodeId lsrc : leader.graph.Sources()) {
    const core::OpNode& lnode = leader.graph.node(lsrc);
    for (NodeId csrc : candidate.graph.Sources()) {
      const core::OpNode& cnode = candidate.graph.node(csrc);
      if (lnode.name != cnode.name) continue;
      if (lnode.schema.ToString() != cnode.schema.ToString()) return false;
      auto lt = leader.sources.find(lsrc);
      auto ct = candidate.sources.find(csrc);
      if (lt != leader.sources.end() && ct != candidate.sources.end() &&
          lt->second.row_count() != ct->second.row_count()) {
        return false;
      }
    }
  }
  return true;
}

std::uint64_t QueryScheduler::EstimateBytes(const std::vector<JobPtr>& batch) {
  // Distinct sources by name (merged batches share same-named sources) plus
  // nothing for sinks — realized output sizes are unknown at admission time.
  std::map<std::string, std::uint64_t> by_name;
  for (const JobPtr& job : batch) {
    for (const auto& [id, table] : job->request.sources) {
      by_name[job->request.graph.node(id).name] =
          std::max(by_name[job->request.graph.node(id).name], table.byte_size());
    }
  }
  std::uint64_t total = 0;
  for (const auto& [name, bytes] : by_name) total += bytes;
  return total;
}

void QueryScheduler::WorkerLoop() {
  for (;;) {
    std::vector<JobPtr> batch;
    std::uint64_t batch_bytes = 0;
    double pickup_sim = 0.0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [&] { return (started_ && !queue_.empty()) || stopping_; });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      for (auto it = queue_.begin();
           it != queue_.end() && batch.size() < options_.max_batch;) {
        if (Compatible(batch.front()->request, (*it)->request)) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      metrics().GetGauge("server.queue_depth").Set(static_cast<double>(queue_.size()));

      // Admission control: concurrent batches share the group's memory; a
      // batch whose estimated footprint does not fit waits until enough
      // in-flight work retires (an oversized batch runs when nothing else
      // is executing, so progress is guaranteed).
      batch_bytes = EstimateBytes(batch);
      std::uint64_t capacity = 0;
      for (int d = 0; d < group_.device_count(); ++d) {
        capacity += group_.device(d).spec().mem_capacity_bytes;
      }
      admission_.wait(lock, [&] {
        return executing_ == 0 || inflight_bytes_ + batch_bytes <= capacity;
      });
      inflight_bytes_ += batch_bytes;
      ++executing_;
      metrics().GetGauge("server.inflight_bytes")
          .Set(static_cast<double>(inflight_bytes_));
      pickup_sim = sim_clock_;
    }
    space_available_.notify_all();

    // Pickup ends every job's queue wait, once: a merged batch's solo
    // fallback reruns do not pass through here.
    const auto pickup = std::chrono::steady_clock::now();
    for (const JobPtr& job : batch) {
      job->queue_wait =
          std::chrono::duration<double>(pickup - job->wall_submit).count();
      metrics().GetHistogram("server.queue_wait_seconds").Record(job->queue_wait);
      if (job->queue_span != 0) {
        options_.tracer->EndSpan(job->trace, job->queue_span, pickup_sim);
      }
    }

    ExecuteBatch(std::move(batch));

    bool now_idle = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_bytes_ -= batch_bytes;
      --executing_;
      metrics().GetGauge("server.inflight_bytes")
          .Set(static_cast<double>(inflight_bytes_));
      now_idle = queue_.empty() && executing_ == 0;
    }
    admission_.notify_all();
    if (now_idle) idle_.notify_all();
  }
}

QueryScheduler::Placement QueryScheduler::Place(const std::vector<JobPtr>& batch,
                                                bool shard) {
  // Predicted start on the virtual clocks: no earlier than any member's
  // submit nor any placed device's busy-until time. Exact with one worker;
  // an estimate when workers race.
  Placement placement;
  for (const JobPtr& job : batch) {
    placement.start = std::max(placement.start, job->sim_submit);
  }
  std::vector<int> breaker_probes;
  std::vector<int> quarantine_probes;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    using Admission = DeviceHealth::Admission;
    std::vector<int> available;
    std::size_t least_loaded = 0;
    std::size_t best = devices_.size();  // least-loaded available device
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      DeviceState& state = devices_[d];
      if (state.clock < devices_[least_loaded].clock) least_loaded = d;
      // Both policies see every placement round (their probe cadences count
      // rounds independently); a device is usable when neither drains it.
      const Admission breaker = state.breaker.Admit();
      const Admission quarantine = state.quarantine.Admit();
      if (breaker == Admission::kProbe) breaker_probes.push_back(static_cast<int>(d));
      if (quarantine == Admission::kProbe) {
        quarantine_probes.push_back(static_cast<int>(d));
      }
      if (breaker == Admission::kDrain || quarantine == Admission::kDrain) continue;
      available.push_back(static_cast<int>(d));
      if (best == devices_.size() || state.clock < devices_[best].clock) best = d;
    }
    if (available.empty()) {
      placement.host_route = true;
      placement.devices.push_back(static_cast<int>(least_loaded));
    } else if (shard && available.size() > 1) {
      placement.devices = std::move(available);
    } else {
      placement.devices.push_back(static_cast<int>(best));
    }
    for (int d : placement.devices) {
      placement.start =
          std::max(placement.start, devices_[static_cast<std::size_t>(d)].clock);
    }
  }
  for (int d : breaker_probes) {
    metrics().GetCounter("resilience.breaker_probes").Increment();
    metrics()
        .GetCounter("server.device.breaker_probes", {{"device", DeviceLabel(d)}})
        .Increment();
  }
  for (int d : quarantine_probes) {
    metrics()
        .GetCounter("server.device.quarantine_probes", {{"device", DeviceLabel(d)}})
        .Increment();
  }
  if (placement.host_route) {
    metrics().GetCounter("resilience.breaker_rerouted").Increment();
  }
  return placement;
}

void QueryScheduler::ExecuteBatch(std::vector<JobPtr> batch) {
  obs::Tracer* const tracer = options_.tracer;
  const double pickup_sim = sim_clock();
  Job& leader = *batch.front();
  // The scheduler only wires executor tracing when the request left
  // ExecutorOptions::tracer unset (per-query settings always win).
  const bool sched_trace = tracer != nullptr && leader.root_span != 0 &&
                           leader.request.options.tracer == nullptr;
  obs::SpanId attempt_span = 0;
  double attempt_start = pickup_sim;

  const bool merged = batch.size() > 1;
  try {
    // Splice the batch into one graph, remembering each query's node
    // mapping so results can be routed back.
    core::OpGraph merged_graph;
    std::map<NodeId, Table> merged_sources;
    std::vector<std::map<NodeId, NodeId>> mappings(batch.size());
    const core::OpGraph* exec_graph = &batch.front()->request.graph;
    const std::map<NodeId, Table>* exec_sources = &batch.front()->request.sources;
    if (merged) {
      merged_graph = batch.front()->request.graph;
      for (NodeId id = 0; id < merged_graph.node_count(); ++id) {
        mappings[0][id] = id;
      }
      for (std::size_t i = 1; i < batch.size(); ++i) {
        core::MergeResult step =
            core::MergeGraphs(merged_graph, batch[i]->request.graph);
        for (std::size_t j = 0; j < i; ++j) {
          for (auto& [orig, mapped] : mappings[j]) {
            mapped = step.first_mapping.at(mapped);
          }
        }
        mappings[i] = std::move(step.second_mapping);
        merged_graph = std::move(step.graph);
      }
      for (std::size_t j = 0; j < batch.size(); ++j) {
        for (const auto& [id, table] : batch[j]->request.sources) {
          merged_sources.try_emplace(mappings[j].at(id), table);
        }
      }
      exec_graph = &merged_graph;
      exec_sources = &merged_sources;
      metrics().GetCounter("server.merged_queries").Increment(batch.size());
    }

    core::ExecutorOptions options = batch.front()->request.options;
    if (options.metrics == nullptr) options.metrics = &metrics();
    if (options.fault_injector == nullptr) {
      options.fault_injector = options_.fault_injector;
    }
    if (!options.integrity.Enabled()) {
      // A request that configured nothing inherits the scheduler's
      // fleet-wide verification policy (per-query settings always win).
      options.integrity = options_.integrity;
    }
    // Cached plans are versioned by the epoch of the request's calibrator. A
    // plan cached before the cost model drifted simply misses — it is
    // re-planned against the current corrections, never reused stale.
    const std::uint64_t plan_version =
        options.calibration != nullptr ? options.calibration->epoch() : 0;
    bool cache_hit = false;
    const core::FusionPlan plan = plan_cache_.GetOrPlan(
        *exec_graph, core::EffectiveFusionOptions(options), &cache_hit,
        plan_version);
    options.plan = &plan;
    const bool shardable = batch.front()->request.allow_sharding &&
                           core::MultiDeviceExecutor::Shardable(*exec_graph);

    // Whole-query retry: a device fault thrown before the executor could
    // recover internally (e.g. an injected reservation failure) re-runs the
    // batch up to query_retry_limit times. Placement runs inside the loop,
    // so a retried batch can land on a different (healthy) device than the
    // one that faulted.
    core::MultiDeviceReport run;
    Placement placement;
    std::size_t device_retries = 0;
    for (;;) {
      attempt_start = pickup_sim;
      if (sched_trace) {
        leader.trace.attempt = static_cast<int>(device_retries);
        attempt_span = tracer->BeginSpan(leader.trace, leader.root_span,
                                         "execute attempt", "worker",
                                         attempt_start);
        tracer->Annotate(leader.trace, attempt_span,
                         cache_hit ? obs::SpanAnnotationKind::kCacheHit
                                   : obs::SpanAnnotationKind::kCacheMiss,
                         cache_hit ? "fusion plan cache hit"
                                   : "fusion plan cache miss",
                         attempt_start);
        if (merged) {
          tracer->Annotate(leader.trace, attempt_span,
                           obs::SpanAnnotationKind::kBatchMerge,
                           "leads merged batch of " +
                               std::to_string(batch.size()) + " queries",
                           attempt_start);
        }
      }
      try {
        placement = Place(batch, shardable);
        if (sched_trace) {
          attempt_start = placement.start;
          std::ostringstream os;
          os << (placement.host_route ? "host route, accounted on device"
                                      : "placed on device");
          for (int d : placement.devices) os << ' ' << d;
          tracer->Annotate(leader.trace, attempt_span,
                           obs::SpanAnnotationKind::kPlacement, os.str(),
                           placement.start);
          options.tracer = tracer;
          options.trace = leader.trace;
          options.trace.sim_offset = placement.start;
          options.trace_parent = attempt_span;
        }

        core::MultiDeviceOptions group_options;
        group_options.base = options;
        group_options.base.force_host = options.force_host || placement.host_route;
        group_options.per_device_injectors = options_.device_injectors;
        group_options.devices = placement.devices;
        run = runner_.Execute(*exec_graph, *exec_sources, group_options);
        break;
      } catch (const ::kf::Error& e) {
        if (e.code() != ::kf::ErrorCode::kDeviceFault) throw;
        if (sched_trace && attempt_span != 0) {
          tracer->Annotate(leader.trace, attempt_span,
                           obs::SpanAnnotationKind::kFault, e.what(),
                           attempt_start);
          tracer->EndSpan(leader.trace, attempt_span, attempt_start);
          attempt_span = 0;
        }
        bool opened = false;
        for (int d : placement.devices) opened = RecordDeviceFault(d) || opened;
        if (sched_trace && opened) {
          tracer->Annotate(leader.trace, leader.root_span,
                           obs::SpanAnnotationKind::kBreakerOpen,
                           "circuit breaker opened", attempt_start);
        }
        if (device_retries >= options_.query_retry_limit) throw;
        ++device_retries;
        metrics().GetCounter("resilience.query_retries").Increment();
        if (sched_trace) {
          tracer->Annotate(
              leader.trace, leader.root_span,
              obs::SpanAnnotationKind::kReExecution,
              "whole-query retry " + std::to_string(device_retries) +
                  " after device fault",
              attempt_start);
        }
      }
    }
    // Trace annotations for breaker/quarantine transitions triggered by this
    // batch land on the leading query's root span.
    auto annotate_root = [&](obs::SpanAnnotationKind kind,
                             const std::string& detail) {
      if (sched_trace) {
        tracer->Annotate(leader.trace, leader.root_span, kind, detail,
                         attempt_start);
      }
    };
    if (!placement.host_route && !options.force_host && !run.host_fallback) {
      // Per-shard health feed: only the device whose shard degraded takes
      // the fault; its siblings' clean shards close their breakers. The same
      // shard reports feed the corruption scores: a shard whose verification
      // caught wrong bytes marks its device as a corrupter, a clean shard
      // decays the score (and re-admits a quarantined device it probed).
      for (const core::ShardReport& shard : run.shards) {
        if (shard.report.ran_on_host) continue;
        const std::string dev = std::to_string(shard.device);
        if (shard.report.degraded) {
          if (RecordDeviceFault(shard.device)) {
            annotate_root(obs::SpanAnnotationKind::kBreakerOpen,
                          "circuit breaker opened on device " + dev);
          }
        } else if (RecordDeviceSuccess(shard.device)) {
          annotate_root(obs::SpanAnnotationKind::kBreakerClose,
                        "circuit breaker closed on device " + dev);
        }
        if (shard.report.corruption_detected > 0) {
          if (RecordDeviceCorruption(shard.device,
                                     shard.report.corruption_detected)) {
            annotate_root(obs::SpanAnnotationKind::kQuarantine,
                          "device " + dev + " quarantined for corruption");
          }
        } else if (RecordDeviceClean(shard.device)) {
          annotate_root(obs::SpanAnnotationKind::kUnquarantine,
                        "device " + dev + " re-admitted from quarantine");
        }
      }
    }

    // The batch starts when every involved device is free and no earlier
    // than its latest member's submit time; all involved device clocks
    // advance to the shared completion time.
    const core::ExecutionReport& report = run.combined;
    double complete = 0.0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      double start = 0.0;
      for (const JobPtr& job : batch) start = std::max(start, job->sim_submit);
      for (int d : placement.devices) {
        start = std::max(start, devices_[static_cast<std::size_t>(d)].clock);
      }
      complete = start + report.makespan;
      for (int d : placement.devices) {
        devices_[static_cast<std::size_t>(d)].clock = complete;
      }
      sim_clock_ = std::max(sim_clock_, complete);
    }
    for (int d : placement.devices) {
      const std::string& label = DeviceLabel(d);
      metrics().GetCounter("server.device.batches", {{"device", label}})
          .Increment();
      metrics().GetGauge("server.device.sim_seconds", {{"device", label}})
          .Set(complete);
    }
    if (run.sharded) {
      metrics().GetCounter("server.device.sharded_batches").Increment();
    }
    metrics().GetCounter("server.batches").Increment();
    metrics().GetHistogram("server.batch_size")
        .Record(static_cast<double>(batch.size()));
    metrics().GetHistogram("server.batch_makespan_seconds").Record(report.makespan);

    // Now that the batch's position on the virtual clock is known, pin the
    // attempt span to the executed interval (the executor's subtree was
    // recorded against `sim_offset`, i.e. the predicted start).
    if (sched_trace && attempt_span != 0) {
      tracer->SetSpanInterval(leader.trace, attempt_span,
                              complete - report.makespan, complete);
      attempt_span = 0;
    }

    // Every query gets the run's report without the sink tables, which are
    // taken out first and routed per query below.
    const std::map<NodeId, Table> sinks =
        std::exchange(run.combined.sink_results, {});
    for (std::size_t j = 0; j < batch.size(); ++j) {
      JobPtr& job = batch[j];
      QueryResult result;
      result.report = report;
      result.batch_size = batch.size();
      result.merged = merged;
      result.plan_cache_hit = cache_hit;
      result.degraded = report.degraded;
      result.ran_on_host = report.ran_on_host;
      result.device_retries = device_retries;
      result.device = !run.shards.empty() ? run.shards.front().device
                                          : placement.devices.front();
      result.devices_used = run.devices_used;
      result.sharded = run.sharded;
      result.sim_submit = job->sim_submit;
      result.sim_complete = complete;
      result.queue_wait_seconds = job->queue_wait;
      for (NodeId sink : job->request.graph.Sinks()) {
        const NodeId mapped = merged ? mappings[j].at(sink) : sink;
        auto it = sinks.find(mapped);
        if (it != sinks.end()) {
          result.results.emplace(sink, it->second);
        } else if (job->request.graph.node(sink).is_source) {
          // A bare source "query" — in a merged graph another query's
          // operators may consume it, so it is no longer a merged sink.
          result.results.emplace(sink, job->request.sources.at(sink));
        }
      }
      result.wall_latency_seconds = SecondsSince(job->wall_submit);
      result.trace_query_id = job->trace.query_id;
      metrics().GetHistogram("server.query_latency_seconds")
          .Record(result.wall_latency_seconds);
      metrics().GetHistogram("server.sim_latency_seconds")
          .Record(result.sim_latency());
      metrics().GetCounter("server.completed").Increment();
      if (tracer != nullptr && job->root_span != 0) {
        if (merged && j > 0) {
          tracer->Annotate(
              job->trace, job->root_span, obs::SpanAnnotationKind::kBatchMerge,
              "co-executed in batch of " + std::to_string(batch.size()) +
                  " led by query " + std::to_string(leader.trace.query_id),
              complete);
        }
        tracer->EndSpan(job->trace, job->root_span, complete);
        tracer->FinishQuery(job->trace, false, "");
        job->root_span = 0;
      }
      job->promise.set_value(std::move(result));
    }
  } catch (...) {
    if (sched_trace && attempt_span != 0) {
      tracer->EndSpan(leader.trace, attempt_span, attempt_start);
      attempt_span = 0;
    }
    if (!merged) {
      // Label the failure with its stable error code so dashboards can tell
      // device faults from timeouts from caller mistakes.
      const char* code = "unknown";
      try {
        throw;
      } catch (const ::kf::Error& e) {
        code = ::kf::ToString(e.code());
      } catch (...) {
      }
      metrics().GetCounter("server.failed", {{"code", code}}).Increment();
      if (tracer != nullptr && leader.root_span != 0) {
        leader.trace.sim_offset = 0.0;
        tracer->Annotate(leader.trace, leader.root_span,
                         obs::SpanAnnotationKind::kFailure, code, pickup_sim);
        tracer->EndSpan(leader.trace, leader.root_span, pickup_sim);
        // A failed query's full span tree is dumped by the flight recorder
        // (when KF_TRACE_DIR / TracerOptions::trace_dir is configured).
        tracer->FinishQuery(leader.trace, true, code);
        leader.root_span = 0;
      }
      batch.front()->promise.set_exception(std::current_exception());
      return;
    }
    // A merged execution failed (e.g. one query's sources were unbound):
    // fall back to solo runs so one bad query cannot poison the batch.
    metrics().GetCounter("server.merge_fallbacks").Increment();
    for (JobPtr& job : batch) {
      if (tracer != nullptr && job->root_span != 0) {
        tracer->Annotate(job->trace, job->root_span,
                         obs::SpanAnnotationKind::kSoloRetry,
                         "merged batch failed; re-running solo", pickup_sim);
      }
      std::vector<JobPtr> solo;
      solo.push_back(std::move(job));
      ExecuteBatch(std::move(solo));
    }
  }
}

}  // namespace kf::server
