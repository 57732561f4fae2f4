#include "bench/e2e/workloads.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <optional>

#include "bench/bench_util.h"
#include "common/error.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/graph_merge.h"
#include "core/integrity.h"
#include "core/multi_device.h"
#include "core/select_chain.h"
#include "server/query_scheduler.h"
#include "sim/device_group.h"
#include "sim/fault_injector.h"
#include "tpch/q1.h"
#include "tpch/q21.h"
#include "tpch/q6.h"

namespace kf::bench::e2e {

namespace {

using core::NodeId;
using core::Strategy;
using relational::DataType;
using relational::Expr;
using relational::OperatorDesc;
using relational::Schema;
using relational::Table;

constexpr std::size_t kMaxReplayItems = 500;

// Every k-th index of [0, n) so that at most kMaxReplayItems are taken.
std::size_t ReplayStride(std::size_t n) {
  return std::max<std::size_t>(1, (n + kMaxReplayItems - 1) / kMaxReplayItems);
}

double Elapsed(Clock::time_point start) { return SecondsBetween(start, Clock::now()); }

// Repeats `round`, one unit of fixed work, until `seconds` have elapsed and
// at least kCountedRounds rounds have run, records each repetition as a
// PhaseResult::Round, and samples the machine's speed between rounds.
template <typename RoundFn>
void RunRounds(double seconds, MachineProbe& probe, PhaseResult& out, RoundFn&& round) {
  const auto start = Clock::now();
  do {
    PhaseResult::Round r;
    r.begin = out.latency_s.size();
    const auto round_start = Clock::now();
    round();
    r.wall_s = Elapsed(round_start);
    r.end = out.latency_s.size();
    out.rounds.push_back(r);
    probe.Sample();
  } while (out.counting() || Elapsed(start) < seconds);
  out.wall_s += Elapsed(start);
}

// Server-side counters of one served query.
void CountServed(const server::QueryResult& result, PhaseResult& out) {
  out.Count("server.cache_hits", result.plan_cache_hit ? 1 : 0);
  out.Count("server.batch_size", static_cast<double>(result.batch_size));
  out.Count("server.merged", result.merged ? 1 : 0);
  out.Count("server.retries", static_cast<double>(result.device_retries));
  out.Count("server.degraded", result.degraded ? 1 : 0);
  out.Count("server.host_routed", result.ran_on_host ? 1 : 0);
  out.Count("server.sharded", result.sharded ? 1 : 0);
  out.Count("core.devices_used", result.devices_used);
  out.queue_wait_s.push_back(result.queue_wait_seconds);
  out.service_s.push_back(result.wall_latency_seconds - result.queue_wait_seconds);
}

// A query executed by direct calls into the executor: no queue, no merging.
void CountDirect(int devices, PhaseResult& out) {
  out.Count("server.batch_size", 1);
  out.Count("core.devices_used", devices);
}

// Attaches the program's tracer to a direct executor call as its own query.
void AttachTracer(obs::Tracer* tracer, core::ExecutorOptions& options) {
  options.tracer = tracer;
  options.trace = obs::TraceContext{};
  if (tracer != nullptr) options.trace.query_id = tracer->NextQueryId();
}

void FinishTrace(const core::ExecutorOptions& options) {
  if (options.tracer != nullptr) options.tracer->FinishQuery(options.trace, false, "");
}

bool SinksMatch(const core::OpGraph& graph,
                const std::map<NodeId, Table>& results,
                const std::map<NodeId, std::uint64_t>& oracle) {
  for (NodeId sink : graph.Sinks()) {
    auto it = results.find(sink);
    if (it == results.end() || core::ChecksumTable(it->second) != oracle.at(sink)) {
      return false;
    }
  }
  return true;
}

// --- dashboard_merge --------------------------------------------------------
//
// Backlog bursts: every request of a burst arrives at t=0 into a paused
// single-device scheduler (2 workers, batches of 8), so every batch is a
// deterministic merge of the 8 panel templates over one shared relation.
// One burst of 4 batches is one timed round.
class DashboardMerge final : public Workload {
 public:
  explicit DashboardMerge(const WorkloadConfig& config)
      : config_(config),
        rows_(config.smoke ? 8'192 : 131'072),
        batches_per_burst_(config.smoke ? 2 : 4) {}

  void Setup() override {
    events_ = core::MakeUniformInt32Table(rows_, config_.seed);
    for (int panel = 0; panel < kPanels; ++panel) {
      server::QueryRequest request;
      request.graph = PanelQuery(panel);
      request.sources.emplace(request.graph.Sources()[0], events_);
      request.options.strategy = Strategy::kFused;
      request.merge_class = "dashboard";
      oracle_.push_back(SinkChecksums(
          request.graph, ReferenceWalk(request.graph, request.sources)));
      requests_.push_back(std::move(request));
    }
    PhaseResult warmup;
    RunBurst(1, nullptr, nullptr, warmup);
    KF_REQUIRE(warmup.failed == 0) << "dashboard_merge warm-up failed its oracle";
  }

  void Run(double seconds, obs::Tracer* tracer, SpanRecorder* spans, MachineProbe& probe,
           PhaseResult& out) override {
    batch_service_s_.clear();
    RunRounds(seconds, probe, out, [&] {
      SpanRecorder::Scope burst(spans, "harness.burst");
      RunBurst(batches_per_burst_, tracer, spans, out);
    });
  }

  void Replay(double budget_s, SpanRecorder& spans, ReplayResult& out) override {
    // Every batch is the same merge of the 8 panels, so the replay items
    // differ only in when they run.
    sim::DeviceSimulator device;
    const core::QueryExecutor executor(device);
    const auto start = Clock::now();
    const std::size_t batches = batch_service_s_.size();
    for (std::size_t batch = 0; batch < batches && Elapsed(start) < budget_s;
         batch += ReplayStride(batches)) {
      SpanRecorder::Scope item(&spans, "replay.item");
      core::OpGraph merged = requests_[0].graph;
      std::vector<std::map<NodeId, NodeId>> mappings(kPanels);
      for (NodeId id = 0; id < merged.node_count(); ++id) mappings[0][id] = id;
      {
        SpanRecorder::Scope scope(&spans, "core.merge_graphs");
        for (int panel = 1; panel < kPanels; ++panel) {
          core::MergeResult step = core::MergeGraphs(merged, requests_[panel].graph);
          for (int j = 0; j < panel; ++j) {
            for (auto& [orig, mapped] : mappings[j]) mapped = step.first_mapping.at(mapped);
          }
          mappings[panel] = std::move(step.second_mapping);
          merged = std::move(step.graph);
        }
      }
      std::map<NodeId, Table> sources;
      std::map<NodeId, std::uint64_t> oracle;
      for (int panel = 0; panel < kPanels; ++panel) {
        for (const auto& [id, table] : requests_[panel].sources) {
          sources.emplace(mappings[panel].at(id), table);
        }
        for (const auto& [sink, sum] : oracle_[panel]) {
          oracle[mappings[panel].at(sink)] = sum;
        }
      }
      ReplayQuery query;
      query.graph = &merged;
      query.sources = &sources;
      query.options = requests_[0].options;
      query.oracle = &oracle;
      ReplayLayers(query, executor, spans, out);
      out.overhead_s.push_back(batch_service_s_[batch] - out.execute_s.back());
    }
  }

  const char* latency_definition() const override {
    return "service time of one query (result time minus queue wait)";
  }

  // Two workers run batches at once.
  unsigned probe_parts() const override { return kProbeTwoThreads; }

 private:
  static constexpr int kPanels = 8;

  // A two-SELECT panel (recent rows, then hot rows) over the shared relation
  // of uniform values in [0, 2^31). The thresholds differ per panel and not
  // per seed, so every seed does the same work on different data: each panel
  // keeps about a quarter of the rows.
  core::OpGraph PanelQuery(int panel) const {
    core::OpGraph g;
    const NodeId src = g.AddSource("events", Schema{{"v", DataType::kInt32}}, rows_);
    const std::int64_t hi = (std::int64_t{1} << 30) + (panel - kPanels / 2) * (1 << 23);
    const std::int64_t lo = (std::int64_t{1} << 29) + (panel - kPanels / 2) * (1 << 22);
    const NodeId recent = g.AddOperator(
        OperatorDesc::Select(Expr::Lt(Expr::FieldRef(0), Expr::Lit(hi)),
                             "recent" + std::to_string(panel)),
        src);
    g.AddOperator(OperatorDesc::Select(Expr::Ge(Expr::FieldRef(0), Expr::Lit(lo)),
                                       "hot" + std::to_string(panel)),
                  recent);
    return g;
  }

  // Submits `batches` x 8 panel queries to a paused scheduler, starts it and
  // checks every result.
  void RunBurst(std::size_t batches, obs::Tracer* tracer, SpanRecorder* spans,
                PhaseResult& out) {
    server::SchedulerOptions options;
    options.worker_count = 2;
    options.max_batch = kPanels;
    options.max_queue_depth = batches * kPanels;
    options.start_paused = true;
    options.tracer = tracer;
    server::QueryScheduler scheduler(device_, options);
    std::vector<std::future<server::QueryResult>> futures;
    {
      SpanRecorder::Scope scope(spans, "server.submit");
      for (std::size_t batch = 0; batch < batches; ++batch) {
        for (const server::QueryRequest& request : requests_) {
          futures.push_back(scheduler.Submit(request));
        }
      }
    }
    scheduler.Start();
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const std::size_t panel = i % kPanels;
      ++out.attempted;
      std::optional<server::QueryResult> result;
      try {
        SpanRecorder::Scope scope(spans, "server.wait");
        result = futures[i].get();
      } catch (const kf::Error&) {
        ++out.failed;
        continue;
      }
      SpanRecorder::Scope oracle(spans, "harness.oracle");
      if (!SinksMatch(requests_[panel].graph, result->results, oracle_[panel])) {
        ++out.failed;
        ++out.wrong;
        continue;
      }
      oracle.Close();
      const double service = result->wall_latency_seconds - result->queue_wait_seconds;
      out.latency_s.push_back(service);
      out.AddReport(result->report, 1.0 / static_cast<double>(result->batch_size));
      CountServed(*result, out);
      // The 8 queries of a batch share its service time.
      if (panel == 0) batch_service_s_.push_back(service);
    }
  }

  WorkloadConfig config_;
  std::uint64_t rows_;
  std::size_t batches_per_burst_;
  sim::DeviceSimulator device_;
  Table events_;
  std::vector<server::QueryRequest> requests_;
  std::vector<std::map<NodeId, std::uint64_t>> oracle_;
  std::vector<double> batch_service_s_;  // per batch of the last Run
};

// --- adhoc_group -------------------------------------------------------------
//
// One closed-loop client over a 2-device group with faults, corruption and
// verification on. Queries are drawn with skew from random DAG templates, so
// about two in three miss the 128-entry plan cache. The draws are made once, in
// set-up; one pass over them is one timed round, so every round serves the
// same mix. The scheduler has no execution pool: with one, every operator of
// these small queries was a wake-up of the pool's threads, and the host's
// wake-up latency moved throughput by up to 2x between runs.
class AdhocGroup final : public Workload {
 public:
  explicit AdhocGroup(const WorkloadConfig& config)
      : config_(config),
        templates_(config.smoke ? 32 : 512),
        group_(sim::DeviceGroup::Homogeneous(2)) {}

  void Setup() override {
    for (std::size_t i = 0; i < templates_.size(); ++i) {
      MakeTemplate(i, templates_[i]);
      templates_[i].oracle = SinkChecksums(
          templates_[i].graph, ReferenceWalk(templates_[i].graph, templates_[i].sources));
    }
    // Popularity falls off as rank^-0.75 (template i has rank i): template i
    // gets its share of the cycle's slots, rounded so the shares add up,
    // and the strategies alternate between fused and fused+fission. Only the
    // order of the cycle is drawn from the seed, so every seed serves the
    // same mix.
    double total = 0.0;
    for (std::size_t i = 0; i < templates_.size(); ++i) {
      total += std::pow(static_cast<double>(i + 1), -0.75);
    }
    const auto slots = static_cast<double>(templates_.size());
    double cumulative = 0.0;
    for (std::size_t i = 0; i < templates_.size(); ++i) {
      const auto before = std::llround(slots * cumulative / total);
      cumulative += std::pow(static_cast<double>(i + 1), -0.75);
      for (auto n = std::llround(slots * cumulative / total) - before; n > 0; --n) {
        cycle_.push_back(Draw{i, AlternatingStrategy(cycle_.size())});
      }
    }
    Rng order(config_.seed ^ 0xad0c0ULL);
    for (std::size_t i = cycle_.size() - 1; i > 0; --i) {
      std::swap(cycle_[i], cycle_[static_cast<std::size_t>(
                               order.UniformInt(0, static_cast<std::int64_t>(i)))]);
    }
    PhaseResult warmup;
    for (std::size_t i = 0; i < templates_.size(); ++i) {
      Serve(Draw{i, AlternatingStrategy(i)}, nullptr, warmup);
    }
    KF_REQUIRE(warmup.wrong == 0) << "adhoc_group warm-up failed its oracle";
    log_.clear();
  }

  void Run(double seconds, obs::Tracer* tracer, SpanRecorder* spans, MachineProbe& probe,
           PhaseResult& out) override {
    if (scheduler_tracer_ != tracer) {
      scheduler_.reset();
      scheduler_tracer_ = tracer;
    }
    log_.clear();
    RunRounds(seconds, probe, out, [&] {
      for (const Draw& draw : cycle_) {
        SpanRecorder::Scope scope(spans, "server.submit_to_result");
        Serve(draw, spans, out);
      }
    });
  }

  void Replay(double budget_s, SpanRecorder& spans, ReplayResult& out) override {
    sim::DeviceSimulator device;
    const core::QueryExecutor executor(device);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < log_.size() && Elapsed(start) < budget_s;
         i += ReplayStride(log_.size())) {
      const Served& served = log_[i];
      const Template& t = templates_[served.draw.template_index];
      SpanRecorder::Scope item(&spans, "replay.item");
      ReplayQuery query;
      query.graph = &t.graph;
      query.sources = &t.sources;
      query.options.strategy = served.draw.strategy;
      query.oracle = &t.oracle;
      ReplayLayers(query, executor, spans, out);
      out.overhead_s.push_back(served.service_s - out.execute_s.back());
    }
  }

  const char* latency_definition() const override {
    return "submit to result of one query (closed loop, 1 client)";
  }

  // A query of about a millisecond is handed from the client to the
  // scheduler's worker and back, so the host's thread wake-up latency, which
  // varied fourfold within minutes on the reference machine, is a large part
  // of it.
  unsigned probe_parts() const override { return kProbeTwoThreads | kProbeHandoff; }

 private:
  struct Template {
    core::OpGraph graph;
    std::map<NodeId, Table> sources;
    std::map<NodeId, std::uint64_t> oracle;
  };
  struct Draw {
    std::size_t template_index = 0;
    Strategy strategy = Strategy::kFused;
  };
  struct Served {
    Draw draw;
    double service_s = 0.0;
  };

  static Strategy AlternatingStrategy(std::size_t i) {
    return i % 2 == 0 ? Strategy::kFused : Strategy::kFusedFission;
  }

  // int64 (k, v) rows: keys in [0, 30], values in [-50, 50].
  static Table RandomKV(Rng& rng, std::size_t rows) {
    Table t(Schema{{"k", DataType::kInt64}, {"v", DataType::kInt64}});
    auto& k = t.column(0).AsInt64();
    auto& v = t.column(1).AsInt64();
    for (std::size_t r = 0; r < rows; ++r) {
      k.push_back(rng.UniformInt(0, 30));
      v.push_back(rng.UniformInt(-50, 50));
    }
    t.SyncRowCountFromColumns();
    return t;
  }

  // Template i's shape (sources, sizes, operator kinds, wiring and predicate
  // constants) is fixed by i; the seed picks the data. Every seed then serves
  // the same mix of queries with about the same selectivities, so runs with
  // different seeds measure comparable work.
  void MakeTemplate(std::size_t index, Template& t) const {
    Rng shape(0x5eed0000ULL + index);
    Rng data(config_.seed * 0x9e3779b97f4a7c15ULL + index);
    const Schema kv{{"k", DataType::kInt64}, {"v", DataType::kInt64}};
    std::vector<NodeId> pool;
    const int max_shift = config_.smoke ? 2 : 6;  // 64..4096 rows
    const auto source_count = shape.UniformInt(1, 3);
    for (std::int64_t s = 0; s < source_count; ++s) {
      const auto rows = std::size_t{64} << shape.UniformInt(0, max_shift);
      const NodeId src = t.graph.AddSource("src" + std::to_string(s), kv, rows);
      t.sources.emplace(src, RandomKV(data, rows));
      pool.push_back(src);
    }
    const auto op_count = shape.UniformInt(2, 8);
    for (std::int64_t i = 0; i < op_count; ++i) {
      const std::string tag = std::to_string(i);
      const NodeId input =
          pool[static_cast<std::size_t>(shape.UniformInt(0, std::ssize(pool) - 1))];
      const auto fields =
          static_cast<std::int64_t>(t.graph.node(input).schema.field_count());
      switch (shape.UniformInt(0, fields == 2 ? 4 : 2)) {
        case 0:
          pool.push_back(t.graph.AddOperator(
              OperatorDesc::Select(
                  Expr::Lt(Expr::FieldRef(0), Expr::Lit(shape.UniformInt(0, 30))),
                  "sel" + tag),
              input));
          break;
        case 1: {
          const auto field = static_cast<int>(shape.UniformInt(0, fields - 1));
          pool.push_back(t.graph.AddOperator(
              OperatorDesc::Select(
                  Expr::Ge(Expr::FieldRef(field), Expr::Lit(shape.UniformInt(-20, 20))),
                  "sel" + tag),
              input));
          break;
        }
        case 2:
          pool.push_back(
              t.graph.AddOperator(OperatorDesc::Sort({0}, "sort" + tag), input));
          break;
        case 3:
          pool.push_back(t.graph.AddOperator(
              OperatorDesc::Arith(Expr::Add(Expr::FieldRef(0), Expr::FieldRef(1)),
                                  "sum" + tag, DataType::kInt64),
              input));
          break;
        default: {
          const auto rows = static_cast<std::size_t>(shape.UniformInt(5, 40));
          const NodeId build = t.graph.AddSource("build" + tag, kv, rows);
          t.sources.emplace(build, RandomKV(data, rows));
          pool.push_back(t.graph.AddOperator(OperatorDesc::Join(0, 0, "join" + tag),
                                             input, build));
          break;
        }
      }
    }
  }

  // A new scheduler gets new injectors, so the fault draws of a phase that
  // starts one do not depend on how many queries ran before it.
  server::QueryScheduler& Scheduler() {
    if (scheduler_ == nullptr) {
      server::SchedulerOptions options;
      options.worker_count = 1;
      options.tracer = scheduler_tracer_;
      injectors_.clear();
      for (int d = 0; d < 2; ++d) {
        sim::FaultConfig faults;
        faults.seed = config_.seed * 2 + static_cast<std::uint64_t>(d);
        faults.copy_fault_rate = 0.01;
        faults.kernel_fault_rate = 0.01;
        faults.stall_rate = 0.02;
        faults.corrupt_h2d_rate = faults.corrupt_d2h_rate = d == 0 ? 0.005 : 0.03;
        injectors_.push_back(std::make_unique<sim::FaultInjector>(faults));
        options.device_injectors.push_back(injectors_.back().get());
      }
      options.integrity.verify_transfers = true;
      options.integrity.audit_fraction = 0.05;
      options.integrity.audit_seed = config_.seed;
      scheduler_ = std::make_unique<server::QueryScheduler>(group_, options);
    }
    return *scheduler_;
  }

  // Submits one query, waits for it, and checks it against the oracle.
  void Serve(const Draw& draw, SpanRecorder* spans, PhaseResult& out) {
    const Template& t = templates_[draw.template_index];
    server::QueryRequest request;
    request.graph = t.graph;
    request.sources = t.sources;
    request.options.strategy = draw.strategy;
    request.allow_sharding = true;
    ++out.attempted;
    const auto submitted = Clock::now();
    server::QueryResult result;
    try {
      result = Scheduler().Submit(std::move(request)).get();
    } catch (const kf::Error&) {
      ++out.failed;
      return;
    }
    const double latency = Elapsed(submitted);
    SpanRecorder::Scope oracle(spans, "harness.oracle");
    if (!SinksMatch(t.graph, result.results, t.oracle)) {
      ++out.failed;
      ++out.wrong;
      return;
    }
    oracle.Close();
    out.latency_s.push_back(latency);
    out.AddReport(result.report, 1.0);
    CountServed(result, out);
    log_.push_back(Served{draw, result.wall_latency_seconds - result.queue_wait_seconds});
  }

  WorkloadConfig config_;
  std::vector<Template> templates_;
  std::vector<Draw> cycle_;  // one round
  sim::DeviceGroup group_;
  std::vector<std::unique_ptr<sim::FaultInjector>> injectors_;
  std::vector<Served> log_;
  obs::Tracer* scheduler_tracer_ = nullptr;
  // Declared last: its workers use the members above until it is destroyed.
  std::unique_ptr<server::QueryScheduler> scheduler_;
};

// --- tpch_analytic -----------------------------------------------------------
//
// One closed-loop client calling QueryExecutor::Execute directly on TPC-H
// Q1, Q21 and Q6, each under the serial and the fused+fission strategy. One
// rotation through the six is one timed round.
class TpchAnalytic final : public Workload {
 public:
  explicit TpchAnalytic(const WorkloadConfig& config)
      : config_(config), pool_(2), executor_(device_, core::OperatorCostModel{}, &pool_) {}

  void Setup() override {
    const auto start = Clock::now();
    tpch::TpchConfig tpch_config;
    tpch_config.order_count = config_.smoke ? 300 : 10'000;
    tpch_config.supplier_count = config_.smoke ? 50 : 200;
    tpch_config.seed = config_.seed;
    data_ = tpch::MakeTpchData(tpch_config);
    plans_.push_back(tpch::BuildQ1Plan(data_));
    plans_.push_back(tpch::BuildQ21Plan(data_));
    plans_.push_back(tpch::BuildQ6Plan(data_));
    datagen_s_ = Elapsed(start);
    references_.push_back(tpch::ReferenceQ1(data_.lineitem));
    references_.push_back(tpch::ReferenceQ21(data_));
    references_.push_back(tpch::ReferenceQ6(data_.lineitem));
    // Each variant's warm-up result, once it matches the reference, is the
    // byte oracle for the replay (Execute is deterministic per strategy).
    for (std::size_t v = 0; v < kVariants; ++v) {
      const tpch::QueryPlan& plan = plans_[v / 2];
      const core::ExecutionReport report =
          executor_.Execute(plan.graph, plan.sources, Options(v));
      KF_REQUIRE(relational::ApproxSameRowMultiset(report.sink_results.at(plan.sink),
                                                   references_[v / 2]))
          << "tpch_analytic warm-up of variant " << v << " failed its oracle";
      replay_oracle_.push_back(SinkChecksums(plan.graph, report.sink_results));
    }
  }

  void Run(double seconds, obs::Tracer* tracer, SpanRecorder* spans, MachineProbe& probe,
           PhaseResult& out) override {
    log_.clear();
    RunRounds(seconds, probe, out, [&] {
      for (std::size_t v = 0; v < kVariants; ++v) {
        const tpch::QueryPlan& plan = plans_[v / 2];
        core::ExecutorOptions options = Options(v);
        AttachTracer(tracer, options);
        ++out.attempted;
        const auto call = Clock::now();
        core::ExecutionReport report;
        try {
          SpanRecorder::Scope scope(spans, "core.execute");
          report = executor_.Execute(plan.graph, plan.sources, options);
        } catch (const kf::Error&) {
          ++out.failed;
          continue;
        }
        const double latency = Elapsed(call);
        FinishTrace(options);
        SpanRecorder::Scope oracle(spans, "harness.oracle");
        if (!relational::ApproxSameRowMultiset(report.sink_results.at(plan.sink),
                                               references_[v / 2])) {
          ++out.failed;
          ++out.wrong;
          continue;
        }
        oracle.Close();
        out.latency_s.push_back(latency);
        out.AddReport(report, 1.0);
        CountDirect(1, out);
        log_.push_back(v);
      }
    });
  }

  void Replay(double budget_s, SpanRecorder& spans, ReplayResult& out) override {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < log_.size() && Elapsed(start) < budget_s;
         i += ReplayStride(log_.size())) {
      const std::size_t v = log_[i];
      SpanRecorder::Scope item(&spans, "replay.item");
      ReplayQuery query;
      query.graph = &plans_[v / 2].graph;
      query.sources = &plans_[v / 2].sources;
      query.options = Options(v);
      query.oracle = &replay_oracle_[v];
      ReplayLayers(query, executor_, spans, out);
    }
    out.datagen_s = datagen_s_;
  }

  const char* latency_definition() const override {
    return "one QueryExecutor::Execute call (closed loop, 1 client)";
  }

  // The executor's 2-thread pool runs the operators' chunks.
  unsigned probe_parts() const override { return kProbeTwoThreads; }

 private:
  // Variant v runs query v / 2 (Q1, Q21, Q6) serial (even v) or fused+fission.
  static constexpr std::size_t kVariants = 6;

  static core::ExecutorOptions Options(std::size_t variant) {
    core::ExecutorOptions options;
    options.strategy = variant % 2 == 0 ? Strategy::kSerial : Strategy::kFusedFission;
    return options;
  }

  WorkloadConfig config_;
  ThreadPool pool_;
  sim::DeviceSimulator device_;
  core::QueryExecutor executor_;
  tpch::TpchData data_;
  std::vector<tpch::QueryPlan> plans_;
  std::vector<Table> references_;
  std::vector<std::map<NodeId, std::uint64_t>> replay_oracle_;
  double datagen_s_ = 0.0;
  std::vector<std::size_t> log_;
};

// --- paper_estimate ----------------------------------------------------------
//
// Timing-only calls along the paper-figure path: Fig 14/16 SELECT chains at
// 0.5-4 billion elements under every strategy, sharded chains on 2- and
// 4-device groups, and Q1/Q21 with row counts scaled to 6 M lineitems. One
// timed round is 128 rotations through the 28 configurations.
class PaperEstimate final : public Workload {
 public:
  explicit PaperEstimate(const WorkloadConfig& config)
      : config_(config),
        rotations_per_round_(config.smoke ? 1 : 128),
        group2_(sim::DeviceGroup::Homogeneous(2)),
        group4_(sim::DeviceGroup::Homogeneous(4)),
        multi2_(group2_),
        multi4_(group4_),
        executor_(device_) {}

  void Setup() override {
    // Selectivities near the paper's 50% per SELECT; the seed moves them
    // only slightly, so every seed simulates about the same work.
    Rng rng(config_.seed ^ 0xe571ULL);
    auto selectivities = [&](int steps) {
      std::vector<double> s;
      for (int i = 0; i < steps; ++i) s.push_back(rng.UniformDouble(0.49, 0.51));
      return s;
    };
    // Reserve up front: configs point into these vectors.
    const std::vector<std::uint64_t> sweep = LargeSweep();
    chains_.reserve(sweep.size() + 1);
    for (std::uint64_t n : sweep) {
      chains_.push_back(core::MakeSelectChain(n, selectivities(2)));
      for (Strategy s : {Strategy::kSerial, Strategy::kFused, Strategy::kFission,
                         Strategy::kFusedFission}) {
        Config config;
        config.graph = &chains_.back().graph;
        config.rows = &chains_.back().expected_rows;
        config.options.strategy = s;
        configs_.push_back(config);
      }
    }
    chains_.push_back(core::MakeSelectChain(400'000'000, selectivities(4)));
    for (int devices : {2, 4}) {
      Config config;
      config.graph = &chains_.back().graph;
      config.rows = &chains_.back().expected_rows;
      config.options.strategy = Strategy::kFusedFission;
      config.devices = devices;
      configs_.push_back(config);
    }

    const auto start = Clock::now();
    tpch::TpchConfig tpch_config;
    tpch_config.order_count = config_.smoke ? 300 : 1'000;
    tpch_config.supplier_count = config_.smoke ? 50 : 100;
    tpch_config.seed = config_.seed;
    const tpch::TpchData data = tpch::MakeTpchData(tpch_config);
    pilots_.reserve(2);
    pilots_.push_back(tpch::BuildQ1Plan(data));
    pilots_.push_back(tpch::BuildQ21Plan(data));
    datagen_s_ = Elapsed(start);
    const double factor = 6'000'000.0 / static_cast<double>(data.lineitem.row_count());
    scaled_rows_.reserve(pilots_.size());
    for (const tpch::QueryPlan& pilot : pilots_) {
      scaled_rows_.push_back(ScaledRowCounts(pilot.graph, pilot.sources, factor));
      for (Strategy s : {Strategy::kSerial, Strategy::kFused, Strategy::kFusedFission}) {
        Config config;
        config.graph = &pilot.graph;
        config.rows = &scaled_rows_.back();
        config.options.strategy = s;
        config.options.fusion.register_budget = 63;
        configs_.push_back(config);
      }
    }

    // Set-up makespans are the oracle every later call must repeat exactly.
    for (Config& config : configs_) config.makespan = Estimate(config, nullptr).makespan;
    // Fig 16: fused+fission beats fission beats fusion beats serial at every size.
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const double serial = configs_[4 * i].makespan;
      const double fused = configs_[4 * i + 1].makespan;
      const double fission = configs_[4 * i + 2].makespan;
      const double both = configs_[4 * i + 3].makespan;
      KF_REQUIRE(both < fission && fission < fused && fused < serial)
          << "paper_estimate: Fig 16 ordering violated at " << sweep[i] << " elements";
    }
  }

  void Run(double seconds, obs::Tracer* tracer, SpanRecorder* spans, MachineProbe& probe,
           PhaseResult& out) override {
    log_.clear();
    RunRounds(seconds, probe, out, [&] {
      for (std::size_t k = 0; k < configs_.size() * rotations_per_round_; ++k) {
        const std::size_t c = k % configs_.size();
        const Config& config = configs_[c];
        ++out.attempted;
        const auto call = Clock::now();
        core::ExecutionReport report;
        try {
          SpanRecorder::Scope scope(
              spans, config.devices > 1 ? "core.multi_device.estimate" : "core.schedule_sim");
          report = Estimate(config, tracer);
        } catch (const kf::Error&) {
          ++out.failed;
          continue;
        }
        const double latency = Elapsed(call);
        if (report.makespan != config.makespan) {
          ++out.failed;
          ++out.wrong;
          continue;
        }
        out.latency_s.push_back(latency);
        out.AddReport(report, 1.0);
        CountDirect(config.devices, out);
        log_.push_back(c);
      }
    });
  }

  // The calls rotate through the configurations, so the first ones cover
  // every configuration evenly; every k-th call could hit only a few of them.
  // The pilots' functional runs are set-up work and are not replayed.
  void Replay(double budget_s, SpanRecorder& spans, ReplayResult& out) override {
    const auto start = Clock::now();
    const std::size_t items = std::min(log_.size(), kMaxReplayItems);
    for (std::size_t i = 0; i < items && Elapsed(start) < budget_s; ++i) {
      const Config& config = configs_[log_[i]];
      SpanRecorder::Scope item(&spans, "replay.item");
      if (config.devices == 1) {
        ReplayQuery query;
        query.graph = config.graph;
        query.row_counts = config.rows;
        query.options = config.options;
        ReplayLayers(query, executor_, spans, out);
        continue;
      }
      const core::FusionOptions fusion = core::EffectiveFusionOptions(config.options);
      ++out.items;
      {
        SpanRecorder::Scope scope(&spans, "server.plan_key");
        (void)server::FusionPlanCache::KeyFor(*config.graph, fusion);
      }
      {
        SpanRecorder::Scope scope(&spans, "core.plan_fusion");
        (void)core::PlanFusion(*config.graph, fusion);
      }
      SpanRecorder::Scope scope(&spans, "core.multi_device.estimate");
      (void)Estimate(config, nullptr);
    }
    out.datagen_s = datagen_s_;
  }

  const char* latency_definition() const override {
    return "one EstimateOnly call (closed loop, 1 thread)";
  }

  unsigned probe_parts() const override { return kProbeOneThread; }

 private:
  struct Config {
    const core::OpGraph* graph = nullptr;
    const std::map<NodeId, std::uint64_t>* rows = nullptr;
    core::ExecutorOptions options;
    int devices = 1;
    double makespan = 0.0;  // set-up result every call must repeat
  };

  core::ExecutionReport Estimate(const Config& config, obs::Tracer* tracer) {
    core::ExecutorOptions options = config.options;
    AttachTracer(tracer, options);
    core::ExecutionReport report;
    if (config.devices == 1) {
      report = executor_.EstimateOnly(*config.graph, *config.rows, options);
    } else {
      core::MultiDeviceOptions multi;
      multi.base = options;
      const core::MultiDeviceExecutor& executor = config.devices == 2 ? multi2_ : multi4_;
      report = executor.EstimateOnly(*config.graph, *config.rows, multi).combined;
    }
    FinishTrace(options);
    return report;
  }

  WorkloadConfig config_;
  std::size_t rotations_per_round_;
  sim::DeviceSimulator device_;
  sim::DeviceGroup group2_;
  sim::DeviceGroup group4_;
  core::MultiDeviceExecutor multi2_;
  core::MultiDeviceExecutor multi4_;
  core::QueryExecutor executor_;
  std::vector<core::SelectChain> chains_;
  std::vector<tpch::QueryPlan> pilots_;
  std::vector<std::map<NodeId, std::uint64_t>> scaled_rows_;
  std::vector<Config> configs_;
  double datagen_s_ = 0.0;
  std::vector<std::size_t> log_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"dashboard_merge", "adhoc_group",
                                                 "tpch_analytic", "paper_estimate"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config) {
  if (name == "dashboard_merge") return std::make_unique<DashboardMerge>(config);
  if (name == "adhoc_group") return std::make_unique<AdhocGroup>(config);
  if (name == "tpch_analytic") return std::make_unique<TpchAnalytic>(config);
  if (name == "paper_estimate") return std::make_unique<PaperEstimate>(config);
  return nullptr;
}

}  // namespace kf::bench::e2e
