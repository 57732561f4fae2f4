// Property-based differential fuzzer for the execution stack.
//
// Each iteration draws three seeded random operator DAGs from
// tests/core/random_graph.h: one from MakeRandomQuery (the generator the
// property suites use), one from MakeRandomFusedQuery (PROJECT, PRODUCT,
// terminal AGGREGATE, int32 SELECT trees, AND/OR/NOT and guarded-division
// predicates) and one from MakeRandomBarrierQuery (multi-key SORT, UNIQUE
// and set operators over int32/int64/float64 relations with NaN, ±0.0 and
// ±inf). For each it computes the scalar operator-at-a-time
// reference, then sweeps the executor configuration space:
//
//   * all four ExecutionStrategies,
//   * adaptive calibration on and off (a learning CostModelCalibrator is
//     shared across the iteration's runs, so later runs execute replanned
//     segment/stream/placement choices),
//   * multi-device sharding across a two-card DeviceGroup when the graph is
//     shardable,
//   * seeded fault-injection profiles (copy/kernel faults, device OOM,
//     stream stalls) through the resilient retry/degrade path.
//
// The oracle: every run must either produce byte-identical sink tables
// (same schema, rows, order, and value payloads as the reference) or — only
// when faults are enabled — fail with a typed kf::Error. Any mismatch, any
// untyped exception, or a typed failure without faults is a finding: the
// tool prints a REPRO line that replays exactly that iteration and exits 1.
//
// Usage:
//   graph_fuzz [--seed=N] [--iters=N] [--profile=NAME]
// N is a whole unsigned decimal; a malformed value, an unknown flag or an
// unknown profile prints the usage text to stderr and exits 2.
//
// Profiles: none | default | copy-heavy | oom-heavy | stall-heavy |
// corrupt | corrupt-mixed | corrupt-blind | all ("all" cycles every profile
// across iterations; the default). The corrupt profiles inject silent
// bit-flips: the verified ones run with checksummed transfers plus a full
// audit (any surviving mismatch is a detection hole), corrupt-blind runs
// unverified and accepts wrong bytes only when the report itself counts
// them as undetected corruption. CI runs a
// small --iters smoke per PR and a 10k-iteration nightly sweep
// (.github/workflows/{ci,nightly}.yml); confirmed findings get pinned as
// regression tests in tests/core/fuzz_regressions_test.cc.
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/calibration.h"
#include "core/multi_device.h"
#include "core/query_executor.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "sim/device_group.h"
#include "sim/fault_injector.h"
#include "tests/core/random_graph.h"

namespace {

using namespace kf;
using relational::Table;

struct FaultProfile {
  std::string name;
  sim::FaultConfig config;          // seed filled in per run
  core::IntegrityOptions integrity;  // verification arms for corruption runs
};

std::vector<FaultProfile> AllProfiles() {
  std::vector<FaultProfile> profiles;
  profiles.push_back({"none", {}, {}});
  sim::FaultConfig def;
  def.copy_fault_rate = 0.05;
  def.kernel_fault_rate = 0.05;
  def.oom_rate = 0.01;
  def.stall_rate = 0.05;
  profiles.push_back({"default", def, {}});
  sim::FaultConfig copy_heavy;
  copy_heavy.copy_fault_rate = 0.25;
  profiles.push_back({"copy-heavy", copy_heavy, {}});
  sim::FaultConfig oom_heavy;
  oom_heavy.oom_rate = 0.20;
  profiles.push_back({"oom-heavy", oom_heavy, {}});
  sim::FaultConfig stall_heavy;
  stall_heavy.stall_rate = 0.30;
  stall_heavy.stall_multiplier = 8.0;
  profiles.push_back({"stall-heavy", stall_heavy, {}});
  // Silent bit-flips with full verification: checksummed transfers plus a
  // 100% audit, so every corrupted run must either heal to byte-identical
  // bytes or fail typed — a mismatch here is a detection hole.
  core::IntegrityOptions verified;
  verified.verify_transfers = true;
  verified.audit_fraction = 1.0;
  sim::FaultConfig corrupt;
  corrupt.corrupt_h2d_rate = 0.05;
  corrupt.corrupt_d2h_rate = 0.05;
  corrupt.corrupt_kernel_rate = 0.05;
  profiles.push_back({"corrupt", corrupt, verified});
  // Corruption layered over loud faults: retries, degrades, and
  // re-executions interleave; the oracle is unchanged.
  sim::FaultConfig corrupt_mixed = def;
  corrupt_mixed.corrupt_h2d_rate = 0.03;
  corrupt_mixed.corrupt_d2h_rate = 0.03;
  corrupt_mixed.corrupt_kernel_rate = 0.03;
  profiles.push_back({"corrupt-mixed", corrupt_mixed, verified});
  // Corruption with verification OFF: wrong sink bytes are expected, but
  // only when the run itself admits it (corruption_undetected > 0) — a
  // mismatch the report cannot explain is a finding.
  sim::FaultConfig corrupt_blind;
  corrupt_blind.corrupt_h2d_rate = 0.03;
  corrupt_blind.corrupt_d2h_rate = 0.03;
  corrupt_blind.corrupt_kernel_rate = 0.03;
  profiles.push_back({"corrupt-blind", corrupt_blind, {}});
  return profiles;
}

// gtest-free twin of tests/core/byte_identical.h: same schema string, same
// row count, same type tag and stored payload bits per value.
bool TablesByteIdentical(const Table& actual, const Table& expected,
                         std::string* why) {
  std::ostringstream oss;
  if (actual.schema().ToString() != expected.schema().ToString()) {
    oss << "schema mismatch: " << actual.schema().ToString() << " vs "
        << expected.schema().ToString();
    *why = oss.str();
    return false;
  }
  if (actual.row_count() != expected.row_count()) {
    oss << "row count mismatch: " << actual.row_count() << " vs "
        << expected.row_count();
    *why = oss.str();
    return false;
  }
  const std::vector<relational::Row> a = actual.Rows();
  const std::vector<relational::Row> b = expected.Rows();
  for (std::size_t r = 0; r < a.size(); ++r) {
    for (std::size_t f = 0; f < a[r].size(); ++f) {
      const relational::Value& va = a[r][f];
      const relational::Value& vb = b[r][f];
      if (va.type != vb.type || va.i != vb.i ||
          std::bit_cast<std::uint64_t>(va.f) != std::bit_cast<std::uint64_t>(vb.f)) {
        oss << "row " << r << " field " << f << ": " << va.ToString() << " vs "
            << vb.ToString();
        *why = oss.str();
        return false;
      }
    }
  }
  return true;
}

struct FuzzStats {
  std::uint64_t runs = 0;
  std::uint64_t typed_errors = 0;
  std::uint64_t sharded_runs = 0;
  std::uint64_t host_placed = 0;
  std::uint64_t corrupted_commands = 0;
  std::uint64_t corruption_detected = 0;
  std::uint64_t corruption_reexecutions = 0;
  std::uint64_t blind_mismatches = 0;  // wrong bytes admitted by the report
};

// Checks one ExecutionReport (or typed failure) against the reference.
// Returns false and fills `why` on an oracle violation.
bool CheckSinks(const core::ExecutionReport& report,
                const core::RandomQuery& q,
                const std::map<core::NodeId, Table>& truth,
                std::string* why) {
  for (core::NodeId sink : q.graph.Sinks()) {
    if (report.sink_results.count(sink) == 0) {
      *why = "missing sink " + std::to_string(sink);
      return false;
    }
    std::string detail;
    if (!TablesByteIdentical(report.sink_results.at(sink), truth.at(sink),
                             &detail)) {
      *why = "sink " + std::to_string(sink) + ": " + detail;
      return false;
    }
  }
  return true;
}

// The full configuration sweep over one random graph `q` drawn for `seed`.
// Returns false and fills `why` on the first oracle violation. When `tracer`
// is set (KF_TRACE_DIR configured) every run is traced; the violating run's
// span tree is dumped and its path returned in `trace_path`.
bool RunGraph(const core::RandomQuery& q, std::uint64_t seed,
              const FaultProfile& profile, obs::Tracer* tracer, FuzzStats* stats,
              std::string* why, std::string* trace_path) {
  const std::map<core::NodeId, Table> truth = core::ReferenceResults(q);
  const bool faults = profile.config.AnyEnabled();
  // Unverified corruption runs are allowed to return wrong bytes — but only
  // when the report itself admits corruption escaped (undetected > 0).
  const bool blind_corruption =
      profile.config.CorruptionEnabled() && !profile.integrity.Enabled();

  obs::MetricsRegistry metrics;  // keep fuzz traffic out of the default
  sim::FaultConfig fault_config = profile.config;
  fault_config.seed = seed * 31 + 7;
  const sim::FaultInjector injector(fault_config);

  // A learning calibrator shared across the iteration: the first runs feed
  // it, later runs execute its replanned segments/streams/placements.
  core::CostModelCalibrator calibrator{sim::DeviceSpec{}, sim::PcieConfig{}};

  sim::DeviceSimulator device;
  core::QueryExecutor executor(device);

  const auto run_single = [&](core::Strategy strategy, bool calibrated,
                              const char* label) {
    core::ExecutorOptions options;
    options.strategy = strategy;
    options.chunk_count = 4;
    options.metrics = &metrics;
    if (calibrated) options.calibration = &calibrator;
    if (faults) options.fault_injector = &injector;
    options.integrity = profile.integrity;
    obs::TraceContext trace_ctx;
    if (tracer != nullptr) {
      trace_ctx.query_id = tracer->NextQueryId();
      options.tracer = tracer;
      options.trace = trace_ctx;
    }
    const auto finding = [&](const std::string& reason) {
      *why = reason;
      if (tracer != nullptr) {
        *trace_path = tracer->FinishQuery(trace_ctx, /*failed=*/true, reason);
      }
      return false;
    };
    try {
      const core::ExecutionReport report = executor.Execute(q.graph, q.sources,
                                                            options);
      ++stats->runs;
      stats->host_placed += report.host_placed_clusters;
      stats->corrupted_commands += report.corrupted_commands;
      stats->corruption_detected += report.corruption_detected;
      stats->corruption_reexecutions += report.corruption_reexecutions;
      std::string detail;
      if (!CheckSinks(report, q, truth, &detail)) {
        if (blind_corruption && report.corruption_undetected > 0) {
          ++stats->blind_mismatches;  // the report owns up to the wrong bytes
        } else {
          return finding(std::string(label) + " " + core::ToString(strategy) +
                         ": " + detail);
        }
      }
    } catch (const kf::Error& e) {
      ++stats->runs;
      if (!faults) {
        return finding(std::string(label) + " " + core::ToString(strategy) +
                       ": typed error without faults: " + e.what());
      }
      ++stats->typed_errors;  // typed failure under faults: acceptable
    } catch (const std::exception& e) {
      // Untyped exceptions are never acceptable, faults or not.
      ++stats->runs;
      return finding(std::string(label) + " " + core::ToString(strategy) +
                     ": untyped exception: " + e.what());
    }
    if (tracer != nullptr) tracer->FinishQuery(trace_ctx, /*failed=*/false, "");
    return true;
  };

  for (core::Strategy strategy :
       {core::Strategy::kSerial, core::Strategy::kFused,
        core::Strategy::kFission, core::Strategy::kFusedFission}) {
    if (!run_single(strategy, /*calibrated=*/false, "cold") ||
        !run_single(strategy, /*calibrated=*/true, "calib")) {
      return false;
    }
  }

  // Multi-device sharding across two cards (calibrated base options), when
  // the graph shape supports it.
  if (core::MultiDeviceExecutor::Shardable(q.graph)) {
    sim::DeviceGroup group = sim::DeviceGroup::Homogeneous(2);
    core::MultiDeviceExecutor multi(group);
    core::MultiDeviceOptions options;
    options.base.strategy = core::Strategy::kFusedFission;
    options.base.chunk_count = 4;
    options.base.metrics = &metrics;
    options.base.calibration = &calibrator;
    if (faults) options.base.fault_injector = &injector;
    options.base.integrity = profile.integrity;
    obs::TraceContext trace_ctx;
    if (tracer != nullptr) {
      trace_ctx.query_id = tracer->NextQueryId();
      options.base.tracer = tracer;
      options.base.trace = trace_ctx;
    }
    const auto finding = [&](const std::string& reason) {
      *why = reason;
      if (tracer != nullptr) {
        *trace_path = tracer->FinishQuery(trace_ctx, /*failed=*/true, reason);
      }
      return false;
    };
    try {
      const core::MultiDeviceReport report = multi.Execute(q.graph, q.sources,
                                                           options);
      ++stats->runs;
      if (report.sharded) ++stats->sharded_runs;
      stats->corrupted_commands += report.combined.corrupted_commands;
      stats->corruption_detected += report.combined.corruption_detected;
      stats->corruption_reexecutions += report.combined.corruption_reexecutions;
      std::string detail;
      if (!CheckSinks(report.combined, q, truth, &detail)) {
        if (blind_corruption && report.combined.corruption_undetected > 0) {
          ++stats->blind_mismatches;
        } else {
          return finding("multi-device: " + detail);
        }
      }
    } catch (const kf::Error& e) {
      ++stats->runs;
      if (!faults) {
        return finding(std::string("multi-device: typed error without faults: ") +
                       e.what());
      }
      ++stats->typed_errors;
    } catch (const std::exception& e) {
      ++stats->runs;
      return finding(std::string("multi-device: untyped exception: ") + e.what());
    }
    if (tracer != nullptr) tracer->FinishQuery(trace_ctx, /*failed=*/false, "");
  }
  return true;
}

void PrintUsage(std::ostream& os) {
  os <<
      "graph_fuzz: property-based differential fuzzer (see file header)\n"
      "  --seed=N      base seed; iteration i fuzzes graph seed N+i (default 1)\n"
      "  --iters=N     iterations (default 200)\n"
      "  --profile=P   none|default|copy-heavy|oom-heavy|stall-heavy|\n"
      "                corrupt|corrupt-mixed|corrupt-blind|all\n"
      "                (default all: cycle profiles across iterations)\n";
}

// Parses a whole decimal count: digits only, no sign, no trailing text, no
// overflow.
std::optional<std::uint64_t> ParseCount(const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t base_seed = 1;
  std::uint64_t iters = 200;
  std::string profile_name = "all";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0 || arg.rfind("--iters=", 0) == 0) {
      const std::size_t eq = arg.find('=');
      const std::string flag = arg.substr(0, eq);
      const std::string text = arg.substr(eq + 1);
      const std::optional<std::uint64_t> value = ParseCount(text);
      if (!value.has_value()) {
        std::cerr << "invalid " << flag << " '" << text << "'\n";
        PrintUsage(std::cerr);
        return 2;
      }
      (flag == "--seed" ? base_seed : iters) = *value;
    } else if (arg.rfind("--profile=", 0) == 0) {
      profile_name = arg.substr(10);
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      PrintUsage(std::cerr);
      return 2;
    }
  }

  const std::vector<FaultProfile> all = AllProfiles();
  std::vector<FaultProfile> profiles;
  if (profile_name == "all") {
    profiles = all;
  } else {
    for (const FaultProfile& p : all) {
      if (p.name == profile_name) profiles.push_back(p);
    }
    if (profiles.empty()) {
      std::cerr << "unknown profile: " << profile_name << "\n";
      PrintUsage(std::cerr);
      return 2;
    }
  }

  // With KF_TRACE_DIR set every run is traced and a finding dumps the
  // violating run's full span tree next to the REPRO line.
  std::unique_ptr<obs::Tracer> tracer;
  const char* trace_dir = std::getenv("KF_TRACE_DIR");
  if (trace_dir != nullptr && trace_dir[0] != '\0') {
    tracer = std::make_unique<obs::Tracer>();
  }

  struct Generator {
    const char* name;
    core::RandomQuery (*make)(std::uint64_t);
  };
  const Generator generators[] = {
      {"MakeRandomQuery", core::MakeRandomQuery},
      {"MakeRandomFusedQuery", core::MakeRandomFusedQuery},
      {"MakeRandomBarrierQuery", core::MakeRandomBarrierQuery}};

  FuzzStats stats;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = base_seed + i;
    const FaultProfile& profile = profiles[i % profiles.size()];
    for (const Generator& generator : generators) {
      const core::RandomQuery q = generator.make(seed);
      std::string why;
      std::string trace_path;
      if (!RunGraph(q, seed, profile, tracer.get(), &stats, &why, &trace_path)) {
        std::cerr << "FINDING (" << generator.name << "): " << why << "\n"
                  << "graph:\n" << q.graph.ToString()
                  << "REPRO: graph_fuzz --seed=" << seed
                  << " --iters=1 --profile=" << profile.name << "\n";
        if (!trace_path.empty()) std::cerr << "TRACE: " << trace_path << "\n";
        return 1;
      }
    }
    if ((i + 1) % 100 == 0) {
      std::cout << "... " << (i + 1) << "/" << iters << " iterations, "
                << stats.runs << " runs, " << stats.typed_errors
                << " typed errors, " << stats.sharded_runs << " sharded\n";
    }
  }
  std::cout << "OK: " << iters << " iterations (" << std::size(generators) * iters
            << " graphs), "
            << stats.runs << " runs ("
            << stats.sharded_runs << " sharded, " << stats.typed_errors
            << " typed errors under faults, " << stats.host_placed
            << " host-placed clusters, " << stats.corrupted_commands
            << " corrupted commands / " << stats.corruption_detected
            << " detected / " << stats.corruption_reexecutions
            << " re-executions, " << stats.blind_mismatches
            << " admitted blind mismatches), 0 findings\n";
  return 0;
}
