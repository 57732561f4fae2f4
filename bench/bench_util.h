// Shared helpers for the per-figure benchmark harnesses.
//
// Every harness prints the same rows/series the corresponding paper table or
// figure reports, computed from the simulated device (see DESIGN.md §6 for
// the timing methodology). Headline comparisons against the paper's numbers
// are summarized at the end of each binary and collected in EXPERIMENTS.md.
//
// Besides the human-readable tables, every harness supports machine-readable
// output for CI (see docs/observability.md):
//   --json <path>   write the run as a kf-bench-v1 JSON document (series,
//                   summary metrics, and a dump of the metrics registry)
//   --scale <f>     scale the element-count sweeps by `f` (CI smoke runs use
//                   small scales; summaries stay deterministic)
// Harnesses call Init(argc, argv, name) first, Record()/Summary() as they
// compute, and `return Finish();` last.
#ifndef KF_BENCH_BENCH_UTIL_H_
#define KF_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/buffer_arena.h"
#include "common/error.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "core/query_executor.h"
#include "core/select_chain.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/regression.h"

namespace kf::bench {

// State of the running harness: CLI options plus the series and summary
// metrics recorded so far. One per process.
struct Session {
  std::string benchmark;    // e.g. "fig14_fission"
  std::string json_path;    // empty: no JSON output
  double scale = 1.0;       // sweep scale factor (--scale)

  struct Series {
    std::string name;
    std::string unit;
    std::vector<std::pair<double, double>> points;  // (x, y)
  };
  struct SummaryMetric {
    std::string name;
    double value = 0.0;
    obs::Direction direction = obs::Direction::kHigherIsBetter;
    std::string unit;
  };
  std::vector<Series> series;
  std::vector<SummaryMetric> summaries;
};

inline Session& CurrentSession() {
  static Session session;
  return session;
}

// Largest accepted --scale: keeps every scaled sweep (at most 4e9 elements
// at scale 1) far inside uint64_t.
inline constexpr double kMaxScale = 1000.0;

inline void PrintUsage(std::ostream& os, const std::string& benchmark) {
  os << "usage: bench_" << benchmark << " [--json <path>] [--scale <factor>]\n"
        "  --json <path>    write a kf-bench-v1 JSON document\n"
        "  --scale <f>      scale element-count sweeps by f, 0 < f <= "
     << kMaxScale << "\n";
}

// Strict --scale value: the whole text is one finite number in
// (0, kMaxScale]. Anything else ("abc", "nan", "inf", "-1", "1e30", "1abc",
// leading blanks) is nullopt.
inline std::optional<double> ParseScale(const std::string& text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) != 0) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE || !std::isfinite(value) ||
      value <= 0.0 || value > kMaxScale) {
    return std::nullopt;
  }
  return value;
}

// Parses harness CLI flags strictly. A malformed value, a flag missing its
// value, or an unknown flag prints the usage text to stderr and exits 2, so
// CI typos fail loudly. Exits (success) on --help.
inline void Init(int argc, char** argv, const std::string& benchmark) {
  Session& session = CurrentSession();
  session.benchmark = benchmark;
  const auto fail = [&](const std::string& why) {
    std::cerr << "bench_" << benchmark << ": " << why << "\n";
    PrintUsage(std::cerr, benchmark);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" || arg == "--scale") {
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        fail(arg + " requires a value");
      }
      const std::string value = argv[++i];
      if (arg == "--json") {
        session.json_path = value;
        continue;
      }
      const std::optional<double> scale = ParseScale(value);
      if (!scale.has_value()) fail("invalid --scale '" + value + "'");
      session.scale = *scale;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout, benchmark);
      std::exit(0);
    } else {
      fail("unknown argument '" + arg + "'");
    }
  }
}

// Linearly interpolated percentile (p in [0, 100]) of `values`; 0 when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// Sweep scale factor set with --scale (1.0 by default).
inline double Scale() { return CurrentSession().scale; }

// Applies the session scale to an element count (never below 4096 so staged
// kernels keep a sane chunking).
inline std::uint64_t Scaled(std::uint64_t elements) {
  const double scaled = static_cast<double>(elements) * Scale();
  return std::max<std::uint64_t>(4096, static_cast<std::uint64_t>(scaled));
}

// Records one point of a named series (gated by bench_compare, two-sided).
inline void Record(const std::string& series_name, const std::string& unit, double x,
                   double y) {
  Session& session = CurrentSession();
  for (auto& series : session.series) {
    if (series.name == series_name) {
      series.points.emplace_back(x, y);
      return;
    }
  }
  session.series.push_back(Session::Series{series_name, unit, {{x, y}}});
}

// Records a named headline number (gated by bench_compare in `direction`).
inline void Summary(const std::string& name, double value,
                    obs::Direction direction = obs::Direction::kHigherIsBetter,
                    const std::string& unit = "") {
  CurrentSession().summaries.push_back(
      Session::SummaryMetric{name, value, direction, unit});
}

// Serializes the session as a kf-bench-v1 document:
//   {"schema": "kf-bench-v1", "benchmark": ..., "scale": ...,
//    "series": [{"name", "unit", "points": [[x, y], ...]}, ...],
//    "summaries": [{"name", "value", "direction", "unit"}, ...],
//    "metrics": <registry dump>}
inline obs::Json SessionToJson(const Session& session,
                               const obs::MetricsRegistry& registry) {
  obs::Json doc = obs::Json::MakeObject();
  doc["schema"] = obs::Json("kf-bench-v1");
  doc["benchmark"] = obs::Json(session.benchmark);
  doc["scale"] = obs::Json(session.scale);
  obs::Json series_list = obs::Json::MakeArray();
  for (const auto& series : session.series) {
    obs::Json entry = obs::Json::MakeObject();
    entry["name"] = obs::Json(series.name);
    entry["unit"] = obs::Json(series.unit);
    obs::Json points = obs::Json::MakeArray();
    for (const auto& [x, y] : series.points) {
      points.push_back(obs::Json(obs::Json::Array{obs::Json(x), obs::Json(y)}));
    }
    entry["points"] = std::move(points);
    series_list.push_back(std::move(entry));
  }
  doc["series"] = std::move(series_list);
  obs::Json summaries = obs::Json::MakeArray();
  for (const auto& summary : session.summaries) {
    obs::Json entry = obs::Json::MakeObject();
    entry["name"] = obs::Json(summary.name);
    entry["value"] = obs::Json(summary.value);
    entry["direction"] = obs::Json(obs::ToString(summary.direction));
    entry["unit"] = obs::Json(summary.unit);
    summaries.push_back(std::move(entry));
  }
  doc["summaries"] = std::move(summaries);
  doc["metrics"] = registry.ToJson();
  return doc;
}

// Snapshots the process-wide host-substrate counters into gauges:
//   hostperf.pool_hits            arena checkouts served from the pool
//   hostperf.pool_misses          checkouts that had to construct fresh
//   hostperf.pool_hit_rate_ppm    hits / (hits+misses), parts per million
//   hostperf.arena_reused_bytes   capacity handed back out instead of malloc'd
//   hostperf.typed_predicates     SELECT members run on typed kernels
//   hostperf.fallback_predicates  SELECT members run as typed column programs
// The counters are cumulative since process start and shared by every run
// and thread, so no run records them; the harness reads them once, here.
inline void RecordHostPerf(obs::MetricsRegistry& registry) {
  const HostPerfCounters& counters = HostPerfCounters::Global();
  const std::uint64_t hits = counters.pool_hits.load(std::memory_order_relaxed);
  const std::uint64_t misses = counters.pool_misses.load(std::memory_order_relaxed);
  registry.GetGauge("hostperf.pool_hits").Set(hits);
  registry.GetGauge("hostperf.pool_misses").Set(misses);
  const std::uint64_t total = hits + misses;
  registry.GetGauge("hostperf.pool_hit_rate_ppm")
      .Set(total == 0 ? 0 : hits * 1'000'000 / total);
  registry.GetGauge("hostperf.arena_reused_bytes")
      .Set(counters.arena_reused_bytes.load(std::memory_order_relaxed));
  registry.GetGauge("hostperf.typed_predicates")
      .Set(counters.typed_predicates.load(std::memory_order_relaxed));
  registry.GetGauge("hostperf.fallback_predicates")
      .Set(counters.fallback_predicates.load(std::memory_order_relaxed));
}

// Writes the JSON document if --json was given, with the host-substrate
// counters snapshotted into the default registry first. Returns the process
// exit code (nonzero when the file cannot be written).
inline int Finish() {
  Session& session = CurrentSession();
  if (session.json_path.empty()) return 0;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  RecordHostPerf(registry);
  const obs::Json doc = SessionToJson(session, registry);
  std::ofstream out(session.json_path);
  if (!out) {
    std::cerr << "cannot write JSON output to '" << session.json_path << "'\n";
    return 1;
  }
  out << doc.Dump(2);
  out.close();
  std::cout << "\n[json written to " << session.json_path << "]\n";
  return out.fail() ? 1 : 0;
}

// The element-count sweep the paper uses for the in-memory experiments
// (Figs 4, 8, 11, 12): tens to hundreds of millions of 32-bit integers.
// Scaled by --scale.
inline std::vector<std::uint64_t> PaperSweep() {
  std::vector<std::uint64_t> sweep;
  for (std::uint64_t n :
       {4'194'304ull, 33'554'432ull, 104'857'600ull, 205'520'896ull, 415'236'096ull}) {
    sweep.push_back(Scaled(n));
  }
  return sweep;
}

// The large-data sweep for the fission experiments (Figs 14, 16): 0.5-4
// billion elements, beyond the 6 GB device memory. Scaled by --scale.
inline std::vector<std::uint64_t> LargeSweep() {
  std::vector<std::uint64_t> sweep;
  for (std::uint64_t n : {500'000'000ull, 1'000'000'000ull, 2'000'000'000ull,
                          3'000'000'000ull, 4'000'000'000ull}) {
    sweep.push_back(Scaled(n));
  }
  return sweep;
}

inline std::string Millions(std::uint64_t elements) {
  return TablePrinter::Num(static_cast<double>(elements) / 1e6, 1) + "M";
}

// Runs a select chain in timing-only mode and returns the report.
inline core::ExecutionReport RunChain(
    const core::QueryExecutor& executor, const core::SelectChain& chain,
    core::Strategy strategy,
    core::IntermediatePolicy policy = core::IntermediatePolicy::kKeepOnDevice,
    int fission_segments = 12,
    sim::HostMemoryKind host_memory = sim::HostMemoryKind::kPinned) {
  core::ExecutorOptions options;
  options.strategy = strategy;
  options.intermediates = policy;
  options.fission_segments = fission_segments;
  options.host_memory = host_memory;
  return executor.EstimateOnly(chain.graph, chain.expected_rows, options);
}

inline double ChainThroughput(const core::ExecutionReport& report,
                              const core::SelectChain& chain) {
  return report.ThroughputGBs(chain.input_bytes());
}

// Realized per-node row counts from a small functional run, scaled by
// `factor` to model a production-sized data set. Aggregations whose group
// count is bounded (e.g. Q1's 6 flag/status groups) keep their realized
// cardinality; aggregations keyed by scaling attributes (e.g. per-order
// counts) scale with the input.
inline std::map<core::NodeId, std::uint64_t> ScaledRowCounts(
    const core::OpGraph& graph,
    const std::map<core::NodeId, relational::Table>& sources, double factor) {
  std::map<core::NodeId, relational::Table> computed;
  std::map<core::NodeId, std::uint64_t> rows;
  auto table_of = [&](core::NodeId id) -> const relational::Table& {
    auto it = sources.find(id);
    return it != sources.end() ? it->second : computed.at(id);
  };
  for (core::NodeId id : graph.TopologicalOrder()) {
    const core::OpNode& node = graph.node(id);
    std::uint64_t realized = 0;
    if (node.is_source) {
      realized = sources.at(id).row_count();
    } else {
      const relational::Table& left = table_of(node.inputs[0]);
      const relational::Table* right =
          node.inputs.size() > 1 ? &table_of(node.inputs[1]) : nullptr;
      relational::Table out = relational::ApplyOperator(node.desc, left, right);
      realized = out.row_count();
      computed.emplace(id, std::move(out));
    }
    const bool bounded_groups =
        node.desc.kind == relational::OpKind::kAggregate && realized <= 64;
    const bool downstream_of_bounded =
        !node.is_source && !node.inputs.empty() &&
        rows.count(node.inputs[0]) != 0 &&
        rows.at(node.inputs[0]) <= 64 && realized <= 64;
    rows[id] = (bounded_groups || downstream_of_bounded)
                   ? realized
                   : static_cast<std::uint64_t>(static_cast<double>(realized) * factor);
  }
  return rows;
}

inline void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n"
            << "Reproduces: " << paper_ref << "\n\n";
}

inline void PrintSummaryLine(const std::string& line) {
  std::cout << "  -> " << line << "\n";
}

}  // namespace kf::bench

#endif  // KF_BENCH_BENCH_UTIL_H_
