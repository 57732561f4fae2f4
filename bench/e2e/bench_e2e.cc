// bench_e2e — the end-to-end benchmark harness (see README.md).
//
//   bench_e2e --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//             [--out <dir>] [--json <file>] [--smoke]
//
// Sets the workload up at least five times and for at least two seconds (the
// median is setup_s), measures it for --seconds in timed rounds of fixed
// work, checks every result against the workload's oracle, prints every
// end-to-end metric by name with its unit and sample count, and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}. Wall metrics are
// reported at the reference machine's speed, from the MachineProbe samples
// taken between set-ups and rounds. With --trace 1 the run instead splits
// --seconds in three: untraced, with the program's tracer attached, and a
// replay of a sample through every layer; it writes <out>/<workload>.trace.json
// and <out>/<workload>.layers.json and reports the per-layer metrics. Exits 1
// on a wrong result, 2 on a usage error, 3 when an unoptimized or sanitizer
// build is asked for wall metrics.
#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench/e2e/cli.h"
#include "bench/e2e/layers.h"
#include "bench/e2e/probe.h"
#include "bench/e2e/stats.h"
#include "bench/e2e/workloads.h"
#include "common/table_printer.h"
#include "obs/json.h"
#include "obs/tracer.h"

namespace {

using namespace kf::bench::e2e;
using kf::TablePrinter;
using kf::obs::Json;

// Wall-clock numbers from an unoptimized or sanitized build say nothing
// about the program, so such builds only check correctness.
#if defined(__OPTIMIZE__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

// `value` is what the benchmark reports: a wall metric at the reference
// machine's speed. `measured` is the raw value the scaling started from.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  double measured = 0.0;
  std::string samples;
};

constexpr std::size_t kMinSetups = 5;
constexpr double kMinSetupSeconds = 2.0;

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Throughput of each timed round.
std::vector<double> RoundQps(const PhaseResult& phase) {
  std::vector<double> qps;
  for (const PhaseResult::Round& round : phase.rounds) {
    qps.push_back(static_cast<double>(round.end - round.begin) / round.wall_s);
  }
  return qps;
}

// Throughput is the median over the timed rounds; latency percentiles are
// over every sample of the run, so that at least ten samples lie beyond p90
// (a round of dashboard_merge or tpch_analytic has fewer). Wall metrics are
// scaled by the machine's slowdown against the reference machine, measured
// during set-up (`setup_slowdown`) and during the measured phase.
std::vector<Metric> EndToEnd(const PhaseResult& phase, const std::vector<double>& round_qps,
                             const std::vector<double>& setup_s, double setup_slowdown,
                             double slowdown) {
  const double sim_queries = phase.Counter("queries");
  const std::string queries = std::to_string(phase.latency_s.size()) + " queries";
  auto duration = [&](const std::string& name, const std::string& unit, double measured,
                      const std::string& samples) {
    return Metric{name, unit, measured / slowdown, measured, samples};
  };
  const double setup = Percentile(setup_s, 50);
  const double qps = Percentile(round_qps, 50);
  const double sim_ms = sim_queries > 0 ? phase.sim_s * 1e3 / sim_queries : 0.0;
  const double rss_mb = PeakRssMb();
  return {
      Metric{"setup_s", "s", setup / setup_slowdown, setup,
             std::to_string(setup_s.size()) + " set-ups"},
      Metric{"wall_qps", "queries/s", qps * slowdown, qps,
             std::to_string(round_qps.size()) + " rounds, " + queries},
      duration("wall_p50_ms", "ms", Percentile(phase.latency_s, 50) * 1e3, queries),
      duration("wall_p90_ms", "ms", Percentile(phase.latency_s, 90) * 1e3, queries),
      Metric{"sim_ms_per_query", "sim_ms", sim_ms, sim_ms,
             "first " + std::to_string(kCountedRounds) + " rounds, " +
                 TablePrinter::Num(sim_queries, 0) + " queries"},
      Metric{"peak_rss_mb", "MB", rss_mb, rss_mb, "whole run"},
  };
}

bool WriteFile(const std::filesystem::path& path, const std::string& text) {
  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);
  std::ofstream out(path);
  out << text;
  out.close();
  if (!out) std::cerr << "cannot write " << path << "\n";
  return static_cast<bool>(out);
}

Json MetricJson(double value, const std::string& unit) {
  Json entry = Json::MakeObject();
  entry["value"] = Json(value);
  entry["unit"] = Json(unit);
  return entry;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  std::uint64_t trace = 0;
  std::string out_dir = "bench-out/e2e";
  std::string json_path;
  bool smoke = false;

  std::string usage =
      "usage: bench_e2e --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]\n"
      "                 [--out <dir>] [--json <file>] [--smoke]\n"
      "  --workload <name>  one of:";
  for (const std::string& name : WorkloadNames()) usage += " " + name;
  usage +=
      "\n"
      "  --seed <n>         input seed (default 1)\n"
      "  --seconds <s>      measured time, 0 < s <= 600 (default 20)\n"
      "  --trace 0|1        1: traced run reporting per-layer metrics\n"
      "  --out <dir>        where a traced run writes its files (default bench-out/e2e)\n"
      "  --json <file>      also write the full result document\n"
      "  --smoke            tiny sizes; runs (without wall metrics) in any build\n";
  ArgParser parser(usage);
  parser.AddString("--workload", &workload_name);
  parser.AddUint("--seed", &seed, 0, UINT64_MAX);
  parser.AddPositive("--seconds", &seconds, 0.0, 600.0);
  parser.AddUint("--trace", &trace, 0, 1);
  parser.AddString("--out", &out_dir);
  parser.AddString("--json", &json_path);
  parser.AddSwitch("--smoke", &smoke);
  parser.Parse(argc, argv);
  if (workload_name.empty()) parser.Fail("--workload is required");
  const WorkloadConfig config{seed, smoke};
  // Declared before the workload, which may hold it in a scheduler.
  kf::obs::Tracer tracer;
  std::unique_ptr<Workload> workload = MakeWorkload(workload_name, config);
  if (workload == nullptr) parser.Fail("unknown workload '" + workload_name + "'");
  if (!kOptimizedBuild && !smoke) {
    std::cerr << "bench_e2e: refusing to measure an unoptimized or sanitizer build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release (or pass --smoke)\n";
    return 3;
  }

  std::cout << "=== bench_e2e: " << workload_name << " (seed " << seed << ", "
            << seconds << " s" << (trace ? ", traced" : "") << ") ===\n";

  MachineProbe probe(workload->probe_parts());
  std::vector<double> setup_s;
  const bool repeat_setup = trace == 0 && !smoke;
  try {
    double setup_total = 0.0;
    do {
      workload.reset();
      auto fresh = MakeWorkload(workload_name, config);
      const auto start = Clock::now();
      fresh->Setup();
      setup_s.push_back(SecondsBetween(start, Clock::now()));
      setup_total += setup_s.back();
      workload = std::move(fresh);
      probe.Sample();
    } while (repeat_setup && (setup_s.size() < kMinSetups || setup_total < kMinSetupSeconds));
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: set-up failed: " << e.what() << "\n";
    return 1;
  }
  const double setup_slowdown = probe.Slowdown();
  const std::size_t setup_probes = probe.samples();
  probe.Reset();

  PhaseResult phase;
  PhaseResult traced;
  std::vector<LayerMetric> layer_metrics;
  std::uint64_t replay_wrong = 0;
  if (trace == 0) {
    workload->Run(seconds, nullptr, nullptr, probe, phase);
  } else {
    workload->Run(seconds / 3, nullptr, nullptr, probe, phase);
    SpanRecorder phase_spans;
    workload->Run(seconds / 3, &tracer, &phase_spans, probe, traced);
    SpanRecorder replay_spans;
    ReplayResult replay;
    workload->Replay(seconds / 3, replay_spans, replay);
    replay_wrong = replay.wrong;

    const std::filesystem::path dir(out_dir);
    const auto export_start = Clock::now();
    const bool wrote_trace = WriteFile(dir / (workload_name + ".trace.json"),
                                       kf::obs::ToSessionTraceJson(tracer).Dump());
    const double export_s = SecondsBetween(export_start, Clock::now());
    const double untraced_qps = static_cast<double>(phase.latency_s.size()) / phase.wall_s;
    const double traced_qps = static_cast<double>(traced.latency_s.size()) / traced.wall_s;
    layer_metrics = LayerMetrics(traced, replay, replay_spans,
                                 traced_qps > 0 ? untraced_qps / traced_qps : 0.0, export_s);

    Json layers = Json::MakeObject();
    layers["workload"] = Json(workload_name);
    layers["seed"] = Json(seed);
    layers["replay_items"] = Json(replay.items);
    Json spans = Json::MakeObject();
    spans["traced_phase"] = phase_spans.ToJson();
    spans["replay"] = replay_spans.ToJson();
    layers["spans"] = std::move(spans);
    Json metrics = Json::MakeObject();
    TablePrinter table({"per-layer metric", "value", "unit", "better"});
    for (const LayerMetric& m : layer_metrics) {
      Json entry = MetricJson(m.value, m.unit);
      entry["better"] = Json(m.better);
      metrics[m.name] = std::move(entry);
      table.AddRow({m.name, TablePrinter::Num(m.value, 4), m.unit, m.better});
    }
    layers["metrics"] = std::move(metrics);
    const bool wrote_layers =
        WriteFile(dir / (workload_name + ".layers.json"), layers.Dump(2));
    if (!wrote_trace || !wrote_layers) return 1;

    std::cout << "\nper-layer metrics (traced phase " << traced.latency_s.size()
              << " queries, replay " << replay.items << " items):\n";
    table.Print();
    std::vector<std::pair<double, std::string>> by_self;
    double replay_total = 0.0;
    for (const auto& [name, stat] : replay_spans.stats()) {
      by_self.emplace_back(stat.self_s, name);
      replay_total += stat.self_s;
    }
    std::sort(by_self.rbegin(), by_self.rend());
    std::cout << "\nreplay self time by layer:\n";
    TablePrinter self_table({"span", "self (s)", "share"});
    for (const auto& [self, name] : by_self) {
      self_table.AddRow({name, TablePrinter::Num(self, 4),
                         TablePrinter::Num(100.0 * self / replay_total, 1) + "%"});
    }
    self_table.Print();
    std::cout << "\n[wrote " << (dir / (workload_name + ".trace.json")).string() << " and "
              << (dir / (workload_name + ".layers.json")).string() << "]\n";
  }

  const std::uint64_t attempted = phase.attempted + traced.attempted;
  const std::uint64_t failed = phase.failed + traced.failed;
  const bool correct = phase.wrong == 0 && traced.wrong == 0 && replay_wrong == 0;
  const std::vector<double> round_qps = RoundQps(phase);
  const double slowdown = probe.Slowdown();
  const std::vector<Metric> e2e =
      EndToEnd(phase, round_qps, setup_s, setup_slowdown, slowdown);

  std::cout << "\nlatency sample = " << workload->latency_definition() << "\n"
            << "machine slowdown = " << TablePrinter::Num(setup_slowdown, 4) << " in set-up ("
            << setup_probes << " probe samples), " << TablePrinter::Num(slowdown, 4)
            << " measuring (" << probe.samples()
            << "); values are at reference speed\n";
  TablePrinter table({"end-to-end metric", "value", "measured", "unit", "samples"});
  for (const Metric& m : e2e) {
    table.AddRow({m.name, kOptimizedBuild ? TablePrinter::Num(m.value, 4) : "(unoptimized)",
                  kOptimizedBuild ? TablePrinter::Num(m.measured, 4) : "-", m.unit, m.samples});
  }
  table.Print();
  const double tail_p = HighestSupportedPercentile(phase.latency_s.size());
  const double tail_ms = Percentile(phase.latency_s, tail_p) * 1e3;
  std::cout << "tail: p" << tail_p << " = " << TablePrinter::Num(tail_ms / slowdown, 4)
            << " ms (measured " << TablePrinter::Num(tail_ms, 4) << "); oracle: "
            << (correct ? "pass" : "FAIL") << "; failed " << failed << " of " << attempted
            << " attempted\n";

  Json line = Json::MakeObject();
  line["correct"] = Json(correct);
  line["attempted"] = Json(attempted);
  line["failed"] = Json(failed);
  Json metrics = Json::MakeObject();
  if (trace == 0) {
    if (kOptimizedBuild) {
      for (const Metric& m : e2e) metrics[m.name] = MetricJson(m.value, m.unit);
    }
  } else {
    for (const LayerMetric& m : layer_metrics) metrics[m.name] = MetricJson(m.value, m.unit);
  }
  line["metrics"] = metrics;

  if (!json_path.empty()) {
    Json doc = line;
    doc["schema"] = Json("kf-bench-e2e-v1");
    doc["workload"] = Json(workload_name);
    doc["seed"] = Json(seed);
    doc["seconds"] = Json(seconds);
    doc["smoke"] = Json(smoke);
    doc["trace"] = Json(trace != 0);
    doc["optimized_build"] = Json(kOptimizedBuild);
    doc["setup_machine_slowdown"] = Json(setup_slowdown);
    doc["machine_slowdown"] = Json(slowdown);
    Json per_round = Json::MakeArray();
    for (const double qps : round_qps) per_round.push_back(Json(qps));
    doc["round_qps"] = std::move(per_round);
    doc["failed_frac"] = Json(attempted > 0 ? static_cast<double>(failed) /
                                                  static_cast<double>(attempted)
                                            : 0.0);
    if (kOptimizedBuild) {
      Json end_to_end = Json::MakeObject();
      for (const Metric& m : e2e) {
        Json entry = MetricJson(m.value, m.unit);
        entry["measured"] = Json(m.measured);
        entry["samples"] = Json(m.samples);
        end_to_end[m.name] = std::move(entry);
      }
      // p99 only where at least ten samples lie beyond it.
      if (tail_p >= 99.0) {
        const double p99_ms = Percentile(phase.latency_s, 99) * 1e3;
        Json entry = MetricJson(p99_ms / slowdown, "ms");
        entry["measured"] = Json(p99_ms);
        entry["samples"] = Json(std::to_string(phase.latency_s.size()) + " queries");
        end_to_end["wall_p99_ms"] = std::move(entry);
      }
      doc["end_to_end"] = std::move(end_to_end);
    }
    if (!WriteFile(json_path, doc.Dump(2))) return 1;
  }
  std::cout << line.Dump() << std::endl;
  return correct ? 0 : 1;
}
