// bench_e2e_compare — compares two sets of bench_e2e runs.
//
//   bench_e2e_compare <base_dir> <new_dir> [--benchmark <BENCHMARK.json>]
//
// Reads every run document (bench_e2e --json) in the two directories, groups
// the untraced runs by workload, and for every end-to-end metric listed in
// BENCHMARK.json prints each side's median and quartiles and a verdict:
//
//   ok          the new median is within the metric's bound of the base
//               median, or every new run reads better than every base run
//   unresolved  either side's interquartile spread, as a share of its
//               median, is wider than the bound
//   regressed   the new median is worse than the base by more than the bound
//
// Exits 0 when nothing regressed, 1 on a regression or a metric missing from
// one side, 2 on a usage, I/O or parse error.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/e2e/cli.h"
#include "bench/e2e/stats.h"
#include "common/table_printer.h"
#include "obs/json.h"

namespace {

using kf::TablePrinter;
using kf::obs::Json;
using namespace kf::bench::e2e;

struct Bound {
  std::string name;
  bool higher_is_better = false;
  double bound = 0.0;
};

Json ReadJson(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::stringstream text;
  text << in.rdbuf();
  return Json::Parse(text.str());
}

// workload -> metric -> one value per run.
using Runs = std::map<std::string, std::map<std::string, std::vector<double>>>;

Runs LoadRuns(const std::filesystem::path& dir) {
  if (!std::filesystem::is_directory(dir)) {
    throw std::runtime_error(dir.string() + " is not a directory");
  }
  Runs runs;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    const Json doc = ReadJson(entry.path());
    const Json* schema = doc.is_object() ? doc.Find("schema") : nullptr;
    if (schema == nullptr || !schema->is_string() || schema->str() != "kf-bench-e2e-v1") {
      continue;  // trace and layer files share the directory
    }
    if (doc.at("trace").bool_value() || !doc.Has("end_to_end")) continue;
    auto& metrics = runs[doc.at("workload").str()];
    for (const auto& [name, value] : doc.at("end_to_end").object()) {
      metrics[name].push_back(value.at("value").number());
    }
  }
  return runs;
}

std::vector<Bound> LoadBounds(const std::filesystem::path& path) {
  std::vector<Bound> bounds;
  const Json benchmark = ReadJson(path);
  for (const Json& entry : benchmark.at("end_to_end").array()) {
    bounds.push_back(Bound{entry.at("name").str(), entry.at("better").str() == "higher",
                           entry.at("bound").number()});
  }
  return bounds;
}

std::string Describe(const Quartiles& q) {
  return TablePrinter::Num(q.median, 4) + " [" + TablePrinter::Num(q.q1, 4) + ", " +
         TablePrinter::Num(q.q3, 4) + "]";
}

}  // namespace

int main(int argc, char** argv) {
  std::string benchmark_path = "BENCHMARK.json";
  std::vector<std::string> dirs;
  ArgParser parser(
      "usage: bench_e2e_compare <base_dir> <new_dir> [--benchmark <BENCHMARK.json>]\n"
      "  prints each side's median [q1, q3] per workload and end-to-end metric and a\n"
      "  verdict (ok | unresolved | regressed) against the bounds in BENCHMARK.json\n");
  parser.AddString("--benchmark", &benchmark_path);
  parser.AddPositionals(&dirs);
  parser.Parse(argc, argv);
  if (dirs.size() != 2) parser.Fail("expected two run directories");

  Runs base;
  Runs fresh;
  std::vector<Bound> bounds;
  try {
    bounds = LoadBounds(benchmark_path);
    base = LoadRuns(dirs[0]);
    fresh = LoadRuns(dirs[1]);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e_compare: " << e.what() << "\n";
    return 2;
  }

  bool regressed = false;
  TablePrinter table({"workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
                      "change", "bound", "verdict"});
  for (const auto& [workload, base_metrics] : base) {
    auto fresh_workload = fresh.find(workload);
    for (const Bound& bound : bounds) {
      auto b = base_metrics.find(bound.name);
      if (b == base_metrics.end()) continue;  // not reported by this build type
      if (fresh_workload == fresh.end() ||
          fresh_workload->second.count(bound.name) == 0) {
        table.AddRow({workload, bound.name, Describe(QuartilesOf(b->second)), "-", "-",
                      TablePrinter::Num(bound.bound * 100.0, 0) + "%", "missing"});
        regressed = true;
        continue;
      }
      const std::vector<double>& n = fresh_workload->second.at(bound.name);
      const Quartiles qb = QuartilesOf(b->second);
      const Quartiles qn = QuartilesOf(n);
      // Positive `worse` means the new side is worse, as a share of the base.
      const double change = qb.median != 0.0 ? (qn.median - qb.median) / qb.median : 0.0;
      const double worse = bound.higher_is_better ? -change : change;
      const double best_base = bound.higher_is_better
                                   ? *std::max_element(b->second.begin(), b->second.end())
                                   : *std::min_element(b->second.begin(), b->second.end());
      const double worst_new = bound.higher_is_better
                                   ? *std::min_element(n.begin(), n.end())
                                   : *std::max_element(n.begin(), n.end());
      const bool all_better =
          bound.higher_is_better ? worst_new > best_base : worst_new < best_base;
      std::string verdict = "ok";
      if (all_better) {
        // A change that beats every base run is not held back by noise.
      } else if (qb.RelativeSpread() > bound.bound || qn.RelativeSpread() > bound.bound) {
        verdict = "unresolved";
      } else if (worse > bound.bound) {
        verdict = "regressed";
        regressed = true;
      }
      table.AddRow({workload, bound.name, Describe(qb), Describe(qn),
                    TablePrinter::Num(change * 100.0, 2) + "%",
                    TablePrinter::Num(bound.bound * 100.0, 0) + "%", verdict});
    }
  }
  table.Print();
  return regressed ? 1 : 0;
}
