// The metrics registry: one structured place every layer records into.
//
// The paper's argument is quantitative (Figs 4-18 are throughput and
// breakdown curves), so the library instruments itself: the executor, the
// fusion planner, the stream pool, and the device simulator all record
// counters (kernel launches, transfer bytes, spill events), gauges (engine
// busy time of the most recent run), and duration histograms (makespans,
// per-stage timings) here. The benchmark harnesses dump the registry into
// their `BENCH_<name>.json` output, and `tools/bench_compare` gates CI on
// the numbers that matter.
//
// Metrics are identified by a name plus an ordered label list, flattened to
// `name{key=value,...}`. All mutation paths are thread-safe: counters are
// lock-free atomics, gauges and histograms take a per-metric mutex, and the
// registry itself guards its maps — functional execution fans out over the
// ThreadPool, and concurrent increments must not lose updates.
#ifndef KF_OBS_METRICS_REGISTRY_H_
#define KF_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace kf::obs {

// Ordered label list; rendered into the flattened key in the given order so
// call sites control grouping (e.g. {"strategy", "fusion"}).
using Labels = std::vector<std::pair<std::string, std::string>>;

// Renders `name{k1=v1,k2=v2}` (or bare `name` when unlabeled).
std::string FlattenKey(const std::string& name, const Labels& labels);

// Monotonic event count. Lock-free; safe to increment from ThreadPool tasks.
class Counter {
 public:
  void Increment(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Set(std::uint64_t value) { value_.store(value, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-written point-in-time value (e.g. engine busy seconds of the most
// recent run).
class Gauge {
 public:
  void Set(double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    value_ = value;
  }
  void Add(double delta) {
    std::lock_guard<std::mutex> lock(mutex_);
    value_ += delta;
  }
  double value() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return value_;
  }

 private:
  mutable std::mutex mutex_;
  double value_ = 0.0;
};

// Duration distribution. Keeps every sample exactly up to kReservoirCap;
// past that it switches to a deterministic bounded reservoir (algorithm R
// driven by a fixed-seed SplitMix64 stream), so soak-length runs stay at
// O(cap) memory while percentiles remain an unbiased estimate. count/sum/
// min/max are always exact running values regardless of eviction.
class DurationHistogram {
 public:
  // Exact below the cap; reservoir-sampled above it. Large enough that every
  // benchmark/CI-scale stream stays exact (committed baselines unchanged).
  static constexpr std::size_t kReservoirCap = 8192;

  void Record(double seconds);

  std::size_t count() const;  // total recorded, not reservoir size
  double sum() const;
  double min() const;
  double max() const;
  // Linear-interpolated percentile, `p` in [0, 100]. Returns 0 when empty.
  // Exact below kReservoirCap; estimated from the reservoir above it.
  double Percentile(double p) const;
  // The retained samples (all of them below the cap, the reservoir above).
  std::vector<double> Samples() const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> samples_;
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t rng_state_ = 0x9e3779b97f4a7c15ull;  // fixed: deterministic
};

// Times a scope (wall clock) into a histogram on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(DurationHistogram& histogram)
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_.Record(std::chrono::duration<double>(elapsed).count());
  }

 private:
  DurationHistogram& histogram_;
  std::chrono::steady_clock::time_point start_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Lookup-or-create. Returned references stay valid for the registry's
  // lifetime (metrics are never removed except by Reset()).
  Counter& GetCounter(const std::string& name, const Labels& labels = {});
  Gauge& GetGauge(const std::string& name, const Labels& labels = {});
  DurationHistogram& GetHistogram(const std::string& name, const Labels& labels = {});

  // Read-only lookup by flattened key; returns fallback / nullptr when the
  // metric was never recorded.
  std::uint64_t CounterValue(const std::string& key, std::uint64_t fallback = 0) const;
  double GaugeValue(const std::string& key, double fallback = 0.0) const;
  const DurationHistogram* FindHistogram(const std::string& key) const;

  // Drops every metric (tests and per-run isolation).
  void Reset();

  // Serializes all metrics:
  //   {"counters": {key: n}, "gauges": {key: x},
  //    "histograms": {key: {"count", "sum", "min", "max",
  //                         "p50", "p90", "p99", "samples": [...]}}}
  Json ToJson() const;

  // Process-wide registry that instrumented components record into by
  // default. Callers wanting isolation pass their own registry instead.
  static MetricsRegistry& Default();

 private:
  mutable std::mutex mutex_;
  // unique_ptr keeps metric addresses stable across map rehash/inserts.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<DurationHistogram>> histograms_;
};

}  // namespace kf::obs

#endif  // KF_OBS_METRICS_REGISTRY_H_
