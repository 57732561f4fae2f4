#include "obs/metrics_registry.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/random.h"

namespace kf::obs {

std::string FlattenKey(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  std::string key = name + "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) key += ",";
    key += labels[i].first + "=" + labels[i].second;
  }
  key += "}";
  return key;
}

void DurationHistogram::Record(double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++count_;
  sum_ += seconds;
  if (count_ == 1) {
    min_ = max_ = seconds;
  } else {
    min_ = std::min(min_, seconds);
    max_ = std::max(max_, seconds);
  }
  if (samples_.size() < kReservoirCap) {
    samples_.push_back(seconds);
    return;
  }
  // Vitter's algorithm R with a fixed-seed deterministic stream: sample i
  // replaces a uniformly random reservoir slot with probability cap/i.
  const std::uint64_t slot = SplitMix64(rng_state_) % count_;
  if (slot < kReservoirCap) samples_[static_cast<std::size_t>(slot)] = seconds;
}

std::size_t DurationHistogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

double DurationHistogram::sum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sum_;
}

double DurationHistogram::min() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return min_;
}

double DurationHistogram::max() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_;
}

double DurationHistogram::Percentile(double p) const {
  KF_REQUIRE(p >= 0.0 && p <= 100.0) << "percentile " << p << " out of [0, 100]";
  std::vector<double> sorted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sorted = samples_;
  }
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::vector<double> DurationHistogram::Samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

Counter& MetricsRegistry::GetCounter(const std::string& name, const Labels& labels) {
  const std::string key = FlattenKey(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[key];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name, const Labels& labels) {
  const std::string key = FlattenKey(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[key];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

DurationHistogram& MetricsRegistry::GetHistogram(const std::string& name,
                                                 const Labels& labels) {
  const std::string key = FlattenKey(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[key];
  if (!slot) slot = std::make_unique<DurationHistogram>();
  return *slot;
}

std::uint64_t MetricsRegistry::CounterValue(const std::string& key,
                                            std::uint64_t fallback) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(key);
  return it == counters_.end() ? fallback : it->second->value();
}

double MetricsRegistry::GaugeValue(const std::string& key, double fallback) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(key);
  return it == gauges_.end() ? fallback : it->second->value();
}

const DurationHistogram* MetricsRegistry::FindHistogram(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(key);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

Json MetricsRegistry::ToJson() const {
  Json::Object counters;
  Json::Object gauges;
  Json::Object histograms;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, counter] : counters_) {
      counters[key] = Json(counter->value());
    }
    for (const auto& [key, gauge] : gauges_) {
      gauges[key] = Json(gauge->value());
    }
    for (const auto& [key, histogram] : histograms_) {
      Json::Object h;
      h["count"] = Json(histogram->count());
      h["sum"] = Json(histogram->sum());
      h["min"] = Json(histogram->min());
      h["max"] = Json(histogram->max());
      h["p50"] = Json(histogram->Percentile(50));
      h["p90"] = Json(histogram->Percentile(90));
      h["p99"] = Json(histogram->Percentile(99));
      Json samples = Json::MakeArray();
      for (double s : histogram->Samples()) samples.push_back(Json(s));
      h["samples"] = std::move(samples);
      histograms[key] = Json(std::move(h));
    }
  }
  Json::Object root;
  root["counters"] = Json(std::move(counters));
  root["gauges"] = Json(std::move(gauges));
  root["histograms"] = Json(std::move(histograms));
  return Json(std::move(root));
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

}  // namespace kf::obs
