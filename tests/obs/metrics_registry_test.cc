// MetricsRegistry semantics: key flattening, thread-safe mutation through
// the ThreadPool, percentile math, and the JSON round trip the bench
// documents rely on.
#include <gtest/gtest.h>

#include <cstddef>

#include "common/thread_pool.h"
#include "obs/metrics_registry.h"

namespace kf::obs {
namespace {

TEST(FlattenKey, RendersLabelsInCallSiteOrder) {
  EXPECT_EQ(FlattenKey("runs", {}), "runs");
  EXPECT_EQ(FlattenKey("x", {{"strategy", "fusion"}, {"engine", "h2d"}}),
            "x{strategy=fusion,engine=h2d}");
}

TEST(MetricsRegistry, CounterLookupIsStableAndKeyed) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("launches", {{"strategy", "serial"}});
  Counter& b = registry.GetCounter("launches", {{"strategy", "fusion"}});
  a.Increment(3);
  b.Increment();
  EXPECT_EQ(&a, &registry.GetCounter("launches", {{"strategy", "serial"}}));
  EXPECT_EQ(registry.CounterValue("launches{strategy=serial}"), 3u);
  EXPECT_EQ(registry.CounterValue("launches{strategy=fusion}"), 1u);
  EXPECT_EQ(registry.CounterValue("absent", 42u), 42u);
}

TEST(MetricsRegistry, ConcurrentIncrementsLoseNothing) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("events");
  Gauge& gauge = registry.GetGauge("accumulated");
  ThreadPool pool(8);
  constexpr std::size_t kTotal = 100'000;
  pool.ParallelForEach(kTotal, [&](std::size_t) {
    counter.Increment();
    gauge.Add(1.0);
    // Exercise the lookup-or-create path under contention too.
    registry.GetCounter("looked-up").Increment();
  });
  EXPECT_EQ(counter.value(), kTotal);
  EXPECT_DOUBLE_EQ(gauge.value(), static_cast<double>(kTotal));
  EXPECT_EQ(registry.CounterValue("looked-up"), kTotal);
}

TEST(MetricsRegistry, ConcurrentHistogramRecordsKeepEverySample) {
  MetricsRegistry registry;
  DurationHistogram& hist = registry.GetHistogram("latency");
  ThreadPool pool(8);
  constexpr std::size_t kTotal = 10'000;
  pool.ParallelForEach(kTotal,
                       [&](std::size_t i) { hist.Record(static_cast<double>(i)); });
  EXPECT_EQ(hist.count(), kTotal);
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.max(), static_cast<double>(kTotal - 1));
  EXPECT_DOUBLE_EQ(hist.sum(), kTotal * (kTotal - 1) / 2.0);
}

TEST(DurationHistogram, PercentilesInterpolateLinearly) {
  DurationHistogram hist;
  EXPECT_DOUBLE_EQ(hist.Percentile(50), 0.0);  // empty
  for (double v : {10.0, 20.0, 30.0, 40.0}) hist.Record(v);
  EXPECT_DOUBLE_EQ(hist.Percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(50), 25.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(25), 17.5);
}

TEST(MetricsRegistry, ResetDropsEverything) {
  MetricsRegistry registry;
  registry.GetCounter("c").Increment();
  registry.GetGauge("g").Set(1.5);
  registry.GetHistogram("h").Record(0.25);
  registry.Reset();
  EXPECT_EQ(registry.CounterValue("c", 99u), 99u);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("g", -1.0), -1.0);
  EXPECT_EQ(registry.FindHistogram("h"), nullptr);
}

TEST(MetricsRegistry, JsonRoundTripPreservesAllMetricKinds) {
  MetricsRegistry registry;
  registry.GetCounter("launches", {{"strategy", "fusion"}}).Increment(17);
  registry.GetGauge("busy", {{"engine", "h2d"}}).Set(0.125);
  DurationHistogram& hist = registry.GetHistogram("makespan");
  for (double v : {0.5, 1.5, 2.5}) hist.Record(v);

  // The document bench_compare reads back: dump it, parse it, and every
  // kind of metric is there with its value.
  const Json dump = registry.ToJson();
  const Json parsed = Json::Parse(dump.Dump());
  EXPECT_EQ(parsed.at("counters").at("launches{strategy=fusion}").number(), 17.0);
  EXPECT_EQ(parsed.at("gauges").at("busy{engine=h2d}").number(), 0.125);
  const Json& makespan = parsed.at("histograms").at("makespan");
  EXPECT_EQ(makespan.at("count").number(), 3.0);
  EXPECT_EQ(makespan.at("sum").number(), 4.5);
  EXPECT_EQ(makespan.at("p50").number(), 1.5);
  EXPECT_EQ(makespan.at("samples").size(), 3u);

  // And the parsed document dumps byte-identically: the documents committed
  // as bench baselines must be stable across a round trip.
  EXPECT_EQ(parsed.Dump(), dump.Dump());
}

TEST(MetricsRegistry, HistogramJsonReportsSummaryStatistics) {
  MetricsRegistry registry;
  DurationHistogram& hist = registry.GetHistogram("t");
  for (int i = 1; i <= 100; ++i) hist.Record(static_cast<double>(i));
  const Json dump = registry.ToJson();
  const Json& entry = dump.at("histograms").at("t");
  EXPECT_EQ(entry.at("count").number(), 100.0);
  EXPECT_DOUBLE_EQ(entry.at("min").number(), 1.0);
  EXPECT_DOUBLE_EQ(entry.at("max").number(), 100.0);
  EXPECT_DOUBLE_EQ(entry.at("p50").number(), 50.5);
  EXPECT_NEAR(entry.at("p99").number(), 99.01, 1e-9);
  EXPECT_EQ(entry.at("samples").size(), 100u);
}

TEST(DurationHistogram, ExactUpToReservoirCap) {
  DurationHistogram h;
  for (std::size_t i = 0; i < DurationHistogram::kReservoirCap; ++i) {
    h.Record(static_cast<double>(i));
  }
  EXPECT_EQ(h.count(), DurationHistogram::kReservoirCap);
  EXPECT_EQ(h.Samples().size(), DurationHistogram::kReservoirCap);
  // Below the cap nothing is sampled away: percentiles are exact.
  const double truth =
      static_cast<double>(DurationHistogram::kReservoirCap - 1) / 2.0;
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), truth);
}

TEST(DurationHistogram, ReservoirBoundsMemoryOnSoakStreams) {
  DurationHistogram h;
  const std::size_t total = DurationHistogram::kReservoirCap * 4;
  for (std::size_t i = 0; i < total; ++i) {
    h.Record(static_cast<double>(i));
  }
  // Exact running statistics survive eviction...
  EXPECT_EQ(h.count(), total);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(total - 1));
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(total) *
                                static_cast<double>(total - 1) / 2.0);
  // ...while the retained sample set stays bounded at the cap.
  EXPECT_EQ(h.Samples().size(), DurationHistogram::kReservoirCap);
  // Percentiles become estimates from a uniform reservoir of the stream: on
  // a linear ramp they stay within a few percent of the exact quantiles.
  const double hi = static_cast<double>(total - 1);
  EXPECT_NEAR(h.Percentile(50.0), 0.5 * hi, 0.05 * hi);
  EXPECT_NEAR(h.Percentile(90.0), 0.9 * hi, 0.05 * hi);
  EXPECT_NEAR(h.Percentile(99.0), 0.99 * hi, 0.05 * hi);
}

TEST(DurationHistogram, ReservoirIsDeterministic) {
  // The eviction stream is a fixed-seed SplitMix64: two histograms fed the
  // same stream retain byte-identical reservoirs (golden tests and CI
  // baselines depend on this).
  DurationHistogram a;
  DurationHistogram b;
  const std::size_t total = DurationHistogram::kReservoirCap * 3;
  for (std::size_t i = 0; i < total; ++i) {
    const double v = static_cast<double>((i * 2654435761u) % 100003u);
    a.Record(v);
    b.Record(v);
  }
  EXPECT_EQ(a.Samples(), b.Samples());
  EXPECT_DOUBLE_EQ(a.Percentile(99.0), b.Percentile(99.0));
}

}  // namespace
}  // namespace kf::obs
