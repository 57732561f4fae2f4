// Tracer semantics: span-tree construction, context re-basing, the bounded
// flight recorder, failure dumps, and the session-wide Chrome trace export.
#include "obs/tracer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace kf::obs {
namespace {

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// A scratch directory unique to this test binary run.
class TraceDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("kf_tracer_test_" +
            std::to_string(static_cast<std::uint64_t>(
                ::testing::UnitTest::GetInstance()->random_seed())) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST(Tracer, SpanIdsAreDenseAndParentsResolve) {
  Tracer tracer;
  TraceContext ctx;
  ctx.query_id = tracer.NextQueryId();
  const SpanId root = tracer.BeginSpan(ctx, 0, "query", "scheduler", 0.0);
  const SpanId child = tracer.BeginSpan(ctx, root, "execute", "executor", 0.1);
  const SpanId leaf =
      tracer.AddSpan(ctx, child, "upload", "stream 0", 0.1, 0.2, "input_output");
  tracer.EndSpan(ctx, child, 0.3);
  tracer.EndSpan(ctx, root, 0.3);

  const QueryTrace trace = tracer.Snapshot(ctx.query_id);
  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_EQ(root, 1u);
  EXPECT_EQ(child, 2u);
  EXPECT_EQ(leaf, 3u);
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    EXPECT_EQ(trace.spans[i].id, i + 1);
  }
  EXPECT_EQ(trace.spans[0].parent, 0u);
  EXPECT_EQ(trace.spans[1].parent, root);
  EXPECT_EQ(trace.spans[2].parent, child);
  EXPECT_EQ(trace.spans[2].category, "input_output");
  EXPECT_DOUBLE_EQ(trace.spans[1].sim_end, 0.3);
  EXPECT_EQ(trace.FindSpan(leaf)->name, "upload");
  EXPECT_EQ(trace.FindSpan(99), nullptr);
}

TEST(Tracer, ContextOffsetRebasesSimTimes) {
  Tracer tracer;
  TraceContext ctx;
  ctx.query_id = tracer.NextQueryId();
  ctx.sim_offset = 10.0;
  const SpanId span = tracer.BeginSpan(ctx, 0, "execute", "executor", 0.5);
  tracer.EndSpan(ctx, span, 1.5);
  tracer.Annotate(ctx, span, SpanAnnotationKind::kStall, "pcie stall", 0.75);

  const QueryTrace trace = tracer.Snapshot(ctx.query_id);
  ASSERT_EQ(trace.spans.size(), 1u);
  EXPECT_DOUBLE_EQ(trace.spans[0].sim_start, 10.5);
  EXPECT_DOUBLE_EQ(trace.spans[0].sim_end, 11.5);
  ASSERT_EQ(trace.spans[0].annotations.size(), 1u);
  EXPECT_DOUBLE_EQ(trace.spans[0].annotations[0].sim_time, 10.75);
}

TEST(Tracer, AnnotateIdZeroTargetsTheRoot) {
  Tracer tracer;
  TraceContext ctx;
  ctx.query_id = tracer.NextQueryId();
  tracer.BeginSpan(ctx, 0, "query", "scheduler", 0.0);
  tracer.BeginSpan(ctx, 1, "execute", "executor", 0.0);
  tracer.Annotate(ctx, 0, SpanAnnotationKind::kReExecution, "retry 1", 0.2);

  const QueryTrace trace = tracer.Snapshot(ctx.query_id);
  ASSERT_EQ(trace.spans.size(), 2u);
  ASSERT_EQ(trace.spans[0].annotations.size(), 1u);
  EXPECT_EQ(trace.spans[0].annotations[0].kind,
            SpanAnnotationKind::kReExecution);
  EXPECT_TRUE(trace.spans[1].annotations.empty());
}

TEST(Tracer, SetSpanIntervalRewritesTheWindow) {
  Tracer tracer;
  TraceContext ctx;
  ctx.query_id = tracer.NextQueryId();
  const SpanId span = tracer.BeginSpan(ctx, 0, "attempt", "worker", 1.0);
  // The batch's true position on the virtual clock is only known after the
  // timeline ran; the scheduler rewrites the interval then.
  tracer.SetSpanInterval(ctx, span, 4.0, 6.5);
  const QueryTrace trace = tracer.Snapshot(ctx.query_id);
  EXPECT_DOUBLE_EQ(trace.spans[0].sim_start, 4.0);
  EXPECT_DOUBLE_EQ(trace.spans[0].sim_end, 6.5);
}

TEST(Tracer, FlightRecorderIsBoundedOldestFirst) {
  static_assert(Tracer::kFlightCapacity == 64);
  Tracer tracer;
  for (int i = 0; i < 70; ++i) {
    TraceContext ctx;
    ctx.query_id = tracer.NextQueryId();
    const SpanId root = tracer.BeginSpan(ctx, 0, "query", "scheduler", 0.0);
    tracer.EndSpan(ctx, root, 1.0);
    tracer.FinishQuery(ctx, /*failed=*/false, "");
  }
  EXPECT_EQ(tracer.finished_count(), 70u);
  EXPECT_EQ(tracer.dropped_count(), 6u);
  const std::vector<QueryTrace> flight = tracer.FlightRecorder();
  ASSERT_EQ(flight.size(), 64u);
  EXPECT_EQ(flight.front().query_id, 7u);
  EXPECT_EQ(flight.back().query_id, 70u);
  // Evicted queries are gone; retained ones still snapshot.
  EXPECT_TRUE(tracer.Snapshot(6).empty());
  EXPECT_FALSE(tracer.Snapshot(7).empty());
  EXPECT_TRUE(tracer.Snapshot(70).finished);
}

TEST(Tracer, FinishQueryOnUnknownIdIsANoOp) {
  Tracer tracer;
  TraceContext ctx;
  ctx.query_id = 42;
  EXPECT_EQ(tracer.FinishQuery(ctx, true, "boom"), "");
  EXPECT_EQ(tracer.finished_count(), 0u);
}

TEST_F(TraceDirTest, FailedFinishWritesFlightDump) {
  TracerOptions options;
  options.trace_dir = dir_.string();
  Tracer tracer(options);
  TraceContext ctx;
  ctx.query_id = tracer.NextQueryId();
  const SpanId root = tracer.BeginSpan(ctx, 0, "query", "scheduler", 0.0);
  tracer.Annotate(ctx, root, SpanAnnotationKind::kFault, "kernel fault", 0.5);
  tracer.EndSpan(ctx, root, 1.0);

  const std::string path =
      tracer.FinishQuery(ctx, /*failed=*/true, "device_fault");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(std::filesystem::path(path).filename().string(),
            "trace_query_" + std::to_string(ctx.query_id) + ".json");
  ASSERT_TRUE(std::filesystem::exists(path));
  const std::string body = ReadFile(path);
  EXPECT_NE(body.find("\"failed\": true"), std::string::npos);
  EXPECT_NE(body.find("\"failure\": \"device_fault\""), std::string::npos);
  EXPECT_NE(body.find("fault"), std::string::npos);
}

TEST_F(TraceDirTest, CleanFinishWritesNoDump) {
  TracerOptions options;
  options.trace_dir = dir_.string();
  Tracer tracer(options);
  TraceContext ctx;
  ctx.query_id = tracer.NextQueryId();
  tracer.BeginSpan(ctx, 0, "query", "scheduler", 0.0);
  EXPECT_EQ(tracer.FinishQuery(ctx, /*failed=*/false, ""), "");
  EXPECT_FALSE(std::filesystem::exists(dir_));
}

TEST(Tracer, DeterministicJsonExcludesWallTime) {
  auto run = [](Tracer& tracer) {
    TraceContext ctx;
    ctx.query_id = tracer.NextQueryId();
    const SpanId root = tracer.BeginSpan(ctx, 0, "query", "scheduler", 0.0);
    const SpanId child =
        tracer.BeginSpan(ctx, root, "execute", "executor", 0.25);
    tracer.Annotate(ctx, child, SpanAnnotationKind::kCacheMiss, "cold", 0.25);
    tracer.EndSpan(ctx, child, 0.75);
    tracer.EndSpan(ctx, root, 1.0);
    tracer.FinishQuery(ctx, false, "");
    return tracer.Snapshot(ctx.query_id);
  };
  Tracer a;
  Tracer b;
  // Wall-clock timings differ across the two runs (the sleep guarantees it),
  // but the deterministic serialization is byte-identical.
  const QueryTrace ta = run(a);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const QueryTrace tb = run(b);
  const std::string da = ta.ToJson(/*include_wall=*/false).Dump(2);
  EXPECT_EQ(da, tb.ToJson(/*include_wall=*/false).Dump(2));
  EXPECT_EQ(da.find("wall"), std::string::npos);
  EXPECT_NE(ta.ToJson(/*include_wall=*/true).Dump(2).find("wall_start"),
            std::string::npos);
}

TEST(Tracer, SessionTraceHasMetadataSlicesAndFlows) {
  Tracer tracer;
  TraceContext ctx;
  ctx.query_id = tracer.NextQueryId();
  const SpanId root = tracer.BeginSpan(ctx, 0, "query", "scheduler", 0.0);
  // First attempt fails...
  ctx.attempt = 0;
  const SpanId a0 = tracer.BeginSpan(ctx, root, "execute attempt", "worker", 0.1);
  tracer.Annotate(ctx, a0, SpanAnnotationKind::kFault, "copy fault", 0.2);
  tracer.EndSpan(ctx, a0, 0.2);
  // ...the retry runs on another device.
  ctx.attempt = 1;
  ctx.device = 1;
  const SpanId a1 = tracer.BeginSpan(ctx, root, "execute attempt", "worker", 0.3);
  tracer.EndSpan(ctx, a1, 0.9);
  ctx.attempt = 0;
  ctx.device = 0;
  tracer.EndSpan(ctx, root, 1.0);
  tracer.FinishQuery(ctx, false, "");

  const Json doc = ToSessionTraceJson(tracer);
  const Json& events = doc.at("traceEvents");
  ASSERT_GT(events.size(), 0u);

  int metadata = 0, slices = 0, flow_starts = 0, flow_finishes = 0;
  bool saw_device1 = false;
  bool saw_annotation = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& event = events.at(i);
    const std::string& ph = event.at("ph").str();
    if (ph == "M") {
      ++metadata;
    } else if (ph == "X") {
      ++slices;
      if (event.at("pid").number() == 1.0) saw_device1 = true;
      if (event.at("args").Find("annotations") != nullptr) {
        saw_annotation = true;
      }
      EXPECT_GE(event.at("dur").number(), 0.0);
    } else if (ph == "s") {
      ++flow_starts;
    } else if (ph == "f") {
      ++flow_finishes;
      EXPECT_EQ(event.at("bp").str(), "e");
    }
  }
  // process_name + thread_name for (device 0, scheduler), (device 0, worker),
  // (device 1, worker).
  EXPECT_EQ(metadata, 6);
  EXPECT_EQ(slices, 3);
  // Both attempt spans differ from the root (attempt or device change makes
  // a new flow leg only on attempt/shard change: attempt 1 differs).
  EXPECT_EQ(flow_starts, flow_finishes);
  EXPECT_GE(flow_starts, 1);
  EXPECT_TRUE(saw_device1);
  EXPECT_TRUE(saw_annotation);
  EXPECT_EQ(doc.at("displayTimeUnit").str(), "ms");
}

TEST(Tracer, SessionTraceOnlyExportsFinishedQueries) {
  Tracer tracer;
  TraceContext live;
  live.query_id = tracer.NextQueryId();
  tracer.BeginSpan(live, 0, "query", "scheduler", 0.0);

  TraceContext done;
  done.query_id = tracer.NextQueryId();
  const SpanId root = tracer.BeginSpan(done, 0, "query", "scheduler", 0.0);
  tracer.EndSpan(done, root, 1.0);
  tracer.FinishQuery(done, false, "");

  const Json doc = ToSessionTraceJson(tracer);
  const std::string dump = doc.Dump(-1);
  EXPECT_NE(dump.find("\"query\":" + std::to_string(done.query_id)),
            std::string::npos);
  EXPECT_EQ(dump.find("\"query\":" + std::to_string(live.query_id)),
            std::string::npos);
}

TEST(Tracer, ConcurrentQueriesNeverCrossContaminate) {
  Tracer tracer;
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 64;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        TraceContext ctx;
        ctx.query_id = tracer.NextQueryId();
        ctx.device = t % 3;
        const SpanId root =
            tracer.BeginSpan(ctx, 0, "query", "scheduler", q * 1.0);
        const SpanId child =
            tracer.BeginSpan(ctx, root, "execute", "executor", q * 1.0);
        tracer.Annotate(ctx, child, SpanAnnotationKind::kCacheHit, "warm",
                        q * 1.0);
        tracer.EndSpan(ctx, child, q * 1.0 + 0.5);
        tracer.EndSpan(ctx, root, q * 1.0 + 1.0);
        tracer.FinishQuery(ctx, false, "");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(tracer.finished_count(),
            static_cast<std::size_t>(kThreads * kQueriesPerThread));
  // Every retained tree is internally consistent: dense ids, two spans.
  for (const QueryTrace& trace : tracer.FlightRecorder()) {
    ASSERT_EQ(trace.spans.size(), 2u);
    EXPECT_EQ(trace.spans[0].id, 1u);
    EXPECT_EQ(trace.spans[1].id, 2u);
    EXPECT_EQ(trace.spans[1].parent, 1u);
    EXPECT_TRUE(trace.finished);
  }
  // The session export of a fully concurrent run still renders.
  const Json doc = ToSessionTraceJson(tracer);
  EXPECT_GT(doc.at("traceEvents").size(), 0u);
}

}  // namespace
}  // namespace kf::obs
