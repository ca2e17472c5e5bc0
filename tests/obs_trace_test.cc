#include "obs/trace.h"

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "json_lite.h"

namespace mce::obs {
namespace {

TraceEvent Span(int64_t begin_us, int64_t end_us,
                SpanKind kind = SpanKind::kBlock) {
  TraceEvent e;
  e.begin_us = begin_us;
  e.end_us = end_us;
  e.kind = kind;
  return e;
}

size_t Count(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(TraceRecorderTest, SpanKindNames) {
  EXPECT_STREQ(ToString(SpanKind::kDecompose), "DecomposeTask");
  EXPECT_STREQ(ToString(SpanKind::kBlock), "BlockTask");
  EXPECT_STREQ(ToString(SpanKind::kFallback), "FallbackTask");
  EXPECT_STREQ(ToString(SpanKind::kWorkerIdle), "idle");
  EXPECT_STREQ(ToString(SpanKind::kSimBlock), "SimBlockTask");
}

TEST(TraceRecorderTest, RecordsInOrderPerThread) {
  TraceRecorder recorder;
  recorder.Record(Span(10, 20));
  recorder.Record(Span(30, 40, SpanKind::kFallback));
  std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].begin_us, 10);
  EXPECT_EQ(events[0].kind, SpanKind::kBlock);
  EXPECT_EQ(events[1].begin_us, 30);
  EXPECT_EQ(events[1].kind, SpanKind::kFallback);
  EXPECT_EQ(recorder.dropped_events(), 0u);
}

TEST(TraceRecorderTest, EachThreadGetsItsOwnTrack) {
  TraceRecorder recorder;
  recorder.Record(Span(1, 2));
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < 10 + t; ++i) {
        recorder.Record(Span(100 * t + i, 100 * t + i + 1));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  std::vector<TraceRecorder::ThreadTrack> tracks = recorder.Tracks();
  ASSERT_EQ(tracks.size(), static_cast<size_t>(kThreads) + 1);
  size_t total = 0;
  for (size_t i = 0; i < tracks.size(); ++i) {
    EXPECT_EQ(tracks[i].tid, static_cast<int>(i));  // sorted, dense tids
    total += tracks[i].events.size();
  }
  EXPECT_EQ(total, 1u + 10 + 11 + 12 + 13);
}

TEST(TraceRecorderTest, BoundedBuffersCountDrops) {
  TraceRecorder recorder(/*max_events_per_thread=*/3);
  for (int i = 0; i < 10; ++i) recorder.Record(Span(i, i + 1));
  EXPECT_EQ(recorder.Events().size(), 3u);
  EXPECT_EQ(recorder.dropped_events(), 7u);
  std::string json = recorder.ToChromeTraceJson();
  EXPECT_NE(json.find("\"dropped_events\":7"), std::string::npos);
}

TEST(TraceRecorderTest, InstallRoundTripAndAutoUninstallOnDestroy) {
  ASSERT_EQ(TraceRecorder::installed(), nullptr);
  {
    TraceRecorder recorder;
    TraceRecorder::Install(&recorder);
    EXPECT_EQ(TraceRecorder::installed(), &recorder);
    TraceRecorder::Install(nullptr);
    EXPECT_EQ(TraceRecorder::installed(), nullptr);
    TraceRecorder::Install(&recorder);
    // Destruction must not leave a dangling installed pointer even if the
    // caller forgot to uninstall.
  }
  EXPECT_EQ(TraceRecorder::installed(), nullptr);
}

TEST(TraceRecorderTest, ThreadCacheSurvivesRecorderTurnover) {
  // The same thread records into recorder A, then A dies and B is created
  // (possibly at the same address); events must land in B, never in a
  // stale buffer.
  auto a = std::make_unique<TraceRecorder>();
  a->Record(Span(1, 2));
  EXPECT_EQ(a->Events().size(), 1u);
  a.reset();
  TraceRecorder b;
  b.Record(Span(3, 4));
  b.Record(Span(5, 6));
  EXPECT_EQ(b.Events().size(), 2u);
}

TEST(TraceRecorderTest, ChromeJsonIsBalancedAndRebased) {
  TraceRecorder recorder;
  recorder.Record(Span(1000, 5000, SpanKind::kDecompose));
  recorder.Record(Span(2000, 3000));  // nested inside the decompose span
  recorder.Record(Span(6000, 7000, SpanKind::kFallback));
  std::string json = recorder.ToChromeTraceJson();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(Count(json, "\"ph\":\"B\""), 3u);
  EXPECT_EQ(Count(json, "\"ph\":\"E\""), 3u);
  // Timestamps are rebased to the earliest span begin.
  EXPECT_NE(json.find("\"ph\":\"B\",\"pid\":0,\"tid\":0,\"ts\":0"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"DecomposeTask\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"BlockTask\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"FallbackTask\""), std::string::npos);
  // Track metadata for the recording thread.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST(TraceRecorderTest, BlockArgsCarryCompositionAndCombo) {
  TraceRecorder recorder;
  TraceEvent e = Span(10, 20);
  e.level = 1;
  e.index = 7;
  e.args[0] = 3;   // kernel
  e.args[1] = 4;   // border
  e.args[2] = 5;   // visited
  e.args[3] = 21;  // cliques
  e.algorithm = 2;
  e.storage = 1;
  recorder.Record(e);
  std::string json = recorder.ToChromeTraceJson();
  EXPECT_NE(json.find("\"level\":1,\"block\":7,\"kernel\":3,\"border\":4,"
                      "\"visited\":5,\"cliques\":21"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"algorithm\":2,\"storage\":1"), std::string::npos);
}

TEST(TraceRecorderTest, SyntheticLanesGetTheirOwnProcess) {
  TraceRecorder recorder;
  recorder.Record(Span(0, 10));
  TraceEvent sim = Span(5, 9, SpanKind::kSimBlock);
  sim.args[0] = 2;  // worker
  sim.args[1] = 6;  // lane
  sim.lane_pid = 1;
  sim.lane_tid = 6;
  recorder.Record(sim);
  std::string json = recorder.ToChromeTraceJson();
  EXPECT_NE(json.find("mce cluster sim"), std::string::npos);
  EXPECT_NE(json.find("worker 2 lane 6"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"SimBlockTask\""), std::string::npos);
  // The synthetic event draws on (pid 1, tid 6), not the caller's track.
  EXPECT_NE(json.find("\"ph\":\"B\",\"pid\":1,\"tid\":6"), std::string::npos);
}

TEST(TraceRecorderTest, HostileNamesAreEscapedIntoParseableJson) {
  // Thread names come from user-controllable places (pool labels, the
  // simulated cluster's lane names); quotes, backslashes, control bytes
  // and non-ASCII must all leave the export as valid JSON — this is the
  // same json_lite parser trace_check validates real traces with.
  TraceRecorder recorder;
  const std::string hostile = "evil\"\\\x01\x7f\xc3\xa9\nname";
  recorder.SetCurrentThreadName(hostile);
  recorder.Record(Span(10, 20));
  const std::string json = recorder.ToChromeTraceJson();

  // No raw control byte may survive into the file beyond the exporter's
  // own inter-event newlines.
  for (const char c : json) {
    if (c == '\n') continue;
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  EXPECT_NE(json.find("evil\\\"\\\\\\u0001\\u007f\\u00c3\\u00a9\\u000aname"),
            std::string::npos)
      << json;

  json_lite::JsonValue root;
  std::string error;
  ASSERT_TRUE(json_lite::JsonParser(json).Parse(&root, &error)) << error;
  ASSERT_TRUE(root.IsObject());
  const json_lite::JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  // The thread_name metadata record carries the (escaped) hostile name.
  bool found_name = false;
  for (const json_lite::JsonValue& e : events->array) {
    const json_lite::JsonValue* name = e.Find("name");
    if (name == nullptr || !name->IsString() ||
        name->string != "thread_name") {
      continue;
    }
    const json_lite::JsonValue* args = e.Find("args");
    ASSERT_NE(args, nullptr);
    const json_lite::JsonValue* value = args->Find("name");
    ASSERT_NE(value, nullptr);
    ASSERT_TRUE(value->IsString());
    // json_lite decodes \" and \\ but keeps \uXXXX escapes verbatim.
    EXPECT_EQ(value->string,
              "evil\"\\\\u0001\\u007f\\u00c3\\u00a9\\u000aname");
    found_name = true;
  }
  EXPECT_TRUE(found_name) << json;
}

TEST(TraceRecorderTest, PartialOverlapIsClampedToKeepPairsBalanced) {
  TraceRecorder recorder;
  // Child begins inside the parent but "ends" after it (clock jitter);
  // export must clamp instead of emitting crossed B/E pairs.
  recorder.Record(Span(0, 100, SpanKind::kDecompose));
  recorder.Record(Span(50, 150));
  std::string json = recorder.ToChromeTraceJson();
  EXPECT_EQ(Count(json, "\"ph\":\"B\""), 2u);
  EXPECT_EQ(Count(json, "\"ph\":\"E\""), 2u);
  // The clamped child closes at ts=100 together with its parent.
  EXPECT_EQ(Count(json, "\"ph\":\"E\",\"pid\":0,\"tid\":0,\"ts\":100"), 2u);
}

}  // namespace
}  // namespace mce::obs
