#include "core/report.h"

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "test_util.h"
#include "util/random.h"

namespace mce {
namespace {

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(RunReportJsonTest, SerializesSerialRun) {
  Rng rng(5);
  Graph g = gen::BarabasiAlbert(60, 3, &rng);
  MaxCliqueFinder::Options options;
  options.max_block_size = 15;
  MaxCliqueFinder finder(options);
  Result<FindResult> result = finder.Find(g);
  ASSERT_TRUE(result.ok());
  std::string json = RunReportJson(*result);
  // Spot-check the schema (no JSON parser in the toolchain; the format is
  // machine-generated and flat).
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"block_size\":15"), std::string::npos);
  EXPECT_NE(json.find("\"total_cliques\":" +
                      std::to_string(result->stats.total_cliques)),
            std::string::npos);
  EXPECT_NE(json.find("\"levels\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"cluster\":null"), std::string::npos);
  EXPECT_NE(json.find("\"used_fallback\":false"), std::string::npos);
  // Balanced braces/brackets.
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(RunReportJsonTest, ReductionObjectReflectsThePrepass) {
  // Satellite regression: --json carries a `reduction` object whose
  // counters match the run. A path graph reduces to empty, so every
  // clique is a trivial one.
  GraphBuilder b(20);
  for (NodeId v = 0; v + 1 < 20; ++v) b.AddEdge(v, v + 1);
  Graph g = b.Build();
  MaxCliqueFinder::Options options;
  options.max_block_size = 8;
  options.reduce = true;
  MaxCliqueFinder finder(options);
  Result<FindResult> result = finder.Find(g);
  ASSERT_TRUE(result.ok());
  std::string json = RunReportJson(*result);
  EXPECT_NE(json.find("\"reduction\":{\"enabled\":true"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"vertices_removed\":20"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trivial_cliques\":19"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rounds\":"), std::string::npos) << json;
  // And with the prepass off, the object is present but disabled — the
  // schema is stable for consumers either way.
  options.reduce = false;
  Result<FindResult> off = MaxCliqueFinder(options).Find(g);
  ASSERT_TRUE(off.ok());
  EXPECT_NE(RunReportJson(*off).find("\"reduction\":{\"enabled\":false"),
            std::string::npos);
}

TEST(RunReportJsonTest, SerialRunReportsOneAnalyzeThread) {
  // Satellite regression: the serial path must report analyze_threads = 1,
  // never 0 — consumers divide by it for utilization.
  Rng rng(11);
  Graph g = gen::BarabasiAlbert(60, 3, &rng);
  MaxCliqueFinder::Options options;
  options.max_block_size = 15;
  options.num_threads = 1;
  options.executor = decomp::ExecutorKind::kSerial;
  MaxCliqueFinder finder(options);
  Result<FindResult> result = finder.Find(g);
  ASSERT_TRUE(result.ok());
  std::string json = RunReportJson(*result);
  EXPECT_NE(json.find("\"analyze_threads\":1"), std::string::npos);
  EXPECT_EQ(json.find("\"analyze_threads\":0"), std::string::npos);
  // The pipelining telemetry is present at both the run and level scope,
  // and a serial run never overlaps.
  EXPECT_NE(json.find("\"overlap_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"idle_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"overlap_seconds\":0"), std::string::npos);
}

TEST(RunReportJsonTest, SerializesClusterRun) {
  Rng rng(7);
  Graph g = gen::BarabasiAlbert(60, 3, &rng);
  MaxCliqueFinder::Options options;
  options.max_block_size = 15;
  options.simulate_cluster = true;
  options.cluster.num_workers = 4;
  MaxCliqueFinder finder(options);
  Result<FindResult> result = finder.Find(g);
  ASSERT_TRUE(result.ok());
  std::string json = RunReportJson(*result);
  EXPECT_NE(json.find("\"cluster\":{\"workers\":4"), std::string::npos);
  EXPECT_NE(json.find("\"bytes_shipped\":"), std::string::npos);
  EXPECT_EQ(json.find("\"cluster\":null"), std::string::npos);
}

}  // namespace
}  // namespace mce
