// End-to-end exercises of the mce_cli binary (path injected by CMake as
// MCE_CLI_PATH): generate -> stats -> enumerate -> top -> communities ->
// convert, plus error handling for bad invocations.

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "json_lite.h"

#ifndef MCE_CLI_PATH
#error "MCE_CLI_PATH must be defined by the build"
#endif

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

/// Runs mce_cli with `args`; stderr joins stdout unless `redirect_stderr`
/// sends it elsewhere (e.g. " 2>file").
CommandResult RunCli(const std::string& args,
                     const std::string& redirect_stderr = " 2>&1") {
  const std::string command =
      std::string(MCE_CLI_PATH) + " " + args + redirect_stderr;
  CommandResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  size_t n;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  int status = pclose(pipe);
  result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string TempFile(const std::string& name) {
  return testing::TempDir() + "/mce_cli_test_" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_path_ = new std::string(TempFile("g.txt"));
    CommandResult r = RunCli("generate --model twitter1 --scale 0.02 --output " + *graph_path_);
    ASSERT_EQ(r.exit_code, 0) << r.output;
  }
  static void TearDownTestSuite() {
    std::remove(graph_path_->c_str());
    delete graph_path_;
    graph_path_ = nullptr;
  }

  static std::string* graph_path_;
};

std::string* CliTest::graph_path_ = nullptr;

TEST_F(CliTest, StatsPrintsMetrics) {
  CommandResult r = RunCli("stats --input " + *graph_path_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("nodes:"), std::string::npos);
  EXPECT_NE(r.output.find("degeneracy:"), std::string::npos);
  EXPECT_NE(r.output.find("d*:"), std::string::npos);
}

TEST_F(CliTest, EnumerateHumanReadable) {
  CommandResult r = RunCli("enumerate --input " + *graph_path_ +
                        " --ratio 0.5 --top 2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("cliques="), std::string::npos);
  EXPECT_NE(r.output.find("clique["), std::string::npos);
}

TEST_F(CliTest, EnumerateJson) {
  CommandResult r =
      RunCli("enumerate --input " + *graph_path_ + " --ratio 0.5 --json true");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.front(), '{');
  EXPECT_NE(r.output.find("\"total_cliques\":"), std::string::npos);
  EXPECT_NE(r.output.find("\"levels\":["), std::string::npos);
}

TEST_F(CliTest, EnumerateReduceFlagMatchesBaselineAndReportsJson) {
  // --reduce must not change the clique count, and --json must carry the
  // reduction object with the prepass marked enabled.
  CommandResult off =
      RunCli("enumerate --input " + *graph_path_ + " --ratio 0.5 --json true");
  EXPECT_EQ(off.exit_code, 0) << off.output;
  EXPECT_NE(off.output.find("\"reduction\":{\"enabled\":false"),
            std::string::npos)
      << off.output;
  CommandResult on = RunCli("enumerate --input " + *graph_path_ +
                            " --ratio 0.5 --reduce --json true");
  EXPECT_EQ(on.exit_code, 0) << on.output;
  EXPECT_NE(on.output.find("\"reduction\":{\"enabled\":true"),
            std::string::npos)
      << on.output;
  const auto count_of = [](const std::string& json) {
    const size_t at = json.find("\"total_cliques\":");
    return json.substr(at, json.find(',', at) - at);
  };
  EXPECT_EQ(count_of(off.output), count_of(on.output));
  // --no-reduce wins over --reduce, and the human-readable line carries
  // the reduce summary only when the prepass ran.
  CommandResult human =
      RunCli("enumerate --input " + *graph_path_ + " --ratio 0.5 --reduce");
  EXPECT_EQ(human.exit_code, 0) << human.output;
  EXPECT_NE(human.output.find("reduce[v="), std::string::npos) << human.output;
  CommandResult negated = RunCli("enumerate --input " + *graph_path_ +
                                 " --ratio 0.5 --reduce --no-reduce");
  EXPECT_EQ(negated.exit_code, 0) << negated.output;
  EXPECT_EQ(negated.output.find("reduce[v="), std::string::npos)
      << negated.output;
}

TEST_F(CliTest, EnumerateWritesCliqueFile) {
  const std::string out = TempFile("cliques.txt");
  CommandResult r = RunCli("enumerate --input " + *graph_path_ +
                        " --ratio 0.5 --output " + out);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("wrote"), std::string::npos);
  FILE* f = fopen(out.c_str(), "r");
  ASSERT_NE(f, nullptr);
  fclose(f);
  std::remove(out.c_str());
}

// --json replaces only the human summary: --output writes the same file
// in both modes.
TEST_F(CliTest, EnumerateJsonWritesTheSameOutputFile) {
  const std::string human = TempFile("human_cliques.txt");
  const std::string json = TempFile("json_cliques.txt");
  CommandResult h = RunCli("enumerate --input " + *graph_path_ +
                           " --ratio 0.5 --output " + human);
  ASSERT_EQ(h.exit_code, 0) << h.output;
  CommandResult j = RunCli("enumerate --input " + *graph_path_ +
                           " --ratio 0.5 --json true --output " + json);
  ASSERT_EQ(j.exit_code, 0) << j.output;
  const std::string human_text = ReadFile(human);
  EXPECT_FALSE(human_text.empty());
  EXPECT_EQ(ReadFile(json), human_text);
  std::remove(human.c_str());
  std::remove(json.c_str());
}

// --verify runs under --json too; its line goes to stderr, so stdout stays
// one JSON object.
TEST_F(CliTest, EnumerateJsonVerifyKeepsStdoutOneJsonObject) {
  const std::string err = TempFile("verify_stderr.txt");
  CommandResult r = RunCli("enumerate --input " + *graph_path_ +
                               " --ratio 0.5 --json true --verify true",
                           " 2>" + err);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  json_lite::JsonValue report;
  std::string error;
  ASSERT_TRUE(json_lite::JsonParser(r.output).Parse(&report, &error))
      << error << "\n" << r.output;
  EXPECT_EQ(report.kind, json_lite::JsonValue::Kind::kObject);
  EXPECT_NE(report.Find("total_cliques"), nullptr);
  const std::string stderr_text = ReadFile(err);
  EXPECT_NE(stderr_text.find("verification: "), std::string::npos)
      << stderr_text;
  EXPECT_NE(stderr_text.find("[OK]"), std::string::npos) << stderr_text;
  std::remove(err.c_str());
}

TEST_F(CliTest, EnumerateJsonUnwritableOutputFails) {
  CommandResult r = RunCli("enumerate --input " + *graph_path_ +
                           " --ratio 0.5 --json true --output "
                           "/nonexistent/dir/cliques.txt");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("error"), std::string::npos) << r.output;
}

// The final heartbeat reports the command's outcome, including the writes
// that follow the run.
TEST_F(CliTest, UnwritableOutputEndsHeartbeatWithFailure) {
  const std::string hb = TempFile("hb.ndjson");
  CommandResult r = RunCli("enumerate --input " + *graph_path_ +
                           " --ratio 0.5 --output /nonexistent/dir/x.txt"
                           " --heartbeat-out " + hb);
  EXPECT_NE(r.exit_code, 0) << r.output;
  const std::string stream = ReadFile(hb);
  ASSERT_FALSE(stream.empty());
  const size_t last_begin = stream.rfind('\n', stream.size() - 2);
  const std::string last = stream.substr(
      last_begin == std::string::npos ? 0 : last_begin + 1);
  EXPECT_NE(last.find("\"final\":true"), std::string::npos) << last;
  EXPECT_NE(last.find("\"success\":false"), std::string::npos) << last;
  std::remove(hb.c_str());
}

TEST_F(CliTest, EnumerateExecutorFlagSelectsEngine) {
  // Every engine produces identical clique counts; "cluster" also reports
  // the simulated cluster block.
  CommandResult serial = RunCli("enumerate --input " + *graph_path_ +
                                " --ratio 0.5 --executor serial --json true");
  EXPECT_EQ(serial.exit_code, 0) << serial.output;
  CommandResult pooled =
      RunCli("enumerate --input " + *graph_path_ +
             " --ratio 0.5 --executor pooled --threads 4 --json true");
  EXPECT_EQ(pooled.exit_code, 0) << pooled.output;
  const auto count_of = [](const std::string& json) {
    const size_t at = json.find("\"total_cliques\":");
    return json.substr(at, json.find(',', at) - at);
  };
  ASSERT_NE(serial.output.find("\"total_cliques\":"), std::string::npos);
  EXPECT_EQ(count_of(serial.output), count_of(pooled.output));
  EXPECT_NE(serial.output.find("\"analyze_threads\":1"), std::string::npos);
  CommandResult cluster = RunCli("enumerate --input " + *graph_path_ +
                                 " --ratio 0.5 --executor cluster --json true");
  EXPECT_EQ(cluster.exit_code, 0) << cluster.output;
  EXPECT_NE(cluster.output.find("\"cluster\":{"), std::string::npos);
}

TEST_F(CliTest, EnumerateRejectsUnknownExecutor) {
  CommandResult r = RunCli("enumerate --input " + *graph_path_ +
                           " --ratio 0.5 --executor warp");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("error"), std::string::npos);
}

TEST_F(CliTest, TopPrintsLargest) {
  CommandResult r = RunCli("top --input " + *graph_path_ + " --k 3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("clique["), std::string::npos);
}

TEST_F(CliTest, CommunitiesRuns) {
  CommandResult r = RunCli("communities --input " + *graph_path_ + " --k 3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("k-clique communities"), std::string::npos);
}

TEST_F(CliTest, ConvertToBinaryAndBack) {
  const std::string bin = TempFile("g.bin");
  CommandResult r1 =
      RunCli("convert --input " + *graph_path_ + " --output " + bin +
          " --to binary");
  EXPECT_EQ(r1.exit_code, 0) << r1.output;
  CommandResult r2 = RunCli("stats --input " + bin);
  EXPECT_EQ(r2.exit_code, 0) << r2.output;
  std::remove(bin.c_str());
}

TEST_F(CliTest, ConvertToDot) {
  const std::string dot = TempFile("g.dot");
  CommandResult r = RunCli("convert --input " + *graph_path_ + " --output " +
                        dot + " --to dot");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::remove(dot.c_str());
}

TEST_F(CliTest, UnknownCommandFails) {
  CommandResult r = RunCli("frobnicate");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, MissingInputFails) {
  CommandResult r = RunCli("stats --input /nonexistent/zzz.txt");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("error"), std::string::npos);
}

TEST_F(CliTest, BadRatioFails) {
  CommandResult r =
      RunCli("enumerate --input " + *graph_path_ + " --ratio 5.0");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("error"), std::string::npos);
}

TEST_F(CliTest, BlockBoundBelowOneFails) {
  // --m 0 must not fall back to the ratio, and --m -5 must not wrap to a
  // 4-billion-node block that bypasses the decomposition.
  for (const char* m : {"0", "-5"}) {
    CommandResult r =
        RunCli("enumerate --input " + *graph_path_ + " --m " + m);
    EXPECT_EQ(r.exit_code, 1) << "--m " << m << ": " << r.output;
    EXPECT_NE(r.output.find("error: --m"), std::string::npos) << r.output;
  }
}

// A numeric flag must parse completely and fit its type, so a garbage
// value never silently becomes 0 (all cores, no splitting) or its numeric
// prefix.
TEST_F(CliTest, MalformedNumericFlagsFail) {
  const std::pair<std::string, std::string> bad[] = {
      {"--threads", "abc"},        {"--max-block-cost", "abc"},
      {"--m", "5x"},               {"--heartbeat-interval-ms", "10abc"},
      {"--threads", "99999999999"}, {"--ratio", "0.5.0"},
      {"--top", "3x"}};
  for (const auto& [flag, value] : bad) {
    CommandResult r = RunCli("enumerate --input " + *graph_path_ + " " +
                             flag + " " + value);
    EXPECT_EQ(r.exit_code, 1) << flag << " " << value << ": " << r.output;
    EXPECT_NE(r.output.find("error: " + flag + " expects"), std::string::npos)
        << r.output;
  }
  const std::string out = TempFile("garbage_nodes.txt");
  std::remove(out.c_str());
  CommandResult r =
      RunCli("generate --model er --nodes 12abc --output " + out);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("error: --nodes expects"), std::string::npos)
      << r.output;
  EXPECT_FALSE(std::ifstream(out).good()) << "wrote a graph anyway";
}

// A flag the command does not read is an error before any work starts, so
// a typo cannot quietly run serial, unbudgeted or batched.
TEST_F(CliTest, MisspelledEnumerateFlagFails) {
  const std::pair<std::string, std::string> typos[] = {
      {"thread", " 4"}, {"memory-budjet", " 1M"}, {"no-spilt", ""}};
  for (const auto& [name, value] : typos) {
    CommandResult r = RunCli("enumerate --input " + *graph_path_ + " --" +
                             name + value);
    EXPECT_EQ(r.exit_code, 1) << name << ": " << r.output;
    EXPECT_NE(r.output.find("error: unknown flag --" + name + " for enumerate"),
              std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("cliques="), std::string::npos) << r.output;
  }
}

TEST_F(CliTest, MisspelledGenerateFlagFails) {
  const std::string out = TempFile("misspelled.txt");
  std::remove(out.c_str());
  CommandResult r = RunCli("generate --model er --node 50 --output " + out);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("error: unknown flag --node for generate"),
            std::string::npos)
      << r.output;
  EXPECT_FALSE(std::ifstream(out).good()) << "wrote a graph anyway";
}

TEST_F(CliTest, WellFormedNumericFlagsParse) {
  for (const char* flags : {"--threads=4 --ratio 0.5", "--ratio 0.25",
                            "--threads 4 --max-block-cost 1e4"}) {
    CommandResult r = RunCli("enumerate --input " + *graph_path_ + " " +
                             flags + " --json true");
    EXPECT_EQ(r.exit_code, 0) << flags << ": " << r.output;
  }
}

}  // namespace
