// Differential tests of the text readers and GraphBuilder::Build against
// the implementations they replaced, kept here as oracles: readers that
// split the file with std::getline and parsed each line through a
// std::istringstream, and a build that sorted every edge pair, then every
// row. On every input the two must return the same Status, code and
// message, or equal graphs (and, for triples, equal label tables).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "util/random.h"

namespace mce {
namespace {

// ---------------------------------------------------------------------------
// Oracles.

/// The sort-based build: sort and deduplicate the normalized edge pairs,
/// scatter both directions, sort every row.
class OracleBuilder {
 public:
  void ReserveNodes(NodeId n) { num_nodes_ = std::max(num_nodes_, n); }

  void AddEdge(NodeId u, NodeId v) {
    if (u == v) return;
    if (u > v) std::swap(u, v);
    ReserveNodes(v + 1);
    edges_.emplace_back(u, v);
  }

  Graph Build() {
    std::sort(edges_.begin(), edges_.end());
    edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
    const uint64_t n = num_nodes_;
    std::vector<uint64_t> offsets(n + 1, 0);
    for (const auto& [u, v] : edges_) {
      ++offsets[u + 1];
      ++offsets[v + 1];
    }
    for (uint64_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
    std::vector<NodeId> adjacency(edges_.size() * 2);
    std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto& [u, v] : edges_) {
      adjacency[cursor[u]++] = v;
      adjacency[cursor[v]++] = u;
    }
    for (uint64_t i = 0; i < n; ++i) {
      std::sort(adjacency.begin() + static_cast<ptrdiff_t>(offsets[i]),
                adjacency.begin() + static_cast<ptrdiff_t>(offsets[i + 1]));
    }
    edges_.clear();
    num_nodes_ = 0;
    return Graph::FromSortedCsr(std::move(offsets), std::move(adjacency));
  }

 private:
  NodeId num_nodes_ = 0;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

bool OracleIsCommentOrBlank(const std::string& line) {
  for (char c : line) {
    if (c == ' ' || c == '\t' || c == '\r') continue;
    return c == '#' || c == '%';
  }
  return true;
}

bool OracleHasTrailingGarbage(std::istringstream& ss) {
  std::string rest;
  return static_cast<bool>(ss >> rest);
}

Result<Graph> OracleReadEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  OracleBuilder builder;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (OracleIsCommentOrBlank(line)) continue;
    std::istringstream ss(line);
    uint64_t u = 0, v = 0;
    if (!(ss >> u >> v)) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": expected 'u v'");
    }
    if (OracleHasTrailingGarbage(ss)) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": trailing tokens after 'u v'");
    }
    if (u > kInvalidNode - 1 || v > kInvalidNode - 1) {
      return Status::OutOfRange(path + ":" + std::to_string(line_no) +
                                ": node id exceeds 32-bit range");
    }
    builder.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  if (in.bad()) return Status::IoError("read error on " + path);
  return builder.Build();
}

Result<LabeledGraph> OracleReadTriples(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::unordered_map<std::string, NodeId> index;
  std::vector<std::string> labels;
  auto intern = [&](const std::string& label) {
    auto [it, inserted] =
        index.emplace(label, static_cast<NodeId>(labels.size()));
    if (inserted) labels.push_back(label);
    return it->second;
  };
  std::unordered_set<std::string> edge_label_set;
  std::vector<std::string> edge_labels;
  OracleBuilder builder;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (OracleIsCommentOrBlank(line)) continue;
    std::istringstream ss(line);
    std::string n1, e, n2;
    if (!(ss >> n1 >> e >> n2)) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": expected '<n1> <e> <n2>'");
    }
    if (OracleHasTrailingGarbage(ss)) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": trailing tokens after '<n1> <e> <n2>'");
    }
    const NodeId id1 = intern(n1);
    const NodeId id2 = intern(n2);
    builder.AddEdge(id1, id2);
    if (edge_label_set.insert(e).second) edge_labels.push_back(e);
  }
  if (in.bad()) return Status::IoError("read error on " + path);
  builder.ReserveNodes(static_cast<NodeId>(labels.size()));
  LabeledGraph out;
  out.graph = builder.Build();
  out.labels = std::move(labels);
  out.edge_labels = std::move(edge_labels);
  return out;
}

// ---------------------------------------------------------------------------
// Comparison.

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/mce_io_oracle_" + name;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Verdict counts over a differential run, to show both sides were tried.
struct Verdicts {
  int accepted = 0;
  int rejected = 0;
};

void ExpectSameEdgeList(const std::string& path, const std::string& what,
                        Verdicts* verdicts) {
  const Result<Graph> want = OracleReadEdgeList(path);
  const Result<Graph> got = ReadEdgeList(path);
  ASSERT_EQ(got.ok(), want.ok())
      << what << ": oracle " << want.status() << ", reader " << got.status();
  if (want.ok()) {
    EXPECT_TRUE(*got == *want) << what;
    ++verdicts->accepted;
  } else {
    EXPECT_EQ(got.status(), want.status()) << what;
    ++verdicts->rejected;
  }
}

void ExpectSameTriples(const std::string& path, const std::string& what,
                       Verdicts* verdicts) {
  const Result<LabeledGraph> want = OracleReadTriples(path);
  const Result<LabeledGraph> got = ReadTriples(path);
  ASSERT_EQ(got.ok(), want.ok())
      << what << ": oracle " << want.status() << ", reader " << got.status();
  if (want.ok()) {
    EXPECT_TRUE(got->graph == want->graph) << what;
    EXPECT_EQ(got->labels, want->labels) << what;
    EXPECT_EQ(got->edge_labels, want->edge_labels) << what;
    ++verdicts->accepted;
  } else {
    EXPECT_EQ(got.status(), want.status()) << what;
    ++verdicts->rejected;
  }
}

// ---------------------------------------------------------------------------
// Random text files.

/// The text readers' buffer size: files built around it put lines across
/// the first read's end.
constexpr size_t kBufferBytes = size_t{1} << 20;

class TextFuzzer {
 public:
  explicit TextFuzzer(uint64_t seed) : rng_(seed) {}

  Rng& rng() { return rng_; }

  /// Between-field whitespace: space, tab, '\v' or '\f', one or a few.
  std::string Separator() {
    static const char kSeparators[] = {' ', '\t', '\v', '\f'};
    std::string s;
    const uint64_t count = rng_.NextBool(0.8) ? 1 : 1 + rng_.NextBounded(3);
    for (uint64_t i = 0; i < count; ++i) s += kSeparators[rng_.NextBounded(4)];
    return s;
  }

  /// Leading or trailing whitespace; mostly none. '\v' and '\f' are rare,
  /// since they keep a comment or blank line from being skipped.
  std::string Padding() {
    static const char kBlank[] = {' ', '\t', '\r'};
    std::string s;
    if (rng_.NextBool(0.7)) return s;
    const uint64_t count = 1 + rng_.NextBounded(3);
    for (uint64_t i = 0; i < count; ++i) {
      s += rng_.NextBool(0.05) ? (rng_.NextBool(0.5) ? '\v' : '\f')
                               : kBlank[rng_.NextBounded(3)];
    }
    return s;
  }

  /// A line end: LF, or CRLF for about a fifth of the lines.
  std::string LineEnd() { return rng_.NextBool(0.2) ? "\r\n" : "\n"; }

  /// A comment or blank line, without its end.
  std::string Skippable() {
    static const char kBlank[] = {' ', '\t', '\r'};
    std::string s;
    const uint64_t lead = rng_.NextBounded(3);
    for (uint64_t i = 0; i < lead; ++i) s += kBlank[rng_.NextBounded(3)];
    if (rng_.NextBool(0.5)) {
      s += rng_.NextBool(0.5) ? '#' : '%';
      s += Junk();
    }
    return s;
  }

  /// A few printable and whitespace bytes.
  std::string Junk() {
    static const char kJunk[] = "ab 1-2#%.,x\t+0";
    std::string s;
    const uint64_t len = rng_.NextBounded(8);
    for (uint64_t i = 0; i < len; ++i) {
      s += kJunk[rng_.NextBounded(sizeof(kJunk) - 1)];
    }
    return s;
  }

  /// A node id as a reader may meet it: a '+' sign, a "-0", leading zeros.
  std::string Id(uint64_t id) {
    std::string s;
    if (id == 0 && rng_.NextBool(0.1)) s += '-';
    else if (rng_.NextBool(0.1)) s += '+';
    if (rng_.NextBool(0.1)) s.append(1 + rng_.NextBounded(3), '0');
    return s + std::to_string(id);
  }

  /// An id below `id_bound`, mostly small so that edges repeat.
  uint64_t RandomId() {
    return rng_.NextBool(0.9) ? rng_.NextBounded(48)
                              : rng_.NextBounded(id_bound_);
  }

  /// Ids up to 2^20 make every build size a million-node graph, so only
  /// some files reach that far.
  void set_id_bound(uint64_t id_bound) { id_bound_ = id_bound; }

  /// A line the old reader rejected (or, for the glued forms, accepted).
  std::string OddEdgeLine() {
    switch (rng_.NextBounded(14)) {
      case 0: return Padding() + "\v";
      case 1: return "\f" + Padding();
      case 2: return " \v # x";
      case 3: return "0x10 1";
      case 4: return "1,2";
      case 5: return "1.5 2";
      case 6: return std::to_string(RandomId());
      case 7: return "1 2" + Separator() + "3";
      case 8: return "1 2 #c";
      case 9: return "-" + std::to_string(1 + rng_.NextBounded(9)) + " 1";
      case 10: return "18446744073709551616 1";
      case 11: return "4294967295" + Separator() + "2";
      case 12: return std::to_string(RandomId()) + "-0";  // glued: u, then 0
      default: return std::to_string(RandomId()) + "+" +
                      std::to_string(RandomId()) + Junk();
    }
  }

  /// Random edge-list lines (each with its line end); `odd` is the chance
  /// of a line from OddEdgeLine.
  std::string EdgeLines(size_t lines, double odd) {
    std::string text;
    std::vector<std::pair<uint64_t, uint64_t>> seen;
    for (size_t i = 0; i < lines; ++i) {
      const uint64_t kind = rng_.NextBounded(100);
      std::string line;
      if (rng_.NextBool(odd)) {
        line = OddEdgeLine();
      } else if (kind < 16) {
        line = Skippable();
      } else {
        uint64_t u = RandomId(), v = RandomId();
        if (!seen.empty() && kind < 40) {
          // Repeat an edge: as it was, reversed, or as a self-loop.
          std::tie(u, v) = seen[rng_.NextBounded(seen.size())];
          if (rng_.NextBool(0.5)) std::swap(u, v);
          if (rng_.NextBool(0.2)) v = u;
        }
        seen.emplace_back(u, v);
        line = Padding() + Id(u) + Separator() + Id(v) + Padding();
      }
      text += line;
      text += LineEnd();
    }
    if (!text.empty() && rng_.NextBool(0.25)) {
      text.pop_back();  // no final newline (or a final lone '\r')
    }
    return text;
  }

  /// A label: bytes other than whitespace, including '#', '%', non-ASCII
  /// bytes and NUL.
  std::string Label() {
    static const char kAlphabet[] = "abcxyz019#%-+_.:\x80\xc3\xa9\xff";
    std::string s;
    const uint64_t len = 1 + rng_.NextBounded(6);
    for (uint64_t i = 0; i < len; ++i) {
      s += rng_.NextBool(0.01) ? '\0'
                               : kAlphabet[rng_.NextBounded(sizeof(kAlphabet) - 1)];
    }
    return s;
  }

  /// Random triples lines (each with its line end) over a small label pool.
  std::string TripleLines(size_t lines, double odd) {
    std::vector<std::string> labels(1 + rng_.NextBounded(30));
    for (std::string& label : labels) label = Label();
    const std::string edge_labels[] = {"follows", "knows", "#tag", "e"};
    auto label = [&] { return labels[rng_.NextBounded(labels.size())]; };
    auto edge_label = [&] { return edge_labels[rng_.NextBounded(4)]; };
    std::string text;
    for (size_t i = 0; i < lines; ++i) {
      std::string line;
      if (rng_.NextBool(odd)) {
        switch (rng_.NextBounded(5)) {
          case 0: line = Padding() + label() + Separator() + label(); break;
          case 1:
            line = label() + Separator() + edge_label() + Separator() +
                   label() + Separator() + label();
            break;
          case 2: line = Padding() + "\v" + Padding(); break;
          case 3: line = "\f"; break;
          default: line = label(); break;
        }
      } else if (rng_.NextBool(0.15)) {
        line = Skippable();
      } else {
        const std::string n1 = label();
        const std::string n2 = rng_.NextBool(0.1) ? n1 : label();
        line = Padding() + n1 + Separator() + edge_label() + Separator() +
               n2 + Padding();
      }
      text += line;
      text += LineEnd();
    }
    if (!text.empty() && rng_.NextBool(0.25)) text.pop_back();
    return text;
  }

  /// A comment line (with its '\n') of exactly `bytes` bytes, bytes >= 2.
  static std::string Filler(size_t bytes) {
    return "#" + std::string(bytes - 2, 'f') + "\n";
  }

 private:
  Rng rng_;
  uint64_t id_bound_ = 4096;
};

// ---------------------------------------------------------------------------
// Edge lists.

TEST(EdgeListOracleTest, RandomFilesMatchTheStreamReader) {
  TextFuzzer fuzz(20260501);
  const std::string path = TempPath("random.txt");
  Verdicts verdicts;
  for (int file = 0; file < 520; ++file) {
    // Half the files hold only lines the old reader accepted; the others
    // mix in rejected (or oddly accepted) lines at varying rates.
    const double odd = file % 2 == 0 ? 0.0 : 0.002 * (1 + file % 40);
    const size_t lines = fuzz.rng().NextBounded(file % 10 == 0 ? 600 : 60);
    fuzz.set_id_bound(file % 16 == 0 ? uint64_t{1} << 20 : 4096);
    WriteFile(path, fuzz.EdgeLines(lines, odd));
    ExpectSameEdgeList(path, "file " + std::to_string(file), &verdicts);
    if (HasFatalFailure()) break;
  }
  EXPECT_GE(verdicts.accepted, 250);
  EXPECT_GE(verdicts.rejected, 100);
  std::remove(path.c_str());
}

TEST(EdgeListOracleTest, LinesStraddlingTheFirstReadMatch) {
  // A filler comment puts the end of the first buffer-sized read at a
  // chosen byte of the random lines behind it: inside an id, a separator,
  // a "\r\n", or right at a line end.
  TextFuzzer fuzz(77);
  const std::string path = TempPath("straddle.txt");
  Verdicts verdicts;
  for (int file = 0; file < 64; ++file) {
    const size_t into = static_cast<size_t>(fuzz.rng().NextBounded(96));
    const std::string lines =
        fuzz.EdgeLines(12, file % 4 == 3 ? 0.05 : 0.0);
    WriteFile(path, TextFuzzer::Filler(kBufferBytes - into) + lines);
    ExpectSameEdgeList(path, "straddle file " + std::to_string(file),
                       &verdicts);
    if (HasFatalFailure()) break;
  }
  EXPECT_GE(verdicts.accepted, 32);
  std::remove(path.c_str());
}

TEST(EdgeListOracleTest, LinesLongerThanTheBufferMatch) {
  const std::string path = TempPath("long.txt");
  const std::string big_gap(kBufferBytes + 4321, ' ');
  const std::string cases[] = {
      // A valid edge whose fields are a buffer apart.
      "0 1\n7" + big_gap + "3\n2 3\n",
      // Leading zeros longer than the buffer.
      "1 2\n" + std::string(kBufferBytes + 17, '0') + "5 4\n",
      // A comment longer than two buffers, the file's last line.
      "1 2\n#" + std::string(2 * kBufferBytes + 5, 'c'),
      // Rejected once the long line is parsed.
      "1 2\n3 4" + big_gap + "x\n",
      "1 2\r\n" + big_gap + "\v\r\n5 6\r\n",
      // A long blank line, then a lone line without a final newline.
      std::string(kBufferBytes, '\t') + "\n8 9",
  };
  Verdicts verdicts;
  for (size_t i = 0; i < std::size(cases); ++i) {
    WriteFile(path, cases[i]);
    ExpectSameEdgeList(path, "long case " + std::to_string(i), &verdicts);
  }
  EXPECT_EQ(verdicts.accepted, 4);
  EXPECT_EQ(verdicts.rejected, 2);
  std::remove(path.c_str());
}

TEST(EdgeListOracleTest, MissingFileAndDirectoryMatch) {
  Verdicts verdicts;
  ExpectSameEdgeList(TempPath("no_such_file.txt"), "missing", &verdicts);
  ExpectSameEdgeList(testing::TempDir(), "directory", &verdicts);
  const std::string empty = TempPath("empty.txt");
  WriteFile(empty, "");
  ExpectSameEdgeList(empty, "empty", &verdicts);
  EXPECT_EQ(verdicts.rejected, 2);
  std::remove(empty.c_str());
}

// ---------------------------------------------------------------------------
// Triples.

TEST(TriplesOracleTest, RandomFilesMatchTheStreamReader) {
  TextFuzzer fuzz(4242);
  const std::string path = TempPath("random.triples");
  Verdicts verdicts;
  for (int file = 0; file < 520; ++file) {
    const double odd = file % 2 == 0 ? 0.0 : 0.002 * (1 + file % 40);
    const size_t lines = fuzz.rng().NextBounded(file % 10 == 0 ? 600 : 60);
    WriteFile(path, fuzz.TripleLines(lines, odd));
    ExpectSameTriples(path, "file " + std::to_string(file), &verdicts);
    if (HasFatalFailure()) break;
  }
  EXPECT_GE(verdicts.accepted, 250);
  EXPECT_GE(verdicts.rejected, 100);
  std::remove(path.c_str());
}

TEST(TriplesOracleTest, LongAndStraddlingLinesMatch) {
  TextFuzzer fuzz(99);
  const std::string path = TempPath("long.triples");
  Verdicts verdicts;
  for (int file = 0; file < 32; ++file) {
    const size_t into = static_cast<size_t>(fuzz.rng().NextBounded(64));
    WriteFile(path, TextFuzzer::Filler(kBufferBytes - into) +
                        fuzz.TripleLines(10, 0.0));
    ExpectSameTriples(path, "straddle file " + std::to_string(file),
                      &verdicts);
    if (HasFatalFailure()) break;
  }
  const std::string long_label(kBufferBytes + 99, 'q');
  WriteFile(path, "a e b\n" + long_label + " e a\r\nb e " + long_label);
  ExpectSameTriples(path, "long label", &verdicts);
  EXPECT_EQ(verdicts.rejected, 0);
  ExpectSameTriples(TempPath("no_such_file.triples"), "missing", &verdicts);
  ExpectSameTriples(testing::TempDir(), "directory", &verdicts);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// GraphBuilder::Build.

TEST(BuildOracleTest, CountingSortEqualsSortBasedBuild) {
  Rng rng(31337);
  for (int trial = 0; trial < 400; ++trial) {
    const NodeId n = static_cast<NodeId>(
        1 + rng.NextBounded(trial % 4 == 0 ? 6 : 300));
    std::vector<std::pair<NodeId, NodeId>> edges(rng.NextBounded(4 * n + 1));
    for (auto& [u, v] : edges) {
      u = static_cast<NodeId>(rng.NextBounded(n));
      v = static_cast<NodeId>(rng.NextBool(0.05) ? u : rng.NextBounded(n));
    }
    // Duplicates, some reversed.
    const size_t copies = rng.NextBounded(edges.size() + 1);
    for (size_t i = 0; i < copies; ++i) {
      auto [u, v] = edges[rng.NextBounded(edges.size())];
      if (rng.NextBool(0.5)) std::swap(u, v);
      edges.emplace_back(u, v);
    }
    switch (trial % 3) {
      case 0:  // sorted, as WriteEdgeList writes them
        std::sort(edges.begin(), edges.end());
        break;
      case 1:
        rng.Shuffle(&edges);
        break;
      default:
        std::sort(edges.rbegin(), edges.rend());
        break;
    }
    GraphBuilder builder;
    OracleBuilder oracle;
    if (trial % 5 == 0) {
      // Trailing isolated nodes past the largest endpoint.
      const auto reserve = static_cast<NodeId>(n + rng.NextBounded(4));
      builder.ReserveNodes(reserve);
      oracle.ReserveNodes(reserve);
    }
    for (const auto& [u, v] : edges) {
      builder.AddEdge(u, v);
      oracle.AddEdge(u, v);
    }
    ASSERT_TRUE(builder.Build() == oracle.Build()) << "trial " << trial;
  }
}

TEST(BuildOracleTest, ReusedAndEmptyBuildersMatch) {
  GraphBuilder builder;
  OracleBuilder oracle;
  EXPECT_TRUE(builder.Build() == oracle.Build());  // no nodes
  builder.ReserveNodes(3);
  oracle.ReserveNodes(3);
  EXPECT_TRUE(builder.Build() == oracle.Build());  // isolated nodes only
  for (NodeId round = 0; round < 3; ++round) {
    for (NodeId v = 0; v < 50; ++v) {
      builder.AddEdge(v, (v * 7 + round) % 50);
      oracle.AddEdge(v, (v * 7 + round) % 50);
    }
    EXPECT_TRUE(builder.Build() == oracle.Build()) << "round " << round;
  }
}

}  // namespace
}  // namespace mce
