// GraphStorage and the MCECSR02 binary format: heap/mmap equality, header
// validation, and the Graph ownership semantics the storage refactor
// introduced (copies share storage, moves reset the source to empty).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/io.h"
#include "graph/storage.h"
#include "graph/subgraph.h"
#include "test_util.h"
#include "util/status.h"

namespace mce {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(GraphStorageTest, CsrBinaryRoundTripHeap) {
  const Graph g = test::Figure1Graph();
  const std::string path = TempPath("fig1.mcsr");
  ASSERT_TRUE(WriteCsrBinary(g, path).ok());
  Result<Graph> back = ReadCsrBinary(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(*back == g);
  EXPECT_EQ(back->storage().kind(), std::string("heap"));
  std::remove(path.c_str());
}

TEST(GraphStorageTest, MmapGraphEqualsHeapGraph) {
  const Graph g = test::Figure1Graph();
  const std::string path = TempPath("fig1_mmap.mcsr");
  ASSERT_TRUE(WriteCsrBinary(g, path).ok());
  Result<Graph> mapped = OpenMmapGraph(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_TRUE(*mapped == g);
  EXPECT_EQ(mapped->storage().kind(), std::string("mmap"));
  // mmap pages are clean and reclaimable, so they are not resident state.
  EXPECT_EQ(mapped->ResidentBytes(), 0u);
  EXPECT_GT(g.ResidentBytes(), 0u);
  // Neighbor queries behave identically through either storage.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    ASSERT_EQ(mapped->Degree(u), g.Degree(u));
  }
  std::remove(path.c_str());
}

TEST(GraphStorageTest, MmapRejectsBadMagic) {
  const std::string path = TempPath("badmagic.mcsr");
  ASSERT_TRUE(WriteCsrBinary(test::PathGraph(4), path).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("XXXXXXXX", 8);
  }
  Result<Graph> mapped = OpenMmapGraph(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(ReadCsrBinary(path).ok());
  std::remove(path.c_str());
}

TEST(GraphStorageTest, MmapRejectsTruncatedFile) {
  const std::string path = TempPath("truncated.mcsr");
  ASSERT_TRUE(WriteCsrBinary(test::Figure1Graph(), path).ok());
  // Chop the adjacency tail: the size check must notice the file no
  // longer matches its own header.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 8));
  out.close();
  EXPECT_FALSE(OpenMmapGraph(path).ok());
  EXPECT_FALSE(ReadCsrBinary(path).ok());
  std::remove(path.c_str());
}

/// An MCECSR02 file of the given header words, then `tail`.
void WriteCsrHeader(const std::string& path, uint64_t n, uint64_t m,
                    const std::vector<uint64_t>& tail) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  std::vector<uint64_t> words = {kCsrBinaryMagic, n, m, 0};
  words.insert(words.end(), tail.begin(), tail.end());
  out.write(reinterpret_cast<const char*>(words.data()),
            static_cast<std::streamsize>(words.size() * sizeof(uint64_t)));
}

// Header counts the file cannot hold are I/O errors, found before anything
// is allocated or read by them: a 2^32 - 1 node header would otherwise
// have 32 GiB of offsets zeroed, and 2^62 edges make a byte count
// (2 * 2^62 * 4) that wraps to 0 and matches a short file.
TEST(GraphStorageTest, HeadersLargerThanTheFileAreIoErrors) {
  const std::string path = TempPath("oversized.mcsr");
  WriteCsrHeader(path, uint64_t{kInvalidNode}, 0, {});
  EXPECT_EQ(ReadCsrBinary(path).status().code(), StatusCode::kIoError);
  EXPECT_EQ(OpenMmapGraph(path).status().code(), StatusCode::kIoError);

  WriteCsrHeader(path, 1, uint64_t{1} << 62, {0, uint64_t{1} << 63});
  EXPECT_EQ(OpenMmapGraph(path).status().code(), StatusCode::kIoError);
  EXPECT_EQ(ReadCsrBinary(path).status().code(), StatusCode::kIoError);

  // One offset short, with the edge count whose 8m wraps around to that
  // shortfall.
  WriteCsrHeader(path, 1, (uint64_t{1} << 61) - 1, {0});
  EXPECT_EQ(OpenMmapGraph(path).status().code(), StatusCode::kIoError);
  EXPECT_EQ(ReadCsrBinary(path).status().code(), StatusCode::kIoError);

  // A valid file plus one stray byte no longer matches its header either.
  ASSERT_TRUE(WriteCsrBinary(test::PathGraph(4), path).ok());
  std::ofstream(path, std::ios::binary | std::ios::app).put('\0');
  EXPECT_EQ(OpenMmapGraph(path).status().code(), StatusCode::kIoError);
  EXPECT_EQ(ReadCsrBinary(path).status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(GraphStorageTest, CopiesShareStorage) {
  const Graph g = test::Figure1Graph();
  const Graph copy = g;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_TRUE(copy == g);
  // A copy is a second view of the same immutable CSR, not a clone.
  EXPECT_EQ(&copy.storage(), &g.storage());
  EXPECT_EQ(copy.Neighbors(0).data(), g.Neighbors(0).data());
}

TEST(GraphStorageTest, MoveResetsSourceToEmpty) {
  Graph g = test::Figure1Graph();
  const Graph expect = g;
  Graph moved = std::move(g);
  EXPECT_TRUE(moved == expect);
  // The moved-from graph is the valid empty graph, not a dangling view.
  EXPECT_EQ(g.num_nodes(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(g.num_edges(), 0u);
  g = std::move(moved);
  EXPECT_TRUE(g == expect);
  EXPECT_EQ(moved.num_nodes(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(GraphStorageTest, InduceOnMmapGraphMatchesHeap) {
  const Graph g = test::Figure1Graph();
  const std::string path = TempPath("induce.mcsr");
  ASSERT_TRUE(WriteCsrBinary(g, path).ok());
  Result<Graph> mapped = OpenMmapGraph(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  const std::vector<NodeId> keep = {test::D, test::S, test::E, test::H};
  InducedSubgraph from_heap = Induce(g, keep);
  InducedSubgraph from_mmap = Induce(*mapped, keep);
  EXPECT_TRUE(from_heap.graph == from_mmap.graph);
  EXPECT_EQ(from_heap.to_parent, from_mmap.to_parent);
  // The induced graph is always heap-owned, whatever fed it.
  EXPECT_EQ(from_mmap.graph.storage().kind(), std::string("heap"));
  std::remove(path.c_str());
}

TEST(GraphStorageTest, EmptyGraphHasValidStorage) {
  const Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.storage().offsets().size(), 1u);
}

}  // namespace
}  // namespace mce
