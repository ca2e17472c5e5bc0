// Graph serialization.
//
// Section 6.2 of the paper distributes each dataset as files of records
// <n1, e, n2> — two node labels and an edge label — and hash-encodes the
// labels for speed. ReadTriples reproduces that pipeline: labels are
// interned into dense ids (the "hash encoding") and the label table is kept
// for reporting cliques in the original vocabulary. Plain numeric edge
// lists (the SNAP format) and a compact binary format are also supported.

#ifndef MCE_GRAPH_IO_H_
#define MCE_GRAPH_IO_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace mce {

/// A graph whose nodes carry external string labels.
struct LabeledGraph {
  Graph graph;
  /// labels[v] is the external label of node v.
  std::vector<std::string> labels;
  /// Distinct edge labels seen in the input (informational; the clique
  /// problem ignores them).
  std::vector<std::string> edge_labels;
};

/// Interns string labels into dense node ids, first-seen order. A label is
/// copied only when it is first interned.
class LabelInterner {
 public:
  /// Returns the id of `label`, assigning the next free id when new.
  NodeId Intern(std::string_view label);

  /// Returns the id of `label` or kInvalidNode when unknown.
  NodeId Lookup(std::string_view label) const;

  size_t size() const { return labels_.size(); }
  const std::vector<std::string>& labels() const { return labels_; }

 private:
  /// Hashes std::string and std::string_view alike, so lookups take views.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::unordered_map<std::string, NodeId, Hash, std::equal_to<>> index_;
  std::vector<std::string> labels_;
};

/// Reads a whitespace-separated numeric edge list ("u v" per line).
/// Lines starting with '#' or '%' are comments. Node ids are used as given
/// (the graph covers [0, max id]); an id above 4,294,967,293 is OutOfRange.
/// The grammar, exactly, is in README.md ("Input formats").
Result<Graph> ReadEdgeList(const std::string& path);

/// Writes "u v" lines, one per undirected edge.
Status WriteEdgeList(const Graph& g, const std::string& path);

/// Reads <n1, e, n2> triples: three whitespace-separated tokens per line,
/// node and edge labels as arbitrary strings (Section 6.2 format).
Result<LabeledGraph> ReadTriples(const std::string& path);

/// Writes triples using the given labels; the edge label is "e" when the
/// labeled graph carries none.
Status WriteTriples(const LabeledGraph& g, const std::string& path);

/// Compact binary format: header (magic, node count, edge count) followed
/// by the edge pairs. Fast path for benchmark reruns on large graphs.
/// ReadBinary checks the edge count against the file's length before it
/// reserves for it (IoError when short); a node count of kInvalidNode or
/// more is OutOfRange.
Status WriteBinary(const Graph& g, const std::string& path);
Result<Graph> ReadBinary(const std::string& path);

/// MCECSR02 binary CSR format (layout in graph/storage.h): the graph's two
/// CSR arrays verbatim behind a 32-byte header, 64-bit offsets throughout.
/// Written by tools/mce_convert; the mmap read path below serves graphs
/// larger than RAM without heap-materializing the CSR.
Status WriteCsrBinary(const Graph& g, const std::string& path);

/// Reads an MCECSR02 file into an owned (heap) graph: the header is checked
/// against the file's size (CheckCsrHeader in graph/storage.h) before
/// anything is allocated, offsets and neighbor ids are range-checked, and
/// per-row invariants are revalidated in debug builds via
/// Graph::FromSortedCsr.
Result<Graph> ReadCsrBinary(const std::string& path);

/// Opens an MCECSR02 file as a zero-copy mmap-backed graph. The returned
/// graph's ResidentBytes() is 0 — its pages are clean and reclaimable —
/// and copies of it share the single mapping.
Result<Graph> OpenMmapGraph(const std::string& path);

/// Graphviz DOT export for small graphs / community inspection. Nodes
/// whose ids appear in `highlight` are filled; `labels` (optional, may be
/// empty) names the nodes.
Status WriteDot(const Graph& g, const std::string& path,
                const std::vector<std::string>& labels = {},
                const std::vector<NodeId>& highlight = {});

}  // namespace mce

#endif  // MCE_GRAPH_IO_H_
