#include "graph/io.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "graph/builder.h"
#include "graph/storage.h"

namespace mce {

namespace {

constexpr uint64_t kBinaryMagic = 0x4d43454752463031ULL;  // "MCEGRF01"

/// Bytes per read of the text readers' buffer. A line longer than the
/// buffer doubles it until the line fits, so the buffer is bounded by the
/// longest line, never by the file.
constexpr size_t kTextBufferBytes = size_t{1} << 20;

/// Whitespace as `std::istream >>` skips it in the "C" locale.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// One line's fields, extracted by the rules of `std::istream >>` in the
/// "C" locale: each extraction first skips whitespace. Numbers go through
/// std::from_chars, tokens are views into the line.
class LineCursor {
 public:
  LineCursor() = default;
  explicit LineCursor(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// As `>> std::string`: the next run of non-whitespace bytes. False when
  /// only whitespace is left.
  bool Token(std::string_view* out) {
    SkipSpace();
    const char* start = p_;
    while (p_ != end_ && !IsSpace(*p_)) ++p_;
    *out = std::string_view(start, static_cast<size_t>(p_ - start));
    return p_ != start;
  }

  /// As `>> uint64_t`: an optional sign, then decimal digits up to the first
  /// other byte, whatever it is ("1-2" is 1, then -2); '-' negates modulo
  /// 2^64. False when no digit follows or the value overflows.
  bool Number(uint64_t* out) {
    SkipSpace();
    const bool negative = p_ != end_ && *p_ == '-';
    if (p_ != end_ && (negative || *p_ == '+')) ++p_;
    const auto [next, error] = std::from_chars(p_, end_, *out);
    if (error != std::errc()) return false;
    p_ = next;
    if (negative) *out = 0 - *out;
    return true;
  }

  /// True when only whitespace is left.
  bool AtEnd() {
    SkipSpace();
    return p_ == end_;
  }

 private:
  void SkipSpace() {
    while (p_ != end_ && IsSpace(*p_)) ++p_;
  }

  const char* p_ = nullptr;
  const char* end_ = nullptr;
};

/// The records of a text graph file: its lines, split as std::getline
/// splits them (a last line without '\n' still counts), minus blank and
/// comment lines. The file is read through one buffer of kTextBufferBytes;
/// the partial line at its end is carried to the front for the next read.
class TextRecords {
 public:
  explicit TextRecords(const std::string& path)
      : path_(path), in_(path), buffer_(kTextBufferBytes) {}

  bool is_open() const { return static_cast<bool>(in_); }
  /// True once a read failed (as opposed to reaching the end of the file).
  bool read_error() const { return in_.bad(); }

  /// Moves to the next line that is neither blank nor a comment. False at
  /// the end of the file or after a read error.
  bool Next(LineCursor* record) {
    std::string_view line;
    while (NextLine(&line)) {
      ++line_no_;
      if (!IsCommentOrBlank(line)) {
        *record = LineCursor(line);
        return true;
      }
    }
    return false;
  }

  /// "<path>:<line>: <what>", naming the current record.
  std::string At(const char* what) const {
    return path_ + ":" + std::to_string(line_no_) + ": " + what;
  }

 private:
  /// A comment's first byte past spaces, tabs and CRs is '#' or '%'; a
  /// blank line has none. A line of '\v' or '\f' is neither: it is parsed,
  /// and rejected.
  static bool IsCommentOrBlank(std::string_view line) {
    for (char c : line) {
      if (c == ' ' || c == '\t' || c == '\r') continue;
      return c == '#' || c == '%';
    }
    return true;
  }

  /// The next line without its '\n', a view into the buffer valid until
  /// the next call.
  bool NextLine(std::string_view* line) {
    for (;;) {
      const char* base = buffer_.data();
      if (const void* nl = std::memchr(base + scan_, '\n', end_ - scan_)) {
        const size_t at =
            static_cast<size_t>(static_cast<const char*>(nl) - base);
        *line = std::string_view(base + begin_, at - begin_);
        begin_ = scan_ = at + 1;
        return true;
      }
      scan_ = end_;
      if (at_eof_) {
        if (begin_ == end_) return false;
        *line = std::string_view(base + begin_, end_ - begin_);
        begin_ = scan_ = end_;
        return true;
      }
      Refill();
    }
  }

  /// Moves the partial line to the front, doubles the buffer if the line
  /// fills it, and reads behind it. A short read is the end of the file or
  /// a read error.
  void Refill() {
    const size_t carried = end_ - begin_;
    std::memmove(buffer_.data(), buffer_.data() + begin_, carried);
    begin_ = 0;
    scan_ = end_ = carried;
    if (end_ == buffer_.size()) buffer_.resize(2 * buffer_.size());
    in_.read(buffer_.data() + end_,
             static_cast<std::streamsize>(buffer_.size() - end_));
    end_ += static_cast<size_t>(in_.gcount());
    at_eof_ = !in_;
  }

  const std::string path_;
  std::ifstream in_;
  std::vector<char> buffer_;
  size_t begin_ = 0;  // start of the current line
  size_t scan_ = 0;   // [begin_, scan_) holds no '\n'
  size_t end_ = 0;    // bytes read into the buffer
  bool at_eof_ = false;
  size_t line_no_ = 0;
};

/// Bytes from `in`'s position to the end of its file; the position is kept.
uint64_t RemainingBytes(std::istream& in) {
  const std::streampos here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(here);
  return end > here ? static_cast<uint64_t>(end - here) : 0;
}

}  // namespace

NodeId LabelInterner::Intern(std::string_view label) {
  if (auto it = index_.find(label); it != index_.end()) return it->second;
  const auto id = static_cast<NodeId>(labels_.size());
  index_.emplace(label, id);
  labels_.emplace_back(label);
  return id;
}

NodeId LabelInterner::Lookup(std::string_view label) const {
  auto it = index_.find(label);
  return it == index_.end() ? kInvalidNode : it->second;
}

Result<Graph> ReadEdgeList(const std::string& path) {
  TextRecords text(path);
  if (!text.is_open()) return Status::IoError("cannot open " + path);
  GraphBuilder builder;
  LineCursor line;
  while (text.Next(&line)) {
    uint64_t u = 0, v = 0;
    if (!line.Number(&u) || !line.Number(&v)) {
      return Status::InvalidArgument(text.At("expected 'u v'"));
    }
    if (!line.AtEnd()) {
      return Status::InvalidArgument(text.At("trailing tokens after 'u v'"));
    }
    // The largest id leaves the node count below kInvalidNode.
    if (u >= kInvalidNode - 1 || v >= kInvalidNode - 1) {
      return Status::OutOfRange(text.At("node id exceeds 32-bit range"));
    }
    builder.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  if (text.read_error()) return Status::IoError("read error on " + path);
  return builder.Build();
}

Status WriteEdgeList(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      if (u < v) out << u << ' ' << v << '\n';
    }
  }
  out.flush();
  if (!out) return Status::IoError("write error on " + path);
  return Status::OK();
}

Result<LabeledGraph> ReadTriples(const std::string& path) {
  TextRecords text(path);
  if (!text.is_open()) return Status::IoError("cannot open " + path);
  LabelInterner nodes;
  LabelInterner edge_labels;
  GraphBuilder builder;
  LineCursor line;
  while (text.Next(&line)) {
    std::string_view n1, e, n2;
    if (!line.Token(&n1) || !line.Token(&e) || !line.Token(&n2)) {
      return Status::InvalidArgument(text.At("expected '<n1> <e> <n2>'"));
    }
    if (!line.AtEnd()) {
      return Status::InvalidArgument(
          text.At("trailing tokens after '<n1> <e> <n2>'"));
    }
    // Intern in textual order (argument evaluation order is unspecified).
    const NodeId id1 = nodes.Intern(n1);
    const NodeId id2 = nodes.Intern(n2);
    builder.AddEdge(id1, id2);
    edge_labels.Intern(e);
  }
  if (text.read_error()) return Status::IoError("read error on " + path);
  // A self-loop line interns its label but adds no edge: make the graph
  // cover every label.
  builder.ReserveNodes(static_cast<NodeId>(nodes.size()));
  LabeledGraph out;
  out.graph = builder.Build();
  out.labels = nodes.labels();
  out.edge_labels = edge_labels.labels();
  return out;
}

Status WriteTriples(const LabeledGraph& g, const std::string& path) {
  if (g.labels.size() != g.graph.num_nodes()) {
    return Status::InvalidArgument("label table size != node count");
  }
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  const std::string edge_label =
      g.edge_labels.empty() ? std::string("e") : g.edge_labels.front();
  for (NodeId u = 0; u < g.graph.num_nodes(); ++u) {
    for (NodeId v : g.graph.Neighbors(u)) {
      if (u < v) {
        out << g.labels[u] << ' ' << edge_label << ' ' << g.labels[v] << '\n';
      }
    }
  }
  out.flush();
  if (!out) return Status::IoError("write error on " + path);
  return Status::OK();
}

Status WriteDot(const Graph& g, const std::string& path,
                const std::vector<std::string>& labels,
                const std::vector<NodeId>& highlight) {
  if (!labels.empty() && labels.size() != g.num_nodes()) {
    return Status::InvalidArgument("label table size != node count");
  }
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  std::vector<uint8_t> is_highlighted(g.num_nodes(), 0);
  for (NodeId v : highlight) {
    if (v >= g.num_nodes()) {
      return Status::OutOfRange("highlight node out of range");
    }
    is_highlighted[v] = 1;
  }
  out << "graph mce {\n  node [shape=circle];\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out << "  n" << v;
    out << " [";
    if (!labels.empty()) out << "label=\"" << labels[v] << "\"";
    if (is_highlighted[v]) {
      if (!labels.empty()) out << ", ";
      out << "style=filled, fillcolor=lightblue";
    }
    out << "];\n";
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      if (u < v) out << "  n" << u << " -- n" << v << ";\n";
    }
  }
  out << "}\n";
  out.flush();
  if (!out) return Status::IoError("write error on " + path);
  return Status::OK();
}

Status WriteBinary(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  const uint64_t n = g.num_nodes();
  const uint64_t m = g.num_edges();
  out.write(reinterpret_cast<const char*>(&kBinaryMagic), sizeof(uint64_t));
  out.write(reinterpret_cast<const char*>(&n), sizeof(uint64_t));
  out.write(reinterpret_cast<const char*>(&m), sizeof(uint64_t));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      if (u < v) {
        out.write(reinterpret_cast<const char*>(&u), sizeof(NodeId));
        out.write(reinterpret_cast<const char*>(&v), sizeof(NodeId));
      }
    }
  }
  out.flush();
  if (!out) return Status::IoError("write error on " + path);
  return Status::OK();
}

Result<Graph> ReadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  uint64_t magic = 0, n = 0, m = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(uint64_t));
  in.read(reinterpret_cast<char*>(&n), sizeof(uint64_t));
  in.read(reinterpret_cast<char*>(&m), sizeof(uint64_t));
  if (!in || magic != kBinaryMagic) {
    return Status::InvalidArgument(path + ": not an mce binary graph");
  }
  // The file must hold the m edges the header claims before anything is
  // sized by m (compared by division, so no m can overflow).
  if (m > RemainingBytes(in) / (2 * sizeof(NodeId))) {
    return Status::IoError(path + ": truncated edge section");
  }
  if (n >= kInvalidNode) {
    return Status::OutOfRange(path + ": node count exceeds 32-bit range");
  }
  GraphBuilder builder(static_cast<NodeId>(n));
  builder.ReserveEdges(m);
  for (uint64_t i = 0; i < m; ++i) {
    NodeId u = 0, v = 0;
    in.read(reinterpret_cast<char*>(&u), sizeof(NodeId));
    in.read(reinterpret_cast<char*>(&v), sizeof(NodeId));
    if (!in) return Status::IoError(path + ": truncated edge section");
    if (u >= n || v >= n) {
      return Status::InvalidArgument(path + ": edge endpoint out of range");
    }
    builder.AddEdge(u, v);
  }
  return builder.Build();
}

Status WriteCsrBinary(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  const uint64_t n = g.num_nodes();
  const uint64_t m = g.num_edges();
  const uint64_t reserved = 0;
  out.write(reinterpret_cast<const char*>(&kCsrBinaryMagic), sizeof(uint64_t));
  out.write(reinterpret_cast<const char*>(&n), sizeof(uint64_t));
  out.write(reinterpret_cast<const char*>(&m), sizeof(uint64_t));
  out.write(reinterpret_cast<const char*>(&reserved), sizeof(uint64_t));
  const std::span<const uint64_t> offsets = g.storage().offsets();
  const std::span<const NodeId> adjacency = g.storage().adjacency();
  out.write(reinterpret_cast<const char*>(offsets.data()),
            static_cast<std::streamsize>(offsets.size() * sizeof(uint64_t)));
  out.write(reinterpret_cast<const char*>(adjacency.data()),
            static_cast<std::streamsize>(adjacency.size() * sizeof(NodeId)));
  out.flush();
  if (!out) return Status::IoError("write error on " + path);
  return Status::OK();
}

Result<Graph> ReadCsrBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  uint64_t magic = 0, n = 0, m = 0, reserved = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(uint64_t));
  in.read(reinterpret_cast<char*>(&n), sizeof(uint64_t));
  in.read(reinterpret_cast<char*>(&m), sizeof(uint64_t));
  in.read(reinterpret_cast<char*>(&reserved), sizeof(uint64_t));
  if (!in || magic != kCsrBinaryMagic) {
    return Status::InvalidArgument(path + ": not an MCECSR02 graph file");
  }
  MCE_RETURN_NOT_OK(
      CheckCsrHeader(path, n, m, 4 * sizeof(uint64_t) + RemainingBytes(in)));
  std::vector<uint64_t> offsets(n + 1);
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(offsets.size() * sizeof(uint64_t)));
  if (!in) return Status::IoError(path + ": truncated offset section");
  if (offsets.front() != 0 || offsets.back() != 2 * m) {
    return Status::InvalidArgument(path + ": inconsistent CSR offsets");
  }
  for (uint64_t v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      return Status::InvalidArgument(path + ": non-monotone CSR offsets");
    }
  }
  std::vector<NodeId> adjacency(2 * m);
  in.read(reinterpret_cast<char*>(adjacency.data()),
          static_cast<std::streamsize>(adjacency.size() * sizeof(NodeId)));
  if (!in) return Status::IoError(path + ": truncated adjacency section");
  for (NodeId v : adjacency) {
    if (v >= n) {
      return Status::InvalidArgument(path + ": neighbor id out of range");
    }
  }
  return Graph::FromSortedCsr(std::move(offsets), std::move(adjacency));
}

Result<Graph> OpenMmapGraph(const std::string& path) {
  MCE_ASSIGN_OR_RETURN(std::shared_ptr<const GraphStorage> storage,
                       MmapCsrStorage::Open(path));
  return Graph::FromStorage(std::move(storage));
}

}  // namespace mce
