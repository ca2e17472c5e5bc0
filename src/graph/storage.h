// GraphStorage — ownership-agnostic backing store for a Graph's CSR.
//
// A Graph is two arrays: offsets (n+1 × uint64_t) and adjacency
// (2m × NodeId). Where those arrays live is an ownership question the rest
// of the pipeline should not care about, so Graph holds a
// shared_ptr<const GraphStorage> and caches the two spans. Two backings
// exist:
//
//   OwnedCsrStorage — heap vectors, today's path. GraphBuilder,
//     FromSortedCsr, the reduction prepass, and Induce all land here.
//   MmapCsrStorage  — a read-only mmap view of an MCECSR02 binary file
//     (written by tools/mce_convert / WriteCsrBinary in graph/io.h). The
//     kernel pages adjacency in on demand and may evict it under pressure,
//     so graphs larger than RAM enumerate without ever materializing the
//     CSR on the heap.
//
// ResidentBytes() is the storage's charge against util/MemoryBudget: heap
// vectors pin their full footprint, mmap views report 0 because their pages
// are clean, file-backed, and reclaimable by the kernel at any time.
//
// MCECSR02 on-disk layout (native endianness, 64-bit offsets):
//
//   byte  0  uint64  magic "MCECSR02"
//   byte  8  uint64  n          number of nodes
//   byte 16  uint64  m          number of undirected edges
//   byte 24  uint64  reserved   0
//   byte 32  uint64  offsets[n + 1]
//   ...      uint32  adjacency[2 m]
//
// Both arrays start naturally aligned (32 is a multiple of 8, and
// 32 + 8(n+1) is a multiple of 4), so the mapped file is directly usable
// as the two spans with no translation. Open() validates the header
// against the file's exact size before it reads an offset, then the offset
// endpoints; per-row invariants (sortedness, symmetry, no self-loops) are
// trusted from the writer — use ReadCsrBinary() from graph/io.h for a heap
// copy that revalidates them in debug builds.

#ifndef MCE_GRAPH_STORAGE_H_
#define MCE_GRAPH_STORAGE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"
#include "util/status.h"

namespace mce {

/// Abstract backing store for one CSR graph. Immutable after construction;
/// all methods are thread-safe.
class GraphStorage {
 public:
  virtual ~GraphStorage() = default;

  GraphStorage(const GraphStorage&) = delete;
  GraphStorage& operator=(const GraphStorage&) = delete;

  /// n+1 row offsets; offsets()[0] == 0, offsets()[n] == adjacency().size().
  virtual std::span<const uint64_t> offsets() const = 0;
  /// Concatenated neighbor rows, sorted within each row.
  virtual std::span<const NodeId> adjacency() const = 0;
  /// Heap bytes this storage pins — the MemoryBudget charge. 0 for mmap
  /// views whose pages the kernel can reclaim.
  virtual uint64_t ResidentBytes() const = 0;
  /// Stable identifier for stats and tests: "heap" or "mmap".
  virtual const char* kind() const = 0;

 protected:
  GraphStorage() = default;
};

/// CSR arrays owned as heap vectors.
class OwnedCsrStorage final : public GraphStorage {
 public:
  OwnedCsrStorage(std::vector<uint64_t> offsets, std::vector<NodeId> adjacency)
      : offsets_(std::move(offsets)), adjacency_(std::move(adjacency)) {}

  std::span<const uint64_t> offsets() const override { return offsets_; }
  std::span<const NodeId> adjacency() const override { return adjacency_; }
  uint64_t ResidentBytes() const override {
    return offsets_.capacity() * sizeof(uint64_t) +
           adjacency_.capacity() * sizeof(NodeId);
  }
  const char* kind() const override { return "heap"; }

 private:
  std::vector<uint64_t> offsets_;  // size n+1
  std::vector<NodeId> adjacency_;  // size 2m
};

/// Read-only mmap view of an MCECSR02 file. The mapping lives as long as
/// the storage object; the file descriptor is closed right after mmap.
class MmapCsrStorage final : public GraphStorage {
 public:
  /// Maps `path` and validates magic, version, file size (CheckCsrHeader),
  /// and offset endpoints. Errors: IoError (open/stat/mmap failure, a file
  /// size other than the header's), InvalidArgument (bad magic,
  /// inconsistent offsets), OutOfRange (n is kInvalidNode or more).
  static Result<std::shared_ptr<const GraphStorage>> Open(
      const std::string& path);

  ~MmapCsrStorage() override;

  std::span<const uint64_t> offsets() const override { return offsets_; }
  std::span<const NodeId> adjacency() const override { return adjacency_; }
  uint64_t ResidentBytes() const override { return 0; }
  const char* kind() const override { return "mmap"; }

 private:
  MmapCsrStorage() = default;

  void* map_ = nullptr;
  size_t map_len_ = 0;
  std::span<const uint64_t> offsets_;
  std::span<const NodeId> adjacency_;
};

/// Magic for the MCECSR02 CSR format ("MCECSR02" as a big-endian number,
/// mirroring kBinaryMagic in graph/io.cc for the edge-pair format).
inline constexpr uint64_t kCsrBinaryMagic = 0x4d43454353523032ULL;

/// Checks an MCECSR02 header's node count `n` and edge count `m` against
/// the length of its file before anything is sized by them: the file must
/// hold exactly the header, n + 1 offsets and 2m neighbor ids (IoError
/// otherwise), and n must be below kInvalidNode (OutOfRange). Both CSR
/// readers call it.
Status CheckCsrHeader(const std::string& path, uint64_t n, uint64_t m,
                      uint64_t file_len);

/// The shared zero-node storage every default-constructed or moved-from
/// Graph points at (offsets = {0}). Leaked singleton, safe at any point of
/// static destruction.
const std::shared_ptr<const GraphStorage>& EmptyGraphStorage();

}  // namespace mce

#endif  // MCE_GRAPH_STORAGE_H_
