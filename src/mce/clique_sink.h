// CliqueSink — the pooled executor's buffer for surviving cliques.
//
// The pooled executor buffers every clique a level emits (that is what
// makes its delivery byte-identical to the serial walk). On clique-dense
// graphs those buffers are the largest live allocation of the whole run,
// so they are the natural spill point for out-of-core execution: every
// sink charges its FlatCliques buffer to the run's MemoryBudget and, once
// the level's resident bytes cross a threshold, flushes it to an unlinked
// temp file in chunks, replaying the chunks in append order on read. With
// a threshold every append charges its growth; without one nothing can
// flush, so a sink charges once per kMinSpillChunkBytes of growth and once
// more when its writer calls Settle().
//
// The contract that keeps emission byte-identical with spilling on or off:
// ForEach replays exactly the cliques appended, in order, regardless of
// where flush boundaries fell. A sink has one writer, then one reader: the
// engine replays it on the calling thread once the level's tasks have
// finished appending.
//
// Layering: this header knows nothing about the executors. The engine
// fills one SpillConfig per run (directory, threshold, the run's budget
// and the callback that reports each flush) and one SpillContext per
// level (shared resident-byte counter) that its sinks are constructed
// with.

#ifndef MCE_MCE_CLIQUE_SINK_H_
#define MCE_MCE_CLIQUE_SINK_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"
#include "mce/clique.h"
#include "obs/trace.h"
#include "util/memory_budget.h"

namespace mce {

/// Append-only clique arena: ids stored back to back with end offsets,
/// preserving emission order. Buffering one heap allocation per clique
/// (vector<Clique>) made the pooled engine slower than serial on
/// clique-dense graphs; this arena is two vectors total.
class FlatCliques {
 public:
  /// Copies the clique verbatim. The executors append
  /// MapExpandAndFilterClique output, which is already sorted.
  void AppendRaw(std::span<const NodeId> c) {
    if (ids_.capacity() == 0) {
      // First touch: skip the early doubling steps. Most arenas are
      // per-block buffers on graphs with thousands of small blocks, so
      // growing each one from nothing costs more allocator traffic than
      // the analysis itself saves.
      ids_.reserve(96);
      ends_.reserve(16);
    }
    ids_.insert(ids_.end(), c.begin(), c.end());
    ends_.push_back(ids_.size());
  }
  size_t size() const { return ends_.size(); }
  std::span<const NodeId> operator[](size_t i) const {
    const size_t begin = i == 0 ? 0 : ends_[i - 1];
    return {ids_.data() + begin, ends_[i] - begin};
  }

  /// Bytes of clique payload held (size-based; the spill accounting
  /// charge).
  uint64_t ByteSize() const {
    return ids_.size() * sizeof(NodeId) + ends_.size() * sizeof(uint64_t);
  }

  const std::vector<NodeId>& ids() const { return ids_; }
  const std::vector<uint64_t>& ends() const { return ends_; }

 private:
  std::vector<NodeId> ids_;
  std::vector<uint64_t> ends_;
};

/// A sink never flushes a chunk smaller than this (or than the threshold,
/// whichever is lower): once a level's aggregate sits at the ceiling,
/// flushing each sink's few-byte buffer on every append would grind the
/// run into hundreds of thousands of tiny chunks. Sinks instead let their
/// buffers grow to a useful chunk size; the extra residency is bounded by
/// one minimum chunk per sink and stays budget-accounted. It is also the
/// charging step of a sink whose level cannot spill.
inline constexpr uint64_t kMinSpillChunkBytes = 4096;

/// Run-wide spill configuration, owned by the engine and outliving every
/// sink of the run.
struct SpillConfig {
  /// Directory for chunk files; "" uses $TMPDIR, then /tmp. Files are
  /// unlinked at creation, so nothing survives a crash.
  std::string dir;
  /// Per-level resident-byte ceiling across the level's sinks; a sink
  /// whose append pushes the level total past this flushes its own
  /// buffer. 0 disables spilling (sinks still account, per
  /// kMinSpillChunkBytes of growth and at Settle()).
  uint64_t threshold_bytes = 0;
  /// Charged/released with every resident-byte delta. Required.
  MemoryBudget* budget = nullptr;
  /// Receives each flushed chunk's one kSpillFlush span (cliques, bytes,
  /// level resident bytes after, file bytes); the engine's RunReporter
  /// counts it. May be empty.
  std::function<void(const obs::TraceEvent&)> record_flush;
};

/// Per-level spill state: the shared resident-byte counter the threshold
/// is measured against. One instance per LevelRun, addressed by every sink
/// of that level.
struct SpillContext {
  const SpillConfig* config = nullptr;
  uint32_t level = 0;
  std::atomic<uint64_t> resident_bytes{0};
};

/// Accounting + spilling clique buffer. It charges its resident-byte
/// growth to the budget and the level's shared counter: on every append
/// when its level can spill, else once per kMinSpillChunkBytes of growth,
/// with Settle() charging the rest. Once the level total crosses the
/// threshold the sink flushes its own buffer as one chunk
/// ([count][ids-size][ends...][ids...]) appended to a lazily created,
/// immediately unlinked temp file. Spill I/O failure degrades to resident
/// buffering with one warning. One writer, then one reader (see above).
/// Destruction releases the residual charge.
class CliqueSink {
 public:
  /// `ctx` (with ctx->config and its budget) must outlive the sink.
  explicit CliqueSink(SpillContext* ctx)
      : ctx_(ctx), spills_(ctx->config->threshold_bytes > 0) {}
  ~CliqueSink();
  CliqueSink(const CliqueSink&) = delete;
  CliqueSink& operator=(const CliqueSink&) = delete;

  void AppendRaw(std::span<const NodeId> c) {
    buffer_.AppendRaw(c);
    // Without a threshold nothing can flush, and charging every append
    // costs more shared-counter traffic than the charge is worth.
    if (spills_ || buffer_.ByteSize() - accounted_ >= kMinSpillChunkBytes) {
      Account();
    }
  }
  /// Charges the growth not yet accounted, so the budget and the level
  /// counter hold the whole buffer. The writer calls it when its appends
  /// end; with a threshold set there is never anything left to charge.
  void Settle() {
    if (buffer_.ByteSize() > accounted_) Account();
  }
  size_t size() const { return spilled_cliques_ + buffer_.size(); }

  /// Replays every clique, in append order, to `fn`. Call once appends
  /// have finished; spilled chunks stream through a per-call buffer one
  /// chunk at a time.
  void ForEach(const CliqueCallback& fn) const;

 private:
  struct Chunk {
    uint64_t file_offset = 0;
    uint64_t num_cliques = 0;
    uint64_t num_ids = 0;
  };

  void Account();
  void Flush();
  bool EnsureFile();

  SpillContext* ctx_;
  const bool spills_;  // the level has a spill threshold
  FlatCliques buffer_;
  uint64_t accounted_ = 0;  // bytes currently charged for buffer_
  std::vector<Chunk> chunks_;
  uint64_t spilled_cliques_ = 0;
  uint64_t file_end_ = 0;
  int fd_ = -1;
  bool spill_failed_ = false;
};

}  // namespace mce

#endif  // MCE_MCE_CLIQUE_SINK_H_
