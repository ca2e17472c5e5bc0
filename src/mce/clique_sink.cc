#include "mce/clique_sink.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util/check.h"
#include "util/logging.h"

namespace mce {

namespace {

/// Serialized chunk layout: [num_cliques u64][num_ids u64]
/// [ends u64 × num_cliques, relative to the chunk][ids u32 × num_ids].
uint64_t ChunkBytes(uint64_t num_cliques, uint64_t num_ids) {
  return 2 * sizeof(uint64_t) + num_cliques * sizeof(uint64_t) +
         num_ids * sizeof(NodeId);
}

bool PwriteAll(int fd, const void* data, size_t len, uint64_t offset) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, p, len, static_cast<off_t>(offset));
    if (n <= 0) return false;
    p += n;
    offset += static_cast<uint64_t>(n);
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool PreadAll(int fd, void* data, size_t len, uint64_t offset) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = ::pread(fd, p, len, static_cast<off_t>(offset));
    if (n <= 0) return false;
    p += n;
    offset += static_cast<uint64_t>(n);
    len -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

CliqueSink::~CliqueSink() {
  if (accounted_ > 0) {
    ctx_->resident_bytes.fetch_sub(accounted_, std::memory_order_relaxed);
    ctx_->config->budget->Release(accounted_);
  }
  if (fd_ >= 0) ::close(fd_);
}

void CliqueSink::Account() {
  const SpillConfig& config = *ctx_->config;
  const uint64_t now = buffer_.ByteSize();
  MCE_DCHECK(now >= accounted_);
  const uint64_t delta = now - accounted_;
  accounted_ = now;
  const uint64_t level_total =
      ctx_->resident_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  config.budget->Charge(delta);
  const uint64_t min_chunk =
      std::min(config.threshold_bytes, kMinSpillChunkBytes);
  if (config.threshold_bytes > 0 && level_total > config.threshold_bytes &&
      now >= min_chunk && buffer_.size() > 0 && !spill_failed_) {
    Flush();
  }
}

bool CliqueSink::EnsureFile() {
  if (fd_ >= 0) return true;
  std::string dir = ctx_->config->dir;
  if (dir.empty()) {
    const char* tmpdir = std::getenv("TMPDIR");
    dir = (tmpdir != nullptr && *tmpdir != '\0') ? tmpdir : "/tmp";
  }
  std::string path = dir + "/mce-spill-XXXXXX";
  fd_ = ::mkstemp(path.data());
  if (fd_ < 0) {
    MCE_LOG(WARNING) << "spill disabled: cannot create temp file in '" << dir
                     << "': " << std::strerror(errno);
    return false;
  }
  // Unlink immediately: the chunks are reachable only through fd_ and the
  // kernel reclaims the space when the sink dies, however it dies.
  ::unlink(path.c_str());
  return true;
}

void CliqueSink::Flush() {
  if (!EnsureFile()) {
    spill_failed_ = true;
    return;
  }
  const SpillConfig& config = *ctx_->config;
  const int64_t begin_us = obs::NowMicros();
  const uint64_t num_cliques = buffer_.size();
  const uint64_t num_ids = buffer_.ids().size();
  const uint64_t bytes = ChunkBytes(num_cliques, num_ids);
  const uint64_t header[2] = {num_cliques, num_ids};
  uint64_t at = file_end_;
  bool ok = PwriteAll(fd_, header, sizeof(header), at);
  at += sizeof(header);
  ok = ok && PwriteAll(fd_, buffer_.ends().data(),
                       num_cliques * sizeof(uint64_t), at);
  at += num_cliques * sizeof(uint64_t);
  ok = ok &&
       PwriteAll(fd_, buffer_.ids().data(), num_ids * sizeof(NodeId), at);
  if (!ok) {
    MCE_LOG(WARNING) << "spill disabled: write failure, keeping cliques "
                        "resident";
    spill_failed_ = true;
    return;
  }
  chunks_.push_back(Chunk{file_end_, num_cliques, num_ids});
  file_end_ += bytes;
  spilled_cliques_ += num_cliques;
  // The buffer's bytes moved to disk: release the accounting and drop the
  // arena's capacity so the tracked number stays honest.
  ctx_->resident_bytes.fetch_sub(accounted_, std::memory_order_relaxed);
  config.budget->Release(accounted_);
  accounted_ = 0;
  buffer_ = FlatCliques();
  if (!config.record_flush) return;
  obs::TraceEvent e;
  e.begin_us = begin_us;
  e.end_us = obs::NowMicros();
  e.kind = obs::SpanKind::kSpillFlush;
  e.level = ctx_->level;
  e.index = chunks_.size() - 1;
  e.args[0] = num_cliques;
  e.args[1] = bytes;
  e.args[2] = ctx_->resident_bytes.load(std::memory_order_relaxed);
  e.args[3] = file_end_;
  config.record_flush(e);
}

void CliqueSink::ForEach(const CliqueCallback& fn) const {
  // Only one spilled chunk is resident at a time, in per-call buffers.
  std::vector<uint64_t> ends;
  std::vector<NodeId> ids;
  for (const Chunk& chunk : chunks_) {
    ends.resize(chunk.num_cliques);
    ids.resize(chunk.num_ids);
    uint64_t at = chunk.file_offset + 2 * sizeof(uint64_t);
    MCE_CHECK(PreadAll(fd_, ends.data(), chunk.num_cliques * sizeof(uint64_t),
                       at));
    at += chunk.num_cliques * sizeof(uint64_t);
    MCE_CHECK(PreadAll(fd_, ids.data(), chunk.num_ids * sizeof(NodeId), at));
    for (size_t i = 0; i < chunk.num_cliques; ++i) {
      const uint64_t id_begin = i == 0 ? 0 : ends[i - 1];
      fn({ids.data() + id_begin, ends[i] - id_begin});
    }
  }
  // The resident tail follows the spilled chunks.
  for (size_t i = 0; i < buffer_.size(); ++i) fn(buffer_[i]);
}

}  // namespace mce
