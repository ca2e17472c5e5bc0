#include "exec/executor.h"

#include <algorithm>
#include <bit>
#include <compare>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/check.h"
#include "util/logging.h"

namespace mce::exec {

size_t ResolveThreadCount(uint32_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) {
    // The standard allows hardware_concurrency() to be unknowable; running
    // serially is the only safe default, but doing it silently makes
    // "why is --threads 0 not parallel" undiagnosable.
    MCE_LOG(WARNING) << "hardware_concurrency() returned 0 (unknown); "
                        "--threads 0 falls back to 1 worker";
    return 1;
  }
  return hw;
}

std::unique_ptr<Executor> MakeExecutor(
    const decomp::FindMaxCliquesOptions& options) {
  const size_t threads = ResolveThreadCount(options.num_threads);
  switch (options.executor) {
    case decomp::ExecutorKind::kSerial:
      return MakeSerialExecutor();
    case decomp::ExecutorKind::kPooled:
      return MakePooledExecutor(threads);
    case decomp::ExecutorKind::kAuto:
      break;
  }
  return threads > 1 ? MakePooledExecutor(threads) : MakeSerialExecutor();
}

namespace {

// The collector buckets cliques by their smallest id shifted right until
// at most 2^kBucketBits buckets remain.
constexpr int kBucketBits = 12;

// A clique waiting in its bucket: its leading ids packed into `key`, and
// its [size, level, ids...] record in the bucket's arena.
struct KeyedClique {
  uint64_t key;
  const uint32_t* record;
};

// The (Clique, level) pair order: ids lexicographically (a prefix first),
// then the level. Equal keys share their packed leading ids.
bool Before(const KeyedClique& a, const KeyedClique& b) {
  if (a.key != b.key) return a.key < b.key;
  const uint32_t* ia = a.record + 2;
  const uint32_t* ib = b.record + 2;
  const auto ids = std::lexicographical_compare_three_way(
      ia, ia + a.record[0], ib, ib + b.record[0]);
  if (ids != 0) return ids < 0;
  return a.record[1] < b.record[1];
}

}  // namespace

decomp::FindMaxCliquesResult CollectToResult(
    Executor& executor, const Graph& g,
    const decomp::FindMaxCliquesOptions& options) {
  const NodeId n = g.num_nodes();
  // A packed id is id + 1 (0 past the clique's end), so it needs
  // bit_width(n) bits.
  const int id_bits = std::max(1, static_cast<int>(std::bit_width(n)));
  const uint32_t packed_ids = 64 / id_bits;
  const int shift = std::max(0, id_bits - kBucketBits);
  std::vector<std::vector<uint32_t>> buckets((size_t{n} >> shift) + 1);
  size_t total = 0;
  decomp::FindMaxCliquesResult out;
  static_cast<decomp::StreamingStats&>(out) = executor.Run(
      g, options, [&](std::span<const NodeId> clique, uint32_t level) {
        // The LeveledCliqueCallback contract: every clique arrives sorted,
        // so clique[0] is its smallest id.
        MCE_DCHECK(std::is_sorted(clique.begin(), clique.end()));
        MCE_DCHECK(clique.empty() || clique.back() < n);
        std::vector<uint32_t>& arena =
            buckets[clique.empty() ? 0 : clique[0] >> shift];
        arena.push_back(static_cast<uint32_t>(clique.size()));
        arena.push_back(level);
        arena.insert(arena.end(), clique.begin(), clique.end());
        ++total;
      });

  std::vector<Clique>& cliques = out.cliques.mutable_cliques();
  cliques.reserve(total);
  out.origin_level.reserve(total);
  std::vector<KeyedClique> order;
  for (std::vector<uint32_t>& arena : buckets) {
    order.clear();
    for (size_t at = 0; at < arena.size(); at += 2 + arena[at]) {
      const uint32_t* record = arena.data() + at;
      uint64_t key = 0;
      for (uint32_t i = 0; i < packed_ids; ++i) {
        key = (key << id_bits) |
              (i < record[0] ? uint64_t{record[2 + i]} + 1 : 0);
      }
      order.push_back({key, record});
    }
    std::sort(order.begin(), order.end(), Before);
    for (const KeyedClique& c : order) {
      cliques.emplace_back(c.record + 2, c.record + 2 + c.record[0]);
      out.origin_level.push_back(c.record[1]);
    }
    std::vector<uint32_t>().swap(arena);
  }
  return out;
}

}  // namespace mce::exec
