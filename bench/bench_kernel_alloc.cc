// Kernel allocation ablation: the allocation-free pooled MCE kernels
// (mce/pivoter.h) against verbatim copies of the pre-workspace kernels
// (pass-by-value P/X sets, per-node child vectors, erase/insert candidate
// shuffle). Reports ns/clique, allocations per enumeration, and peak RSS
// on the dense block. Per-worker workspace reuse across blocks belongs to
// the pooled executor and is covered by its tests and by perfbench/.
//
// Unlike the google-benchmark microbenches this is a plain harness: it
// replaces global operator new to count allocator traffic, which must not
// interfere with the benchmark library's own timing machinery.
//
// Usage: bench_kernel_alloc [--json <path>]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "mce/clique.h"
#include "mce/pivoter.h"
#include "util/random.h"

namespace {

std::atomic<uint64_t> g_new_calls{0};

}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mce {
namespace {

// ---------------------------------------------------------------------------
// Legacy kernels: byte-for-byte the recursion this repo shipped before the
// workspace refactor. Kept here (and only here) as the ablation baseline.
// ---------------------------------------------------------------------------

template <typename Storage>
class LegacyVectorMceRunner {
 public:
  LegacyVectorMceRunner(const Storage& storage, PivotRule rule,
                        const CliqueCallback& emit)
      : storage_(storage), rule_(rule), emit_(emit) {}

  void Run(std::vector<NodeId> r, std::vector<NodeId> p,
           std::vector<NodeId> x) {
    r_ = std::move(r);
    Recurse(std::move(p), std::move(x));
  }

 private:
  static constexpr size_t kPivotScanCap = 2048;

  NodeId ChoosePivot(const std::vector<NodeId>& p,
                     const std::vector<NodeId>& x) const {
    switch (rule_) {
      case PivotRule::kMaxDegree: {
        NodeId best = p.front();
        for (NodeId v : p) {
          if (storage_.Degree(v) > storage_.Degree(best)) best = v;
        }
        return best;
      }
      case PivotRule::kMaxIntersection:
        return BestByIntersection(p, x, /*prefer_x_only=*/false);
      case PivotRule::kVisitedFirst:
        return BestByIntersection(p, x, /*prefer_x_only=*/true);
    }
    return p.front();
  }

  NodeId BestByIntersection(const std::vector<NodeId>& p,
                            const std::vector<NodeId>& x,
                            bool prefer_x_only) const {
    NodeId best = kInvalidNode;
    size_t best_count = 0;
    auto consider = [&](const std::vector<NodeId>& set) {
      const size_t limit = std::min(set.size(), kPivotScanCap);
      for (size_t i = 0; i < limit; ++i) {
        const NodeId u = set[i];
        size_t c = storage_.CountNeighborsIn(u, p);
        if (best == kInvalidNode || c > best_count) {
          best = u;
          best_count = c;
        }
      }
    };
    if (prefer_x_only && !x.empty()) {
      consider(x);
      return best;
    }
    consider(p);
    if (!prefer_x_only) consider(x);
    return best;
  }

  void Recurse(std::vector<NodeId> p, std::vector<NodeId> x) {
    if (p.empty()) {
      if (x.empty()) emit_(r_);
      return;
    }
    const NodeId pivot = ChoosePivot(p, x);
    std::vector<NodeId> ext;
    for (NodeId v : p) {
      if (v == pivot || !storage_.Adjacent(pivot, v)) ext.push_back(v);
    }
    std::vector<NodeId> p2, x2;
    for (NodeId v : ext) {
      storage_.IntersectNeighbors(v, p, &p2);
      storage_.IntersectNeighbors(v, x, &x2);
      r_.push_back(v);
      Recurse(p2, x2);
      r_.pop_back();
      p.erase(std::lower_bound(p.begin(), p.end(), v));
      x.insert(std::upper_bound(x.begin(), x.end(), v), v);
    }
  }

  const Storage& storage_;
  const PivotRule rule_;
  const CliqueCallback& emit_;
  std::vector<NodeId> r_;
};

class LegacyBitsetMceRunner {
 public:
  LegacyBitsetMceRunner(const BitsetGraph& bg, PivotRule rule,
                        const CliqueCallback& emit)
      : bg_(bg), rule_(rule), emit_(emit) {
    if (rule_ == PivotRule::kMaxDegree) {
      degree_.reserve(bg.num_nodes());
      for (NodeId v = 0; v < bg.num_nodes(); ++v) {
        degree_.push_back(static_cast<uint32_t>(bg.Row(v).Count()));
      }
    }
  }

  void Run(std::vector<NodeId> r, Bitset p, Bitset x) {
    r_ = std::move(r);
    Recurse(std::move(p), std::move(x));
  }

 private:
  static constexpr size_t kPivotScanCap = 2048;

  NodeId ChoosePivot(const Bitset& p, const Bitset& x) const {
    NodeId best = kInvalidNode;
    size_t best_score = 0;
    size_t scanned = 0;
    auto consider_count = [&](size_t u) {
      if (scanned++ >= kPivotScanCap) return;
      size_t c = bg_.Row(static_cast<NodeId>(u)).AndCount(p);
      if (best == kInvalidNode || c > best_score) {
        best = static_cast<NodeId>(u);
        best_score = c;
      }
    };
    switch (rule_) {
      case PivotRule::kMaxDegree: {
        p.ForEach([&](size_t u) {
          if (best == kInvalidNode || degree_[u] > best_score) {
            best = static_cast<NodeId>(u);
            best_score = degree_[u];
          }
        });
        return best;
      }
      case PivotRule::kMaxIntersection: {
        p.ForEach(consider_count);
        x.ForEach(consider_count);
        return best;
      }
      case PivotRule::kVisitedFirst: {
        if (x.Any()) {
          x.ForEach(consider_count);
        } else {
          p.ForEach(consider_count);
        }
        return best;
      }
    }
    return best;
  }

  void Recurse(Bitset p, Bitset x) {
    if (p.None()) {
      if (x.None()) emit_(r_);
      return;
    }
    const NodeId pivot = ChoosePivot(p, x);
    Bitset ext = p;
    ext.AndNot(bg_.Row(pivot));
    if (p.Test(pivot)) ext.Set(pivot);
    const std::vector<NodeId> candidates = ext.ToVector();
    for (NodeId v : candidates) {
      Bitset p2 = p;
      p2.And(bg_.Row(v));
      Bitset x2 = x;
      x2.And(bg_.Row(v));
      r_.push_back(v);
      Recurse(std::move(p2), std::move(x2));
      r_.pop_back();
      p.Clear(v);
      x.Set(v);
    }
  }

  const BitsetGraph& bg_;
  const PivotRule rule_;
  const CliqueCallback& emit_;
  std::vector<NodeId> r_;
  std::vector<uint32_t> degree_;
};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set size (VmHWM) in kilobytes, from /proc/self/status.
uint64_t PeakRssKb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// The dense block of the ablation microbenches: the regime where the
/// per-node copy overhead of the legacy kernels is at its worst.
Graph DenseBlock() {
  Rng rng(1);
  return gen::ErdosRenyiGnp(120, 0.35, &rng);
}

struct Measurement {
  double ns_per_clique = 0;
  uint64_t cliques = 0;
  uint64_t allocs_per_run = 0;
};

/// Runs `fn` (one full enumeration returning its clique count) once to
/// warm up, then repeatedly for ~`budget_seconds`, and keeps the best run.
template <typename Fn>
Measurement MeasureBest(double budget_seconds, Fn&& fn) {
  Measurement m;
  fn();  // warm-up: page in the graph, grow scratch pools
  double best_seconds = 0;
  const auto budget_start = Clock::now();
  int runs = 0;
  while (runs < 3 || SecondsSince(budget_start) < budget_seconds) {
    const uint64_t allocs_before = g_new_calls.load();
    const auto start = Clock::now();
    const uint64_t cliques = fn();
    const double seconds = SecondsSince(start);
    if (runs == 0 || seconds < best_seconds) {
      best_seconds = seconds;
      m.cliques = cliques;
      m.allocs_per_run = g_new_calls.load() - allocs_before;
    }
    ++runs;
  }
  m.ns_per_clique =
      m.cliques == 0 ? 0 : best_seconds * 1e9 / static_cast<double>(m.cliques);
  return m;
}

struct SerialRow {
  const char* backend;
  Measurement legacy;
  Measurement pooled;
};

SerialRow BenchSerial(const Graph& g, StorageKind kind) {
  const PivotRule rule = PivotRule::kMaxIntersection;
  std::vector<NodeId> all(g.num_nodes());
  std::iota(all.begin(), all.end(), NodeId{0});
  uint64_t count = 0;
  const CliqueCallback emit = [&count](std::span<const NodeId>) { ++count; };
  constexpr double kBudget = 1.0;

  SerialRow row;
  row.backend = ToString(kind);
  switch (kind) {
    case StorageKind::kAdjacencyList: {
      const ListStorage s(g);
      row.legacy = MeasureBest(kBudget, [&] {
        count = 0;
        LegacyVectorMceRunner<ListStorage> runner(s, rule, emit);
        runner.Run({}, all, {});
        return count;
      });
      VectorMceRunner<ListStorage> runner(s, rule);
      row.pooled = MeasureBest(kBudget, [&] {
        count = 0;
        runner.Run({}, all, {}, emit);
        return count;
      });
      break;
    }
    case StorageKind::kMatrix: {
      const MatrixStorage s(g);
      row.legacy = MeasureBest(kBudget, [&] {
        count = 0;
        LegacyVectorMceRunner<MatrixStorage> runner(s, rule, emit);
        runner.Run({}, all, {});
        return count;
      });
      VectorMceRunner<MatrixStorage> runner(s, rule);
      row.pooled = MeasureBest(kBudget, [&] {
        count = 0;
        runner.Run({}, all, {}, emit);
        return count;
      });
      break;
    }
    case StorageKind::kBitset: {
      const BitsetGraph bg(g);
      Bitset p(g.num_nodes());
      p.SetAll();
      const Bitset x(g.num_nodes());
      row.legacy = MeasureBest(kBudget, [&] {
        count = 0;
        LegacyBitsetMceRunner runner(bg, rule, emit);
        runner.Run({}, p, x);
        return count;
      });
      BitsetMceRunner runner(bg, rule);
      row.pooled = MeasureBest(kBudget, [&] {
        count = 0;
        runner.Run({}, p, x, emit);
        return count;
      });
      break;
    }
  }
  return row;
}

double Speedup(const Measurement& base, const Measurement& opt) {
  return opt.ns_per_clique == 0 ? 0
                                : base.ns_per_clique / opt.ns_per_clique;
}

}  // namespace
}  // namespace mce

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  using namespace mce;
  const Graph dense = DenseBlock();
  std::printf("dense block: %u nodes, %llu edges\n", dense.num_nodes(),
              static_cast<unsigned long long>(dense.num_edges()));
  std::printf("%-8s %14s %14s %9s %14s %14s\n", "backend", "legacy ns/clq",
              "pooled ns/clq", "speedup", "legacy allocs", "pooled allocs");

  std::vector<SerialRow> serial;
  for (StorageKind kind :
       {StorageKind::kAdjacencyList, StorageKind::kMatrix,
        StorageKind::kBitset}) {
    SerialRow row = BenchSerial(dense, kind);
    std::printf("%-8s %14.1f %14.1f %8.2fx %14llu %14llu\n", row.backend,
                row.legacy.ns_per_clique, row.pooled.ns_per_clique,
                Speedup(row.legacy, row.pooled),
                static_cast<unsigned long long>(row.legacy.allocs_per_run),
                static_cast<unsigned long long>(row.pooled.allocs_per_run));
    serial.push_back(row);
  }

  const uint64_t rss_kb = PeakRssKb();
  std::printf("\npeak RSS: %llu kB\n", static_cast<unsigned long long>(rss_kb));

  if (json_path != nullptr) {
    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"kernel_alloc\",\n");
    std::fprintf(f, "  \"dense_block\": {\"nodes\": %u, \"edges\": %llu},\n",
                 dense.num_nodes(),
                 static_cast<unsigned long long>(dense.num_edges()));
    std::fprintf(f, "  \"serial\": [\n");
    for (size_t i = 0; i < serial.size(); ++i) {
      const SerialRow& r = serial[i];
      std::fprintf(
          f,
          "    {\"backend\": \"%s\", \"cliques\": %llu, "
          "\"legacy_ns_per_clique\": %.1f, \"pooled_ns_per_clique\": %.1f, "
          "\"speedup\": %.2f, \"legacy_allocs_per_run\": %llu, "
          "\"pooled_allocs_per_run\": %llu}%s\n",
          r.backend, static_cast<unsigned long long>(r.pooled.cliques),
          r.legacy.ns_per_clique, r.pooled.ns_per_clique,
          Speedup(r.legacy, r.pooled),
          static_cast<unsigned long long>(r.legacy.allocs_per_run),
          static_cast<unsigned long long>(r.pooled.allocs_per_run),
          i + 1 < serial.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"peak_rss_kb\": %llu\n}\n",
                 static_cast<unsigned long long>(rss_kb));
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
