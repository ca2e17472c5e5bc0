#include "bench_lib.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>
#include <thread>
#include <unordered_set>

#include "gen/generators.h"
#include "gen/social.h"
#include "graph/builder.h"
#include "graph/io.h"
#include "graph/subgraph.h"
#include "mce/enumerator.h"
#include "mce/storage.h"
#include "reduce/reduction.h"
#include "util/random.h"

namespace mce::bench {

namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

/// Largest adjacency matrix the oracle builds (twitter1: 144 MB).
constexpr uint64_t kOracleMatrixBytes = 256ull << 20;

/// The recursion level at which each vertex of `g` is first feasible:
/// level 0 tests degrees in g, level l + 1 in the subgraph induced by level
/// l's hubs. When a level has nodes but no feasible one, every remaining
/// node is assigned that level (the pipeline enumerates it directly).
std::vector<uint32_t> FeasibleLevels(const Graph& g, uint32_t m) {
  std::vector<uint32_t> level_of(g.num_nodes(), 0);
  const Graph* current = &g;
  Graph owned;
  std::vector<NodeId> to_root;  // empty = identity
  for (uint32_t level = 0;; ++level) {
    std::vector<NodeId> hubs;
    bool any_feasible = false;
    for (NodeId v = 0; v < current->num_nodes(); ++v) {
      const NodeId root = to_root.empty() ? v : to_root[v];
      if (static_cast<uint64_t>(current->Degree(v)) + 1 <= m) {
        level_of[root] = level;
        any_feasible = true;
      } else {
        hubs.push_back(v);
      }
    }
    if (hubs.empty()) break;
    if (!any_feasible) {
      for (NodeId v : hubs) level_of[to_root.empty() ? v : to_root[v]] = level;
      break;
    }
    InducedSubgraph sub = Induce(*current, hubs);
    std::vector<NodeId> next(sub.to_parent.size());
    for (size_t i = 0; i < next.size(); ++i) {
      next[i] = to_root.empty() ? sub.to_parent[i] : to_root[sub.to_parent[i]];
    }
    to_root = std::move(next);
    owned = std::move(sub.graph);
    current = &owned;
  }
  return level_of;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kWorkloads = {
      {"twitter1", 101, 1.0, false, false, 0},
      {"facebook", 104, 0.3, false, false, 0},
      {"powerlaw-oocore", 1, 250'000, true, true, 5'000'000},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Graph GenerateInput(const Workload& w, uint64_t seed, double scale) {
  const std::string name = w.name;
  Graph structure;
  if (name == "twitter1" || name == "facebook") {
    gen::SocialNetworkConfig config =
        name == "twitter1" ? gen::Twitter1Config(w.size * scale)
                           : gen::FacebookConfig(w.size * scale);
    config.seed = w.structure_seed;
    structure = gen::GenerateSocialNetwork(config);
  } else {
    Rng rng(w.structure_seed);
    structure = gen::PowerLawConfigurationModel(
        static_cast<NodeId>(w.size * scale), 2.5, 1, 2000, &rng);
  }
  std::vector<NodeId> perm(structure.num_nodes());
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(Mix(seed + kGolden));
  rng.Shuffle(&perm);
  GraphBuilder builder(structure.num_nodes());
  builder.ReserveEdges(structure.num_edges());
  for (NodeId u = 0; u < structure.num_nodes(); ++u) {
    for (NodeId v : structure.Neighbors(u)) {
      if (u < v) builder.AddEdge(perm[u], perm[v]);
    }
  }
  return builder.Build();
}

Result<Graph> LoadInput(const Workload& w, const std::string& dir) {
  if (w.mmap_input) return OpenMmapGraph(dir + "/" + kCsrFile);
  return ReadEdgeList(dir + "/" + kTextFile);
}

uint64_t CsrBytes(const Graph& g) {
  return (static_cast<uint64_t>(g.num_nodes()) + 1) * sizeof(uint64_t) +
         g.num_edges() * 2 * sizeof(NodeId);
}

uint32_t PooledThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = 0;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) cpus = CPU_COUNT(&set);
  if (cpus <= 0) cpus = static_cast<int>(std::thread::hardware_concurrency());
  return static_cast<uint32_t>(std::clamp(cpus, 1, 4));
}

MaxCliqueFinder::Options FinderOptions(const Workload& w,
                                       decomp::ExecutorKind executor,
                                       const std::string& spill_dir) {
  MaxCliqueFinder::Options options;
  options.block_size_ratio = kBlockSizeRatio;
  options.executor = executor;
  options.num_threads =
      executor == decomp::ExecutorKind::kSerial ? 1 : PooledThreads();
  options.reduce = w.reduce;
  options.memory_budget_bytes = w.memory_budget_bytes;
  options.spill_dir = spill_dir;
  return options;
}

decomp::FindMaxCliquesOptions PipelineOptions(
    const Workload& w, const Graph& g, decomp::ExecutorKind executor,
    const std::string& spill_dir, const decision::DecisionTree* tree) {
  const MaxCliqueFinder::Options f = FinderOptions(w, executor, spill_dir);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = MaxCliqueFinder(f).ResolveBlockSize(g).value();
  options.min_adjacency = f.min_adjacency;
  options.seed_policy = f.seed_policy;
  options.tree = tree;
  options.num_threads = f.num_threads;
  options.executor = f.executor;
  options.reduce = f.reduce;
  options.split_blocks = f.split_blocks;
  options.max_block_cost = f.max_block_cost;
  options.memory_budget_bytes = f.memory_budget_bytes;
  options.spill_threshold_bytes = f.spill_threshold_bytes;
  options.spill_dir = f.spill_dir;
  return options;
}

uint64_t CliqueHash(std::span<const NodeId> sorted_clique) {
  uint64_t h = Mix(sorted_clique.size() + kGolden);
  for (NodeId v : sorted_clique) h = Mix(h ^ (v + kGolden));
  return h;
}

void Digest::Add(std::span<const NodeId> sorted_clique, uint32_t level) {
  const uint64_t h = CliqueHash(sorted_clique);
  ++count;
  set += h;
  emission = Mix(emission ^ h ^ Mix(level + 1));
  if (levels.size() <= level) levels.resize(level + 1, 0);
  ++levels[level];
}

bool Digest::SameSet(const Digest& other) const {
  return count == other.count && set == other.set && levels == other.levels;
}

Digest DigestOf(const CliqueSet& cliques,
                const std::vector<uint32_t>& origin_level) {
  Digest d;
  for (size_t i = 0; i < cliques.size(); ++i) {
    d.Add(cliques.cliques()[i], origin_level[i]);
  }
  return d;
}

Digest ComputeOracle(const Workload& w, const Graph& g, uint32_t m) {
  // With the reduction prepass the level chain starts from the reduced
  // graph; rep maps each original vertex to its reduced class.
  const Graph* chain = &g;
  std::vector<NodeId> rep;
  std::unordered_set<uint64_t> trivial;
  reduce::ReductionResult reduced;
  if (w.reduce) {
    reduced = reduce::ReduceGraph(g, reduce::ReduceOptions{});
    if (!reduced.unchanged) {
      chain = &reduced.graph;
      rep.assign(g.num_nodes(), kInvalidNode);
      for (NodeId r = 0; r < reduced.graph.num_nodes(); ++r) {
        for (NodeId v : reduced.map.ClassOf(r)) rep[v] = r;
      }
      for (size_t i = 0; i < reduced.map.num_trivial_cliques(); ++i) {
        trivial.insert(CliqueHash(reduced.map.TrivialClique(i)));
      }
    }
  }
  const std::vector<uint32_t> level_of = FeasibleLevels(*chain, m);

  // Eppstein over an adjacency matrix where it fits: the same algorithm
  // VerifyAgainstReference runs (there over lists), 10-30x faster on the
  // social workloads. The self-test checks the two agree.
  const StorageKind storage =
      EstimateStorageBytes(g.num_nodes(), g.num_edges(), StorageKind::kMatrix) <=
              kOracleMatrixBytes
          ? StorageKind::kMatrix
          : StorageKind::kAdjacencyList;
  Digest d;
  Clique sorted;
  EnumerateMaximalCliques(
      g, MceOptions{Algorithm::kEppstein, storage},
      [&](std::span<const NodeId> c) {
        sorted.assign(c.begin(), c.end());
        std::sort(sorted.begin(), sorted.end());
        uint32_t level = 0;
        if (!trivial.contains(CliqueHash(sorted))) {
          level = std::numeric_limits<uint32_t>::max();
          for (NodeId v : sorted) {
            const NodeId r = rep.empty() ? v : rep[v];
            level = std::min(level, r == kInvalidNode ? 0 : level_of[r]);
          }
        }
        d.Add(sorted, level);
      });
  return d;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

JsonObject& JsonObject::Add(const std::string& key, double value) {
  fields_.emplace_back(key, FormatDouble(value));
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, Quote(value));
  return *this;
}

JsonObject& JsonObject::AddBool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::AddRaw(const std::string& key, const std::string& raw) {
  fields_.emplace_back(key, raw);
  return *this;
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

std::string JsonArray(const std::vector<uint64_t>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(values[i]);
  }
  return out + "]";
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += FormatDouble(values[i]);
  }
  return out + "]";
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace mce::bench
