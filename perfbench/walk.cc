#include "walk.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <span>

#include "decision/block_cost.h"
#include "decision/features.h"
#include "decomp/block_analysis.h"
#include "decomp/blocks.h"
#include "decomp/cut.h"
#include "decomp/filter.h"
#include "graph/subgraph.h"
#include "mce/clique_sink.h"
#include "mce/enumerator.h"
#include "mce/workspace.h"
#include "reduce/reduction.h"
#include "reduce/relabel.h"

namespace mce::bench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* StorageTag(StorageKind storage) {
  switch (storage) {
    case StorageKind::kAdjacencyList:
      return "lists";
    case StorageKind::kMatrix:
      return "matrix";
    case StorageKind::kBitset:
      return "bitset";
  }
  return "lists";
}

}  // namespace

int32_t SpanRecorder::Open(const char* name, uint32_t level) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.level = level;
  s.parent = stack_.empty() ? -1 : stack_.back();
  const auto id = static_cast<int32_t>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(id);
  spans_.back().begin_ns = NowNs();
  return id;
}

void SpanRecorder::Close(int32_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  stack_.pop_back();
}

Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write " + path);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().begin_ns;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d, \"level\": %u, \"arg\": %.17g, "
                  "\"tag\": \"%s\"}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<double>(s.begin_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.begin_ns) * 1e-3, i,
                  s.parent, s.level, s.arg, s.tag);
    out << buf;
  }
  out << "\n]}\n";
  out.close();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

WalkOutput Walk(const Workload& w, const std::string& input_dir,
                SpanRecorder& rec, bool probes) {
  WalkOutput out;
  WalkCounts& counts = out.counts;
  Graph g;
  {
    ScopedSpan span(rec, "graph.load");
    Result<Graph> loaded = LoadInput(w, input_dir);
    if (!loaded.ok()) {
      out.status = loaded.status();
      return out;
    }
    g = std::move(loaded).value();
  }
  counts.graph_nodes = g.num_nodes();
  counts.graph_bytes = CsrBytes(g);
  const uint32_t m =
      MaxCliqueFinder(FinderOptions(w, decomp::ExecutorKind::kSerial, ""))
          .ResolveBlockSize(g)
          .value();

  // ReduceTask: trivial cliques lead the stream at level 0.
  const Graph* current = &g;
  reduce::ReductionResult reduced;
  const reduce::ReductionMap* expansion = nullptr;
  if (w.reduce) {
    ScopedSpan span(rec, "reduce");
    reduced = reduce::ReduceGraph(g, reduce::ReduceOptions{});
    counts.reduce_vertices_removed = reduced.stats.vertices_removed;
    counts.reduce_trivial_cliques = reduced.stats.trivial_cliques;
    for (size_t i = 0; i < reduced.map.num_trivial_cliques(); ++i) {
      out.digest.Add(reduced.map.TrivialClique(i), 0);
    }
    if (!reduced.unchanged) {
      current = &reduced.graph;
      expansion = &reduced.map;
    }
  }

  const decision::DecisionTree tree = decision::PaperDecisionTree();
  decomp::BlocksOptions blocks_options;
  blocks_options.max_block_size = m;
  // Relabeling runs below as its own span, exactly where BuildBlocks
  // would run it (last step before the block is emitted).
  blocks_options.degeneracy_relabel = false;
  decomp::BlockAnalysisOptions analysis_options;
  analysis_options.tree = &tree;
  BlockWorkspace workspace;

  Graph owned;                      // levels >= 1 own their hub subgraph
  std::vector<NodeId> to_original;  // level ids -> pipeline ids; empty = id
  uint32_t level = 0;
  FlatCliques pending;  // level >= 1 cliques awaiting the Lemma-1 filter
  Clique mapped;
  Clique expanded;
  // Translate a clique of the current level to original ids; level 0 is
  // maximal by construction, deeper levels wait for the filter.
  auto deliver = [&](std::span<const NodeId> c) {
    mapped.clear();
    for (NodeId v : c) mapped.push_back(to_original.empty() ? v : to_original[v]);
    const Clique* result = &mapped;
    if (expansion != nullptr) {
      if (!expansion->ExpandClique(mapped, &expanded)) return;
      result = &expanded;
    } else {
      std::sort(mapped.begin(), mapped.end());
    }
    if (level == 0) {
      out.digest.Add(*result, 0);
    } else {
      pending.AppendRaw(*result);
    }
  };

  for (;; ++level) {
    decomp::CutResult cut;
    {
      ScopedSpan span(rec, "cut", level);
      cut = decomp::Cut(*current, m);
    }
    ++counts.cut_levels;
    counts.cut_hubs += cut.hubs.size();
    counts.feasible_nodes += cut.feasible.size();

    if (cut.feasible.empty() && current->num_nodes() > 0) {
      ScopedSpan span(rec, "fallback", level);
      counts.used_fallback = true;
      EnumerateMaximalCliques(
          *current, MceOptions{Algorithm::kEppstein, StorageKind::kAdjacencyList},
          [&](std::span<const NodeId> c) {
            ++counts.analysis_cliques;
            deliver(c);
          });
    } else {
      ScopedSpan build_span(rec, "blocks.build", level);
      decomp::BuildBlocksStreaming(
          *current, cut.feasible, blocks_options, [&](decomp::Block&& block) {
            ++counts.blocks_count;
            counts.blocks_nodes += block.num_nodes();
            counts.blocks_edges += block.num_edges();
            if (probes) {
              ScopedSpan span(rec, "probe.induce", level);
              const InducedSubgraph again =
                  Induce(*current, block.subgraph.to_parent);
              if (again.graph.num_edges() != block.num_edges()) {
                out.status = Status::Internal("re-induced block differs");
              }
            }
            if (w.reduce) {
              ScopedSpan span(rec, "reduce.relabel", level);
              reduce::DegeneracyRelabelBlock(&block);
            }
            decision::BlockFeatures features;
            {
              ScopedSpan span(rec, "decision.features", level);
              features = decision::ComputeFeatures(block.subgraph.graph);
            }
            MceOptions chosen;
            {
              ScopedSpan span(rec, "decision.classify", level);
              chosen = tree.Classify(features);
            }
            switch (chosen.storage) {
              case StorageKind::kAdjacencyList:
                ++counts.blocks_lists;
                break;
              case StorageKind::kMatrix:
                ++counts.blocks_matrix;
                break;
              case StorageKind::kBitset:
                ++counts.blocks_bitset;
                break;
            }
            double cost = 0;
            {
              ScopedSpan span(rec, "decision.cost", level);
              cost = decision::EstimateBlockCost(features);
            }
            decomp::BlockAnalysisResult result;
            int32_t analysis_id = -1;
            {
              ScopedSpan span(rec, "analysis", level);
              analysis_id = span.id();
              result = decomp::AnalyzeBlock(block, analysis_options, deliver,
                                            &workspace);
              span.set_arg(cost);
              span.set_tag(StorageTag(result.used.storage));
            }
            counts.analysis_cliques += result.num_cliques;
            const size_t kernels = block.kernel_local.size();
            const size_t shards = decision::PlanShardCount(
                cost, decomp::kDefaultMaxBlockCost, kernels);
            if (probes && shards >= 2) {
              ScopedSpan span(rec, "probe.shards", level);
              span.set_arg(analysis_id);
              counts.analysis_shards += shards;
              uint64_t cliques = 0;
              const CliqueCallback count = [&cliques](std::span<const NodeId>) {
                ++cliques;
              };
              for (size_t s = 0; s < shards; ++s) {
                const decomp::KernelRange range{kernels * s / shards,
                                                kernels * (s + 1) / shards};
                decomp::AnalyzeBlock(block, analysis_options, count, &workspace,
                                     range);
              }
              if (cliques != result.num_cliques) ++counts.shard_mismatches;
            }
          });
    }

    if (pending.size() > 0) {
      ScopedSpan span(rec, "filter", level);
      Clique c;
      for (size_t i = 0; i < pending.size(); ++i) {
        const std::span<const NodeId> p = pending[i];
        c.assign(p.begin(), p.end());
        ++counts.filter_checked;
        if (decomp::IsMaximalInGraph(g, c)) {
          ++counts.filter_kept;
          out.digest.Add(c, level);
        }
      }
      pending = FlatCliques();
    }
    if (counts.used_fallback || cut.hubs.empty()) break;

    InducedSubgraph sub;
    {
      ScopedSpan span(rec, "graph.induce_hubs", level);
      sub = Induce(*current, cut.hubs);
    }
    if (!to_original.empty()) {
      for (NodeId& v : sub.to_parent) v = to_original[v];
    }
    to_original = std::move(sub.to_parent);
    owned = std::move(sub.graph);
    current = &owned;
  }
  return out;
}

}  // namespace mce::bench
