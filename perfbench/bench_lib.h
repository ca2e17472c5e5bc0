// Shared pieces of the benchmark harness: the workload table, seeded input
// generation, the clique digests, the independent correctness oracle, and
// a tiny JSON writer.

#ifndef MCE_PERFBENCH_BENCH_LIB_H_
#define MCE_PERFBENCH_BENCH_LIB_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/max_clique_finder.h"
#include "decision/decision_tree.h"
#include "decomp/find_max_cliques.h"
#include "graph/graph.h"
#include "util/status.h"

namespace mce::bench {

/// One benchmark workload: an in-repo generator recipe plus the library
/// knobs the workload runs with (m/d = 0.5, paper tree and splitting on
/// everywhere).
struct Workload {
  const char* name;
  /// Generator seed of the recipe's structure. The benchmark seed does not
  /// change it: across structure seeds the clique count (and with it every
  /// timing) varies by 10-30%, wider than any regression bound.
  uint64_t structure_seed;
  /// Recipe size: the Twitter1Config / FacebookConfig scale, or the node
  /// count of the power-law configuration model.
  double size;
  /// Input form the program reads: false = text edge list through
  /// ReadEdgeList, true = MCECSR02 through OpenMmapGraph.
  bool mmap_input;
  bool reduce;
  uint64_t memory_budget_bytes;
};

/// The workload called `name`, or nullptr.
const Workload* FindWorkload(const std::string& name);
const std::vector<Workload>& AllWorkloads();

/// Generates the workload's input for benchmark seed `seed`: the recipe's
/// structure with its node ids relabeled by a permutation drawn from
/// `seed`. Relabeling changes every input byte and every id tie-break of
/// the pipeline (seed selection, block growth, kernel order, emission
/// order) while keeping the clique count and degree sequence. `scale`
/// shrinks the recipe for the self-test (1.0 = the benchmark's size).
Graph GenerateInput(const Workload& w, uint64_t seed, double scale = 1.0);

inline constexpr double kBlockSizeRatio = 0.5;
inline constexpr const char* kTextFile = "graph.txt";
inline constexpr const char* kCsrFile = "graph.mcsr";

/// Reads the workload's input form from `dir`.
Result<Graph> LoadInput(const Workload& w, const std::string& dir);

/// Bytes of the graph's CSR arrays (offsets + adjacency).
uint64_t CsrBytes(const Graph& g);

/// Worker threads of every pooled run: min(4, hardware threads).
uint32_t PooledThreads();

/// MaxCliqueFinder options of the workload on the given engine.
MaxCliqueFinder::Options FinderOptions(const Workload& w,
                                       decomp::ExecutorKind executor,
                                       const std::string& spill_dir);

/// The pipeline options MaxCliqueFinder::Find resolves for `g` — what the
/// streaming and executor-level calls run with. `tree` must outlive them.
decomp::FindMaxCliquesOptions PipelineOptions(
    const Workload& w, const Graph& g, decomp::ExecutorKind executor,
    const std::string& spill_dir, const decision::DecisionTree* tree);

/// 64-bit hash of one sorted clique.
uint64_t CliqueHash(std::span<const NodeId> sorted_clique);

/// Folds a clique stream into a count, an order-independent set digest
/// (wrapping sum of clique hashes), an order-sensitive emission digest,
/// and the origin-level histogram. Cliques must arrive sorted.
struct Digest {
  uint64_t count = 0;
  uint64_t set = 0;
  uint64_t emission = 0;
  std::vector<uint64_t> levels;

  void Add(std::span<const NodeId> sorted_clique, uint32_t level);
  /// Count, set digest and level histogram equal (emission ignored).
  bool SameSet(const Digest& other) const;
};

/// Digest of a collected result: cliques with their origin levels.
Digest DigestOf(const CliqueSet& cliques,
                const std::vector<uint32_t>& origin_level);

/// The reference answer for one input: every maximal clique of g from a
/// whole-graph Eppstein enumeration (the algorithm VerifyAgainstReference
/// re-runs), never touching decomp or exec. Origin levels come from the
/// definition: a clique is found at the first recursion level whose graph
/// has one of its members as a feasible node (degree + 1 <= m), the graph
/// chain being G (or the reduced graph, whose trivial cliques are level 0)
/// and its successive hub-induced subgraphs.
Digest ComputeOracle(const Workload& w, const Graph& g, uint32_t m);

/// Hex form of a digest value, as stored in oracle files.
std::string Hex(uint64_t v);

/// Flat JSON object writer with insertion-ordered keys.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, uint64_t value);
  JsonObject& Add(const std::string& key, const std::string& value);
  JsonObject& AddBool(const std::string& key, bool value);
  /// `raw` is inserted verbatim (an already-encoded JSON value).
  JsonObject& AddRaw(const std::string& key, const std::string& raw);
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonArray(const std::vector<uint64_t>& values);
std::string JsonArray(const std::vector<double>& values);

/// User + system CPU seconds of this process so far (all threads).
double ProcessCpuSeconds();

double Median(std::vector<double> values);

}  // namespace mce::bench

#endif  // MCE_PERFBENCH_BENCH_LIB_H_
