// mce_cli — command-line front end for the library.
//
// Subcommands:
//   stats        graph metrics (nodes, edges, density, degeneracy, d*, ...)
//   enumerate    run the two-level pipeline and print/save maximal cliques
//   communities  k-clique communities (clique percolation)
//   generate     write a synthetic network (models or dataset stand-ins)
//   convert      translate between edge-list / triples / binary formats
//
// Examples:
//   mce_cli generate --model twitter1 --scale 0.1 --output t1.txt
//   mce_cli stats --input t1.txt
//   mce_cli enumerate --input t1.txt --ratio 0.5 --top 5 --output cliques.txt
//   mce_cli communities --input t1.txt --k 4
//   mce_cli convert --input t1.txt --output t1.bin --to binary

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "community/percolation.h"
#include "mce/clique_io.h"
#include "core/clique_analysis.h"
#include "core/max_clique_finder.h"
#include "core/report.h"
#include "core/verify.h"
#include "core/top_cliques.h"
#include "gen/generators.h"
#include "gen/social.h"
#include "graph/connectivity.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/memory_budget.h"
#include "util/random.h"

namespace {

using mce::Graph;
using mce::NodeId;
using mce::Result;
using mce::Status;

/// Minimal flag parser; accepts `--flag value`, `--flag=value`, and bare
/// boolean `--flag` (stored as "true" when the next token is another flag
/// or the end of the line), in any order and mixed freely.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) continue;
      const char* body = argv[i] + 2;
      if (const char* eq = std::strchr(body, '=')) {
        values_[std::string(body, eq)] = eq + 1;
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[body] = argv[++i];
      } else {
        values_[body] = "true";
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// Parses --key into *out, or stores `fallback` when the flag is
  /// absent. The value must parse completely as an int that fits;
  /// otherwise prints "error: --key expects an integer" and returns false.
  bool GetInt(const std::string& key, int fallback, int* out) const {
    return Parse(key, fallback, out, "an integer");
  }

  /// GetInt for a finite floating-point value ("0.25", "1e4").
  bool GetDouble(const std::string& key, double fallback, double* out) const {
    return Parse(key, fallback, out, "a finite number");
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  /// Every flag given, by name.
  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  template <typename T>
  bool Parse(const std::string& key, T fallback, T* out,
             const char* expected) const {
    *out = fallback;
    auto it = values_.find(key);
    if (it == values_.end()) return true;
    const std::string& text = it->second;
    const char* const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    if (ec == std::errc() && ptr == end && std::isfinite(*out)) return true;
    std::fprintf(stderr, "error: --%s expects %s, got '%s'\n", key.c_str(),
                 expected, text.c_str());
    return false;
  }

  std::map<std::string, std::string> values_;
};

/// Loads a graph in the format implied by --format or the file suffix.
/// --mmap-graph maps a .mcsr CSR binary read-only instead of loading it
/// onto the heap (the kernel pages adjacency in and out on demand).
Result<Graph> LoadGraph(const Flags& flags) {
  const std::string input = flags.Get("input", "");
  if (input.empty()) return Status::InvalidArgument("--input is required");
  std::string format = flags.Get("format", "");
  if (format.empty()) {
    if (input.size() > 5 && input.substr(input.size() - 5) == ".mcsr") {
      format = "mcsr";
    } else if (input.size() > 4 && input.substr(input.size() - 4) == ".bin") {
      format = "binary";
    } else if (input.size() > 8 &&
               input.substr(input.size() - 8) == ".triples") {
      format = "triples";
    } else {
      format = "edges";
    }
  }
  if (format == "mcsr") {
    if (flags.Get("mmap-graph", "") == "true") return mce::OpenMmapGraph(input);
    return mce::ReadCsrBinary(input);
  }
  if (flags.Get("mmap-graph", "") == "true") {
    return Status::InvalidArgument(
        "--mmap-graph requires a .mcsr input (convert with --to mcsr)");
  }
  if (format == "binary") return mce::ReadBinary(input);
  if (format == "triples") {
    MCE_ASSIGN_OR_RETURN(mce::LabeledGraph lg, mce::ReadTriples(input));
    return std::move(lg.graph);
  }
  if (format == "edges") return mce::ReadEdgeList(input);
  return Status::InvalidArgument("unknown --format " + format);
}

int CmdStats(const Flags& flags) {
  Result<Graph> g = LoadGraph(flags);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  mce::GraphMetrics m = mce::ComputeMetrics(*g);
  std::printf("nodes:        %llu\n",
              static_cast<unsigned long long>(m.num_nodes));
  std::printf("edges:        %llu\n",
              static_cast<unsigned long long>(m.num_edges));
  std::printf("density:      %.6f\n", m.density);
  std::printf("max degree:   %u\n", m.max_degree);
  std::printf("degeneracy:   %u\n", m.degeneracy);
  std::printf("d*:           %u\n", m.d_star);
  std::printf("components:   %u (largest %llu)\n",
              mce::ConnectedComponents(*g).count,
              static_cast<unsigned long long>(mce::LargestComponentSize(*g)));
  std::printf("deg in [1,20]: %.1f%%\n",
              100.0 * mce::DegreeRangeFraction(*g, 1, 20));
  return 0;
}

int CmdEnumerate(const Flags& flags) {
  Result<Graph> g = LoadGraph(flags);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  mce::MaxCliqueFinder::Options options;
  if (flags.Has("m")) {
    int m = 0;
    if (!flags.GetInt("m", 0, &m)) return 1;
    if (m < 1) {
      std::fprintf(stderr, "error: --m must be >= 1\n");
      return 1;
    }
    options.max_block_size = static_cast<uint32_t>(m);
  } else if (!flags.GetDouble("ratio", 0.5, &options.block_size_ratio)) {
    return 1;
  }
  int top = 0;
  if (!flags.GetInt("top", 0, &top)) return 1;
  // --threads N: analyze blocks on N local threads (0 = all hardware
  // threads). The clique output is identical to the serial run.
  int threads = 1;
  if (!flags.GetInt("threads", 1, &threads)) return 1;
  if (threads < 0) {
    std::fprintf(stderr, "error: --threads must be >= 0\n");
    return 1;
  }
  // Oversubscription guard: far more workers than hardware threads only
  // adds context-switch overhead to a CPU-bound pipeline. Clamp at 4x, a
  // generous allowance for experimentation, and say so.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0 && threads > static_cast<int>(4 * hw)) {
    std::fprintf(stderr,
                 "warning: --threads %d exceeds 4x the %u hardware threads; "
                 "clamping to %u\n",
                 threads, hw, 4 * hw);
    threads = static_cast<int>(4 * hw);
  }
  options.num_threads = static_cast<uint32_t>(threads);
  // --max-block-cost C / --no-split: tiny-block batching on the pooled
  // executor (the clique output is identical either way).
  if (!flags.GetDouble("max-block-cost", options.max_block_cost,
                       &options.max_block_cost)) {
    return 1;
  }
  if (flags.Get("no-split", "") == "true") options.split_blocks = false;
  // --reduce / --no-reduce: graph-reduction prepass (strip simplicial /
  // degree<=1 vertices, fold true twins) before the pipeline. The clique
  // output is identical either way; --no-reduce wins if both are given.
  if (flags.Get("reduce", "") == "true") options.reduce = true;
  if (flags.Get("no-reduce", "") == "true") options.reduce = false;
  // --executor serial|pooled|cluster: which execution engine runs the
  // pipeline. "cluster" routes through the simulated-cluster executor
  // (like --workers); the default picks serial or pooled by --threads.
  const std::string executor = flags.Get("executor", "");
  if (executor == "serial") {
    options.executor = mce::decomp::ExecutorKind::kSerial;
  } else if (executor == "pooled") {
    options.executor = mce::decomp::ExecutorKind::kPooled;
  } else if (executor == "cluster") {
    options.simulate_cluster = true;
  } else if (!executor.empty()) {
    std::fprintf(stderr,
                 "error: unknown --executor %s (serial|pooled|cluster)\n",
                 executor.c_str());
    return 1;
  }
  // --memory-budget B / --spill-threshold B / --spill-dir DIR: bound the
  // executor's tracked resident bytes; sizes accept K/M/G/T suffixes
  // (binary multiples). The clique output is identical with any budget.
  if (flags.Has("memory-budget")) {
    Result<uint64_t> bytes =
        mce::ParseByteSize(flags.Get("memory-budget", ""));
    if (!bytes.ok()) {
      std::fprintf(stderr, "error: --memory-budget: %s\n",
                   bytes.status().ToString().c_str());
      return 1;
    }
    options.memory_budget_bytes = *bytes;
  }
  if (flags.Has("spill-threshold")) {
    Result<uint64_t> bytes =
        mce::ParseByteSize(flags.Get("spill-threshold", ""));
    if (!bytes.ok()) {
      std::fprintf(stderr, "error: --spill-threshold: %s\n",
                   bytes.status().ToString().c_str());
      return 1;
    }
    options.spill_threshold_bytes = *bytes;
  }
  options.spill_dir = flags.Get("spill-dir", "");
  // --perf-counters: per-task hardware-counter profiling. Every pipeline
  // task reads cycle/instruction/miss deltas via perf_event_open (or the
  // software task clock when the syscall is unavailable, e.g. in
  // containers); the attribution lands in the report ("profile" in
  // --json) and as args on --trace-out spans.
  if (flags.Get("perf-counters", "") == "true") options.profile = true;
  if (flags.Has("workers")) {
    options.simulate_cluster = true;
    if (!flags.GetInt("workers", 10, &options.cluster.num_workers)) return 1;
    // The simulated machines get the same intra-worker parallelism.
    options.cluster.threads_per_worker = std::max(1, threads);
  }
  // --trace-out FILE / --metrics-out FILE: install the obs sinks for the
  // run (process-wide, so thread-pool idle spans and queue-depth samples
  // are captured too) and export after the run completes.
  const std::string trace_out = flags.Get("trace-out", "");
  const std::string metrics_out = flags.Get("metrics-out", "");
  mce::obs::TraceRecorder recorder;
  mce::obs::MetricsRegistry registry;
  if (!trace_out.empty()) mce::obs::TraceRecorder::Install(&recorder);
  if (!metrics_out.empty()) mce::obs::MetricsRegistry::Install(&registry);
  // --heartbeat-out FILE|- / --heartbeat-interval-ms N / --progress: live
  // NDJSON heartbeat stream and/or single-line TTY status, sampled from a
  // ProgressEstimator the executors feed as blocks register and retire.
  mce::obs::ProgressEstimator progress;
  mce::obs::TelemetryOptions telemetry;
  telemetry.out_path = flags.Get("heartbeat-out", "");
  if (!flags.GetInt("heartbeat-interval-ms", 500, &telemetry.interval_ms)) {
    return 1;
  }
  telemetry.tty_progress = flags.Get("progress", "") == "true";
  if (telemetry.interval_ms <= 0) {
    std::fprintf(stderr, "error: --heartbeat-interval-ms must be >= 1\n");
    return 1;
  }
  const bool want_telemetry =
      !telemetry.out_path.empty() || telemetry.tty_progress;
  mce::obs::TelemetrySampler sampler(&progress, telemetry);
  if (want_telemetry) {
    options.progress = &progress;
    if (!sampler.Start()) return 1;
  }
  mce::MaxCliqueFinder finder(options);
  Result<mce::FindResult> result = finder.Find(*g);
  mce::obs::TraceRecorder::Install(nullptr);
  mce::obs::MetricsRegistry::Install(nullptr);
  // The final heartbeat comes after every write and the verification: an
  // error return below ends the stream through the sampler's destructor,
  // Finish(false), so only a command that exits 0 reports success.
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  if (!trace_out.empty()) {
    Status st = recorder.WriteChromeTrace(trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote trace to %s\n", trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    const bool text = metrics_out.size() > 4 &&
                      metrics_out.substr(metrics_out.size() - 4) == ".txt";
    Status st = text ? registry.WriteText(metrics_out)
                     : registry.WriteJson(metrics_out);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote metrics to %s\n", metrics_out.c_str());
  }
  // --json replaces only the human summary and the --top listing.
  // --output and --verify run in both modes; under --json their status
  // lines go to stderr so stdout stays one JSON object.
  const bool json = flags.Get("json", "") == "true";
  FILE* const status_out = json ? stderr : stdout;
  if (json) {
    std::printf("%s\n", mce::RunReportJson(*result).c_str());
  } else {
    std::printf("%s\n", mce::RunSummaryLine(result->stats, *result).c_str());
    if (result->cluster.has_value()) {
      std::printf("cluster: %d workers, makespan %.4fs, compute speedup "
                  "%.2fx, skew %.2f\n",
                  result->cluster->workers, result->cluster->makespan_seconds,
                  result->cluster->compute_speedup,
                  result->cluster->max_level_skew);
    }
    if (top > 0) {
      for (size_t idx : mce::LargestCliqueIndices(result->cliques, top)) {
        const mce::Clique& c = result->cliques.cliques()[idx];
        std::printf("clique[%zu members]%s:", c.size(),
                    result->origin_level[idx] >= 1 ? " (hub-only)" : "");
        for (NodeId v : c) std::printf(" %u", v);
        std::printf("\n");
      }
    }
  }
  const std::string output = flags.Get("output", "");
  if (!output.empty()) {
    Status st = mce::WriteCliques(result->cliques, output);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(status_out, "wrote %zu cliques to %s\n",
                 result->cliques.size(), output.c_str());
  }
  if (flags.Get("verify", "") == "true") {
    mce::VerificationReport report =
        mce::VerifyAgainstReference(*g, result->cliques);
    std::fprintf(status_out, "verification: %s\n",
                 report.ToString().c_str());
    if (!report.ok()) return 1;
  }
  sampler.Finish(true);
  return 0;
}

int CmdTop(const Flags& flags) {
  Result<Graph> g = LoadGraph(flags);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  int k = 10;
  if (!flags.GetInt("k", 10, &k)) return 1;
  for (const mce::Clique& c :
       mce::TopKMaximalCliques(*g, static_cast<size_t>(k))) {
    std::printf("clique[%zu members]:", c.size());
    for (NodeId v : c) std::printf(" %u", v);
    std::printf("\n");
  }
  return 0;
}

int CmdCommunities(const Flags& flags) {
  Result<Graph> g = LoadGraph(flags);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  int k = 3;
  int top = 10;
  if (!flags.GetInt("k", 3, &k) || !flags.GetInt("top", 10, &top)) return 1;
  if (k < 2) {
    std::fprintf(stderr, "error: --k must be >= 2\n");
    return 1;
  }
  auto communities =
      mce::community::KCliqueCommunities(*g, static_cast<uint32_t>(k));
  std::printf("%zu k-clique communities (k=%d)\n", communities.size(), k);
  for (size_t i = 0; i < communities.size() && i < static_cast<size_t>(top);
       ++i) {
    std::printf("  #%zu: %zu members, %zu cliques\n", i + 1,
                communities[i].members.size(),
                communities[i].clique_indices.size());
  }
  return 0;
}

int CmdGenerate(const Flags& flags) {
  const std::string model = flags.Get("model", "twitter1");
  const std::string output = flags.Get("output", "");
  if (output.empty()) {
    std::fprintf(stderr, "error: --output is required\n");
    return 1;
  }
  double scale = 0.1;
  int seed = 1;
  int nodes = 1000;
  double p = 0.01;
  int attach = 4;
  int kring = 6;
  double beta = 0.2;
  if (!flags.GetDouble("scale", 0.1, &scale) ||
      !flags.GetInt("seed", 1, &seed) ||
      !flags.GetInt("nodes", 1000, &nodes) ||
      !flags.GetDouble("p", 0.01, &p) ||
      !flags.GetInt("attach", 4, &attach) ||
      !flags.GetInt("kring", 6, &kring) ||
      !flags.GetDouble("beta", 0.2, &beta)) {
    return 1;
  }
  Graph g;
  if (model == "twitter1" || model == "twitter2" || model == "twitter3" ||
      model == "facebook" || model == "google+") {
    for (auto config : mce::gen::AllDatasetConfigs(scale)) {
      if (config.name == model) {
        if (flags.Has("seed")) config.seed = static_cast<uint64_t>(seed);
        g = mce::gen::GenerateSocialNetwork(config);
      }
    }
  } else {
    mce::Rng rng(static_cast<uint64_t>(seed));
    const NodeId n = static_cast<NodeId>(nodes);
    if (model == "er") {
      g = mce::gen::ErdosRenyiGnp(n, p, &rng);
    } else if (model == "ba") {
      g = mce::gen::BarabasiAlbert(n, static_cast<uint32_t>(attach), &rng);
    } else if (model == "ws") {
      g = mce::gen::WattsStrogatz(n, static_cast<uint32_t>(kring), beta, &rng);
    } else {
      std::fprintf(stderr,
                   "error: unknown --model %s (try twitter1..3, facebook, "
                   "google+, er, ba, ws)\n",
                   model.c_str());
      return 1;
    }
  }
  Status st = mce::WriteEdgeList(g, output);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %u nodes, %llu edges\n", output.c_str(),
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()));
  return 0;
}

int CmdConvert(const Flags& flags) {
  Result<Graph> g = LoadGraph(flags);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  const std::string output = flags.Get("output", "");
  const std::string to = flags.Get("to", "edges");
  if (output.empty()) {
    std::fprintf(stderr, "error: --output is required\n");
    return 1;
  }
  Status st = Status::OK();
  if (to == "edges") {
    st = mce::WriteEdgeList(*g, output);
  } else if (to == "binary") {
    st = mce::WriteBinary(*g, output);
  } else if (to == "mcsr") {
    st = mce::WriteCsrBinary(*g, output);
  } else if (to == "dot") {
    st = mce::WriteDot(*g, output);
  } else {
    std::fprintf(stderr, "error: unknown --to %s\n", to.c_str());
    return 1;
  }
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", output.c_str());
  return 0;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: mce_cli <stats|enumerate|top|communities|generate|convert> "
      "[--flag value ...]\n"
      "  stats       --input G [--format edges|triples|binary|mcsr]\n"
      "  enumerate   --input G [--ratio R | --m M] [--workers N]\n"
      "              [--threads T]  (analysis threads; 0 = all cores)\n"
      "              [--executor serial|pooled|cluster]  (engine choice)\n"
      "              [--max-block-cost C]  (batch blocks predicted below C\n"
      "                                     into shared pool tasks)\n"
      "              [--no-split]          (one pool task per block)\n"
      "              [--reduce | --no-reduce]  (graph-reduction prepass:\n"
      "                                     strip simplicial vertices and\n"
      "                                     fold true twins; same cliques)\n"
      "              [--mmap-graph]        (map a .mcsr input read-only\n"
      "                                     instead of loading the heap)\n"
      "              [--memory-budget B]   (bound tracked resident bytes;\n"
      "                                     K/M/G/T suffixes accepted)\n"
      "              [--spill-threshold B] (per-level clique-buffer bytes\n"
      "                                     before spilling to disk)\n"
      "              [--spill-dir DIR]     (spill-file directory)\n"
      "              [--top K] [--output cliques.txt] [--json true]\n"
      "              [--verify true]  (re-enumerate and certify)\n"
      "              [--perf-counters true]  (per-task cycle/instruction/\n"
      "                                       miss attribution; software\n"
      "                                       clock when perf_event_open\n"
      "                                       is unavailable)\n"
      "              [--trace-out t.json]    (Chrome trace of the run)\n"
      "              [--metrics-out m.json]  (counters/histograms; .txt\n"
      "                                       for the text form)\n"
      "              [--heartbeat-out FILE|-]  (NDJSON progress heartbeats;\n"
      "                                       validate with trace_check\n"
      "                                       --heartbeat)\n"
      "              [--heartbeat-interval-ms N]  (sampling period; 500)\n"
      "              [--progress true]       (single-line live status on\n"
      "                                       stderr)\n"
      "  top         --input G [--k K]  (k largest maximal cliques)\n"
      "  communities --input G [--k K] [--top K]\n"
      "  generate    --model twitter1|...|er|ba|ws --output G\n"
      "              [--scale S | --nodes N --p P --attach A]\n"
      "  convert     --input G --output G2 --to edges|binary|mcsr|dot\n");
}

/// One subcommand: its entry point and every flag it reads, so a
/// misspelled flag is an error instead of a silently different run.
struct Command {
  const char* name;
  int (*run)(const Flags&);
  bool loads_graph;  // also reads LoadGraph's flags
  std::vector<std::string_view> flags;

  bool Reads(std::string_view flag) const {
    static constexpr std::string_view kGraphFlags[] = {"input", "format",
                                                       "mmap-graph"};
    const auto in = [flag](const auto& names) {
      return std::find(std::begin(names), std::end(names), flag) !=
             std::end(names);
    };
    return in(flags) || (loads_graph && in(kGraphFlags));
  }
};

const Command kCommands[] = {
    {"stats", CmdStats, true, {}},
    {"enumerate",
     CmdEnumerate,
     true,
     {"m", "ratio", "top", "threads", "max-block-cost", "no-split", "reduce",
      "no-reduce", "executor", "memory-budget", "spill-threshold",
      "spill-dir", "perf-counters", "workers", "trace-out", "metrics-out",
      "heartbeat-out", "heartbeat-interval-ms", "progress", "json", "output",
      "verify"}},
    {"top", CmdTop, true, {"k"}},
    {"communities", CmdCommunities, true, {"k", "top"}},
    {"generate",
     CmdGenerate,
     false,
     {"model", "output", "scale", "seed", "nodes", "p", "attach", "kring",
      "beta"}},
    {"convert", CmdConvert, true, {"output", "to"}},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  Flags flags(argc, argv, 2);
  for (const Command& cmd : kCommands) {
    if (command != cmd.name) continue;
    for (const auto& [flag, value] : flags.values()) {
      if (!cmd.Reads(flag)) {
        std::fprintf(stderr, "error: unknown flag --%s for %s\n",
                     flag.c_str(), cmd.name);
        return 1;
      }
    }
    return cmd.run(flags);
  }
  Usage();
  return 2;
}
