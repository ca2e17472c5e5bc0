// mce_bench — the benchmark-of-record harness (driven by perfbench/run.py).
//
//   mce_bench prepare --workload W --seed S --dir D --spill-dir P
//       Generates the input into D (graph.txt, graph.mcsr), round-trips
//       both files, computes the reference oracle, the workload guards and
//       this binary's serial emission digest, and prints them as one JSON
//       line.
//   mce_bench setup --workload W --dir D
//       setup_s samples: repeated loads of the input.
//   mce_bench e2e --workload W --dir D --seconds T --spill-dir P <expect>
//       End-to-end metrics, tracing off: one untimed warm-up stream, then
//       rounds of find_pooled, find_serial and stream_pooled until T
//       seconds have passed (at least one round); every call is checked
//       against the oracle, every pooled stream against the serial
//       emission.
//   mce_bench rss --workload W --dir D --spill-dir P <expect>
//       Loads the input and runs one pooled Find; prints ru_maxrss.
//   mce_bench trace --workload W --dir D --spill-dir P --trace-out F <expect>
//       Per-layer metrics from the outside-in walk (walk.h) plus the
//       executor-level calls, written as a Chrome trace to F.
//   mce_bench selftest [--dir D]
//       Checks the digest, oracle and walk against VerifyAgainstReference
//       on a small seed of every generator.
//
// <expect> is --expect-count N --expect-set HEX --expect-levels a,b,...
// --expect-emission HEX, as printed by prepare. The emission order is
// program-defined, so its reference is the serial executor's stream of the
// same binary; run.py keys its cache on a hash of the binary.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench_lib.h"
#include "core/run_stats.h"
#include "core/verify.h"
#include "decomp/find_max_cliques.h"
#include "exec/executor.h"
#include "graph/io.h"
#include "mce/enumerator.h"
#include "obs/perf_counters.h"
#include "util/timer.h"
#include "walk.h"

namespace mce::bench {
namespace {

using decomp::ExecutorKind;

struct Args {
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  uint64_t GetU64(const std::string& key, uint64_t fallback = 0) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : std::stoull(it->second, nullptr, 0);
  }
};

Args ParseArgs(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    args.flags[key] = argv[i + 1];
  }
  return args;
}

/// The oracle passed back in on the command line.
Digest ExpectedDigest(const Args& args) {
  Digest d;
  d.count = args.GetU64("expect-count");
  d.set = std::stoull(args.Get("expect-set", "0"), nullptr, 16);
  d.emission = std::stoull(args.Get("expect-emission", "0"), nullptr, 16);
  std::stringstream levels(args.Get("expect-levels"));
  std::string item;
  while (std::getline(levels, item, ',')) {
    if (!item.empty()) d.levels.push_back(std::stoull(item));
  }
  return d;
}

std::string Describe(const Digest& d) {
  return "count=" + std::to_string(d.count) + " set=" + Hex(d.set) +
         " levels=" + JsonArray(d.levels);
}

/// The input properties each workload's guards read (run.py checks them).
std::string GuardsJson(const WalkCounts& c) {
  JsonObject guards;
  guards.Add("cut.levels", c.cut_levels)
      .Add("blocks.count", c.blocks_count)
      .Add("filter.checked", c.filter_checked)
      .Add("analysis.cliques", c.analysis_cliques)
      .Add("reduce.vertices_removed", c.reduce_vertices_removed)
      .Add("graph.nodes", c.graph_nodes);
  return guards.str();
}

/// Failure bookkeeping shared by every timed call: attempted/failed plus
/// the first few messages.
struct Outcomes {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
  std::string ErrorsJson() const {
    std::string out = "[";
    for (size_t i = 0; i < errors.size(); ++i) {
      if (i > 0) out += ", ";
      JsonObject o;
      o.Add("error", errors[i]);
      out += o.str();
    }
    return out + "]";
  }
};

const Workload& RequireWorkload(const Args& args) {
  const Workload* w = FindWorkload(args.Get("workload"));
  if (w == nullptr) {
    std::cerr << "unknown --workload '" << args.Get("workload") << "'\n";
    std::exit(2);
  }
  return *w;
}

Graph RequireInput(const Workload& w, const std::string& dir) {
  Result<Graph> g = LoadInput(w, dir);
  if (!g.ok()) {
    std::cerr << "cannot load input: " << g.status().ToString() << "\n";
    std::exit(1);
  }
  return std::move(g).value();
}

/// Runs MaxCliqueFinder::Find and checks it against `expected`.
double TimedFind(const Workload& w, const Graph& g, ExecutorKind executor,
                 const std::string& spill_dir, const Digest& expected,
                 Outcomes* outcomes, double* cpu_seconds = nullptr) {
  const MaxCliqueFinder finder(FinderOptions(w, executor, spill_dir));
  const double cpu_before = ProcessCpuSeconds();
  const Timer timer;
  Result<FindResult> result = finder.Find(g);
  const double seconds = timer.ElapsedSeconds();
  if (cpu_seconds != nullptr) *cpu_seconds = ProcessCpuSeconds() - cpu_before;
  const char* what =
      executor == ExecutorKind::kSerial ? "find_serial" : "find_pooled";
  if (!result.ok()) {
    outcomes->Record(false, std::string(what) + ": " + result.status().ToString());
    return seconds;
  }
  const Digest got = DigestOf(result->cliques, result->origin_level);
  outcomes->Record(got.SameSet(expected),
                   std::string(what) + ": " + Describe(got));
  return seconds;
}

/// FindMaxCliquesStreaming with Find's resolved options; folds the
/// emission into a digest.
double TimedStream(const Workload& w, const Graph& g, ExecutorKind executor,
                   const std::string& spill_dir, Digest* digest) {
  const decision::DecisionTree tree = decision::PaperDecisionTree();
  const decomp::FindMaxCliquesOptions options =
      PipelineOptions(w, g, executor, spill_dir, &tree);
  const Timer timer;
  decomp::FindMaxCliquesStreaming(
      g, options, [digest](std::span<const NodeId> c, uint32_t level) {
        digest->Add(c, level);
      });
  return timer.ElapsedSeconds();
}

/// A text edge list cannot name isolated nodes past the largest id it
/// mentions; apart from those, `read` must equal `g`.
bool SameUpToTrailingIsolated(const Graph& read, const Graph& g) {
  if (read.num_nodes() > g.num_nodes() || read.num_edges() != g.num_edges()) {
    return false;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v >= read.num_nodes()) {
      if (g.Degree(v) != 0) return false;
      continue;
    }
    const std::span<const NodeId> a = read.Neighbors(v);
    const std::span<const NodeId> b = g.Neighbors(v);
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) return false;
  }
  return true;
}

int Prepare(const Args& args) {
  const Workload& w = RequireWorkload(args);
  const uint64_t seed = args.GetU64("seed", 1);
  const std::string dir = args.Get("dir");
  std::filesystem::create_directories(dir);

  Timer timer;
  const Graph g = GenerateInput(w, seed);
  const double gen_s = timer.ElapsedSeconds();
  const std::string text = dir + "/" + kTextFile;
  const std::string csr = dir + "/" + kCsrFile;
  Status st = WriteEdgeList(g, text);
  if (st.ok()) st = WriteCsrBinary(g, csr);
  if (!st.ok()) {
    std::cerr << "write failed: " << st.ToString() << "\n";
    return 1;
  }
  // Round trip: both forms must read back as the generated graph.
  Result<Graph> from_text = ReadEdgeList(text);
  Result<Graph> from_csr = ReadCsrBinary(csr);
  Result<Graph> from_mmap = OpenMmapGraph(csr);
  if (!from_text.ok() || !from_csr.ok() || !from_mmap.ok() ||
      !SameUpToTrailingIsolated(*from_text, g) || !(*from_csr == g) ||
      !(*from_mmap == g)) {
    std::cerr << "round trip of the generated input failed\n";
    return 1;
  }

  // Everything below sees the graph the program reads.
  const Graph input = RequireInput(w, dir);
  timer.Reset();
  const uint32_t m =
      MaxCliqueFinder(FinderOptions(w, ExecutorKind::kSerial, ""))
          .ResolveBlockSize(input)
          .value();
  const Digest oracle = ComputeOracle(w, input, m);
  const double oracle_s = timer.ElapsedSeconds();

  // The emission reference: this binary's serial executor.
  Digest serial;
  TimedStream(w, input, ExecutorKind::kSerial, args.Get("spill-dir"), &serial);
  if (!serial.SameSet(oracle)) {
    std::cerr << "serial stream disagrees with the oracle: " << Describe(serial)
              << " vs " << Describe(oracle) << "\n";
    return 1;
  }

  // The guards come from the same walk the traced pass runs (spans off).
  timer.Reset();
  SpanRecorder off(false);
  const WalkOutput walk = Walk(w, dir, off, /*probes=*/false);
  const double walk_s = timer.ElapsedSeconds();
  if (!walk.status.ok() || !walk.digest.SameSet(oracle)) {
    std::cerr << "walk disagrees with the oracle: " << Describe(walk.digest)
              << " vs " << Describe(oracle) << "\n";
    return 1;
  }

  JsonObject out;
  out.Add("workload", std::string(w.name))
      .Add("seed", seed)
      .Add("nodes", static_cast<uint64_t>(input.num_nodes()))
      .Add("edges", input.num_edges())
      .Add("max_degree", static_cast<uint64_t>(input.MaxDegree()))
      .Add("m", static_cast<uint64_t>(m))
      .Add("count", oracle.count)
      .Add("set_digest", Hex(oracle.set))
      .AddRaw("levels", JsonArray(oracle.levels))
      .Add("serial_emission", Hex(serial.emission))
      .AddRaw("guards", GuardsJson(walk.counts))
      .Add("gen_s", gen_s)
      .Add("oracle_s", oracle_s)
      .Add("walk_s", walk_s);
  std::cout << out.str() << std::endl;
  return 0;
}

int EndToEnd(const Args& args) {
  const Workload& w = RequireWorkload(args);
  const std::string dir = args.Get("dir");
  const std::string spill_dir = args.Get("spill-dir");
  const double budget_s = std::stod(args.Get("seconds", "10"));
  const Digest expected = ExpectedDigest(args);
  Outcomes outcomes;

  const Graph g = RequireInput(w, dir);

  // Untimed warm-up: a process's first pooled call pays for thread start,
  // allocator growth and page faults (up to 1.5x the steady time).
  Digest warm;
  TimedStream(w, g, ExecutorKind::kPooled, spill_dir, &warm);
  outcomes.Record(warm.SameSet(expected) && warm.emission == expected.emission,
                  "warm-up stream: " + Describe(warm));

  // Rounds of the three calls until the time is up (at least one round).
  std::vector<double> pooled, serial, stream, cpu;
  const Timer clock;
  do {
    double cpu_s = 0;
    pooled.push_back(TimedFind(w, g, ExecutorKind::kPooled, spill_dir,
                               expected, &outcomes, &cpu_s));
    cpu.push_back(cpu_s);
    serial.push_back(
        TimedFind(w, g, ExecutorKind::kSerial, spill_dir, expected, &outcomes));
    // Delivery contract: the pooled stream reproduces the serial emission
    // byte for byte.
    Digest d;
    stream.push_back(TimedStream(w, g, ExecutorKind::kPooled, spill_dir, &d));
    outcomes.Record(d.SameSet(expected) && d.emission == expected.emission,
                    "stream_pooled: " + Describe(d) + " emission=" +
                        Hex(d.emission) + " serial " + Hex(expected.emission));
  } while (clock.ElapsedSeconds() < budget_s);

  JsonObject out;
  out.Add("attempted", outcomes.attempted)
      .Add("failed", outcomes.failed)
      .AddRaw("errors", outcomes.ErrorsJson())
      .AddRaw("find_pooled_samples", JsonArray(pooled))
      .AddRaw("find_serial_samples", JsonArray(serial))
      .AddRaw("stream_pooled_samples", JsonArray(stream))
      .AddRaw("pooled_cpu_samples", JsonArray(cpu));
  std::cout << out.str() << std::endl;
  return 0;
}

/// setup_s samples: repeated loads of the input, file to usable Graph.
int Setup(const Args& args) {
  const Workload& w = RequireWorkload(args);
  const std::string dir = args.Get("dir");
  Outcomes outcomes;
  std::vector<double> setup;
  const Timer clock;
  Status status;
  while (status.ok() &&
         (setup.size() < 3 ||
          (setup.size() < 101 && clock.ElapsedSeconds() < 0.25))) {
    const Timer t;
    Result<Graph> g = LoadInput(w, dir);
    setup.push_back(t.ElapsedSeconds());
    status = g.status();
  }
  outcomes.Record(status.ok(), "load: " + status.ToString());
  JsonObject out;
  out.Add("attempted", outcomes.attempted)
      .Add("failed", outcomes.failed)
      .AddRaw("errors", outcomes.ErrorsJson())
      .AddRaw("setup_samples", JsonArray(setup));
  std::cout << out.str() << std::endl;
  return 0;
}

int PeakRss(const Args& args) {
  const Workload& w = RequireWorkload(args);
  const Graph g = RequireInput(w, args.Get("dir"));
  Outcomes outcomes;
  TimedFind(w, g, ExecutorKind::kPooled, args.Get("spill-dir"),
            ExpectedDigest(args), &outcomes);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  JsonObject out;
  out.Add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0)
      .Add("attempted", outcomes.attempted)
      .Add("failed", outcomes.failed)
      .AddRaw("errors", outcomes.ErrorsJson());
  std::cout << out.str() << std::endl;
  return 0;
}

/// Per-name totals and self times (span minus child spans) of a trace.
struct LayerTimes {
  std::map<std::string, double> total;
  std::map<std::string, double> self;
  std::map<std::string, double> by_tag;  // "analysis" spans per backend

  explicit LayerTimes(const std::vector<Span>& spans) {
    std::vector<double> children(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) children[static_cast<size_t>(s.parent)] += s.seconds();
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      total[spans[i].name] += spans[i].seconds();
      self[spans[i].name] += spans[i].seconds() - children[i];
      if (std::string(spans[i].name) == "analysis") {
        by_tag[spans[i].tag] += spans[i].seconds();
      }
    }
  }
  double Total(const std::string& name) const {
    auto it = total.find(name);
    return it == total.end() ? 0 : it->second;
  }
  double Self(const std::string& name) const {
    auto it = self.find(name);
    return it == self.end() ? 0 : it->second;
  }
  double Tag(const std::string& tag) const {
    auto it = by_tag.find(tag);
    return it == by_tag.end() ? 0 : it->second;
  }
};

/// Share of blocks whose EstimateBlockCost, scaled by the median measured
/// ns per predicted unit, lands within 10x of the measured analysis time.
double CostWithin10x(const std::vector<Span>& spans) {
  std::vector<double> ratios;
  std::vector<std::pair<double, double>> blocks;  // (measured ns, predicted)
  for (const Span& s : spans) {
    if (std::string(s.name) != "analysis" || s.arg <= 0) continue;
    const double ns = static_cast<double>(s.end_ns - s.begin_ns);
    blocks.emplace_back(ns, s.arg);
    ratios.push_back(ns / s.arg);
  }
  if (blocks.empty()) return 0;
  const double scale = Median(ratios);
  size_t within = 0;
  for (const auto& [ns, predicted] : blocks) {
    const double estimate = predicted * scale;
    if (estimate <= 10 * ns && ns <= 10 * estimate) ++within;
  }
  return static_cast<double>(within) / static_cast<double>(blocks.size());
}

int Trace(const Args& args) {
  const Workload& w = RequireWorkload(args);
  const std::string dir = args.Get("dir");
  const std::string spill_dir = args.Get("spill-dir");
  const Digest expected = ExpectedDigest(args);
  Outcomes outcomes;

  SpanRecorder rec(true);
  const int32_t root = rec.Open("trace");
  Timer timer;
  // Executor-level calls on the same input.
  const Graph g = RequireInput(w, dir);
  const decision::DecisionTree tree = decision::PaperDecisionTree();
  const decomp::FindMaxCliquesOptions serial_options =
      PipelineOptions(w, g, ExecutorKind::kSerial, spill_dir, &tree);
  const decomp::FindMaxCliquesOptions pooled_options =
      PipelineOptions(w, g, ExecutorKind::kPooled, spill_dir, &tree);
  Digest serial_digest, pooled_digest;
  double serial_cpu = 0, pooled_cpu = 0;
  double run_serial_s = 0, run_pooled_s = 0, collect_total_s = 0;
  decomp::StreamingStats pooled_stats;
  {
    ScopedSpan span(rec, "exec.run_serial");
    const double cpu = ProcessCpuSeconds();
    timer.Reset();
    exec::MakeSerialExecutor()->Run(
        g, serial_options, [&](std::span<const NodeId> c, uint32_t level) {
          serial_digest.Add(c, level);
        });
    run_serial_s = timer.ElapsedSeconds();
    serial_cpu = ProcessCpuSeconds() - cpu;
  }
  std::unique_ptr<exec::Executor> pooled =
      exec::MakePooledExecutor(PooledThreads());
  {
    ScopedSpan span(rec, "exec.run_pooled");
    const double cpu = ProcessCpuSeconds();
    timer.Reset();
    pooled_stats = pooled->Run(
        g, pooled_options, [&](std::span<const NodeId> c, uint32_t level) {
          pooled_digest.Add(c, level);
        });
    run_pooled_s = timer.ElapsedSeconds();
    pooled_cpu = ProcessCpuSeconds() - cpu;
  }
  outcomes.Record(serial_digest.SameSet(expected) &&
                      pooled_digest.SameSet(expected) &&
                      pooled_digest.emission == serial_digest.emission,
                  "exec.run: serial " + Describe(serial_digest) +
                      " pooled emission " + Hex(pooled_digest.emission));
  decomp::FindMaxCliquesResult collected;
  {
    ScopedSpan span(rec, "exec.collect");
    timer.Reset();
    collected = exec::CollectToResult(*pooled, g, pooled_options);
    collect_total_s = timer.ElapsedSeconds();
  }
  const Digest collected_digest =
      DigestOf(collected.cliques, collected.origin_level);
  outcomes.Record(collected_digest.SameSet(expected),
                  "exec.collect: " + Describe(collected_digest));
  {
    ScopedSpan span(rec, "core.runstats");
    const RunStats stats = ComputeRunStats(collected);
    outcomes.Record(stats.total_cliques == expected.count,
                    "runstats total " + std::to_string(stats.total_cliques));
  }
  // The walk runs last, once with spans off (the trace.overhead
  // reference, itself one top-level span) and once with spans on; the
  // executor calls before it warm the process up for both.
  double walk_off_s = 0;
  {
    ScopedSpan span(rec, "walk.spans_off");
    SpanRecorder off(false);
    timer.Reset();
    const WalkOutput walk_off = Walk(w, dir, off, /*probes=*/true);
    walk_off_s = timer.ElapsedSeconds();
    outcomes.Record(walk_off.status.ok() && walk_off.digest.SameSet(expected),
                    "walk (spans off): " + Describe(walk_off.digest));
  }
  // The traced walk gets its own parent span: coverage is measured
  // against it alone.
  const int32_t walk_span = rec.Open("walk");
  timer.Reset();
  const WalkOutput walk = Walk(w, dir, rec, /*probes=*/true);
  const double walk_on_s = timer.ElapsedSeconds();
  rec.Close(walk_span);
  // The walk emits in the serial executor's order.
  outcomes.Record(walk.status.ok() && walk.digest.SameSet(expected) &&
                      walk.digest.emission == serial_digest.emission &&
                      walk.counts.shard_mismatches == 0,
                  "walk: " + Describe(walk.digest) + " emission " +
                      Hex(walk.digest.emission) + " serial " +
                      Hex(serial_digest.emission));
  rec.Close(root);

  const std::string trace_out = args.Get("trace-out");
  if (!trace_out.empty()) {
    const Status st = rec.WriteChromeTrace(trace_out);
    outcomes.Record(st.ok(), "trace write: " + st.ToString());
  }

  // Coverage: the traced walk's top-level layer spans over the walk's wall.
  const std::vector<Span>& spans = rec.spans();
  double top = 0;
  for (const Span& s : spans) {
    if (s.parent == walk_span) top += s.seconds();
  }
  const double traced_wall = spans[static_cast<size_t>(walk_span)].seconds();
  const LayerTimes t(spans);
  const WalkCounts& c = walk.counts;
  const double analysis_s = t.Total("analysis");
  // Unsplit analysis time of exactly the blocks the shard probe re-ran.
  double unsplit_s = 0;
  for (const Span& s : spans) {
    if (std::string(s.name) == "probe.shards") {
      unsplit_s += spans[static_cast<size_t>(s.arg)].seconds();
    }
  }
  const double shard_s = t.Total("probe.shards");
  const decomp::MemoryStats& mem = pooled_stats.memory;
  const double mb = 1e-6;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  JsonObject m;
  m.Add("graph.load_s", t.Total("graph.load"))
      .Add("graph.bytes", c.graph_bytes)
      .Add("graph.induce_hubs_s", t.Total("graph.induce_hubs"))
      .Add("reduce.s", t.Total("reduce"))
      .Add("reduce.vertices_removed", c.reduce_vertices_removed)
      .Add("reduce.trivial_cliques", c.reduce_trivial_cliques)
      .Add("reduce.relabel_s", t.Total("reduce.relabel"))
      .Add("cut.s", t.Total("cut"))
      .Add("cut.levels", c.cut_levels)
      .Add("cut.hubs", c.cut_hubs)
      .Add("blocks.build_s", t.Self("blocks.build"))
      .Add("blocks.count", c.blocks_count)
      .Add("blocks.nodes", c.blocks_nodes)
      .Add("blocks.edges", c.blocks_edges)
      .Add("blocks.replication",
           ratio(static_cast<double>(c.blocks_nodes),
                 static_cast<double>(c.feasible_nodes)))
      .Add("blocks.induce_s", t.Total("probe.induce"))
      .Add("blocks.growth_est_s",
           std::max(0.0, t.Self("blocks.build") - t.Total("probe.induce")))
      .Add("decision.features_s", t.Total("decision.features"))
      .Add("decision.classify_s", t.Total("decision.classify"))
      .Add("decision.cost_s", t.Total("decision.cost"))
      .Add("decision.cost_within_10x", CostWithin10x(spans))
      .Add("decision.blocks.lists", c.blocks_lists)
      .Add("decision.blocks.matrix", c.blocks_matrix)
      .Add("decision.blocks.bitset", c.blocks_bitset)
      .Add("analysis.s", analysis_s)
      .Add("analysis.cliques", c.analysis_cliques)
      .Add("analysis.ns_per_clique",
           ratio(analysis_s * 1e9, static_cast<double>(c.analysis_cliques)))
      .Add("analysis.lists.s", t.Tag("lists"))
      .Add("analysis.matrix.s", t.Tag("matrix"))
      .Add("analysis.bitset.s", t.Tag("bitset"))
      .Add("analysis.shards", c.analysis_shards)
      .Add("analysis.shard_s", shard_s)
      .Add("analysis.shard_overhead", ratio(shard_s, unsplit_s))
      .Add("filter.s", t.Total("filter"))
      .Add("filter.checked", c.filter_checked)
      .Add("filter.kept", c.filter_kept)
      .Add("filter.kept_frac",
           ratio(static_cast<double>(c.filter_kept),
                 static_cast<double>(c.filter_checked)))
      .Add("exec.run_serial_s", run_serial_s)
      .Add("exec.run_pooled_s", run_pooled_s)
      .Add("exec.collect_s", collect_total_s - run_pooled_s)
      .Add("exec.pooled_cpu_ratio", ratio(pooled_cpu, serial_cpu))
      .Add("exec.pooled_speedup", ratio(run_serial_s, run_pooled_s))
      .Add("core.runstats_s", t.Total("core.runstats"))
      .Add("sink.spill_chunks", mem.spill_chunks)
      .Add("sink.spill_bytes", mem.spill_bytes)
      .Add("memory.admission_stalls", mem.admission_stalls)
      .Add("memory.admission_stall_s", mem.admission_stall_seconds)
      .Add("memory.peak_tracked_mb",
           static_cast<double>(mem.peak_tracked_bytes) * mb)
      .Add("memory.over_budget_mb",
           mem.budget_bytes > 0 && mem.peak_tracked_bytes > mem.budget_bytes
               ? static_cast<double>(mem.peak_tracked_bytes -
                                     mem.budget_bytes) *
                     mb
               : 0.0)
      .Add("trace.coverage", ratio(top, traced_wall))
      .Add("trace.overhead", ratio(walk_on_s, walk_off_s));

  JsonObject out;
  out.AddRaw("metrics", m.str())
      .AddRaw("guards", GuardsJson(c))
      .Add("walk_set_digest", Hex(walk.digest.set))
      .Add("spans", static_cast<uint64_t>(spans.size()))
      .Add("attempted", outcomes.attempted)
      .Add("failed", outcomes.failed)
      .AddRaw("errors", outcomes.ErrorsJson());
  std::cout << out.str() << std::endl;
  return 0;
}

int SelfTest(const Args& args) {
  const std::string root = args.Get("dir", ".bench_cache/selftest");
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
    if (!ok) ++failures;
  };
  for (const Workload& w : AllWorkloads()) {
    const std::string dir = root + "/" + w.name;
    std::filesystem::create_directories(dir);
    const double scale = std::string(w.name) == "powerlaw-oocore" ? 0.04 : 0.1;
    const Graph generated = GenerateInput(w, 7, scale);
    Status st = WriteEdgeList(generated, dir + "/" + kTextFile);
    if (st.ok()) st = WriteCsrBinary(generated, dir + "/" + kCsrFile);
    check(st.ok(), std::string(w.name) + ": write inputs");
    const Graph g = RequireInput(w, dir);
    check(g == generated, std::string(w.name) + ": input round trip");

    const MaxCliqueFinder finder(FinderOptions(w, ExecutorKind::kPooled, dir));
    const uint32_t m = finder.ResolveBlockSize(g).value();
    const Digest oracle = ComputeOracle(w, g, m);
    Result<FindResult> found = finder.Find(g);
    check(found.ok(), std::string(w.name) + ": pooled Find ok");
    if (!found.ok()) continue;
    const Digest got = DigestOf(found->cliques, found->origin_level);
    check(got.SameSet(oracle), std::string(w.name) + ": Find digest " +
                                   Describe(got) + " == oracle " +
                                   Describe(oracle));
    CliqueSet cliques = found->cliques;
    check(VerifyAgainstReference(g, cliques).ok(),
          std::string(w.name) + ": VerifyAgainstReference(Find)");
    // The streaming oracle equals the collected Eppstein reference.
    const CliqueSet reference = EnumerateToSet(
        g, MceOptions{Algorithm::kEppstein, StorageKind::kAdjacencyList});
    Digest ref;
    for (const Clique& c : reference.cliques()) ref.Add(c, 0);
    check(ref.count == oracle.count && ref.set == oracle.set,
          std::string(w.name) + ": oracle digest == EnumerateToSet digest");

    SpanRecorder rec(true);
    const WalkOutput walk = Walk(w, dir, rec, /*probes=*/true);
    check(walk.status.ok() && walk.digest.SameSet(oracle) &&
              walk.counts.shard_mismatches == 0,
          std::string(w.name) + ": walk digest == oracle");

    Digest serial, pooled;
    TimedStream(w, g, ExecutorKind::kSerial, dir, &serial);
    TimedStream(w, g, ExecutorKind::kPooled, dir, &pooled);
    check(serial.emission == pooled.emission && serial.set == oracle.set,
          std::string(w.name) + ": serial/pooled emission digests equal");
    check(walk.digest.emission == serial.emission,
          std::string(w.name) + ": walk emits in the serial executor's order");

    // A digest must notice a single missing clique.
    CliqueSet fewer = found->cliques;
    if (!fewer.empty()) fewer.mutable_cliques().pop_back();
    Digest short_digest;
    for (const Clique& c : fewer.cliques()) short_digest.Add(c, 0);
    check(short_digest.set != oracle.set,
          std::string(w.name) + ": digest detects a dropped clique");
  }
  std::cout << (failures == 0 ? "selftest OK" : "selftest FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

int Environment() {
  JsonObject out;
  out.Add("build_type", std::string(MCE_BENCH_BUILD_TYPE))
      .Add("compiler", std::string(MCE_BENCH_COMPILER))
      .Add("threads", static_cast<uint64_t>(PooledThreads()))
      .AddBool("perf_hardware", obs::PerfCounterSet::HardwareAvailable());
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace mce::bench

int main(int argc, char** argv) {
  using namespace mce::bench;
  if (argc < 2) {
    std::cerr << "usage: mce_bench prepare|setup|e2e|rss|trace|selftest|env "
                 "[--flag value]...\n";
    return 2;
  }
  const std::string command = argv[1];
  const Args args = ParseArgs(argc, argv, 2);
  if (command == "prepare") return Prepare(args);
  if (command == "e2e") return EndToEnd(args);
  if (command == "setup") return Setup(args);
  if (command == "rss") return PeakRss(args);
  if (command == "trace") return Trace(args);
  if (command == "selftest") return SelfTest(args);
  if (command == "env") return Environment();
  std::cerr << "unknown command '" << command << "'\n";
  return 2;
}
