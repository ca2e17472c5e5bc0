#include "core/report.h"

#include <cstdio>
#include <sstream>

#include "obs/trace.h"

namespace mce {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string Double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string RunReportJson(const FindResult& result) {
  std::ostringstream os;
  const RunStats& s = result.stats;
  os << "{";
  os << "\"block_size\":" << result.effective_block_size;
  os << ",\"total_cliques\":" << s.total_cliques;
  os << ",\"feasible_cliques\":" << s.feasible_cliques;
  os << ",\"hub_cliques\":" << s.hub_cliques;
  os << ",\"max_clique_size\":" << s.max_clique_size;
  os << ",\"avg_clique_size\":" << Double(s.avg_clique_size);
  os << ",\"avg_feasible_clique_size\":"
     << Double(s.avg_feasible_clique_size);
  os << ",\"avg_hub_clique_size\":" << Double(s.avg_hub_clique_size);
  os << ",\"num_levels\":" << s.num_levels;
  os << ",\"total_blocks\":" << s.total_blocks;
  os << ",\"decompose_seconds\":" << Double(s.decompose_seconds);
  os << ",\"analyze_seconds\":" << Double(s.analyze_seconds);
  os << ",\"overlap_seconds\":" << Double(s.overlap_seconds);
  os << ",\"idle_seconds\":" << Double(s.idle_seconds);
  os << ",\"barrier_idle_seconds\":" << Double(s.barrier_idle_seconds);
  os << ",\"wall_seconds\":" << Double(s.wall_seconds);
  os << ",\"utilization\":" << Double(s.utilization);
  os << ",\"used_fallback\":" << (s.used_fallback ? "true" : "false");
  const reduce::ReductionStats& r = result.reduction;
  os << ",\"reduction\":{\"enabled\":" << (r.enabled ? "true" : "false")
     << ",\"isolated_removed\":" << r.isolated_removed
     << ",\"degree1_removed\":" << r.degree1_removed
     << ",\"dominated_removed\":" << r.dominated_removed
     << ",\"twins_merged\":" << r.twins_merged
     << ",\"vertices_removed\":" << r.vertices_removed
     << ",\"edges_removed\":" << r.edges_removed
     << ",\"trivial_cliques\":" << r.trivial_cliques
     << ",\"suppressed_cliques\":" << r.suppressed_cliques
     << ",\"rounds\":" << r.rounds
     << ",\"seconds\":" << Double(r.seconds) << "}";
  const decomp::MemoryStats& m = result.memory;
  os << ",\"memory\":{\"budget_bytes\":" << m.budget_bytes
     << ",\"peak_tracked_bytes\":" << m.peak_tracked_bytes
     << ",\"spill_chunks\":" << m.spill_chunks
     << ",\"spill_bytes\":" << m.spill_bytes
     << ",\"admission_stalls\":" << m.admission_stalls
     << ",\"admission_stall_seconds\":" << Double(m.admission_stall_seconds)
     << "}";
  const obs::ProgressAccounting& p = result.progress;
  os << ",\"progress\":{\"enabled\":" << (p.enabled ? "true" : "false")
     << ",\"predicted_cost\":" << Double(p.predicted_cost)
     << ",\"completed_cost\":" << Double(p.completed_cost)
     << ",\"blocks\":" << p.blocks << ",\"cliques\":" << p.cliques
     << ",\"eta_samples\":" << p.samples
     << ",\"mean_abs_eta_error_seconds\":"
     << Double(p.mean_abs_eta_error_seconds)
     << ",\"wall_seconds\":" << Double(p.wall_seconds) << "}";
  const obs::ProfileStats& prof = result.profile;
  const auto bucket = [&os](const obs::ProfileBucket& b) {
    os << "{\"spans\":" << b.spans << ",\"seconds\":" << Double(b.seconds)
       << ",\"cliques\":" << b.cliques
       << ",\"cycles\":" << b.counters.cycles
       << ",\"instructions\":" << b.counters.instructions
       << ",\"ipc\":" << Double(b.Ipc())
       << ",\"cache_misses\":" << b.counters.cache_misses
       << ",\"branch_misses\":" << b.counters.branch_misses
       << ",\"task_clock_ns\":" << b.counters.task_clock_ns
       << ",\"ns_per_clique\":" << Double(b.NsPerClique()) << "}";
  };
  os << ",\"profile\":{\"enabled\":" << (prof.enabled ? "true" : "false")
     << ",\"hardware\":" << (prof.hardware ? "true" : "false")
     << ",\"total\":";
  bucket(prof.total);
  os << ",\"by_kind\":{";
  for (size_t i = 0; i < prof.by_kind.size(); ++i) {
    if (i > 0) os << ",";
    os << "\""
       << JsonEscape(obs::ToString(
              static_cast<obs::SpanKind>(prof.by_kind[i].first)))
       << "\":";
    bucket(prof.by_kind[i].second);
  }
  os << "},\"by_level\":[";
  for (size_t i = 0; i < prof.by_level.size(); ++i) {
    if (i > 0) os << ",";
    bucket(prof.by_level[i]);
  }
  os << "]}";
  os << ",\"levels\":[";
  for (size_t i = 0; i < result.levels.size(); ++i) {
    const decomp::LevelStats& l = result.levels[i];
    if (i > 0) os << ",";
    os << "{\"nodes\":" << l.num_nodes << ",\"edges\":" << l.num_edges
       << ",\"feasible\":" << l.feasible << ",\"hubs\":" << l.hubs
       << ",\"blocks\":" << l.blocks << ",\"cliques\":" << l.cliques
       << ",\"decompose_seconds\":" << Double(l.decompose_seconds)
       << ",\"analyze_seconds\":" << Double(l.analyze_seconds)
       << ",\"block_seconds\":" << Double(l.block_seconds)
       << ",\"busiest_worker_seconds\":" << Double(l.busiest_worker_seconds)
       << ",\"analyze_threads\":" << l.analyze_threads
       << ",\"overlap_seconds\":" << Double(l.overlap_seconds)
       << ",\"idle_seconds\":" << Double(l.idle_seconds)
       << ",\"barrier_idle_seconds\":" << Double(l.barrier_idle_seconds)
       << "}";
  }
  os << "]";
  if (result.cluster.has_value()) {
    const exec::ClusterSummary& c = *result.cluster;
    os << ",\"cluster\":{\"workers\":" << c.workers
       << ",\"makespan_seconds\":" << Double(c.makespan_seconds)
       << ",\"analysis_speedup\":" << Double(c.analysis_speedup)
       << ",\"compute_speedup\":" << Double(c.compute_speedup)
       << ",\"max_level_skew\":" << Double(c.max_level_skew)
       << ",\"bytes_shipped\":" << c.bytes_shipped << "}";
  } else {
    os << ",\"cluster\":null";
  }
  os << "}";
  return os.str();
}

}  // namespace mce
