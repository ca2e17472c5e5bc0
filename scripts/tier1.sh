#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then a ThreadSanitizer
# pass over the concurrency-bearing subset (the thread pool, the parallel
# decomposition pipeline, and the task-graph execution engines), an
# AddressSanitizer + UndefinedBehaviorSanitizer pass with debug checks on,
# CLI trace/heartbeat/profile validation, and a build + selftest of the
# benchmark of record (perfbench/).
#
# Usage: scripts/tier1.sh [build-dir]
#   MCE_SKIP_TSAN=1   skip the TSan leg (e.g. when the toolchain lacks
#                     TSan runtime support)
#   MCE_SKIP_ASAN=1   skip the ASan leg
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"

echo "=== tier-1: build + ctest ($build) ==="
cmake -B "$build" -S "$repo"
cmake --build "$build" -j "$(nproc)"
ctest --test-dir "$build" --output-on-failure -j "$(nproc)"

if [[ "${MCE_SKIP_TSAN:-0}" == "1" ]]; then
  echo "=== tier-1: TSan leg skipped (MCE_SKIP_TSAN=1) ==="
else
  # TSan leg: rebuild only the threaded test subset with -fsanitize=thread
  # and run it. Benchmarks/examples are excluded to keep the instrumented
  # build small.
  tsan_build="$build-tsan"
  echo "=== tier-1: TSan build ($tsan_build) ==="
  cmake -B "$tsan_build" -S "$repo" \
    -DMCE_SANITIZE=thread \
    -DMCE_BUILD_BENCH=OFF \
    -DMCE_BUILD_EXAMPLES=OFF
  cmake --build "$tsan_build" -j "$(nproc)" \
    --target util_test decomp_test exec_test reduce_test obs_test

  echo "=== tier-1: TSan run (util_test, decomp_test, exec_test," \
       "reduce_test, obs_test) ==="
  ctest --test-dir "$tsan_build" --output-on-failure -j "$(nproc)" \
    -R '^(util_test|decomp_test|exec_test|reduce_test|obs_test)$'
fi

if [[ "${MCE_SKIP_ASAN:-0}" == "1" ]]; then
  echo "=== tier-1: ASan leg skipped (MCE_SKIP_ASAN=1) ==="
else
  # ASan leg: the graph, kernel + decomposition subset under
  # AddressSanitizer and UndefinedBehaviorSanitizer (fatal on the first
  # report), with libstdc++ assertions, and with -O2 -g in place of the
  # default RelWithDebInfo flags so NDEBUG is off and every MCE_DCHECK runs
  # (Graph::FromSortedCsr then validates each CSR it adopts). The pooled
  # kernels recycle grow-only buffers across blocks and recursion depths,
  # and the block builder indexes flat per-level arrays by parent id —
  # exactly the patterns where an out-of-bounds write or a stale-span read
  # would otherwise go unnoticed. exec_test and obs_test cover the run
  # reporter, which holds each level's spans until the pooled engine
  # delivers the level.
  asan_build="$build-asan"
  echo "=== tier-1: ASan+UBSan+DCHECK build ($asan_build) ==="
  cmake -B "$asan_build" -S "$repo" \
    -DMCE_SANITIZE=address,undefined \
    -DCMAKE_CXX_FLAGS="-fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS" \
    -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" \
    -DMCE_BUILD_BENCH=OFF \
    -DMCE_BUILD_EXAMPLES=OFF
  cmake --build "$asan_build" -j "$(nproc)" \
    --target graph_test mce_algorithms_test mce_alloc_test decomp_test \
             reduce_test exec_test obs_test mce_cli mce_convert

  echo "=== tier-1: ASan run (graph_test, mce_algorithms_test," \
       "mce_alloc_test, decomp_test, reduce_test, exec_test, obs_test) ==="
  ctest --test-dir "$asan_build" --output-on-failure -j "$(nproc)" \
    -R '^(graph_test|mce_algorithms_test|mce_alloc_test|decomp_test|reduce_test|exec_test|obs_test)$'

  # Budgeted out-of-core leg: generate → convert to MCECSR02 → enumerate
  # the mmapped graph under a deliberately tiny memory budget with sinks
  # spilling, all under ASan (the mmap spans, spill chunk files, and the
  # blocks analyzed inline on a decompose worker are exactly where a
  # lifetime bug would hide), and require the clique count to match the
  # unbudgeted heap run. The budget is checked once per block, at
  # emission, and no task waits on it, so it holds at every pool size and
  # with a block observer attached (--executor cluster): each budgeted run
  # must peak within 1.5x of the pooled@4 run, which a pool that charged
  # blocks past the budget without analyzing them would not.
  echo "=== tier-1: ASan budgeted out-of-core leg ==="
  oocore_dir="$(mktemp -d)"
  "$asan_build/tools/mce_cli" generate --model facebook --scale 0.02 \
    --output "$oocore_dir/fb.txt" >/dev/null
  "$asan_build/tools/mce_convert" --input "$oocore_dir/fb.txt" \
    --output "$oocore_dir/fb.mcsr" --verify >/dev/null
  "$asan_build/tools/mce_cli" enumerate \
    --input "$oocore_dir/fb.txt" --executor pooled --threads 4 \
    --json true >"$oocore_dir/baseline.json"
  budgeted_runs=(pooled@4 cluster@4 pooled@1 pooled@2 cluster@2)
  for run in "${budgeted_runs[@]}"; do
    "$asan_build/tools/mce_cli" enumerate \
      --input "$oocore_dir/fb.mcsr" --mmap-graph true \
      --executor "${run%@*}" --threads "${run#*@}" --memory-budget 64K \
      --spill-dir "$oocore_dir" --json true \
      >"$oocore_dir/budgeted_$run.json"
  done
  python3 - "$oocore_dir" "${budgeted_runs[@]}" <<'EOF' || { rm -rf "$oocore_dir"; exit 1; }
import json, sys
work, runs = sys.argv[1], sys.argv[2:]
want = json.load(open(f"{work}/baseline.json"))["total_cliques"]
peaks = {}
for run in runs:
    report = json.load(open(f"{work}/budgeted_{run}.json"))
    if report["total_cliques"] != want:
        sys.exit(f"budgeted out-of-core {run} run diverged: "
                 f"{report['total_cliques']} cliques vs {want} unbudgeted")
    peaks[run] = report["memory"]["peak_tracked_bytes"]
reference = peaks["pooled@4"]
for run, peak in peaks.items():
    if peak > 1.5 * reference:
        sys.exit(f"budgeted {run} run peaked at {peak} tracked bytes, "
                 f"over 1.5x the pooled@4 run's {reference}")
print(f"budgeted runs matched: {want} cliques; peak tracked bytes "
      + ", ".join(f"{run} {peak}" for run, peak in peaks.items()))
EOF

  # Deep unbudgeted leg: the same input at m 20 with the reduction prepass
  # runs eight levels, each hub level checking its cliques on Lemma-1
  # bitset rows (the last one the m-core fallback), and with no spill
  # threshold its sinks charge per 4 KiB and settle when their tasks end,
  # all under the sanitizers. Pooled@4 must write the serial walk's file.
  echo "=== tier-1: ASan deep unbudgeted leg ==="
  for run in pooled@4 serial@1; do
    "$asan_build/tools/mce_cli" enumerate --input "$oocore_dir/fb.txt" \
      --m 20 --reduce true --executor "${run%@*}" --threads "${run#*@}" \
      --output "$oocore_dir/deep_$run.txt" >/dev/null
  done
  if ! cmp "$oocore_dir/deep_pooled@4.txt" "$oocore_dir/deep_serial@1.txt"; then
    echo "deep unbudgeted pooled@4 output differs from serial" >&2
    rm -rf "$oocore_dir"
    exit 1
  fi
  echo "deep unbudgeted runs wrote identical output:" \
       "$(wc -l <"$oocore_dir/deep_serial@1.txt") lines"

  # Cross-emission-order check: the default m without the reduction
  # emits the same clique set in another order, so this run and the deep
  # one share only the collector that orders the result. Its file must
  # equal the deep serial run's, one strictly increasing tuple of
  # strictly increasing ids per line.
  "$asan_build/tools/mce_cli" enumerate --input "$oocore_dir/fb.txt" \
    --reduce false --executor pooled --threads 4 \
    --output "$oocore_dir/shallow_pooled@4.txt" >/dev/null
  if ! cmp "$oocore_dir/shallow_pooled@4.txt" \
           "$oocore_dir/deep_serial@1.txt"; then
    echo "default-m pooled@4 output differs from the deep serial run" >&2
    rm -rf "$oocore_dir"
    exit 1
  fi
  python3 - "$oocore_dir/shallow_pooled@4.txt" <<'EOF' || { rm -rf "$oocore_dir"; exit 1; }
import sys
previous = None
lines = 0
for lines, line in enumerate(open(sys.argv[1]), 1):
    clique = tuple(int(v) for v in line.split())
    if any(a >= b for a, b in zip(clique, clique[1:])):
        sys.exit(f"line {lines}: ids not strictly increasing: {line!r}")
    if previous is not None and clique <= previous:
        sys.exit(f"line {lines}: not after the line before it: {line!r}")
    previous = clique
if lines == 0:
    sys.exit("default-m pooled@4 output is empty")
print(f"default-m pooled@4 output matched the deep run: {lines} lines, "
      "strictly increasing")
EOF
  rm -rf "$oocore_dir"
fi

# Trace leg: run the CLI on a small social graph with tracing on and
# validate the exported Chrome trace (well-formed JSON, monotonic
# per-lane timestamps, balanced B/E pairs, all task kinds present). The
# Lemma-1 filter runs inside the BlockTasks, so its exported counters are
# checked against the same run's report: every hub-level clique checked
# once, the survivors exactly the emitted hub cliques. Every block is one
# pool task: each level's BlockTask spans number its --json blocks, at the
# default and at --max-block-cost 1 (which batches nothing), and no
# partial-block span appears.
echo "=== tier-1: trace validation ==="
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
"$build/tools/mce_cli" generate --model facebook --scale 0.02 \
  --output "$trace_dir/fb.txt" >/dev/null
"$build/tools/mce_cli" enumerate --input "$trace_dir/fb.txt" \
  --executor pooled --threads 4 \
  --trace-out="$trace_dir/trace.json" \
  --metrics-out="$trace_dir/metrics.json" \
  --json true >"$trace_dir/report_trace.json"
"$build/tools/trace_check" "$trace_dir/trace.json" \
  --require DecomposeTask,BlockTask,idle
"$build/tools/mce_cli" enumerate --input "$trace_dir/fb.txt" \
  --executor pooled --threads 4 --max-block-cost 1 \
  --trace-out="$trace_dir/trace_cost1.json" \
  --json true >"$trace_dir/report_cost1.json"
python3 - "$trace_dir/report_trace.json" "$trace_dir/metrics.json" \
  "$trace_dir/trace.json" "$trace_dir/report_cost1.json" \
  "$trace_dir/trace_cost1.json" <<'EOF'
import json, sys
from collections import Counter
for report_path, trace_path in ((sys.argv[1], sys.argv[3]),
                                (sys.argv[4], sys.argv[5])):
    events = json.load(open(trace_path))["traceEvents"]
    if any(e.get("name") == "BlockShardTask" for e in events):
        sys.exit(f"{trace_path}: a BlockShardTask span; every block must "
                 f"be one task")
    spans = Counter(e["args"]["level"] for e in events
                    if e.get("name") == "BlockTask" and e.get("ph") == "B")
    levels = json.load(open(report_path))["levels"]
    want = {l: level["blocks"] for l, level in enumerate(levels)
            if level["blocks"] > 0}
    if dict(spans) != want:
        sys.exit(f"{trace_path}: BlockTask spans per level {dict(spans)}, "
                 f"want --json blocks {want}")
    print(f"{trace_path}: {sum(spans.values())} BlockTask spans = "
          f"{sum(want.values())} blocks")
report = json.load(open(sys.argv[1]))
counters = json.load(open(sys.argv[2]))["counters"]
checked = counters.get("exec.filter_cliques_checked", 0)
kept = counters.get("exec.filter_cliques_kept", 0)
hub_level_cliques = sum(level["cliques"] for level in report["levels"][1:])
if report["hub_cliques"] <= 0:
    sys.exit("trace leg input emitted no hub cliques; the Lemma-1 filter "
             "went unexercised")
if checked != hub_level_cliques:
    sys.exit(f"exec.filter_cliques_checked {checked}, want the report's "
             f"hub-level cliques {hub_level_cliques}")
if kept != report["hub_cliques"]:
    sys.exit(f"exec.filter_cliques_kept {kept}, want the report's "
             f"hub_cliques {report['hub_cliques']}")
print(f"filter counters match the report: {checked} checked, {kept} kept")
EOF

# Heartbeat + perf-diff leg: enumerate the same graph with NDJSON
# heartbeats on, on both executors, and validate the streams (monotone
# seq/ts/completed_cost, final record at fraction 1.0). The final record
# is written after the run returns, and must carry the finished run's
# memory: its mem_peak the --json memory.peak_tracked_bytes, its
# mem_charged 0. Then diff the two back-to-back serial --json reports with
# mce_perf_diff — identical-work runs must come back "ok" — and check the
# gate actually trips by injecting a 3x wall-time regression into a copy
# of the report.
echo "=== tier-1: heartbeat + perf-diff validation ==="
"$build/tools/mce_cli" enumerate --input "$trace_dir/fb.txt" \
  --executor serial \
  --heartbeat-out="$trace_dir/hb_serial.ndjson" \
  --heartbeat-interval-ms 20 \
  --json true >"$trace_dir/report_a.json"
"$build/tools/trace_check" --heartbeat "$trace_dir/hb_serial.ndjson"
"$build/tools/mce_cli" enumerate --input "$trace_dir/fb.txt" \
  --executor pooled --threads 4 \
  --heartbeat-out="$trace_dir/hb_pooled.ndjson" \
  --heartbeat-interval-ms 20 \
  --json true >"$trace_dir/report_hb_pooled.json"
"$build/tools/trace_check" --heartbeat "$trace_dir/hb_pooled.ndjson"
python3 - "$trace_dir" <<'EOF'
import json, sys
work = sys.argv[1]
for run, report in (("serial", "report_a.json"),
                    ("pooled", "report_hb_pooled.json")):
    peak = json.load(open(f"{work}/{report}"))["memory"]["peak_tracked_bytes"]
    final = json.loads(open(f"{work}/hb_{run}.ndjson").read().splitlines()[-1])
    if peak <= 0 or final["mem_peak"] != peak or final["mem_charged"] != 0:
        sys.exit(f"{run} final heartbeat mem_peak {final['mem_peak']}, "
                 f"mem_charged {final['mem_charged']}; want the --json "
                 f"peak_tracked_bytes {peak} (> 0) and 0")
    print(f"{run} final heartbeat carries the run's memory: mem_peak {peak}")
EOF
"$build/tools/mce_cli" enumerate --input "$trace_dir/fb.txt" \
  --executor serial --json true >"$trace_dir/report_b.json"
"$build/tools/mce_perf_diff" "$trace_dir/report_a.json" \
  "$trace_dir/report_b.json" --threshold wall_seconds=2.0 \
  --threshold ns_per_clique=2.0 --threshold utilization=0.5
python3 - "$trace_dir/report_a.json" "$trace_dir/report_slow.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
report["wall_seconds"] *= 3.0
json.dump(report, open(sys.argv[2], "w"))
EOF
if "$build/tools/mce_perf_diff" "$trace_dir/report_a.json" \
    "$trace_dir/report_slow.json" >/dev/null; then
  echo "mce_perf_diff missed an injected 3x wall-time regression" >&2
  exit 1
fi
echo "perf-diff gate trips on injected regression: ok"

# Profiling leg: a pooled run with --perf-counters must export counter
# args that trace_check validates, reconstruct into a critical path that
# explains the wall clock (mce_trace_analyze --require-critical-path),
# and report per-kind / per-level attribution that sums exactly to the
# recorded totals. The sums are checked on pooled, serial, pooled
# --reduce and budgeted pooled runs; both executors must count the same
# cliques (each clique once, at the span that enumerated it), and the
# analyzer's tables over a trace must equal the --json profile of the same
# run. The analyzer's level table is the fold the executors run live, so
# on each of the four runs it must equal the run's --json "levels". The
# budgeted run (--memory-budget 64K) analyzes blocks inline on the
# decompose workers: each such BlockTask span, wrapped by its
# AdmissionStall span, nests inside a pooled DecomposeTask span. Its spill
# flushes and stalls are counted once, by the run reporter, so the
# budgeted run's metrics, final heartbeat and --json memory object must
# agree on them. The same binary must degrade cleanly to the software
# clock when perf_event_open is unavailable (MCE_FORCE_NO_PERF=1).
echo "=== tier-1: profiling + critical-path validation ==="
"$build/tools/mce_cli" enumerate --input "$trace_dir/fb.txt" \
  --executor pooled --threads 4 --perf-counters true \
  --trace-out="$trace_dir/trace_prof.json" \
  --json true >"$trace_dir/report_prof.json"
"$build/tools/trace_check" "$trace_dir/trace_prof.json" \
  --require DecomposeTask,BlockTask --require-counters
"$build/tools/mce_trace_analyze" "$trace_dir/trace_prof.json" \
  --require-critical-path >"$trace_dir/analyze_prof.txt"
"$build/tools/mce_cli" enumerate --input "$trace_dir/fb.txt" \
  --executor serial --perf-counters true \
  --trace-out="$trace_dir/trace_prof_serial.json" \
  --json true >"$trace_dir/report_prof_serial.json"
"$build/tools/mce_trace_analyze" "$trace_dir/trace_prof_serial.json" \
  >"$trace_dir/analyze_prof_serial.txt"
"$build/tools/mce_cli" enumerate --input "$trace_dir/fb.txt" \
  --executor pooled --threads 4 --reduce true --perf-counters true \
  --trace-out="$trace_dir/trace_prof_reduce.json" \
  --json true >"$trace_dir/report_prof_reduce.json"
"$build/tools/mce_trace_analyze" "$trace_dir/trace_prof_reduce.json" \
  >"$trace_dir/analyze_prof_reduce.txt"
"$build/tools/mce_cli" enumerate --input "$trace_dir/fb.txt" \
  --executor pooled --threads 4 --memory-budget 64K \
  --spill-dir "$trace_dir" --perf-counters true \
  --trace-out="$trace_dir/trace_prof_budget.json" \
  --metrics-out="$trace_dir/metrics_budget.json" \
  --heartbeat-out="$trace_dir/hb_budget.ndjson" \
  --heartbeat-interval-ms 20 \
  --json true >"$trace_dir/report_prof_budget.json"
"$build/tools/trace_check" "$trace_dir/trace_prof_budget.json" \
  --require DecomposeTask,BlockTask,AdmissionStall --require-counters
"$build/tools/trace_check" --heartbeat "$trace_dir/hb_budget.ndjson"
python3 - "$trace_dir/report_prof_budget.json" \
  "$trace_dir/metrics_budget.json" "$trace_dir/hb_budget.ndjson" <<'EOF'
import json, sys
memory = json.load(open(sys.argv[1]))["memory"]
counters = json.load(open(sys.argv[2]))["counters"]
final = json.loads(open(sys.argv[3]).read().splitlines()[-1])
for key in ("spill_chunks", "spill_bytes"):
    seen = {"--json memory": memory[key],
            "mem." + key: counters.get("mem." + key, 0),
            "final heartbeat": final[key]}
    if len(set(seen.values())) != 1 or memory[key] == 0:
        sys.exit(f"budgeted run {key} must be equal and non-zero: {seen}")
stalls = counters.get("mem.admission_stalls", 0)
if stalls != memory["admission_stalls"]:
    sys.exit(f"mem.admission_stalls {stalls}, --json memory.admission_stalls "
             f"{memory['admission_stalls']}")
print(f"budgeted run counts each spill flush once: {memory['spill_chunks']} "
      f"chunks, {memory['spill_bytes']} bytes; {stalls} admission stalls")
EOF
"$build/tools/mce_trace_analyze" "$trace_dir/trace_prof_budget.json" \
  >"$trace_dir/analyze_prof_budget.txt"
python3 - "$trace_dir/report_prof.json" "$trace_dir/report_prof_serial.json" \
  "$trace_dir/report_prof_reduce.json" \
  "$trace_dir/analyze_prof_reduce.txt" "$trace_dir/analyze_prof.txt" \
  "$trace_dir/analyze_prof_serial.txt" "$trace_dir/report_prof_budget.json" \
  "$trace_dir/analyze_prof_budget.txt" <<'EOF'
import json, re, sys
pooled, serial, reduced, analyzed = sys.argv[1:5]
analyzed_pooled, analyzed_serial = sys.argv[5:7]
budgeted, analyzed_budgeted = sys.argv[7:9]
profiles = {}
for path in (pooled, serial, reduced, budgeted):
    profile = json.load(open(path))["profile"]
    profiles[path] = profile
    if not profile["enabled"]:
        sys.exit(f"{path}: profile.enabled is false on a --perf-counters run")
    total = profile["total"]
    # by_level leaves out the ReduceTask bucket: the prepass runs outside
    # the recursion.
    reduce_bucket = profile["by_kind"].get("ReduceTask")
    for part in ("by_kind", "by_level"):
        if part == "by_kind":
            buckets = profile[part].values()
        else:
            buckets = profile[part]
        for key in ("spans", "cycles", "instructions", "task_clock_ns",
                    "cliques"):
            want = total[key]
            if part == "by_level" and reduce_bucket is not None:
                want -= reduce_bucket[key]
            got = sum(b[key] for b in buckets)
            if got != want:
                sys.exit(f"{path}: profile.{part} {key} sums to {got}, "
                         f"want {want}")
if "ReduceTask" not in profiles[reduced]["by_kind"]:
    sys.exit(f"{reduced}: no ReduceTask bucket on a --reduce run")
pooled_cliques = profiles[pooled]["total"]["cliques"]
serial_cliques = profiles[serial]["total"]["cliques"]
if pooled_cliques != serial_cliques:
    sys.exit(f"profile.total.cliques: pooled {pooled_cliques}, "
             f"serial {serial_cliques}")
print("profile attribution sums match recorded totals; serial and pooled "
      f"count {serial_cliques} cliques")
# The analyzer folds the trace the way the engines fold it live, so its
# per-kind and per-level rows equal the run's --json profile.
rows = {}
for line in open(analyzed):
    m = re.match(r"  (\S+(?: \d+)?)\s+(\d+)\s+([0-9.]+)s\s+(\d+)\s", line)
    if m:
        rows[m.group(1)] = (int(m.group(2)), float(m.group(3)),
                            int(m.group(4)))
profile = profiles[reduced]
want = {"total": profile["total"]}
want.update(profile["by_kind"])
want.update({f"level {i}": b for i, b in enumerate(profile["by_level"])})
for name, bucket in want.items():
    if name not in rows:
        sys.exit(f"mce_trace_analyze printed no '{name}' row")
    spans, seconds, cliques = rows[name]
    # The analyzer prints seconds to 4 decimals.
    if (spans, cliques) != (bucket["spans"], bucket["cliques"]) or \
            abs(seconds - bucket["seconds"]) > 6e-5:
        sys.exit(f"mce_trace_analyze '{name}': {rows[name]}, --json "
                 f"{bucket['spans']} spans {bucket['seconds']}s "
                 f"{bucket['cliques']} cliques")
print(f"mce_trace_analyze tables match the --json profile ({len(want)} rows)")
# The level table: one row per level under a header of --json "levels"
# keys, times in seconds to 6 decimals.
def level_table(path):
    lines = open(path).read().splitlines()
    start = next((i for i, line in enumerate(lines)
                  if line.startswith("level stats")), None)
    if start is None:
        sys.exit(f"{path}: mce_trace_analyze printed no level stats table")
    header = lines[start + 1].split()
    rows = []
    for line in lines[start + 2:]:
        if not line.strip():
            break
        rows.append(dict(zip(header, line.split())))
    return header, rows
for report_path, table_path in ((pooled, analyzed_pooled),
                                (serial, analyzed_serial),
                                (reduced, analyzed),
                                (budgeted, analyzed_budgeted)):
    levels = json.load(open(report_path))["levels"]
    header, rows = level_table(table_path)
    if len(rows) != len(levels):
        sys.exit(f"{table_path}: {len(rows)} level rows, --json has "
                 f"{len(levels)} levels")
    for i, (row, level) in enumerate(zip(rows, levels)):
        for key in header[1:]:
            got, want = row[key], level[key]
            if key.endswith("_seconds"):
                ok = abs(float(got) - want) <= 1e-6
            else:
                ok = int(got) == want
            if not ok:
                sys.exit(f"{table_path} level {i} {key}: analyzer {got}, "
                         f"--json {want}")
    if report_path == serial and any(
            level["barrier_idle_seconds"] != 0 for level in levels):
        sys.exit(f"{report_path}: serial run reports barrier idle")
print("mce_trace_analyze level tables match the --json levels "
      "(pooled, serial, pooled --reduce, pooled --memory-budget)")
EOF
software_hw="$(MCE_FORCE_NO_PERF=1 "$build/tools/mce_cli" enumerate \
  --input "$trace_dir/fb.txt" --executor pooled --threads 4 \
  --perf-counters true --json true | python3 -c \
  'import json,sys; p=json.load(sys.stdin)["profile"]; \
print("enabled" if p["enabled"] else "off", \
"hw" if p["hardware"] else "sw")')"
if [[ "$software_hw" != "enabled sw" ]]; then
  echo "MCE_FORCE_NO_PERF run reported '$software_hw'," \
       "want 'enabled sw' (software-clock attribution)" >&2
  exit 1
fi
echo "software-clock fallback degrades cleanly: ok"

# Perfbench leg: the benchmark of record (perfbench/) is its own CMake
# package built from src/, so a library API change that breaks it would
# otherwise surface only when the benchmark runs. Build it as the
# benchmark does (Release) and run its selftest: digests, the Eppstein
# oracle, and the outside-in walk on small inputs.
perf_build="$build-perfbench"
echo "=== tier-1: perfbench build + selftest ($perf_build) ==="
cmake -B "$perf_build" -S "$repo/perfbench" -DCMAKE_BUILD_TYPE=Release
cmake --build "$perf_build" -j "$(nproc)" --target mce_bench
"$perf_build/mce_bench" selftest --dir "$trace_dir/perfbench"

echo "=== tier-1: OK ==="
