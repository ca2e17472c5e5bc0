#!/usr/bin/env bash
# Out-of-core execution benchmark (DESIGN.md §11). Records at the repo
# root:
#   BENCH_oocore.json — on a social-network stand-in, for each of
#                       {heap, mmap} input storage x {resident,
#                       budget+spill} execution: wall seconds, emitted
#                       cliques, peak tracked bytes, spill chunk/byte
#                       counts, and admission stalls. The budgeted legs
#                       set --memory-budget to ~60% of the measured
#                       resident peak, so the run demonstrates tracked
#                       peak staying *under* a budget smaller than the
#                       unconstrained working set.
#
# Usage: scripts/bench_oocore.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"

cmake -B "$build" -S "$repo" >/dev/null
cmake --build "$build" -j "$(nproc)" --target mce_cli mce_convert >/dev/null

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

cli="$build/tools/mce_cli"
"$cli" generate --model facebook --scale 0.2 --output "$work/fb.txt" \
  >/dev/null
"$build/tools/mce_convert" --input "$work/fb.txt" \
  --output "$work/fb.mcsr" --verify >/dev/null

# run NAME INPUT EXTRA_FLAGS... — enumerate once, keep the JSON report
# and the measured wall time in $work/NAME.json / $work/NAME.wall.
run() {
  local name="$1" input="$2"
  shift 2
  local t0 t1
  t0="$(python3 -c 'import time; print(time.monotonic())')"
  "$cli" enumerate --input "$input" --executor pooled --threads 4 \
    --json true "$@" >"$work/$name.json"
  t1="$(python3 -c 'import time; print(time.monotonic())')"
  python3 -c "print($t1 - $t0)" >"$work/$name.wall"
}

# Resident baselines: heap parse vs mmap of the converted binary.
run heap_resident "$work/fb.txt"
run mmap_resident "$work/fb.mcsr" --mmap-graph true

# Budget = 60% of the resident run's tracked peak: small enough that
# spilling must engage and some blocks are analyzed on the decompose
# worker instead of the pool (admission stalls), large enough to fit the
# biggest single block.
peak="$(python3 -c \
  "import json; print(json.load(open('$work/heap_resident.json'))['memory']['peak_tracked_bytes'])")"
budget=$((peak * 60 / 100))

run heap_spill "$work/fb.txt" \
  --memory-budget "$budget" --spill-dir "$work"
run mmap_spill "$work/fb.mcsr" --mmap-graph true \
  --memory-budget "$budget" --spill-dir "$work"

python3 - "$work" "$repo/BENCH_oocore.json" "$budget" <<'EOF'
import json
import sys

work, out_path, budget = sys.argv[1], sys.argv[2], int(sys.argv[3])
legs = {}
cliques = set()
for name in ("heap_resident", "mmap_resident", "heap_spill", "mmap_spill"):
    report = json.load(open(f"{work}/{name}.json"))
    wall = float(open(f"{work}/{name}.wall").read())
    cliques.add(report["total_cliques"])
    legs[name] = {
        "wall_seconds": wall,
        "total_cliques": report["total_cliques"],
        "memory": report["memory"],
    }

for name in ("heap_spill", "mmap_spill"):
    mem = legs[name]["memory"]
    if mem["peak_tracked_bytes"] > mem["budget_bytes"]:
        sys.exit(f"{name}: tracked peak {mem['peak_tracked_bytes']} "
                 f"exceeded budget {mem['budget_bytes']}")
if len(cliques) != 1:
    sys.exit(f"clique totals diverged across legs: {sorted(cliques)}")

doc = {
    "benchmark": "oocore",
    "workload": "facebook stand-in, scale 0.2, pooled x4",
    "budget_bytes": budget,
    "budget_rule": "60% of heap_resident peak_tracked_bytes",
    "legs": legs,
}
json.dump(doc, open(out_path, "w"), indent=2)
print(f"wrote {out_path}")
for name, leg in legs.items():
    mem = leg["memory"]
    print(f"  {name:13s} wall={leg['wall_seconds']:.3f}s "
          f"peak={mem['peak_tracked_bytes']} "
          f"spill_chunks={mem['spill_chunks']} "
          f"stalls={mem['admission_stalls']}")
EOF
