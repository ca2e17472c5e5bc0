#!/usr/bin/env bash
# Alternating-pairs comparison of the benchmark of record (perfbench/)
# between a revision and the working tree.
#
# Usage: scripts/perf_pairs.sh REV [PAIRS] [SEED] [WORKLOAD...]
#   REV       the base revision (a commit, branch or tag), usually the
#             parent of the change under test
#   PAIRS     pairs of runs per workload (default 10)
#   SEED      perfbench workload seed (default 1)
#   WORKLOAD  the workloads to run (default: every BENCHMARK.json workload)
#
# REV is checked out into a temporary git worktree outside the repository,
# removed on exit. Each pair runs
#   python3 perfbench/run.py --workload W --seed S --seconds 14 --trace 0
# once in REV's tree and once in the working tree, the side that runs first
# alternating from pair to pair. Each tree builds its own perfbench binary
# (into its .bench_build/, which is git-ignored), so the first run of each
# side includes a build; nothing tracked is written.
#
# For each workload and end-to-end metric of BENCHMARK.json the summary
# prints both medians, REV's quartiles, the pairs the working tree won
# (ties count for neither side), and one verdict:
#   gain        won >= 9/10 of the pairs and the medians differ by more
#               than REV's interquartile range
#   unresolved  REV's interquartile range exceeds the metric's bound (a
#               share of REV's median), unless every working-tree run beat
#               every REV run
#   worse       the working tree's median is worse than REV's by more than
#               the bound
#   within      within the bound
# Failed operations are reported per side from run.py's own counts.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  sed -n '5,10p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
rev="$1"
pairs="${2:-10}"
seed="${3:-1}"
shift $(( $# < 3 ? $# : 3 ))

repo="$(cd "$(dirname "$0")/.." && pwd)"
if [[ $# -gt 0 ]]; then
  workloads=("$@")
else
  mapfile -t workloads < <(python3 -c \
    'import json,sys; [print(w["name"]) for w in json.load(open(sys.argv[1]))["workloads"]]' \
    "$repo/BENCHMARK.json")
fi

work="$(mktemp -d)"
base="$work/base"
cleanup() {
  git -C "$repo" worktree remove --force "$base" >/dev/null 2>&1 || true
  git -C "$repo" worktree prune >/dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT
git -C "$repo" worktree add --detach "$base" "$rev" >/dev/null

# run SIDE TREE WORKLOAD PAIR: one run.py pass, its last stdout line kept.
run() {
  local side="$1" tree="$2" workload="$3" pair="$4"
  local out="$work/results/$workload/$side-$pair.json"
  mkdir -p "$(dirname "$out")"
  echo "[$(date +%T)] $workload pair $pair: $side" >&2
  if ! (cd "$tree" && python3 perfbench/run.py --workload "$workload" \
          --seed "$seed" --seconds 14 --trace 0) | tail -n 1 >"$out"; then
    echo "$workload pair $pair: run.py failed in $side" >&2
  fi
}

for workload in "${workloads[@]}"; do
  for (( i = 0; i < pairs; i++ )); do
    if (( i % 2 == 0 )); then
      run base "$base" "$workload" "$i"
      run tree "$repo" "$workload" "$i"
    else
      run tree "$repo" "$workload" "$i"
      run base "$base" "$workload" "$i"
    fi
  done
done

python3 - "$repo/BENCHMARK.json" "$work/results" "$rev" "$pairs" "$seed" \
  "${workloads[@]}" <<'EOF'
import json, os, statistics, sys

spec_path, results, rev, pairs, seed = sys.argv[1:6]
pairs = int(pairs)
workloads = sys.argv[6:]
metrics = json.load(open(spec_path))["end_to_end"]


def load(path):
    try:
        with open(path) as f:
            return json.loads(f.read().strip().splitlines()[-1])
    except (OSError, ValueError, IndexError):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


for workload in workloads:
    runs = {side: [load(os.path.join(results, workload, f"{side}-{i}.json"))
                   for i in range(pairs)] for side in ("base", "tree")}
    failed = {side: (sum(r.get("failed", 1) for r in rs),
                     sum(r.get("attempted", 1) for r in rs))
              for side, rs in runs.items()}
    print(f"\n{workload} (seed {seed}, {pairs} pairs): failed operations "
          f"{rev} {failed['base'][0]}/{failed['base'][1]}, working tree "
          f"{failed['tree'][0]}/{failed['tree'][1]}")
    print(f"  {'metric':16s} {rev[:12] + ' median':>20s} {'[q1, q3]':>22s} "
          f"{'tree median':>12s} {'change':>8s} {'won':>6s}  verdict")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        sign = 1 if m["better"] == "lower" else -1
        both = [(b["metrics"][name]["value"], t["metrics"][name]["value"])
                for b, t in zip(runs["base"], runs["tree"])
                if name in b.get("metrics", {})
                and name in t.get("metrics", {})]
        if not both:
            print(f"  {name:16s} not measured")
            continue
        base = [b for b, _ in both]
        tree = [t for _, t in both]
        base_median = statistics.median(base)
        tree_median = statistics.median(tree)
        q1, q3 = quartiles(base)
        iqr = q3 - q1
        won = sum(1 for b, t in both if sign * (t - b) < 0)
        # Positive when the working tree is worse, as a share of REV.
        worse_share = (sign * (tree_median - base_median) / base_median
                       if base_median else 0.0)
        all_better = all(sign * (t - b) < 0 for t in tree for b in base)
        # A pair with a failed or missing run counts as lost.
        if (won * 10 >= 9 * pairs and
                sign * (base_median - tree_median) > iqr):
            verdict = "gain"
        elif base_median and iqr / base_median > bound and not all_better:
            verdict = (f"unresolved (IQR {100 * iqr / base_median:.0f}% > "
                       f"bound {100 * bound:.0f}%)")
        elif worse_share > bound:
            verdict = f"worse (bound {100 * bound:.0f}%)"
        else:
            verdict = f"within bound {100 * bound:.0f}%"
        change = (100 * (tree_median - base_median) / base_median
                  if base_median else 0.0)
        print(f"  {name:16s} {base_median:20.4g} "
              f"{f'[{q1:.4g}, {q3:.4g}]':>22s} {tree_median:12.4g} "
              f"{change:+7.1f}% {won:>3d}/{pairs:<2d}  {verdict}")
EOF
