#!/usr/bin/env bash
# Runs the baseline benchmarks and records the results at the repo root:
#   BENCH_kernel.json   — kernel allocation/throughput micro-benchmark:
#                         per storage backend, ns/clique for the legacy
#                         (per-call allocating) and pooled (workspace-
#                         reusing) kernels on a dense block, allocation
#                         counts, and peak RSS.
#   BENCH_pipeline.json — execution-engine benchmark: wall seconds, worker
#                         utilization, and cross-level decompose/analyze
#                         overlap for the serial engine and the pooled
#                         engine at 2/4/8 threads, plus the tracing
#                         overhead guard (observability sinks off vs on).
#
# Usage: scripts/bench_baseline.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"

cmake -B "$build" -S "$repo"
cmake --build "$build" -j "$(nproc)" --target bench_kernel_alloc bench_pipeline

"$build/bench/bench_kernel_alloc" --json "$repo/BENCH_kernel.json"
echo "wrote $repo/BENCH_kernel.json"

"$build/bench/bench_pipeline" --json "$repo/BENCH_pipeline.json"
echo "wrote $repo/BENCH_pipeline.json"
