#!/usr/bin/env python3
"""Benchmark of record for the mce library (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload twitter1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload facebook --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --selftest

The first call builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench. Each (workload, seed) input is generated once per
build into .bench_cache/<build>/<workload>-<seed>/ together with its oracle
and guards; <build> is a hash of the mce_bench binary, because the origin
levels and the guards are computed with the library being measured. Every
metric is printed by name with its unit; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CACHE_DIR = os.path.join(ROOT, ".bench_cache")
BINARY = os.path.join(BUILD_DIR, "mce_bench")
DEFAULT_SEED = 1

# Input properties each workload must keep on every seed (metric, minimum;
# a float minimum is a share of graph.nodes). They are read from the walk,
# so no optimisation of the program can move them.
GUARDS = {
    "twitter1": [("cut.levels", 2), ("blocks.count", 1500)],
    "facebook": [("filter.checked", 10000), ("analysis.cliques", 1000000)],
    "powerlaw-oocore": [("reduce.vertices_removed", 0.5)],
}
MIN_TRACE_COVERAGE = 0.95
MIN_E2E_PROCESSES = 2
SETUP_PROCESSES_PER_E2E = 3

# Per-layer metrics the trace measures but BENCHMARK.json does not list:
# they read 0 on every workload (no workload stalls admission or exceeds
# its budget). They are printed, not reported.
UNLISTED_UNITS = {
    "memory.admission_stalls": "count",
    "memory.admission_stall_s": "s",
    "memory.over_budget_mb": "MB",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# The child running now; killed (with its process group) on SIGTERM/SIGINT.
_running = None


def _terminate(signum, frame):
    if _running is not None and _running.poll() is None:
        os.killpg(_running.pid, signal.SIGKILL)
    raise SystemExit(128 + signum)


def run_child(cmd, deadline, what, capture=True):
    """Runs cmd to completion and returns its stdout. At the deadline the
    child's whole process group (make and compilers included) is killed
    and reaped."""
    global _running
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError(f"{what}: no time left")
    pipe = subprocess.PIPE if capture else None
    with subprocess.Popen(cmd, cwd=ROOT, stdout=pipe, stderr=pipe, text=True,
                          start_new_session=True) as proc:
        _running = proc
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"{what}: timed out")
        finally:
            _running = None
    if proc.returncode != 0:
        raise RuntimeError(f"{what} exited {proc.returncode}: "
                           f"{(err or '').strip()[-2000:]}")
    return out


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def build(deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_child(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], deadline, "cmake configure")
    run_child(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
               "mce_bench"], deadline, "cmake build")


def expect_args(meta):
    return ["--expect-count", str(meta["count"]),
            "--expect-set", meta["set_digest"],
            "--expect-levels", ",".join(str(x) for x in meta["levels"]),
            "--expect-emission", meta["serial_emission"]]


def build_id():
    with open(BINARY, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def spill_dir():
    path = os.path.join(CACHE_DIR, "spill")
    os.makedirs(path, exist_ok=True)
    return path


def prepare(workload, seed, deadline):
    """Generates (once per build) and returns the cached input directory
    and meta."""
    directory = os.path.join(CACHE_DIR, build_id(), f"{workload}-{seed}")
    meta_path = os.path.join(directory, "meta.json")
    if not os.path.isfile(meta_path):
        out = run_child([BINARY, "prepare", "--workload", workload, "--seed",
                         str(seed), "--dir", directory, "--spill-dir",
                         spill_dir()], deadline, "prepare")
        meta = last_json(out)
        with open(meta_path + ".tmp", "w") as f:
            json.dump(meta, f)
        os.replace(meta_path + ".tmp", meta_path)
    with open(meta_path) as f:
        meta = json.load(f)
    if seed == DEFAULT_SEED:
        with open(os.path.join(BENCH_DIR, "oracle.json")) as f:
            recorded = json.load(f)["workloads"][workload]
        for key in ("count", "set_digest", "levels"):
            if recorded[key] != meta[key]:
                raise RuntimeError(
                    f"default-seed oracle drifted: {key} {meta[key]} != "
                    f"recorded {recorded[key]}")
    return directory, meta


def guard_failures(workload, guards):
    failures = []
    for name, minimum in GUARDS[workload]:
        need = minimum * guards["graph.nodes"] if isinstance(minimum, float) \
            else minimum
        if guards[name] < need:
            failures.append(f"guard {name} = {guards[name]} < {need:g}")
    return failures


def environment(seed, deadline):
    env = last_json(run_child([BINARY, "env"], deadline, "env"))
    env["nproc"] = len(os.sched_getaffinity(0))
    env["seed"] = seed
    try:
        with open("/proc/sys/kernel/perf_event_paranoid") as f:
            env["perf_event_paranoid"] = int(f.read().strip())
    except (OSError, ValueError):
        env["perf_event_paranoid"] = None
    return env


def end_to_end(workload, directory, meta, seconds, deadline):
    """Fresh processes, medians over all their samples: on a shared host
    timings shift by up to 30% between processes. Short setup-only
    processes and one peak-RSS process (in-process ru_maxrss only ever
    grows) run next to every e2e process, so setup_s and peak_rss_mb
    sample many processes and moments; each e2e process gets an equal
    share of the time and runs every call at least once."""
    common = ["--workload", workload, "--dir", directory]
    checked = common + ["--spill-dir", spill_dir()] + expect_args(meta)
    share = str(seconds / MIN_E2E_PROCESSES)
    samples, attempted, failed, errors = {}, 0, 0, []

    def collect(result):
        nonlocal attempted, failed, errors
        for key, values in result.items():
            if key.endswith("_samples"):
                samples.setdefault(key[:-len("_samples")] + "_s",
                                   []).extend(values)
        if "peak_rss_mb" in result:
            samples.setdefault("peak_rss_mb", []).append(result["peak_rss_mb"])
        attempted += result["attempted"]
        failed += result["failed"]
        errors += result["errors"]

    start = time.monotonic()
    processes = 0
    while processes < MIN_E2E_PROCESSES or time.monotonic() - start < seconds:
        for _ in range(SETUP_PROCESSES_PER_E2E):
            collect(last_json(run_child([BINARY, "setup"] + common, deadline,
                                        "setup")))
        collect(last_json(run_child(
            [BINARY, "e2e", "--seconds", share] + checked, deadline, "e2e")))
        collect(last_json(run_child([BINARY, "rss"] + checked, deadline,
                                    "rss")))
        processes += 1
    values = {name: statistics.median(v) for name, v in samples.items()}
    return values, attempted, failed, errors, samples


def traced(workload, seed, directory, meta, deadline):
    traces = os.path.join(CACHE_DIR, "traces")
    os.makedirs(traces, exist_ok=True)
    trace_path = os.path.join(traces, f"{workload}-{seed}.trace.json")
    out = last_json(run_child(
        [BINARY, "trace", "--workload", workload, "--dir", directory,
         "--spill-dir", spill_dir(), "--trace-out", trace_path] +
        expect_args(meta), deadline, "trace"))
    errors = out["errors"]
    failed = out["failed"]
    attempted = out["attempted"] + 1
    errors_guard = guard_failures(workload, out["guards"])
    coverage = out["metrics"]["trace.coverage"]
    if errors_guard or coverage < MIN_TRACE_COVERAGE:
        failed += 1
        errors = errors + errors_guard + (
            [f"trace.coverage {coverage:.4f} < {MIN_TRACE_COVERAGE}"]
            if coverage < MIN_TRACE_COVERAGE else [])
    log(f"chrome trace: {os.path.relpath(trace_path, ROOT)}")
    return out["metrics"], attempted, failed, errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GUARDS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-test")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    start = time.monotonic()
    building = not os.path.isfile(BINARY)
    deadline = start + (880 if building else 170)
    try:
        build(deadline)
        if args.selftest:
            run_child([BINARY, "selftest", "--dir",
                       os.path.join(CACHE_DIR, "selftest")], deadline,
                      "selftest", capture=False)
            return 0
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        directory, meta = prepare(args.workload, args.seed, deadline)
        env = environment(args.seed, deadline)
    except (RuntimeError, OSError, KeyError, ValueError) as e:
        log(f"error: {e}")
        return 1

    try:
        if args.trace:
            # The traced pass checks the guards from its own walk.
            wanted = spec["per_layer"]
            values, attempted, failed, errors = traced(
                args.workload, args.seed, directory, meta, deadline)
            samples = {}
        else:
            wanted = spec["end_to_end"]
            values, attempted, failed, errors, samples = end_to_end(
                args.workload, directory, meta, args.seconds, deadline)
            guard_errors = guard_failures(args.workload, meta["guards"])
            attempted += 1
            if guard_errors:
                failed += 1
                errors = errors + guard_errors
    except (RuntimeError, OSError, KeyError, ValueError) as e:
        log(f"error: {e}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            log(f"error: metric {m['name']} was not measured")
            failed += 1
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print(f"environment: {json.dumps(env)}")
    print(f"input: {json.dumps(meta)}")
    for name, value in samples.items():
        print(f"samples {name}: n={len(value)} min={min(value):.6g} "
              f"max={max(value):.6g}")
    for error in errors:
        print(f"FAILED: {error}")
    print(f"{'error_rate':32s} {failed / attempted:.6g} fraction "
          f"({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for name, unit in UNLISTED_UNITS.items():
        if args.trace and name in values:
            print(f"{name:32s} {values[name]:.6g} {unit} (not in BENCHMARK.json)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
