#!/usr/bin/env python3
"""Runs one granulock benchmark workload and prints its metrics.

From the repository root:

  python3 perfbench/run.py --workload fig02_serial --seed 1 --seconds 25 \
      --trace 0

The first run builds perfbench/ (and the repository's libraries) into
.bench_build/perfbench with CMake. --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run. Every run checks the
program's model outputs; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. A manifest
line (build, compiler, machine) comes just before it. perfbench/README.md
describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

# Model-output reference each workload's seed-42 anchor must equal at
# tolerance 0.
WORKLOADS = {
    "fig02_serial": "bench/baselines/BENCH_fig02_quick.json",
    "fig12_parallel": "bench/baselines/BENCH_fig12_quick.json",
    "explicit_mgl": "perfbench/reference/ablation_mgl_quick.json",
    "incremental_contention":
        "bench/baselines/BENCH_policy_shootout_quick.json",
}

# Fresh-process launches per run, half before and half after the timed
# passes: launch time holds one of two modes for seconds at a time.
SETUP_LAUNCHES = 11
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Keys of a report that are wall-clock readings, not model outputs.
WALL_CLOCK_KEYS = {"wall_seconds", "events_per_sec"}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=timeout)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError("command failed: " + " ".join(cmd))


def build():
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt",
                   "bench/bench_common.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise BenchError("granulock sources missing: " + needed)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
               "-j", "4"], BUILD_TIMEOUT_S)


def perfbench(args, timeout=RUN_TIMEOUT_S):
    """Runs the perfbench binary and returns its PERFBENCH JSON record."""
    proc = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise BenchError("perfbench exited with %d" % proc.returncode)
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("PERFBENCH "):
            return json.loads(line[len("PERFBENCH "):])
    raise BenchError("perfbench printed no result")


def setup_samples(workload):
    """Launch-to-first-dispatch times of SETUP_LAUNCHES fresh processes."""
    samples = []
    for _ in range(SETUP_LAUNCHES):
        start = time.monotonic()
        record = perfbench(["--workload=" + workload, "--setup"])
        samples.append(record["ready_monotonic_s"] - start)
    return samples


def compare_reports(anchor, reference, complete):
    """Compares `anchor` with `reference` at tolerance 0. Returns the
    messages and the number of (series, point) cells that differ."""
    errors = []
    bad = set()
    for key in ("seed", "reps"):
        if anchor["params"][key] != reference["params"][key]:
            errors.append("anchor %s differs from the reference" % key)
    for key in ("lock_counts", "mpl_grid", "events_executed"):
        if key in reference and key in anchor and anchor[key] != reference[key]:
            errors.append("%s differs from the reference" % key)
    ref_points = {}
    for series in reference["series"]:
        for point in series["points"]:
            ref_points[(series["label"], point["ltot"])] = point
    seen = set()
    for series in anchor["series"]:
        for point in series["points"]:
            key = (series["label"], point["ltot"])
            seen.add(key)
            ref = ref_points.get(key)
            if ref is None:
                errors.append("%s@%s: not in the reference" % key)
                bad.add(key)
                continue
            for name, value in ref.items():
                if name not in WALL_CLOCK_KEYS and point.get(name) != value:
                    errors.append("%s@%s: %s = %r, reference %r" % (
                        key[0], key[1], name, point.get(name), value))
                    bad.add(key)
    if complete:
        for key in sorted(set(ref_points) - seen):
            errors.append("%s@%s: missing from the anchor" % key)
            bad.add(key)
    if errors and not bad:
        bad.add(None)  # a grid-level mismatch still fails one cell
    return errors, len(bad)


def git_manifest():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown", None
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
        return sha.stdout.strip(), bool(dirty.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return "unknown", None


def source_digest():
    """sha256 of the sources the benchmark builds, for git-less checkouts."""
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def manifest(record):
    sha, dirty = git_manifest()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_digest": source_digest(),
        "compiler": record["compiler"],
        "build_type": record["build_type"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "threads": record["threads"],
    }


def units(group):
    """Metric name -> unit for one group of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[group]}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(record, setup_s):
    passes = record["passes"]
    events = {p["events"] for p in passes}
    if len(events) != 1:
        raise BenchError("event counts differ between passes")
    values = {
        "setup_s": setup_s,
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
        "events": events.pop(),
    }
    unit = units("end_to_end")
    if set(values) != set(unit):
        raise BenchError("end-to-end metrics differ from BENCHMARK.json")
    return {name: metric(value, unit[name]) for name, value in values.items()}


def per_layer(record):
    pairs = record["pairs"]
    values = {name: statistics.median(p["layers"][name] for p in pairs)
              for name in pairs[0]["layers"]}
    untraced = statistics.median(p["untraced_s"] for p in pairs)
    traced = statistics.median(p["traced_s"] for p in pairs)
    values["host.wall_s"] = untraced
    values["obs.trace_overhead_frac"] = traced / untraced - 1.0
    unit = units("per_layer")
    if set(values) != set(unit):
        raise BenchError("per-layer metrics differ from BENCHMARK.json")
    return {name: metric(value, unit[name]) for name, value in values.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="override the workload's worker threads")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the grids and skip the reference check "
                             "(self-test only)")
    args = parser.parse_args()

    try:
        build()
        cmd = ["--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds,
               "--threads=%d" % args.threads]
        if args.trace:
            cmd += ["--trace", "--min_passes=1"]
        if args.tiny:
            cmd.append("--tiny")
        setup = [] if args.trace else setup_samples(args.workload)
        record = perfbench(cmd)
        if not args.trace:
            setup += setup_samples(args.workload)
        errors = list(record["errors"])
        failed = record["failed"]
        if not args.tiny:
            with open(os.path.join(ROOT, WORKLOADS[args.workload])) as f:
                reference = json.load(f)
            mismatches, bad_points = compare_reports(
                record["anchor"], reference, record["anchor_complete"])
            errors += mismatches
            failed += bad_points * record["anchor"]["params"]["reps"]
        metrics = per_layer(record) if args.trace else end_to_end(
            record, statistics.median(setup))
        run_manifest = manifest(record)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    for e in errors[:20]:
        log("output check: " + e)
    print("manifest " + json.dumps(run_manifest, sort_keys=True))
    if args.tiny:
        print("anchor " + json.dumps(record["anchor"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
