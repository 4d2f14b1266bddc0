#!/usr/bin/env python3
"""Self-test of the benchmark on tiny grids (about a minute).

From the repository root:

  python3 perfbench/selftest.py

Checks that
  * every metric BENCHMARK.json names is emitted, with its unit, on every
    workload (end-to-end with --trace 0, per-layer with --trace 1);
  * `events` and the model outputs are identical at 1 and 4 threads;
  * the traced run's model outputs are byte-identical to the untraced
    run's (perfbench compares them on every traced pass).
Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, trace, threads=0):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
           "--threads", str(threads), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("FAIL: %s exited with %d" % (" ".join(cmd),
                                                        proc.returncode))
    lines = proc.stdout.strip().splitlines()
    anchor = next(json.loads(l[len("anchor "):]) for l in lines
                  if l.startswith("anchor "))
    return json.loads(lines[-1]), anchor


def check(condition, message):
    if not condition:
        raise SystemExit("FAIL: " + message)
    print("ok   " + message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run(workload, trace)
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] > 0,
                  "%s --trace %d: outputs verified (%d cells)" % (
                      workload, trace, result["attempted"]))
            emitted = result["metrics"]
            for m in spec[group]:
                got = emitted.get(m["name"], {})
                check(got.get("unit") == m["unit"] and
                      isinstance(got.get("value"), (int, float)),
                      "%s --trace %d: %s emitted in %s" % (
                          workload, trace, m["name"], m["unit"]))
            check(set(emitted) == {m["name"] for m in spec[group]},
                  "%s --trace %d: no undeclared metric" % (workload, trace))
    for workload in ("fig02_serial", "fig12_parallel"):
        one, anchor_one = run(workload, 0, threads=1)
        four, anchor_four = run(workload, 0, threads=4)
        check(one["metrics"]["events"] == four["metrics"]["events"],
              "%s: events identical at 1 and 4 threads (%d)" % (
                  workload, one["metrics"]["events"]["value"]))
        check(anchor_one == anchor_four,
              "%s: model outputs identical at 1 and 4 threads" % workload)
    print("selftest passed")


if __name__ == "__main__":
    main()
