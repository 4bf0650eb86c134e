#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which pulls in the simulator library
from the repository root) into .bench_build/; later calls only rebuild
what changed. Build output goes to stderr; the benchmark's own output,
whose last line is the JSON result, goes to stdout.

--self-test runs the benchmark's checks: proxy transparency across the
machine registry (perfbench_selftest), the metric/workload name rule, and
that BENCHMARK.json lists exactly the workloads and metrics the program
reports.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def build(targets):
    """Configure (once) and build the given targets; exit non-zero on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def self_test():
    build(["omega_perfbench", "perfbench_selftest"])
    failures = []
    if subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode:
        failures.append("proxy transparency (perfbench_selftest)")

    described = json.loads(subprocess.run(
        [os.path.join(BUILD, "omega_perfbench"), "--describe"],
        check=True, capture_output=True, text=True).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)

    names = [w["name"] for w in described["workloads"]]
    for key in ("end_to_end", "per_layer"):
        names += [m["name"] for m in described[key]]
    bad = [n for n in names if not NAME_RE.fullmatch(n)]
    if bad:
        failures.append("names outside [A-Za-z0-9_.-]+: %s" % bad)
    if len(set(names)) != len(names):
        failures.append("a workload or metric name is used twice")

    if manifest["workloads"] != described["workloads"]:
        failures.append("BENCHMARK.json workloads differ from the program's")
    for key in ("end_to_end", "per_layer"):
        listed = [{k: m[k] for k in ("name", "unit", "better")}
                  for m in manifest[key]]
        if listed != described[key]:
            failures.append("BENCHMARK.json %s differs from the program's" % key)

    for f in failures:
        print("FAIL", f)
    print("self-test:", "ok" if not failures else "%d failures" % len(failures))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")

    build(["omega_perfbench"])
    work = os.path.join(BUILD, "work", args.workload)
    cmd = [os.path.join(BUILD, "omega_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
