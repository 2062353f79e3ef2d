#!/usr/bin/env python3
"""Repository benchmark: build sidis from source, run one workload, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree.  The first run configures and builds the
library and the benchmark binary into .bench_build/perfbench (later runs
rebuild incrementally).  The binary generates its inputs from the
seed, sets the system up, measures for the given seconds, checks its
outputs and prints a raw record; this script stamps provenance (nproc, CPU
model, build type, commit or source digest, seed), keeps the full record
under .bench_build/results/, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1).  Exit codes: 0 reported; 1 reported, but a
correctness gate failed; 2 build, usage or run failure; 3 invalid
measurement (the load generator fell behind its schedule).  Workload
rationale and the layer map are in perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "sidis_perfbench")
OPTIMIZED = ("Release", "RelWithDebInfo", "MinSizeRel")
BUILD_TYPE = "RelWithDebInfo"


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {os.path.relpath(path, ROOT)}: {e}")


def run_logged(cmd, log, timeout):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        try:
            proc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
    return proc.returncode == 0


def cache_value(cache, key):
    with open(cache) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def build():
    """Configures once, then (re)builds incrementally; returns the build type."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no sidis source tree next to perfbench/ (src/CMakeLists.txt missing)")
    log = os.path.join(ROOT, ".bench_build", "build.log")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache) and (os.path.realpath(cache_value(cache, "CMAKE_HOME_DIRECTORY"))
                                  != os.path.realpath(BENCH_DIR)):
        shutil.rmtree(BUILD_DIR)  # a build tree copied from another checkout
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(cache):
        if not run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                           f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], log, 300):
            fail(f"configure failed; see {os.path.relpath(log, ROOT)}")
    jobs = str(len(os.sched_getaffinity(0)))
    if not run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs,
                       "--target", "sidis_perfbench"], log, 840):
        fail(f"build failed; see {os.path.relpath(log, ROOT)}")
    build_type = cache_value(cache, "CMAKE_BUILD_TYPE")
    if build_type not in OPTIMIZED:
        fail(f"refusing to measure a '{build_type}' build; use one of {OPTIMIZED}")
    return build_type


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    """Git commit when the tree is a checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload '{args.workload}' (have {', '.join(names)})")
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_type = build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.time()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded 170 s")
    sys.stderr.write(proc.stderr)
    if proc.returncode == 3:
        fail("invalid measurement, not reported", 3)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"benchmark binary exited with {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in bench[section]:
        got = record[section].get(m["name"])
        if got is None:
            fail(f"run did not report {section} metric '{m['name']}'")
        if got["unit"] != m["unit"]:
            fail(f"metric '{m['name']}' unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    provenance = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "build_type": build_type,
        "commit": commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": round(time.time() - started, 3),
    }
    record["provenance"] = provenance
    results = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": bool(record["correct"]),
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}))
    if not record["correct"]:
        fail("correctness violations: " + "; ".join(record["violations"]), 1)


if __name__ == "__main__":
    main()
