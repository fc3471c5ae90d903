#!/usr/bin/env python3
"""Builds and runs the vcgt end-to-end benchmark.

    python3 perfbench/run.py --workload rig_rk --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench; later runs reuse that build. The binary measures
the workload and checks every operation against the references committed in
perfbench/refs. This script prints the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

End-to-end metrics with --trace 0, per-layer metrics with --trace 1. The
full result with its run metadata (git revision or source digest, build
type, nproc, busy threads, VCGT_* values) is written beside it under
.bench_build/perfbench-out, and a traced run writes its Chrome trace there.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "vcgt_perfbench")
WORKLOADS = ("rig_rk", "row_implicit", "serve_mix")
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then (re)builds the benchmark binary."""
    if not os.path.exists(os.path.join(BUILD, "build.ninja")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "vcgt_perfbench", "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_digest():
    """sha256 over the sources the benchmark builds (src/ and perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("VCGT_"))
    if knobs:
        fail("refusing to run with VCGT_* knobs set (they change the program "
             "under test): " + ", ".join(knobs), 3)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no vcgt sources next to perfbench/ (expected " +
             os.path.join(ROOT, "src") + ")", 2)

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e, 2)

    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--refs", os.path.join(HERE, "refs"), "--out", OUT]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % proc.returncode, 5)
    full = json.loads(lines[-1])

    names = declared_metrics(args.trace)
    if sorted(full["metrics"]) != sorted(names):
        fail("emitted metrics differ from BENCHMARK.json: %s vs %s"
             % (sorted(full["metrics"]), sorted(names)), 6)

    full["meta"]["git_rev"] = git_rev()
    full["meta"]["source_digest"] = source_digest()
    stem = "%s-seed%d%s" % (args.workload, args.seed, "-traced" if args.trace else "")
    with open(os.path.join(OUT, stem + ".result.json"), "w") as f:
        json.dump(full, f, indent=1, sort_keys=True)
    for why in full["failures"]:
        print("perfbench: failed operation: " + why, file=sys.stderr)

    result = {k: full[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
