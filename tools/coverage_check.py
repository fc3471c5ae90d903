#!/usr/bin/env python3
"""Line-coverage gate for the runtime core (src/op2 + src/minimpi).

Runs gcov (JSON mode) over every .gcda an instrumented test run left in the
build tree (cmake --preset coverage && ctest --preset coverage), aggregates
executable-line coverage per watched directory, and compares against the
checked-in baseline. The gate fails when any watched directory drops more
than the allowed slack (default 1 percentage point) below its baseline —
catching tests that silently stop exercising the runtime.

Usage:
  python3 tools/coverage_check.py [BUILD_DIR] [--baseline FILE]
                                  [--update-baseline] [--slack PCT]

Plain gcov is the only dependency (no gcovr/lcov in the image).
"""

import argparse
import json
import os
import subprocess
import sys

WATCHED = ["src/op2", "src/minimpi"]


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def find_gcda(build_dir):
    out = []
    for dirpath, _dirnames, filenames in os.walk(build_dir):
        out.extend(os.path.join(dirpath, f) for f in filenames if f.endswith(".gcda"))
    return sorted(out)


def gcov_json(gcda, build_dir):
    """One gcov JSON document per translation unit (gcov 9+ --json-format)."""
    proc = subprocess.run(
        ["gcov", "--stdout", "--json-format", gcda],
        cwd=build_dir,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=False,
    )
    if proc.returncode != 0 or not proc.stdout:
        return None
    try:
        return json.loads(proc.stdout.decode("utf-8", "replace"))
    except json.JSONDecodeError:
        return None


def normalize(path, build_dir, root):
    """Map a gcov-reported source path to a repo-relative one ('' if outside)."""
    if not os.path.isabs(path):
        path = os.path.join(build_dir, path)
    path = os.path.realpath(path)
    root = os.path.realpath(root) + os.sep
    return path[len(root):] if path.startswith(root) else ""


def collect(build_dir, root):
    """lines[source][line_number] = max execution count across TUs."""
    lines = {}
    gcdas = find_gcda(build_dir)
    if not gcdas:
        sys.exit(f"coverage_check: no .gcda files under {build_dir} — "
                 "configure with --preset coverage and run ctest first")
    for gcda in gcdas:
        doc = gcov_json(gcda, build_dir)
        if not doc:
            continue
        for f in doc.get("files", []):
            rel = normalize(f.get("file", ""), build_dir, root)
            if not rel or not any(rel.startswith(w + "/") for w in WATCHED):
                continue
            per_file = lines.setdefault(rel, {})
            for ln in f.get("lines", []):
                n = ln.get("line_number")
                c = ln.get("count", 0)
                if n is not None:
                    per_file[n] = max(per_file.get(n, 0), c)
    return lines


def summarize(lines):
    pct = {}
    for w in WATCHED:
        total = covered = 0
        for rel, per_file in lines.items():
            if not rel.startswith(w + "/"):
                continue
            total += len(per_file)
            covered += sum(1 for c in per_file.values() if c > 0)
        pct[w] = round(100.0 * covered / total, 2) if total else 0.0
    return pct


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("build_dir", nargs="?", default="build-coverage")
    ap.add_argument("--baseline",
                    default=os.path.join(repo_root(), "tools", "coverage_baseline.json"))
    ap.add_argument("--update-baseline", action="store_true")
    ap.add_argument("--slack", type=float, default=1.0,
                    help="allowed drop in percentage points (default 1.0)")
    args = ap.parse_args()

    # gcov runs with cwd=build_dir, so the .gcda paths handed to it must
    # not be relative to the caller's directory.
    pct = summarize(collect(os.path.abspath(args.build_dir), repo_root()))
    for w in WATCHED:
        print(f"{w}: {pct[w]:.2f}% lines covered")

    if args.update_baseline:
        with open(args.baseline, "w") as f:
            json.dump(pct, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    try:
        with open(args.baseline) as f:
            base = json.load(f)
    except FileNotFoundError:
        sys.exit(f"coverage_check: no baseline at {args.baseline} "
                 "(run with --update-baseline to create it)")

    failed = False
    for w in WATCHED:
        ref = base.get(w)
        if ref is None:
            continue
        drop = ref - pct[w]
        status = "OK" if drop <= args.slack else "FAIL"
        print(f"{w}: baseline {ref:.2f}%, drop {drop:+.2f} pts [{status}]")
        failed |= drop > args.slack
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
