#!/usr/bin/env python3
"""Build and run the vpmem benchmark program vpbench (perfbench/src) for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload stride_sweep --seed 1 --seconds 20 --trace 0

vpbench is built in Release from the enclosing source tree into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  Its stdout is
passed through; the last line is the result object
{"correct", "attempted", "failed", "metrics"}.  On top of vpbench's own
checks this script verifies that the work counters repeat exactly across runs
of the same binary (stored in <build dir>/counters.json).

Extra options: --size tiny (self-test sizes), --golden FILE (digest file).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = "perfbench"
RUN_TIMEOUT_S = 170
SOURCE_ROOTS = ["CMakeLists.txt", "src", BENCH_DIR]


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), BENCH_DIR)


def build(out_dir):
    """Configure (once) and build vpbench; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "vpbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 1)
    return os.path.join(out_dir, "vpbench")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_digest():
    """sha256 over the sources vpbench is built from (works without git)."""
    h = hashlib.sha256()
    paths = []
    for root in SOURCE_ROOTS:
        if os.path.isfile(root):
            paths.append(root)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            paths.extend(os.path.join(dirpath, name) for name in filenames)
    for path in sorted(paths):
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(".git"):
        return "none"
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "none"


def check_counters(out_dir, key, counters):
    """Counters of one binary must repeat exactly across runs."""
    path = os.path.join(out_dir, "counters.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    if key in seen and seen[key] != counters:
        return f"work counters differ from an earlier run of this binary: {seen[key]} vs {counters}"
    seen[key] = counters
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--size", default="full", choices=["full", "tiny"])
    parser.add_argument("--golden", default=os.path.join(BENCH_DIR, "golden", "digests.txt"))
    args = parser.parse_args()

    if not (os.path.isfile("CMakeLists.txt") and os.path.isfile("src/CMakeLists.txt")):
        fail("run from the root of a vpmem source tree (CMakeLists.txt and src/ missing)")

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--size", args.size,
           "--golden", args.golden, "--work-dir", os.path.join(out_dir, "work"),
           "--commit", commit(), "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"vpbench did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"vpbench exited {proc.returncode} without a result", proc.returncode or 1)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    counters = {}
    for line in lines:
        if line.startswith("counters"):
            counters = dict(field.split("=", 1) for field in line.split()[1:])
    key = f"{file_digest(binary)} {args.workload} {args.size} trace={args.trace}"
    error = check_counters(out_dir, key, counters)
    if error:
        print(f"error: {error}")
        result["correct"] = False
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
