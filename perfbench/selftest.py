#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-size pass of every workload.

Run from the repository root:

    python3 perfbench/selftest.py

Checks, per workload in BENCHMARK.json:
  * the untraced run prints every end_to_end metric and the traced run every
    per_layer metric, each with the unit BENCHMARK.json gives, and both runs
    are correct;
  * a deliberately wrong golden digest makes the run fail (exit 1,
    "correct": false, failed > 0).
And once: run.py exits non-zero without a result line in a directory that
holds only BENCHMARK.json and perfbench/.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

RUN = ["python3", "perfbench/run.py"]
GOLDEN = "perfbench/golden/digests.txt"
SCRATCH = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench-selftest")

failures = []


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def run(workload, trace, golden=GOLDEN, cwd=None):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", str(trace),
                 "--size", "tiny", "--golden", golden]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          cwd=cwd, timeout=900)
    lines = proc.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result


def check_metrics(workload, trace, result, expected):
    got = result["metrics"] if result else {}
    check(set(result or {}) == {"correct", "attempted", "failed", "metrics"},
          f"{workload} trace={trace}: result has exactly the four keys")
    check(set(got) == set(expected),
          f"{workload} trace={trace}: metric names match BENCHMARK.json")
    for name, unit in expected.items():
        entry = got.get(name, {})
        check(entry.get("unit") == unit and isinstance(entry.get("value"), (int, float)),
              f"{workload} trace={trace}: {name} printed in {unit}")


def wrong_golden(workload):
    """A copy of the golden file with this workload's tiny digests flipped."""
    path = os.path.join(SCRATCH, f"wrong-{workload}.txt")
    with open(GOLDEN) as src, open(path, "w") as dst:
        for line in src:
            fields = line.split()
            if len(fields) == 4 and fields[0] == "tiny" and fields[1] == workload:
                flipped = "0" if fields[3][0] != "0" else "1"
                line = " ".join(fields[:3] + [flipped + fields[3][1:]]) + "\n"
            dst.write(line)
    return path


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    os.makedirs(SCRATCH, exist_ok=True)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            code, result = run(workload, trace)
            check(code == 0 and result is not None and result["correct"],
                  f"{workload} trace={trace}: tiny run is correct")
            check_metrics(workload, trace, result, expected)
        code, result = run(workload, 0, golden=wrong_golden(workload))
        check(code == 1 and result is not None and not result["correct"] and result["failed"] > 0,
              f"{workload}: a wrong golden digest fails the run")

    # Without the vpmem sources the benchmark must refuse, printing no result.
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    code, result = run("fuzz_faults", 0, cwd=bare)
    check(code != 0 and result is None, "without the sources run.py fails and prints no result")
    shutil.rmtree(SCRATCH, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
