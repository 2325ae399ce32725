#!/usr/bin/env python3
"""Repository benchmark: build the library and the vpbench driver from
source, run one workload, and print its metrics.

    python3 perfbench/run.py --workload offline_pack --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. Builds into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) and keeps scratch files under
$CARGO_TARGET_DIR/perfbench-work; both are inside the checkout. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; with --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list. Exits non-zero when
the build fails, a correctness check fails, or the metrics do not match
BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("offline_pack", "fleet_cold", "fleet_warm")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure and build vpbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/ (run from the repository root)")
    log = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j4", "--target", "vpbench"],
    ]
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                fail("build failed; see " + os.path.relpath(log, ROOT))
    return os.path.join(build_dir, "vpbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if args.trace else "end_to_end"
    declared = [m["name"] for m in spec[key]]

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(os.path.join(target, "perfbench"))
    work = os.path.join(target, "perfbench-work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    spans = os.path.join(target, "perfbench-spans-%s-%d.jsonl" % (
        args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work, "--spans", spans],
            stdout=subprocess.PIPE, text=True, check=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("vpbench exited %d without a result" % proc.returncode)
    emitted = list(result["metrics"])
    if sorted(emitted) != sorted(declared):
        sys.stdout.write(proc.stdout)
        fail("metrics differ from BENCHMARK.json %s: missing %s, extra %s" % (
            key, sorted(set(declared) - set(emitted)),
            sorted(set(emitted) - set(declared))))
    if args.trace:
        lines.insert(-1, "spans written to " + os.path.relpath(spans, ROOT))
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
