#!/usr/bin/env python3
"""Build and run the qonductor benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the library from ../src together with
the load generator (perfbench/src) in Release mode under $CARGO_TARGET_DIR
(default .bench_build), then runs one workload. Build output goes to
stderr; the benchmark's report goes to stdout, whose last line is one JSON
object with the keys correct, attempted, failed and metrics. Exits non-zero
(and prints no result) when the build fails or a correctness check fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return build_dir / "qbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    binary = build(target / "perfbench")

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out", str(target / "perfbench" / "out")]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        try:
            output, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            sys.exit(f"perfbench: qbench did not finish within {RUN_TIMEOUT_S} s")
    lines = output.rstrip("\n").splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(output)
        sys.exit(f"perfbench: qbench exited with code {child.returncode} and no result")
    # A failed correctness check still prints its result (correct: false),
    # so the report shows which check broke; the exit code stays non-zero.
    sys.stdout.write(output)
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
