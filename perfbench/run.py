#!/usr/bin/env python3
"""Builds and runs the SCADS real-CPU benchmark (perfbench/scads_perfbench.cc).

Run from the root of a checkout:

    python3 perfbench/run.py --workload point_uniform --seed 1 --seconds 10 --trace 0

The first run configures and builds a Release binary under $CARGO_TARGET_DIR
(default .bench_build) from the checkout's own sources; later runs only
rebuild what changed. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. The exit code is the benchmark's: nonzero on
a build failure or on any correctness-check failure.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("point_uniform", "point_zipf_cached", "feed_rf3")
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    if not (ROOT / "src").is_dir():
        sys.exit(f"run.py: no SCADS sources at {ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "scads_perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return build_dir / "scads_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    build_dir = target / "perfbench"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(build_dir / f"trace_{args.workload}_{args.seed}.csv")]
    proc = subprocess.Popen(cmd)
    # Stopping this script stops the benchmark too; it is always waited for.
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: proc.terminate())
    try:
        returncode = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    return 0 if returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
