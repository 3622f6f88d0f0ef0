#!/usr/bin/env python3
"""Builds the repository benchmark from this checkout's sources and runs one workload.

Usage (from the checkout root):
    python3 perfbench/run.py --workload <fastq_to_vcf|cluster_align|stream_ingest> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), run
records and traces to its records/ directory. The last line of standard output is the
benchmark's JSON result; build output goes to standard error. Exits non-zero when the
build fails, a correctness gate trips, or the run exceeds its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary's path or None."""
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step exited {done.returncode}: {' '.join(step)}",
                  file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def run(binary, args, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary; returns (exit code, stdout). Kills it on timeout."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {timeout}s and was stopped", file=sys.stderr)
        return 1, ""
    return proc.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fastq_to_vcf", "cluster_align", "stream_ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    opts = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    code, stdout = run(binary, [
        "--workload", opts.workload, "--seed", str(opts.seed),
        "--seconds", str(opts.seconds), "--trace", opts.trace,
        "--out-dir", os.path.join(build_dir(), "records"),
    ])
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
