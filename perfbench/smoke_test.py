#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Runs every workload of BENCHMARK.json at tiny size and checks that:
  * an untraced run prints exactly the end-to-end metrics, and a traced run exactly the
    per-layer metrics, each with its declared unit, and both pass their gates;
  * wrapping the store and aligner in the timing decorators changes nothing the
    program does: traced and untraced passes give byte-identical outputs and equal
    device counters;
  * a deliberately corrupted staged chunk trips the workload's correctness gate.

Usage (from the checkout root): python3 perfbench/smoke_test.py
Exits 0 when every check passes.
"""

import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SEED = 7


def last_json_line(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_workload(binary, spec, name, out_dir):
    problems = []
    base = ["--workload", name, "--seed", str(SEED), "--seconds", "1", "--tiny",
            "--out-dir", out_dir]
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        code, stdout = bench.run(binary, base + ["--trace", trace])
        result = last_json_line(stdout)
        if code != 0 or result is None or not result["correct"] or result["failed"] != 0:
            problems.append(f"{name} trace={trace}: exit {code}, result {result}")
            continue
        expected = {m["name"]: m["unit"] for m in spec[group]}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        if emitted != expected:
            missing = sorted(set(expected) - set(emitted))
            extra = sorted(set(emitted) - set(expected))
            wrong = sorted(k for k in expected if k in emitted and emitted[k] != expected[k])
            problems.append(f"{name} trace={trace}: missing {missing}, extra {extra}, "
                            f"wrong units {wrong}")
        if trace == "1":
            record_path = os.path.join(out_dir, f"record-{name}-seed{SEED}-tiny-trace.json")
            with open(record_path) as f:
                passes = json.load(f)["passes"]
            kinds = {p["traced"] for p in passes}
            signatures = {(p["device_bytes"], p["device_ops"], p["output_digest"])
                          for p in passes}
            if kinds != {True, False}:
                problems.append(f"{name}: the traced run did not alternate passes")
            elif len(signatures) != 1:
                problems.append(f"{name}: wrapped and unwrapped passes differ: "
                                f"{sorted(signatures)}")

    code, stdout = bench.run(binary, base + ["--trace", "0", "--corrupt"])
    result = last_json_line(stdout)
    if code == 0 or (result is not None and result["correct"]):
        problems.append(f"{name}: a corrupted staged chunk did not trip the gate "
                        f"(exit {code}, result {result})")
    return problems


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = bench.build()
    if binary is None:
        return 1
    out_dir = os.path.join(bench.build_dir(), "smoke")
    problems = []
    for workload in spec["workloads"]:
        found = check_workload(binary, spec, workload["name"], out_dir)
        print(f"{workload['name']}: {'ok' if not found else 'FAILED'}", flush=True)
        problems.extend(found)
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
