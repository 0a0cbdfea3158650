#!/usr/bin/env python3
"""perfbench: build dm_perfbench from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload swap_scan --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which builds the library
layers from src/) into .bench_build/. The binary prints host metrics, a
deterministic section and a JSON line with every metric it measures; this
script echoes the human-readable part and prints, as the last line, one JSON
object with the metrics BENCHMARK.json lists: its end_to_end metrics with
--trace 0, its per_layer metrics with --trace 1. Traced runs write their
Perfetto-loadable span files into .bench_out/.

--verify-determinism runs the binary twice and fails unless both runs print
the same deterministic section byte for byte.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "dm_perfbench")
DET_BEGIN = "--- deterministic section"
DET_END = "--- end deterministic section ---"
RUN_TIMEOUT_S = 900


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "build.ninja")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "dm_perfbench",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))


def run_binary(args):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", OUT_DIR]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"dm_perfbench did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        sys.stdout.write("".join(line + "\n" for line in lines
                                 if not line.startswith("{")))
        fail(f"dm_perfbench exited with code {done.returncode}",
             done.returncode)
    if not lines or not lines[-1].startswith("{"):
        fail("dm_perfbench printed no result line")
    return lines[:-1], json.loads(lines[-1])


def deterministic_section(lines):
    start = next(i for i, line in enumerate(lines) if line.startswith(DET_BEGIN))
    return lines[start:lines.index(DET_END) + 1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--verify-determinism", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    lines, result = run_binary(args)
    if args.verify_determinism:
        again, _ = run_binary(args)
        if deterministic_section(lines) != deterministic_section(again):
            fail("two same-seed runs printed different deterministic sections")
        lines.append("determinism: two same-seed runs printed identical "
                     "deterministic sections")

    metrics = {}
    for entry in wanted:
        got = result["metrics"].get(entry["name"])
        if got is None:
            fail(f"dm_perfbench did not report {entry['name']}")
        if got["unit"] != entry["unit"]:
            fail(f"{entry['name']} reported in {got['unit']}, "
                 f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = got
    print("\n".join(lines))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
