#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload paper-eval --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run configures and builds the
perfbench binary (perfbench/CMakeLists.txt, which builds the wsc
libraries from src/) into .bench_build/; later runs only check the
build. The binary runs the workload in its own process, so peak RSS
and CPU time belong to that workload alone.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 the per-layer metrics. A per-layer
metric the workload does not exercise reads 0. Failed output checks,
including digest mismatches against perfbench/reference.json at the
reference seed, count in "failed".

Every result, with host, digests and all numbers, is also saved under
.bench_out/results/ (or --results DIR) for perfbench/compare.py.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORKLOADS = ("paper-eval", "ensemble-day", "trace-study")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure once, then bring the perfbench binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("wsc sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(nproc())])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))


def load_json(path):
    with open(path) as f:
        return json.load(f)


def check_digests(result, seed):
    """Compare the run's digests with the reference at its seed.

    Returns (attempted, failed, messages)."""
    if not os.path.isfile(REFERENCE):
        return 0, 0, []
    ref = load_json(REFERENCE)
    if seed != ref["seed"]:
        return 0, 0, []
    expected = {k: v for k, v in ref["digests"].items()
                if k.startswith(result["workload"] + ".")}
    got = result["digests"]
    messages = [f"digest {name}: {got.get(name)} != reference {want}"
                for name, want in sorted(expected.items())
                if got.get(name) != want]
    return len(expected), len(messages), messages


def record_reference(result, seed):
    ref = load_json(REFERENCE) if os.path.isfile(REFERENCE) else {}
    if ref.get("seed", seed) != seed:
        raise RuntimeError("reference digests use seed %d" % ref["seed"])
    digests = {k: v for k, v in ref.get("digests", {}).items()
               if not k.startswith(result["workload"] + ".")}
    digests.update(result["digests"])
    ref = {"seed": seed, "digests": dict(sorted(digests.items()))}
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=2)
        f.write("\n")
    log(f"recorded {len(result['digests'])} digests in {REFERENCE}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's digests as the reference "
                         "for its seed (after a deliberate model change)")
    ap.add_argument("--results", default=os.path.join(OUT_DIR, "results"),
                    help="directory the full result record is saved in")
    args = ap.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    build()

    scratch = os.path.join(OUT_DIR, "scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    if args.record_reference:
        record_reference(result, args.seed)
    attempted, failed, messages = check_digests(result, args.seed)
    for m in messages:
        print(f"{args.workload}: FAILED CHECK: {m}")
    attempted += result["attempted"]
    failed += result["failed"]

    if args.trace:
        section, declared = result["per_layer"], spec["per_layer"]
    else:
        section, declared = result["end_to_end"], spec["end_to_end"]
        missing = [m["name"] for m in declared if m["name"] not in section]
        if missing:
            raise RuntimeError("perfbench did not report " + ", ".join(missing))
    metrics = {m["name"]: {"value": section.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in declared}
    final = {"correct": failed == 0, "attempted": attempted,
             "failed": failed, "metrics": metrics}

    host = result["host"]
    print(f"{args.workload}: seed {args.seed}, {result['passes']} untraced "
          f"+ {result['traced_passes']} traced passes; work unit: "
          f"{result['work_unit']}; host nproc {host['nproc']}, cpus "
          f"{host['cpus_allowed_list']}, {host['compiler']}, "
          f"{host['build_type']}")
    os.makedirs(args.results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    with open(os.path.join(args.results, name + ".json"), "w") as f:
        json.dump({"run": result, "result": final,
                   "seconds": args.seconds}, f, indent=1)
    print(json.dumps(final))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, subprocess.TimeoutExpired,
            json.JSONDecodeError) as e:
        log(str(e))
        sys.exit(1)
