#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload synth_all --seed 1 --seconds 32 --trace 0

Builds perfbench/ (and the sks libraries under src/ it links) into
.bench_build/perfbench as a Release build, runs the benchmark binary, and
prints as the last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metrics are every end_to_end metric of BENCHMARK.json with --trace 0,
and every per_layer metric with --trace 1, each with its unit from
BENCHMARK.json. In a traced run, the metrics of a layer the workload makes
no call into are 0. The traced run also writes its spans to
.bench_build/traces/<workload>-seed<seed>.jsonl. Build output goes to
stderr. Exits non-zero, without a result line, when anything fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(cmd)}: {e}")
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} exited {done.returncode}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no sks sources under {ROOT}/src to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
              BUILD_TIMEOUT_S)


def source_id():
    """The git commit when the checkout is a git repository, else a digest
    of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return "git " + sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256 " + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="a much smaller operation list (for tests)")
    args = parser.parse_args()

    spec = load_spec()
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}

    build()
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--kernels-dir", os.path.join(ROOT, "kernels_prebuilt")]
    if args.trace:
        trace_out = os.path.join(traces,
                                 f"{args.workload}-seed{args.seed}.jsonl")
        if os.path.exists(trace_out):
            os.remove(trace_out)
        cmd += ["--trace-out", trace_out]
    if args.smoke:
        cmd.append("--smoke")
    print(f"perfbench-source {json.dumps(source_id())}", flush=True)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              env=dict(os.environ, TMPDIR=tmp))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark binary: {e}")

    result = None
    for line in done.stdout.splitlines():
        if line.startswith("perfbench-result "):
            result = json.loads(line[len("perfbench-result "):])
        else:
            print(line)
    if done.returncode != 0 or result is None:
        fail(f"benchmark binary exited {done.returncode} without a result")

    values = result["metrics"]
    own_layers = result.pop("layers", None)
    if own_layers is not None:
        bypassed = sorted(name for name in wanted if name not in values and
                          name.split(".")[0] not in own_layers)
        print(f"bypassed layers' metrics, reported as 0: {' '.join(bypassed)}")
        values.update({name: 0.0 for name in bypassed})
    if set(values) != set(wanted):
        fail(f"metrics {sorted(set(values) ^ set(wanted))} differ from "
             "BENCHMARK.json")
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in wanted.items()}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
