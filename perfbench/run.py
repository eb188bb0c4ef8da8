#!/usr/bin/env python3
"""Runs one workload of Surveyor's benchmark and prints its result.

    python3 perfbench/run.py --workload mine|serve_hot|serve_mixed \
        --seed N --seconds S --trace 0|1 [--scale tiny]

Builds perfbench/ (the repository's src/ plus the benchmark program) into
$CARGO_TARGET_DIR, default .bench_build, on first use; runs the workload
from its seed; checks the output; and prints the machine/config record
followed, as the last line, by {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mine", "serve_hot", "serve_mixed")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def refusal():
    """The same refusal posture as tools/run_bench.sh."""
    for name in ("SURVEYOR_FAULTS", "SURVEYOR_FAULT_SEED"):
        if os.environ.get(name):
            return name + " is set: fault injection perturbs every measured path"
    if os.environ.get("SURVEYOR_PROFILE"):
        return "SURVEYOR_PROFILE is set: the armed profiler perturbs every timing"
    return None


def build(build_dir, env):
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                    "--target", "surveyor_perfbench"],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "surveyor_perfbench")


def expected_mining(scale, seed):
    """The recorded mining fingerprint and F1 for this seed, if any."""
    with open(os.path.join(HERE, "expected_mine.json")) as f:
        return json.load(f).get(scale, {}).get(str(seed))


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    # Self-test hook (selftest.py): corrupt one output to prove the checks bite.
    parser.add_argument("--corrupt", choices=("mined", "response"))
    args = parser.parse_args()

    why = refusal()
    if why:
        fail("refusing to run: " + why, 2)
    for needed in ("src/CMakeLists.txt", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no " + needed + " in " + ROOT + "; run from a Surveyor checkout", 2)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        binary = build(build_dir, env)
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: %s" % e)

    workdir = os.path.join(build_dir, "work-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--scale", args.scale]
    expected = expected_mining(args.scale, args.seed)
    if expected:
        cmd += ["--expect-hash", expected["hash"], "--expect-f1", repr(expected["f1"])]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail("benchmark binary exited %d" % proc.returncode)

    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    names = metric_names(args.trace)
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("metrics missing from the result: " + ", ".join(missing))
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(record))
    print("ops_total=%d ops_failed=%d correct=%s" %
          (result["attempted"], result["failed"], result["correct"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
