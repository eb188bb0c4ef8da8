#!/usr/bin/env python3
"""Self-tests of Surveyor's benchmark, on the tiny scale.

    python3 perfbench/selftest.py

Checks that every workload emits every metric BENCHMARK.json names, with
its unit, in both the end-to-end and the traced run; that a deliberately
corrupted output (one flipped mined polarity, one wrong response body)
fails the run; and that an armed fault injector makes it refuse.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace=0, corrupt=None, env=None, seed=1):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
           "--scale", "tiny"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          env=env, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)
    print("ok: " + message)


def main():
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace)
            check(code == 0 and result is not None,
                  "%s trace=%d exits 0 with a result" % (workload, trace))
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  "%s trace=%d is correct with no failed operation" % (workload, trace))
            for metric in SPEC[key]:
                got = result["metrics"].get(metric["name"])
                check(got is not None and isinstance(got["value"], (int, float))
                      and got["unit"] == metric["unit"],
                      "%s trace=%d emits %s in %s" % (workload, trace, metric["name"],
                                                      metric["unit"]))

    code, result = run("mine", corrupt="mined")
    check(code == 0 and not result["correct"], "a flipped mined polarity fails the run")
    code, result = run("serve_hot", corrupt="response")
    check(code == 0 and not result["correct"] and result["failed"] >= 1,
          "a wrong response body counts as a failed operation")
    code, result = run("mine", env=dict(os.environ, SURVEYOR_FAULTS="em_fit:1"))
    check(code != 0 and result is None, "an armed fault injector makes the run refuse")


if __name__ == "__main__":
    main()
