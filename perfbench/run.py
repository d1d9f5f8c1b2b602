#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The first call builds
perfbench/main.exe with dune (into _build/, without the shared dune
cache); later calls find it up to date. Each metric is printed on a
line of its own, and the last line is the result object.

Every process is stamped with the CLOCK_MONOTONIC time at which it was
spawned, so its set-up time runs from process start. An untraced run
reports as setup_s the median over SETUP_RUNS fresh processes: the
measured one and SETUP_RUNS - 1 set-up-only processes started before it.

--self-check runs every workload of BENCHMARK.json briefly, untraced
and traced, and checks that each run passes all of its correctness
checks and prints exactly the metrics BENCHMARK.json names, with their
units.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
# Compiler and program temporaries stay inside the checkout.
TMP = os.path.join(ROOT, "perfbench", "_out", "tmp")
BUILD_TIMEOUT_S = 840
SETUP_RUNS = 5


class Failed(Exception):
    pass


def child_env():
    os.makedirs(TMP, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=TMP)
    # The runtime runs with the settings the program ships with.
    env.pop("OCAMLRUNPARAM", None)
    env.pop("CAMLRUNPARAM", None)
    return env


def build():
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    try:
        proc = subprocess.run(
            dune + ["build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, env=child_env(), stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.exit("perfbench: build failed (dune exit %d)" % proc.returncode)


def last_json(args, deadline):
    """Run main.exe with [args] and return its last stdout line as JSON."""
    spawned = time.monotonic()
    with subprocess.Popen(
            [EXE] + args + ["--spawned-at", repr(spawned)], cwd=ROOT,
            env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise Failed("run exceeded its time budget")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise Failed("main.exe exit %d" % proc.returncode)
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise Failed("main.exe printed no result: %r" % lines[-1])


def measure(workload, seed, seconds, trace):
    """One run of [workload]: its result object."""
    # A run measures [seconds], then completes its pass and its checks.
    # At 55 s the budget stays under 180 s.
    deadline = time.monotonic() + 2 * seconds + 60
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    setups = [last_json(args + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_RUNS - 1 if trace == 0 else 0)]
    result = last_json(args, deadline)
    if trace == 0:
        own = result["metrics"]["setup_s"]
        own["value"] = statistics.median(setups + [own["value"]])
    return result


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            label = "%s --trace %d" % (w["name"], trace)
            try:
                result = measure(w["name"], 1, 3, trace)
            except Failed as e:
                problems.append("%s: %s" % (label, e))
                continue
            print("== %s: attempted %d, failed %d" %
                  (label, result["attempted"], result["failed"]))
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (label, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: checks failed" % label)
            got = result["metrics"]
            if set(got) != set(want):
                problems.append("%s: metrics differ from BENCHMARK.json: %s" %
                                (label, sorted(set(got) ^ set(want))))
            for name, unit in want.items():
                m = got.get(name)
                if m is None:
                    continue
                print("  %-26s %14.4f %s" % (name, m["value"], m["unit"]))
                if m["unit"] != unit:
                    problems.append("%s: %s unit %s, want %s" %
                                    (label, name, m["unit"], unit))
                if not math.isfinite(m["value"]) or (
                        key == "end_to_end" and m["value"] <= 0):
                    problems.append("%s: %s = %r" % (label, name, m["value"]))
    for p in problems:
        print("self-check: " + p, file=sys.stderr)
    print("self-check: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    if sys.argv[1:] == ["--self-check"]:
        build()
        sys.exit(self_check())
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()
    build()
    try:
        result = measure(a.workload, a.seed, a.seconds, a.trace)
    except Failed as e:
        sys.exit("perfbench: %s" % e)
    for name, m in result["metrics"].items():
        print("%-26s %14.4f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
