#!/usr/bin/env python3
"""Seconds-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at its smoke shape, untraced and traced, on the
default seed (whose smoke digests spec.json pins) and on the held-out
seed. Asserts that each run is correct with no failed operation, that
it emits every metric BENCHMARK.json names with its unit, and that the
pinned-digest and traced-versus-untraced checks ran and passed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, traced):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(int(traced)), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    return done.returncode, done.stdout.rstrip("\n").split("\n")


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    spec = json.load(open(os.path.join(HERE, "spec.json")))
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in (spec["default_seed"], spec["heldout_seed"]):
            for traced in (False, True):
                tag = f"{workload} seed {seed} traced {int(traced)}"
                before = len(problems)
                code, lines = run(workload, seed, traced)
                try:
                    result = json.loads(lines[-1])
                except ValueError:
                    problems.append(f"{tag}: no result line (exit {code})")
                    continue
                declared = bench["per_layer" if traced else "end_to_end"]
                for m in declared:
                    got = result["metrics"].get(m["name"])
                    if got is None or got.get("unit") != m["unit"]:
                        problems.append(f"{tag}: metric {m['name']} missing or wrong unit")
                if code != 0 or not result["correct"] or result["failed"] != 0:
                    problems.append(f"{tag}: exit {code}, correct {result['correct']}, "
                                    f"failed {result['failed']}")
                digests = [l for l in lines if l.strip().startswith("digest ")]
                if any(not l.endswith(" ok") for l in digests):
                    problems.append(f"{tag}: digest mismatch: {digests}")
                pinned = [l for l in digests if "(pinned)" in l]
                if seed == spec["default_seed"] and not pinned:
                    problems.append(f"{tag}: no pinned digest was checked")
                if traced and not any("traced" in l for l in digests):
                    problems.append(f"{tag}: traced run did not compare digests")
                print(f"{tag}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)
    # The digest check must be able to fail: a wrong pin makes the run
    # incorrect with a non-zero exit.
    # run.py ran from ROOT, so a relative target directory is under ROOT.
    exe = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                       "release", "perfbench")
    done = subprocess.run([exe, "--workload", "replay", "--seed", str(spec["default_seed"]),
                           "--seconds", "1", "--trace", "0", "--smoke",
                           "--pinned", "replay.verdicts=0000000000000000"],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=600)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode == 0 or json.loads(lines[-1])["correct"]:
        problems.append("a wrong pinned digest was accepted")
    print("wrong pin rejected:", done.returncode != 0, flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
