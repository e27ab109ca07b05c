#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload replay|dimensioning|soak \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. The binary is built with cargo into
$CARGO_TARGET_DIR (default: .bench_build in the current directory).
For the default seed of spec.json the output digests pinned there are
checked too. The last line of stdout is the JSON result; its metrics
are checked against BENCHMARK.json by name and unit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay", "dimensioning", "soak")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Build the release binary; return its path. Cargo's own output
    goes to stderr so stdout ends with the result line."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def check_result(line, traced):
    """The result line must carry exactly the metrics BENCHMARK.json
    declares for this mode, with the declared units."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}
    try:
        result = json.loads(line)
    except ValueError as e:
        fail(f"last line is not JSON: {e}")
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        wrong = sorted(n for n in set(got) & set(declared) if got[n] != declared[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {wrong}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-scale shapes of every workload (self-test)")
    args = ap.parse_args()

    spec = load_json(os.path.join(HERE, "spec.json"))
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.seed == spec["default_seed"]:
        scale = "smoke" if args.smoke else "full"
        for name, digest in sorted(spec["pinned"][scale].items()):
            if name.startswith(args.workload + "."):
                cmd += ["--pinned", f"{name}={digest}"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
