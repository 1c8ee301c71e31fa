#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload echo --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The Go program is built from the checkout's sources into .bench_build/
(build cache included), then run with the given arguments; its last
line of output is the run's JSON result. --workload all runs every
workload in turn and ends with one JSON object whose metrics are keyed
"<workload>.<metric>". Everything the run writes stays under
.bench_build/ in the checkout.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
WORKLOADS = ["echo", "named", "spmd-mp-in", "spmd-central-inout"]
RUN_TIMEOUT = 170  # seconds; a run that takes longer has failed


def build():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
    })
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    cmd = ["go", "build", "-buildvcs=false", "-o", BINARY, "."]
    return subprocess.run(cmd, cwd=os.path.join(ROOT, "perfbench"), env=env).returncode == 0


def git_state():
    """The checkout's commit and dirty flag, or unknown outside git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown", "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        st = subprocess.run(["git", "--no-optional-locks", "status", "--porcelain"], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", "unknown"
    if rev.returncode != 0 or st.returncode != 0:
        return "unknown", "unknown"
    return rev.stdout.strip(), "true" if st.stdout.strip() else "false"


def run_one(args, commit, dirty, capture):
    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-out", os.path.join(BUILD, "perfbench", "results"),
           "-commit", commit, "-dirty", dirty]
    if args.echo_max_doubles is not None:
        cmd += ["-echo-max-doubles", str(args.echo_max_doubles)]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return None


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--echo-max-doubles", type=int, default=None)
    args = p.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    commit, dirty = git_state()
    if args.workload != "all":
        proc = run_one(args, commit, dirty, capture=False)
        return 1 if proc is None else proc.returncode

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        args.workload = name
        proc = run_one(args, commit, dirty, capture=True)
        if proc is None or proc.returncode != 0:
            return 1
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][name + "." + k] = v
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
