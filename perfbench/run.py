#!/usr/bin/env python3
"""Build the benchmark from source and run one workload, or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The OCaml runner is built with dune into
$CARGO_TARGET_DIR (default .bench_build), without the shared dune cache, and
each workload runs in a process of its own. The runner reports metric names
and values; this script gives each metric its unit from BENCHMARK.json. The
last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}, the metrics in BENCHMARK.json's order. The exit
code is 0 only if every check passed. Traced runs (--trace 1) write their
spans under .bench_out/.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TARGET = "perfbench/bench_run.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 600


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def run_child(cmd, timeout, env=None, capture=False):
    """Run cmd to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, text=True, stdout=subprocess.PIPE if capture else sys.stderr
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def build():
    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib").is_dir():
        fail(f"{ROOT} holds no source tree to build (no dune-project or lib/)")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    # no shared cache: everything the build writes stays in the checkout
    env = dict(os.environ, DUNE_CACHE="disabled", XDG_CACHE_HOME=str(build_dir / "cache"))
    cmd = ["dune", "build", "--root", str(ROOT), "--build-dir", str(build_dir),
           "--profile", "release", "-j", "2", TARGET]
    try:
        code, _ = run_child(cmd, BUILD_TIMEOUT_S, env=env)
    except FileNotFoundError:
        fail("dune is not installed")
    if code != 0:
        fail(f"build failed ({code})")
    return build_dir / "default" / TARGET


def run_workload(exe, spec, workload, args):
    """Run one workload; returns (ok, result dict or None)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(ROOT / ".bench_out")]
    code, out = run_child(cmd, RUN_TIMEOUT_S, capture=True)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        print(f"perfbench: {workload}: no result line (exit {code})", file=sys.stderr)
        return False, None
    values = result.pop("values")
    result["metrics"] = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] not in values:
            print(f"perfbench: {workload}: no value for {m['name']}", file=sys.stderr)
            result["correct"] = False
            continue
        result["metrics"][m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return code == 0 and result["correct"], result


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    exe = build()
    if args.workload != "all":
        ok, result = run_workload(exe, spec, args.workload, args)
        if result is not None:
            print(json.dumps(result), flush=True)
        sys.exit(0 if ok else 1)
    # Every workload in turn, one process each; the metrics of the combined
    # result are keyed "<workload>/<metric>".
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        ok, result = run_workload(exe, spec, name, args)
        combined["correct"] = combined["correct"] and ok
        if result is None:
            combined["attempted"] += 1
            combined["failed"] += 1
            continue
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
        print(f"{name}: correct={ok} attempted={result['attempted']} "
              f"failed_ops={result['failed']}", flush=True)
    print(json.dumps(combined), flush=True)
    sys.exit(0 if combined["correct"] else 1)


if __name__ == "__main__":
    main()
