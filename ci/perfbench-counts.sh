#!/bin/sh
# Gate perfbench's exact counts against a committed baseline.
#
#   ci/perfbench-counts.sh           run, then compare with ci/perfbench-counts.json
#   ci/perfbench-counts.sh --write   run, then record ci/perfbench-counts.json
#
# Runs every perfbench workload once at its fixed seed (python3
# perfbench/run.py --workload all --seed 1 --seconds 1) and compares the
# figures that are a pure function of the seed: messages, wire_bytes,
# rounds and max_lag_ticks per workload, and the run's correct flag and
# failed-operation count. Times, RSS and GC words are not compared. Any
# difference fails, so a change that moves a count regenerates the
# baseline with --write and shows the new counts in its own diff.
set -eu
cd "$(dirname "$0")/.."

case "${1:-}" in
  "" | --write) ;;
  *) echo "usage: ci/perfbench-counts.sh [--write]" >&2; exit 2 ;;
esac

out=$(mktemp)
trap 'rm -f "$out"' EXIT
# run.py exits 1 when a check fails; its result line still says which
python3 perfbench/run.py --workload all --seed 1 --seconds 1 > "$out" || true

python3 - "${1:-}" "$out" <<'EOF'
import json
import sys

BASELINE = "ci/perfbench-counts.json"
COUNTS = ["messages", "wire_bytes", "rounds", "max_lag_ticks"]

mode, path = sys.argv[1], sys.argv[2]
lines = open(path).read().splitlines()
try:
    result = json.loads(lines[-1])
except (IndexError, ValueError):
    sys.exit("perfbench-counts: perfbench printed no result line")

got = {"correct": result["correct"], "failed": result["failed"], "workloads": {}}
for key, metric in result["metrics"].items():
    workload, name = key.split("/", 1)
    if name in COUNTS:
        got["workloads"].setdefault(workload, {})[name] = metric["value"]

if mode == "--write":
    with open(BASELINE, "w") as f:
        json.dump(got, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"perfbench-counts: wrote {BASELINE}")
    sys.exit(0)

with open(BASELINE) as f:
    want = json.load(f)
diffs = [f"{k}: baseline {want.get(k)}, this run {got[k]}"
         for k in ("correct", "failed") if want.get(k) != got[k]]
for workload in sorted(set(want["workloads"]) | set(got["workloads"])):
    w, g = want["workloads"].get(workload, {}), got["workloads"].get(workload, {})
    for name in COUNTS:
        if w.get(name) != g.get(name):
            diffs.append(f"{workload}/{name}: baseline {w.get(name)}, this run {g.get(name)}")
if diffs:
    print("perfbench-counts: the counts differ from " + BASELINE, file=sys.stderr)
    for d in diffs:
        print("  " + d, file=sys.stderr)
    print("regenerate it with ci/perfbench-counts.sh --write if the change is meant",
          file=sys.stderr)
    sys.exit(1)
print("perfbench-counts: ok")
EOF
