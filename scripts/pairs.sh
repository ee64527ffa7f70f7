#!/usr/bin/env bash
# Alternating parent/change pairs of benchmark workloads: the loop every
# performance claim in this repo is made with (ROADMAP, first open item).
#
# Build each commit's `qpp-e2e` once, copy the two binaries aside, then:
#
#   scripts/pairs.sh <parent-binary> <change-binary> [workload] [pairs=10]
#
# With the workload left out, every workload BENCHMARK.json lists runs in
# turn (all pairs of one, then the next), each with its own verdict block.
# Pair i runs both binaries with --seed i; odd pairs run the parent first,
# even pairs the change first, because the host changes speed for minutes
# at a time and back-to-back blocks mislead. The end-to-end metrics named in
# BENCHMARK.json are read from the last line of each run (the result
# object). Printed per metric: every run, both medians with quartiles, how
# many pairs each side won (ties count for neither), and the verdict:
#
#   gain / loss   one side won at least 9 of 10 pairs and the medians differ
#                 by more than the distance between the parent's quartiles
#                 (never from fewer than ten pairs)
#   same          every pair read the same value on both sides
#   unresolved    anything else
#
# After the verdicts, the same table without a verdict ("diagnostic, not a
# verdict") for the `# <workload>/client.throughput` and
# `client.latency_p50_us` lines of each run's log.
#
# A number in the workload's place is the pair count. Exits non-zero if any
# run of any workload exited non-zero, reported `"correct": false` or
# counted a failed operation. Environment (QPP_THREADS, ...) passes through
# to both sides. Each run's whole output (the `# <workload>/client.*`
# diagnostics and the output checks among it) stays in
# target/qpp-e2e/pairs/<workload>/<side>-<seed>.txt.
set -euo pipefail

usage="usage: scripts/pairs.sh <parent-binary> <change-binary> [workload] [pairs=10]"
if [ "$#" -lt 2 ] || [ "$#" -gt 4 ]; then
    echo "$usage" >&2
    exit 2
fi
parent="$1"
change="$2"
root="$(cd "$(dirname "$0")/.." && pwd)"
if [ "$#" -ge 3 ] && ! [[ "$3" =~ ^[0-9]+$ ]]; then
    workloads="$3"
    pairs="${4:-10}"
elif [ "$#" -le 3 ]; then
    workloads="$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")"
    pairs="${3:-10}"
else
    echo "$usage" >&2
    exit 2
fi

broken=0
run() { # side binary seed; reads pairs_of's $workload and $logs
    echo "== $workload pair $3: $1" >&2
    if ! "$2" --workload "$workload" --seed "$3" --trace 0 >"$logs/$1-$3.txt"; then
        echo "!! $workload $1 seed $3 exited non-zero, see $logs/$1-$3.txt" >&2
        broken=1
    fi
}

pairs_of() { # workload
    local workload="$1"
    local logs="${CARGO_TARGET_DIR:-$root/target}/qpp-e2e/pairs/$workload"
    rm -rf "$logs"
    mkdir -p "$logs"
    for seed in $(seq 1 "$pairs"); do
        if [ $((seed % 2)) -eq 1 ]; then
            run parent "$parent" "$seed"
            run change "$change" "$seed"
        else
            run change "$change" "$seed"
            run parent "$parent" "$seed"
        fi
    done

    python3 - "$root/BENCHMARK.json" "$logs" "$workload" "$pairs" <<'PY' || broken=1
import json, statistics, sys

benchmark, logs, workload, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
metrics = [(m["name"], m["unit"], m["better"]) for m in json.load(open(benchmark))["end_to_end"]]

def result(side, seed):
    lines = open(f"{logs}/{side}-{seed}.txt").read().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "failed": 0, "metrics": {}}

def quartiles(vs):
    med = statistics.median(vs)
    q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
    return q1, med, q3

runs = {side: [result(side, seed) for seed in range(1, pairs + 1)] for side in ("parent", "change")}
bad = False
for side, results in runs.items():
    for seed, r in enumerate(results, 1):
        if r.get("correct") is not True or r.get("failed", 0) > 0:
            print(f"!! {side} seed {seed}: correct={r.get('correct')} failed={r.get('failed')}")
            bad = True

def compare(name, unit, better, sides, judged):
    """Prints one metric's runs, medians, quartiles and pairs won per side,
    with the verdict when `judged`."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * c < sign * p for p, c in zip(sides["parent"], sides["change"]))
    losses = sum(sign * c > sign * p for p, c in zip(sides["parent"], sides["change"]))
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(sides["parent"]), quartiles(sides["change"])
    clear = pairs >= 10 and abs(cmed - pmed) > pq3 - pq1
    if not judged:
        verdict = "diagnostic, not a verdict"
    elif wins == 0 and losses == 0:
        verdict = "same"
    elif 10 * wins >= 9 * pairs and sign * cmed < sign * pmed and clear:
        verdict = "gain"
    elif 10 * losses >= 9 * pairs and sign * cmed > sign * pmed and clear:
        verdict = "loss"
    else:
        verdict = "unresolved" + (" (fewer than ten pairs)" if pairs < 10 else "")
    print(f"\n{workload}/{name} [{unit}, {better} is better]: {verdict}")
    for side, (q1, med, q3) in (("parent", (pq1, pmed, pq3)), ("change", (cq1, cmed, cq3))):
        print(f"  {side}  median {med:.6g}  quartiles {q1:.6g} .. {q3:.6g}  (distance {q3 - q1:.3g})")
        print("          runs " + " ".join(f"{v:.6g}" for v in sides[side]))
    share = f"{(cmed - pmed) / pmed:+.1%} of the parent's median" if pmed else "parent median 0"
    print(f"  change ahead in {wins} of {pairs} pairs, parent in {losses}; medians differ by {cmed - pmed:+.3g} ({share})")

for name, unit, better in metrics:
    sides = {
        side: [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        for side, results in runs.items()
    }
    if len(sides["parent"]) != pairs or len(sides["change"]) != pairs:
        print(f"\n{workload}/{name}: missing in {2 * pairs - len(sides['parent']) - len(sides['change'])} runs")
        continue
    compare(name, unit, better, sides, judged=True)

# The client timings each run prints as `# <workload>/<name> <value> <unit>`
# lines: wall-clock readings this host cannot hold still, so they are
# tabulated like the metrics above but never judged.
def diagnostic(side, seed, name):
    prefix = f"# {workload}/{name} "
    for line in open(f"{logs}/{side}-{seed}.txt"):
        if line.startswith(prefix):
            return float(line.split()[2])
    return None

for name, unit, better in (("client.throughput", "1/s", "higher"), ("client.latency_p50_us", "us", "lower")):
    sides = {
        side: [diagnostic(side, seed, name) for seed in range(1, pairs + 1)]
        for side in ("parent", "change")
    }
    if None in sides["parent"] or None in sides["change"]:
        print(f"\n{workload}/{name}: missing in some runs")
        continue
    compare(name, unit, better, sides, judged=False)
sys.exit(1 if bad else 0)
PY
}

for workload in $workloads; do
    pairs_of "$workload"
done
exit "$broken"
