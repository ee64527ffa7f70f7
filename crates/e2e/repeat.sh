#!/usr/bin/env bash
# Runs every workload RUNS times back to back (a different --seed each
# time, as the driver does) and prints, per metric, the median, the
# quartiles, their distance as a share of the median (what the driver
# gates on) and (max - min) / median (what this script gates on).
#
# Fails if an end-to-end timing or memory metric (setup_s, peak_rss_mb)
# spreads more than 0.10 of its median, if slo_met_share moves by more
# than 0.01, if an mre_* of an inference workload differs between seeds at
# all (their dataset does not depend on the seed; on `train` it does, and
# the gate there is the metric's bound), or if a run exits non-zero. The
# client.* rows are the demoted timings: printed, never gated.
#
#   crates/e2e/repeat.sh [RUNS] [WORKLOAD...]       (from the repo root)
set -euo pipefail

runs="${1:-10}"
shift || true
workloads=("$@")
if [ "${#workloads[@]}" -eq 0 ]; then
    workloads=(lib_batch serve_open wire_closed train)
fi

cargo build --release --offline --config crates/e2e/stubs/offline.toml -p qpp-e2e
bin="${CARGO_TARGET_DIR:-target}/release/qpp-e2e"

logs="${CARGO_TARGET_DIR:-target}/qpp-e2e/repeat"
rm -rf "$logs"
mkdir -p "$logs"
out="$logs/metrics.txt"
: >"$out"
broken=0
for workload in "${workloads[@]}"; do
    for seed in $(seq 1 "$runs"); do
        echo "== $workload seed $seed" >&2
        if ! "$bin" --workload "$workload" --seed "$seed" >"$logs/$workload-$seed.txt"; then
            echo "!! $workload seed $seed exited non-zero, see $logs/$workload-$seed.txt" >&2
            broken=1
        fi
        sed -n "s|^# \($workload/client\.\)|\1|p; /^$workload\//p" "$logs/$workload-$seed.txt" >>"$out"
    done
done

python3 - "$out" <<'PY'
import statistics, sys
from collections import defaultdict

values = defaultdict(list)
for line in open(sys.argv[1]):
    name, value, _unit = line.split()
    values[name].append(float(value))

failed = False
print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'range/med':>9}")
for name, vs in values.items():
    med = statistics.median(vs)
    q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
    iqr, rng = (q3 - q1) / med, (max(vs) - min(vs)) / med
    workload, metric = name.split("/")
    if metric.startswith("client."):
        note = "  (diagnostic)"
    elif metric.startswith("mre_"):
        limit = 0.02 if workload == "train" else 0.0
        note = "  <-- FAIL: differs between runs" if rng > limit else ""
    elif metric == "slo_met_share":
        note = "  <-- FAIL: moves more than 0.01" if max(vs) - min(vs) > 0.01 else ""
    else:
        note = "  <-- FAIL: spreads more than 0.10" if rng > 0.10 else ""
    failed |= "FAIL" in note
    print(f"{name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {iqr:>8.4f} {rng:>9.4f}{note}")
sys.exit(1 if failed else 0)
PY
exit "$broken"
