#!/usr/bin/env bash
# A/B measurement of two checkouts with the repo's one yardstick
# (benchmark/run.sh), the way `choosing-metrics` section 8 asks for it:
#
#   * each pair runs both sides on the same, fresh seed, with the
#     benchmark's own settings (`--seconds 20 --trace 0`),
#   * pairs alternate which side runs first,
#   * per end-to-end metric it prints every run, each side's median and
#     quartiles and how many pairs each side won (ties count for neither),
#   * per seed it says whether both sides produced the same results
#     (every digest, final accuracy and pureness in benchmark/out).
#
# A gain is claimable when the change wins at least nine tenths of the
# pairs and the medians differ by more than the parent's own
# quartile-to-quartile spread; a change is too slow when its median is
# worse than the parent's by more than the metric's `bound` in
# BENCHMARK.json. Per metric the script prints both facts and a verdict
# line naming either outcome; it gates nothing.
#
# Usage: scripts/ab_bench.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] [FIRST_SEED]
#
# PARENT_DIR and CHANGE_DIR are checkouts (or clones) of this
# repository; each is built in its own benchmark/target. PAIRS defaults
# to 10, FIRST_SEED to 1001 (pick seeds not used during development).
set -euo pipefail

if [ "$#" -lt 3 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] [FIRST_SEED]" >&2
    exit 2
fi
PARENT="$(cd "$1" && pwd)"
CHANGE="$(cd "$2" && pwd)"
WORKLOAD="$3"
PAIRS="${4:-10}"
FIRST_SEED="${5:-1001}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

# Each checkout must build into its own benchmark/target.
unset CARGO_TARGET_DIR

declare -A DIR=([parent]="$PARENT" [change]="$CHANGE")

run_side() { # side seed
    local side="$1" seed="$2" dir="${DIR[$1]}"
    bash "$dir/benchmark/run.sh" --workload "$WORKLOAD" --seed "$seed" --seconds 20 --trace 0 \
        2>"$OUT/$side-$seed.log" | tail -n 1 >"$OUT/$side-$seed.result.json"
    cp "$dir/benchmark/out/$WORKLOAD.json" "$OUT/$side-$seed.full.json"
}

for ((pair = 0; pair < PAIRS; pair++)); do
    seed=$((FIRST_SEED + pair))
    if ((pair % 2 == 0)); then
        order=(parent change)
    else
        order=(change parent)
    fi
    echo "pair $((pair + 1))/$PAIRS seed $seed: ${order[*]}" >&2
    for side in "${order[@]}"; do
        run_side "$side" "$seed"
    done
done

python3 - "$OUT" "$CHANGE/BENCHMARK.json" "$WORKLOAD" "$PAIRS" "$FIRST_SEED" <<'PY'
import json
import re
import statistics
import sys

out, spec_path, workload, pairs, first_seed = sys.argv[1:6]
seeds = [int(first_seed) + i for i in range(int(pairs))]
spec = json.load(open(spec_path))


def load(side, seed, kind):
    return json.load(open(f"{out}/{side}-{seed}.{kind}.json"))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


print(f"\n{workload}: {len(seeds)} pairs, seeds {seeds[0]}..{seeds[-1]}")
print(f"{'metric':<14}{'side':<8}{'q1':>12}{'median':>12}{'q3':>12}{'wins':>6}")
for metric in spec["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    runs = {
        side: [load(side, seed, "result")["metrics"][name]["value"] for seed in seeds]
        for side in ("parent", "change")
    }
    wins = {"parent": 0, "change": 0}
    for p, c in zip(runs["parent"], runs["change"]):
        if p != c:
            wins["change" if (c < p) == lower else "parent"] += 1
    stats = {side: quartiles(values) for side, values in runs.items()}
    for side in ("parent", "change"):
        q1, median, q3 = stats[side]
        print(f"{name:<14}{side:<8}{q1:>12.5g}{median:>12.5g}{q3:>12.5g}{wins[side]:>6}")
    base = stats["parent"][1]
    delta = (stats["change"][1] - base) / base if base else float("nan")
    spread = (stats["parent"][2] - stats["parent"][0]) / base if base else float("nan")
    print(f"{'':<14}change vs parent median {delta:+.1%}; parent q3-q1 {spread:.1%} of its median")
    better = delta < 0 if lower else delta > 0
    if (-delta if lower else delta) < -metric["bound"]:
        verdict = "WORSE than bound"
    elif better and wins["change"] >= 0.9 * len(seeds) and abs(delta) > spread:
        verdict = "claimable"
    else:
        verdict = "not claimable, within bound"
    print(f"{'':<14}verdict: {verdict} (change won {wins['change']}/{len(seeds)}, bound {metric['bound']:.0%})")
    for side in ("parent", "change"):
        print(f"{'':<14}{side} runs: " + " ".join(f"{v:.4g}" for v in runs[side]))

print("\nresults per seed (digests, final accuracy and pureness, failed ops):")
all_same = True
for seed in seeds:
    identity = {}
    for side in ("parent", "change"):
        full = load(side, seed, "full")
        # Digests, and the accuracy/pureness a seed ends on; other notes
        # count repetitions, which differ when one side is faster.
        notes = [
            f"{check['name']}: {check['note']}"
            for check in full["checks"]
            if "approval_pureness" in check["name"]
        ] + [
            digest
            for check in full["checks"]
            if "digest" in check["name"]
            for digest in re.findall(r"0x[0-9a-f]+", check["note"])
        ]
        identity[side] = (notes, full["failed"])
    same = identity["parent"][0] == identity["change"][0]
    all_same &= same
    failed = ", ".join(f"{side} failed {identity[side][1]}" for side in identity)
    print(f"  seed {seed}: {'identical' if same else 'DIFFERENT'} ({failed})")
    if not same:
        for side in identity:
            for note in identity[side][0]:
                print(f"    {side}: {note}")
print("all seeds identical" if all_same else "RESULTS DIFFER between the two sides")
PY
