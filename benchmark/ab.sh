#!/usr/bin/env bash
# A/B comparison of the working tree against a parent revision.
#
#   benchmark/ab.sh PARENT_REV [PAIRS] [WORKLOADS]
#
# Exports PARENT_REV with `git archive` into target/ab/parent (an export
# rather than a worktree leaves no metadata in .git), copies this tree's
# benchmark/ and BENCHMARK.json over it so both sides run identical
# benchmark code, and builds each side into its own target directory.
# Then, per workload, it runs PAIRS (default 10) parent/change pairs of
# `ignem-benchmark` on seeds 1..PAIRS, alternating which side runs first,
# and prints for every end-to-end metric each side's median and quartiles,
# the share of pairs the change won (ties count for neither) and a
# verdict:
#   gain        the change won >= 90% of pairs and the medians differ by
#               more than the parent's own quartile spread;
#   regression  the change's median is worse than the parent's by more
#               than the metric's bound in BENCHMARK.json;
#   unresolved  the parent's spread exceeds the bound and neither of the
#               above holds;
#   same        otherwise.
# WORKLOADS is a comma-separated subset (default: every workload).
set -euo pipefail

if [[ $# -lt 1 ]]; then
    sed -n '2,22p' "$0" >&2
    exit 2
fi
parent_rev=$1
pairs=${2:-10}
repo=$(git rev-parse --show-toplevel)
workloads=${3:-$(python3 -c 'import json,sys; print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$repo/BENCHMARK.json")}
ab=$repo/target/ab

rm -rf "$ab/parent" "$ab/runs"
mkdir -p "$ab/parent" "$ab/runs"
git -C "$repo" archive "$parent_rev" | tar -x -C "$ab/parent"
rm -rf "$ab/parent/benchmark"
tar -C "$repo" --exclude=benchmark/target -cf - benchmark BENCHMARK.json | tar -x -C "$ab/parent"

for side in parent change; do
    root=$repo
    [[ $side == parent ]] && root=$ab/parent
    cargo build --release --offline --quiet --bin ignem-benchmark \
        --manifest-path "$root/benchmark/Cargo.toml" --target-dir "$ab/target-$side"
done

run() { # side workload seed
    "$ab/target-$1/release/ignem-benchmark" --workload "$2" --seed "$3" |
        tail -n 1 >>"$ab/runs/$1-$2.jsonl"
}

IFS=, read -ra list <<<"$workloads"
for w in "${list[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            run parent "$w" "$i"
            run change "$w" "$i"
        else
            run change "$w" "$i"
            run parent "$w" "$i"
        fi
    done
done

python3 - "$repo/BENCHMARK.json" "$ab/runs" "${list[@]}" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
runs, workloads = sys.argv[2], sys.argv[3:]
print(f"{'workload':12} {'metric':12} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'wins':>5}  verdict")
for w in workloads:
    side = {s: [json.loads(l)["metrics"] for l in open(f"{runs}/{s}-{w}.jsonl")] for s in ("parent", "change")}
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sign = 1 if m["better"] == "lower" else -1
        p = [r[name]["value"] for r in side["parent"]]
        c = [r[name]["value"] for r in side["change"]]
        pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
        pm, cm = statistics.median(p), statistics.median(c)
        wins = sum(sign * (b - a) > 0 for a, b in zip(c, p)) / len(p)
        spread = pq[2] - pq[0]
        worse = sign * (cm - pm) / pm if pm else 0.0
        if wins >= 0.9 and abs(cm - pm) > spread and sign * (pm - cm) > 0:
            verdict = "gain"
        elif worse > bound:
            verdict = "regression"
        elif pm and spread / pm > bound:
            verdict = "unresolved"
        else:
            verdict = "same"
        fmt = lambda med, q: f"{med:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
        print(f"{w:12} {name:12} {fmt(pm, pq):>34} {fmt(cm, cq):>34} {wins:5.2f}  {verdict}")
EOF
