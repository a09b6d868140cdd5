#!/usr/bin/env bash
# A/B one benchmark workload between a parent ref and the working tree,
# by the paired-runs rule `benchmark compare`'s three reps do not cover
# (choosing-metrics §8): at least ten pairs, alternating which side runs
# first, a fresh --seed per pair; a gain needs the change to win nine
# tenths of the pairs AND the medians to differ by more than the
# parent's own interquartile range.
#
#   scripts/ab.sh <parent-ref> <workload> [pairs=10]
#
# Both sides are built from throw-away checkouts under target/ab/ (the
# parent from `git archive`, the change from the working tree's tracked
# and untracked-unignored files), so the two binaries differ in nothing
# but the source, and the script writes nothing under benchmark/ and
# touches neither BENCHMARK.json nor benchmark/history.ndjson: it runs
# the single-workload command, which maintains neither, and each binary
# keeps its scratch under its own checkout's benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: scripts/ab.sh <parent-ref> <workload> [pairs=10]" >&2
    exit 2
fi
parent_ref=$1
workload=$2
pairs=${3:-10}
case "$pairs" in
    '' | *[!0-9]* | 0) echo "error: pairs must be a positive integer" >&2; exit 2 ;;
esac
parent_commit=$(git rev-parse --verify --quiet "$parent_ref^{commit}") || {
    echo "error: unknown ref $parent_ref" >&2
    exit 2
}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

root=target/ab
rm -rf "$root"
mkdir -p "$root/parent" "$root/change"
trap 'rm -rf "$root"' EXIT
git archive "$parent_commit" | tar -x -C "$root/parent"
# Tracked files deleted in the working tree are listed but gone: skip.
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' file; do
        if [ -e "$file" ]; then printf '%s\0' "$file"; fi
    done |
    tar --null -T - -cf - | tar -x -C "$root/change"

for side in parent change; do
    echo "== building $side ==" >&2
    cargo build --release --offline --quiet --manifest-path "$root/$side/benchmark/Cargo.toml"
done

# One run: prints the process's last stdout line (the result JSON).
run_side() {
    "$root/$1/benchmark/target/release/e3-benchmark" \
        --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1
}

results=$root/results.ndjson
: >"$results"
base_seed=$(date +%s)
for i in $(seq 1 "$pairs"); do
    seed=$((base_seed + i))
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "pair $i/$pairs seed $seed: $side" >&2
        printf '{"pair": %d, "side": "%s", "result": %s}\n' "$i" "$side" "$(run_side "$side" "$seed")" >>"$results"
    done
done

python3 - "$results" "$workload" "$parent_commit" <<'EOF'
import json, statistics, sys

rows = [json.loads(line) for line in open(sys.argv[1])]
bench = json.load(open("BENCHMARK.json"))
print(f"workload {sys.argv[2]}, parent {sys.argv[3][:12]}, {len(rows) // 2} pairs")
failed = {side: sum(r["result"]["failed"] for r in rows if r["side"] == side)
          for side in ("parent", "change")}
wrong = [r for r in rows if not r["result"]["correct"]]
print(f"failed operations: parent {failed['parent']}, change {failed['change']}; "
      f"runs with a failed output check: {len(wrong)}")

def quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive")  # q1, median, q3

for metric in bench["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    by_side = {side: [r["result"]["metrics"][name]["value"]
                      for r in sorted(rows, key=lambda r: r["pair"]) if r["side"] == side]
               for side in ("parent", "change")}
    if len(by_side["parent"]) < 2:
        print(f"{name}: parent {by_side['parent']} change {by_side['change']} (one pair: no spread)")
        continue
    wins = sum((c > p) if higher else (c < p)
               for p, c in zip(by_side["parent"], by_side["change"]))
    losses = sum((c < p) if higher else (c > p)
                 for p, c in zip(by_side["parent"], by_side["change"]))
    (pq1, pmed, pq3), (cq1, cmed, cq3) = (quartiles(by_side[s]) for s in ("parent", "change"))
    delta = (cmed - pmed) if higher else (pmed - cmed)
    gain = wins >= 0.9 * len(by_side["parent"]) and delta > (pq3 - pq1)
    worse = -delta / pmed > metric["bound"] if pmed else False
    verdict = "GAIN" if gain else ("REGRESSED past bound" if worse else "no claim")
    print(f"{name} [{metric['unit']}, {metric['better']} is better]")
    print(f"  parent median {pmed:.6g}  quartiles [{pq1:.6g}, {pq3:.6g}]")
    print(f"  change median {cmed:.6g}  quartiles [{cq1:.6g}, {cq3:.6g}]")
    print("  per pair: " + ", ".join(f"{(c - p) / p * 100:+.1f}%" if p else "n/a"
                                     for p, c in zip(by_side["parent"], by_side["change"])))
    print(f"  change wins {wins}/{len(by_side['parent'])} pairs, loses {losses}; "
          f"median {'+' if cmed >= pmed else ''}{(cmed - pmed) / pmed * 100 if pmed else 0:.2f}% "
          f"vs parent IQR {(pq3 - pq1) / pmed * 100 if pmed else 0:.2f}% -> {verdict}")
EOF
