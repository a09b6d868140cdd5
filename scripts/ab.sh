#!/usr/bin/env bash
# A/B benchmark workloads between a parent ref and the working tree,
# by the paired-runs rule `benchmark compare`'s three reps do not cover
# (choosing-metrics §8): at least ten pairs, alternating which side runs
# first, a fresh --seed per pair; a gain needs the change to win nine
# tenths of the pairs AND the medians to differ by more than the
# parent's own interquartile range.
#
#   scripts/ab.sh <parent-ref> <workload>... [pairs=10]
#
# `all` names every workload of BENCHMARK.json. With several workloads,
# each round runs one pair of every workload in turn, so a drift of the
# host spreads over all of them alike.
#
# Both sides are built from checkouts under target/ab/ (the parent from
# `git archive`, keyed by its commit; the change from the working
# tree's tracked and untracked-unignored files, keyed by a hash of
# their names and contents). The two binaries differ in more than the
# source: each checkout's path is embedded (panic locations, and
# `env!("CARGO_MANIFEST_DIR")` in benchmark/src/report.rs), which moves
# their sizes, crate hashes and layout. Two builds of one commit differ
# even with `--remap-path-prefix` (ROADMAP item 10). A checkout is
# kept and reused by every later call with the same key, so a session
# builds each side once; `rm -rf target/ab` drops them. Builds are
# function-aligned (`-C llvm-args=-align-all-functions=6`) unless
# RUSTFLAGS is set: where the linker happens to place an unchanged hot
# function moves a workload by a few percent (EXPERIMENTS.md, "INAX off
# the cache").
# The script writes nothing under benchmark/ and touches neither
# BENCHMARK.json nor benchmark/history.ndjson: it runs the
# single-workload command, which maintains neither, and each binary
# keeps its scratch under its own checkout's benchmark/out/. Every
# run's result line is kept in target/ab/last.ndjson until the next
# call.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/ab.sh <parent-ref> <workload>... [pairs=10]" >&2
    exit 2
}
[ $# -ge 2 ] || usage
parent_ref=$1
shift
pairs=10
case "${*: -1}" in
    *[!0-9]*) ;;
    0) echo "error: pairs must be a positive integer" >&2; exit 2 ;;
    *) pairs=${*: -1}; set -- "${@:1:$#-1}" ;;
esac
[ $# -ge 1 ] || usage
parent_commit=$(git rev-parse --verify --quiet "$parent_ref^{commit}") || {
    echo "error: unknown ref $parent_ref" >&2
    exit 2
}
known=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
workloads=()
for workload in "$@"; do
    if [ "$workload" = all ]; then
        read -r -a all <<<"$known"
        workloads+=("${all[@]}")
    elif [[ " $known " == *" $workload "* ]]; then
        workloads+=("$workload")
    else
        echo "error: unknown workload $workload (BENCHMARK.json has: $known)" >&2
        exit 2
    fi
done
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
export RUSTFLAGS="${RUSTFLAGS--C llvm-args=-align-all-functions=6}"

root=target/ab
mkdir -p "$root"

# The working tree's files, NUL-separated; tracked files deleted in the
# working tree are listed but gone, so they are skipped.
tree_files() {
    git ls-files -z --cached --others --exclude-standard |
        while IFS= read -r -d '' file; do
            if [ -e "$file" ]; then printf '%s\0' "$file"; fi
        done
}

# Fills checkout $1 by running the rest of the arguments with the
# checkout's directory appended, unless it is already there. The files
# land in a temporary directory renamed into place, so an interrupted
# call leaves no half-filled checkout to be reused.
checkout() {
    local dir=$1
    shift
    if [ ! -d "$dir" ]; then
        local tmp="$dir.tmp"
        rm -rf "$tmp"
        mkdir -p "$tmp"
        "$@" "$tmp"
        mv "$tmp" "$dir"
    fi
}
from_archive() { git archive "$parent_commit" | tar -x -C "$1"; }
from_tree() { tree_files | tar --null -T - -cf - | tar -x -C "$1"; }

change_key=$(tree_files | sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)
parent_dir=$root/commit-$parent_commit
change_dir=$root/tree-$change_key
checkout "$parent_dir" from_archive
checkout "$change_dir" from_tree

for side in "$parent_dir" "$change_dir"; do
    echo "== building $side ==" >&2
    cargo build --release --offline --quiet --manifest-path "$side/benchmark/Cargo.toml"
done

# One run: prints the process's last stdout line (the result JSON).
run_side() {
    local dir
    if [ "$1" = parent ]; then dir=$parent_dir; else dir=$change_dir; fi
    "$dir/benchmark/target/release/e3-benchmark" \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1
}

results=$root/last.ndjson
: >"$results"
base_seed=$(date +%s)
for i in $(seq 1 "$pairs"); do
    seed=$((base_seed + i))
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for workload in "${workloads[@]}"; do
        for side in $order; do
            echo "pair $i/$pairs $workload seed $seed: $side" >&2
            printf '{"pair": %d, "workload": "%s", "side": "%s", "result": %s}\n' \
                "$i" "$workload" "$side" "$(run_side "$side" "$workload" "$seed")" >>"$results"
        done
    done
done

python3 - "$results" "$parent_commit" "$change_key" "${workloads[@]}" <<'EOF'
import json, statistics, sys

path, parent, change, workloads = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
rows = [json.loads(line) for line in open(path)]
bench = json.load(open("BENCHMARK.json"))

def quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive")  # q1, median, q3

for workload in workloads:
    mine = [r for r in rows if r["workload"] == workload]
    print(f"workload {workload}, parent {parent[:12]}, change tree {change}, "
          f"{len(mine) // 2} pairs")
    failed = {side: sum(r["result"]["failed"] for r in mine if r["side"] == side)
              for side in ("parent", "change")}
    wrong = [r for r in mine if not r["result"]["correct"]]
    print(f"failed operations: parent {failed['parent']}, change {failed['change']}; "
          f"runs with a failed output check: {len(wrong)}")
    for metric in bench["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        by_side = {side: [r["result"]["metrics"][name]["value"]
                          for r in sorted(mine, key=lambda r: r["pair"]) if r["side"] == side]
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
    print()
EOF
