#!/usr/bin/env bash
# Tier-1 gate plus lint/format checks. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== size (informational: never fails the build) =="
# The three numbers the ROADMAP tracks; compare against the parent's.
bash scripts/loc.sh || true

echo "== tier-1: release build =="
cargo build --release --offline

echo "== test suite: every crate, every target =="
# One invocation over the whole workspace, so a gate that lives in a
# crate-level suite (exec_parity, resume_parity, telemetry_parity,
# scenario_parity, jit_parity, serve_roundtrip, ...) cannot be left off
# a hand-kept list. ~10 min cold in debug on two cores. Together the
# suites pin that results depend on nothing but (config, backend,
# seed): not on thread count, a kill-and-resume, an installed collector
# or tracer, an attached HTTP server, or the execution tier.
cargo test --workspace --offline -q
# The ten-million-point accuracy survey of the activation core against
# the host's libm (DESIGN.md records its histograms); about a second in
# release.
cargo test --release --offline -q -p e3-neat --test activation_accuracy -- --ignored
# The vendored stand-ins sit outside the workspace, so nothing above
# runs their own tests. `serde_json` is the one with a text parser:
# every config, manifest and NDJSON line goes through it. `serde` holds
# the binary codec every snapshot payload goes through (its decoder
# reads bytes from disk); `--features derive` adds the suite that walks
# every derive shape through both sinks. `parking_lot` is the one lock
# type of the executor pool and the island scheduler (its timed
# `Condvar::wait_for` wakes idle drivers).
cargo test --offline -q --manifest-path vendor/serde_json/Cargo.toml
cargo test --offline -q --manifest-path vendor/serde/Cargo.toml --features derive
cargo test --offline -q --manifest-path vendor/parking_lot/Cargo.toml

echo "== examples build and run =="
# Every shipped example must exit 0 — an example that builds and then
# panics is a broken front door. None takes arguments or writes into
# the checkout (the clean-tree stage below would catch one that did).
cargo build --release --offline --examples
for example in examples/*.rs; do
    cargo run --release --offline -q --example "$(basename "$example" .rs)" >/dev/null
done

echo "== repro run: --threads and the tier do not change results =="
# MountainCar never solves at quick scale, so all eight generations run
# and every one is compared; but every episode there hits the 200-step
# cap, so a worker's two genomes in flight always end together.
# LunarLander's six generations have episodes of many lengths, so slots
# end out of order and admit the next genome mid-shard. E3-INAX shards
# like a software run (one kernel), so the comparison exercises its
# shard plan too: fitness, modeled seconds and every accelerator counter
# in the RunOutcome must match. The tier-on run (every plan native from
# its first use) runs each genome alone on its native twin, which
# activates every output, beside the tier-off runs' fused pairs, which
# leave the Tanh outputs' sums and decide a discrete action from them.
# Pendulum's actions are continuous, so there the interpreter applies
# the output Tanh at decode and every output bit reaches the reward.
repro_run() {
    cargo run --release --offline -q -p e3-bench --bin repro -- run --json "$@"
}
for env in mountain_car lunar_lander pendulum; do
    for backend in cpu inax; do
        reference=$(repro_run --env "$env" --backend "$backend" --threads 1)
        variants=("--threads 4")
        if [ "$backend" = cpu ]; then variants+=("--jit --jit-threshold 1"); fi
        for flags in "${variants[@]}"; do
            # shellcheck disable=SC2086 # the flags split into words
            if [ "$(repro_run --env "$env" --backend "$backend" $flags)" != "$reference" ]; then
                echo "error: repro run --env $env --backend $backend $flags differs from --threads 1" >&2
                exit 1
            fi
        done
    done
done

echo "== observability: traced run exports valid artifacts =="
# A short traced run must produce Perfetto-loadable trace JSON
# (well-formed, non-empty, monotonic span end times, spans nested per
# track) and a parseable Prometheus metrics dump; trace_check exits
# nonzero otherwise.
trace_tmp=$(mktemp -d)
trap 'rm -rf "$trace_tmp"' EXIT
cargo run --release --offline -q -p e3-bench --bin repro -- \
    run --env cartpole --trace "$trace_tmp/trace.json" \
    --metrics "$trace_tmp/metrics.prom" >/dev/null
cargo run --release --offline -q -p e3-bench --bin trace_check -- \
    "$trace_tmp/trace.json" "$trace_tmp/metrics.prom"
# Two workers with two episodes in flight each: trace_check also
# rejects spans that partially overlap on one track, which Perfetto
# cannot draw.
cargo run --release --offline -q -p e3-bench --bin repro -- \
    run --env lunar_lander --threads 2 --trace "$trace_tmp/lander.json" >/dev/null
cargo run --release --offline -q -p e3-bench --bin trace_check -- "$trace_tmp/lander.json"
# A jit-enabled run must export the full e3_jit_* series set (counters,
# resident gauge, compile-time histogram) and well-formed Jit telemetry
# records; trace_check rejects a partial series set or malformed
# records. MountainCar never solves at quick scale, so promotions are
# guaranteed at threshold 1.
cargo run --release --offline -q -p e3-bench --bin repro -- \
    run --env mountain_car --backend cpu --jit --jit-threshold 1 \
    --telemetry "$trace_tmp/jit.ndjson" \
    --metrics "$trace_tmp/jit_metrics.prom" >/dev/null
cargo run --release --offline -q -p e3-bench --bin trace_check -- \
    --metrics "$trace_tmp/jit_metrics.prom"
cargo run --release --offline -q -p e3-bench --bin trace_check -- \
    --ndjson "$trace_tmp/jit.ndjson"
if [ "$(uname -m)" = "x86_64" ] && ! grep -q '^e3_jit_plans_compiled_total' "$trace_tmp/jit_metrics.prom"; then
    echo "error: jit-enabled run exported no e3_jit_* metrics" >&2
    exit 1
fi

echo "== generalize: scenario distributions, held-out gap, determinism gate =="
# `repro generalize` evolves on a sampled scenario distribution at
# K ∈ {1,4,8} scenarios per evaluation, scores each champion on a
# held-out shifted distribution, and exits nonzero unless every
# configuration reproduces bit-identically across worker-thread counts
# and emits one Generalization record per generation; the NDJSON
# telemetry (Generalization records included) must then parse against
# the e3-telemetry schema.
cargo run --release --offline -q -p e3-bench --bin repro -- \
    generalize --telemetry "$trace_tmp/generalize.ndjson" >/dev/null
cargo run --release --offline -q -p e3-bench --bin trace_check -- \
    --ndjson "$trace_tmp/generalize.ndjson"
if ! grep -q '"Generalization"' "$trace_tmp/generalize.ndjson"; then
    echo "error: generalize telemetry carries no Generalization records" >&2
    exit 1
fi

echo "== crash-safe store: kill-and-resume reproduces the uninterrupted run =="
# A seeded CartPole run is checkpointed every generation and killed
# after two; resuming from the newest intact snapshot must produce the
# exact RunOutcome JSON of the uninterrupted reference run
# (bit-identical resume contract, see crates/store). The reference run
# also writes its NDJSON telemetry, which must parse and carry an INAX
# Utilization record whose every PU row reconciles with the run's
# total cycles (trace_check checks busy + idle + stall per PU).
store_dir="$trace_tmp/store"
ref=$(cargo run --release --offline -q -p e3-bench --bin repro -- \
    run --env cartpole --backend inax --seed 7 --json \
    --telemetry "$trace_tmp/inax.ndjson")
cargo run --release --offline -q -p e3-bench --bin trace_check -- \
    --ndjson "$trace_tmp/inax.ndjson"
if ! grep -q '"Utilization"' "$trace_tmp/inax.ndjson"; then
    echo "error: INAX telemetry carries no Utilization record" >&2
    exit 1
fi
cargo run --release --offline -q -p e3-bench --bin repro -- \
    run --env cartpole --backend inax --seed 7 \
    --checkpoint-dir "$store_dir" --crash-after 2 >/dev/null
resumed=$(cargo run --release --offline -q -p e3-bench --bin repro -- \
    run --env cartpole --backend inax --seed 7 \
    --checkpoint-dir "$store_dir" --resume --json)
if [ "$ref" != "$resumed" ]; then
    echo "error: resumed run diverged from the uninterrupted reference" >&2
    exit 1
fi
# The writer emits snapshot format v3, the only one the reader accepts:
# `e3snap 3` and the checksum of the rest of the file, 16 hex digits.
newest=$(ls "$store_dir"/gen-*.e3snap | sort | tail -n 1)
if ! [[ "$(head -n 1 "$newest")" =~ ^e3snap\ 3\ [0-9a-f]{16}$ ]]; then
    echo "error: $newest does not start with an 'e3snap 3 <checksum>' magic line" >&2
    exit 1
fi
# The directory is its own index: snapshots and nothing else.
others=$(ls -A "$store_dir" | grep -v '^gen-[0-9]\{8\}\.e3snap$' || true)
if [ -n "$others" ]; then
    echo "error: $store_dir holds more than gen-*.e3snap files: $others" >&2
    exit 1
fi

echo "== benchmark/: the instrument still builds and checks out =="
# benchmark/ is a package of its own that links against the platform
# API; nothing else in this script compiles it. Build it and run five
# one-second workloads: the kernel on a fixed env, on K=4 sampled
# scenarios, with the tier on and under the INAX pricing, and the
# observed run — the only workload that opens a RunStore. Its
# `newest_snapshot_resumes` check runs only in a traced pass, so that
# one runs traced as well. The single-workload form writes neither
# BENCHMARK.json nor benchmark/history.ndjson; its last stdout line
# must report every output check passed and no generation failed.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
# Its own unit tests link against the platform's public API too.
cargo test --offline -q --manifest-path benchmark/Cargo.toml
for run in "cartpole_default 0" "lander_k4 0" "lander_jit 0" "cartpole_inax 0" \
    "lander_observed 0" "lander_observed 1"; do
    read -r workload trace <<<"$run"
    last=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace "$trace" | tail -n 1)
    case "$last" in
        *'"correct":true,'*'"failed":0,'*) ;;
        *)
            echo "error: benchmark workload $workload (--trace $trace) did not check out: $last" >&2
            exit 1
            ;;
    esac
done

echo "== clippy (warnings are errors) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustdoc (warnings are errors) =="
# A broken intra-doc link is a doc that points nowhere; keep the API
# docs building clean.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== rustfmt =="
cargo fmt --check

echo "== clean tree: nothing above wrote into the checkout =="
# Every command above prints to stdout or to a path a flag names under
# $trace_tmp; build outputs are ignored. Anything else that shows up
# here is a command dirtying the tree (or CI started on uncommitted
# changes).
dirty=$(git status --porcelain)
if [ -n "$dirty" ]; then
    echo "error: the working tree is not clean:" >&2
    echo "$dirty" >&2
    exit 1
fi

echo "ci: all checks passed"
