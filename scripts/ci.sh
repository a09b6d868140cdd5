#!/usr/bin/env bash
# Tier-1 gate plus lint/format checks. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release --offline

echo "== tier-1: test suite =="
cargo test -q --offline

echo "== examples build =="
cargo build --release --offline --examples

echo "== parity gates: threads, routes, resume, telemetry, scenarios, jit =="
# The crate-level suites the tier-1 command does not reach. Together
# they pin that results depend on nothing but (config, backend, seed):
# not on thread count (exec_parity covers 2/4/8 internally), software
# route (batch_parity), a kill-and-resume (resume_parity), any installed
# collector or tracer (telemetry_parity), or execution tier
# (jit_parity) — and scenario_parity holds default-config runs to the
# golden captured before the fixed-env kernels were folded into
# ScenarioSpec::fixed. The repro binary then re-checks end to end that
# --threads does not change results.
cargo test -q --offline -p e3-platform \
    --test exec_parity --test batch_parity --test resume_parity --test telemetry_parity
cargo test -q --offline -p e3-islands --test scenario_parity
cargo test -q --offline -p e3-jit --test jit_parity
out1=$(cargo run --release --offline -q -p e3-bench --bin repro -- run --env cartpole --backend cpu --threads 1 --json)
out4=$(cargo run --release --offline -q -p e3-bench --bin repro -- run --env cartpole --backend cpu --threads 4 --json)
if [ "$out1" != "$out4" ]; then
    echo "error: repro run differs between --threads 1 and --threads 4" >&2
    exit 1
fi

echo "== plan executor: parity vs legacy reference, threads 1 and 4 =="
# `repro plan` times the CSR NetPlan executor against the preserved
# per-node reference (bit-identical outputs required), then re-runs the
# seeded CartPole/LunarLander repro end to end at 1 and 4 worker
# threads; the binary exits nonzero if any output or fitness bit
# differs. Results land in BENCH_plan.json.
cargo run --release --offline -q -p e3-bench --bin repro -- plan >/dev/null

echo "== batched eval: bitwise parity vs scalar serial, threads 1/4/8 =="
# `repro batch` times the population-major batched kernel against the
# scalar per-individual path across thread counts and exits nonzero if
# any fitness or episode-length bit differs. Results land in
# BENCH_batch.json.
cargo run --release --offline -q -p e3-bench --bin repro -- batch >/dev/null

echo "== jit: tiered native execution, interpreter-oracle parity gate =="
# `repro jit` microbenchmarks the e3-jit x86-64 tier against the
# NetPlan interpreter on evolved genomes (bit-identical outputs
# required, >=1.3x ns/activate on hot plans), then re-runs the seeded
# repro end to end with the tier off and on at 1 and 4 worker threads;
# outcomes must match bit for bit. On non-x86-64 hosts this is NOT a
# skip: the binary asserts the fallback engaged (compile attempts
# counted, zero plans compiled, zero native activations) and that
# parity still holds, and the speedup gate is waived. Results land in
# BENCH_jit.json.
cargo run --release --offline -q -p e3-bench --bin repro -- jit >/dev/null

echo "== islands: archipelago sweep, parity/determinism gates, daemon smoke =="
# `repro islands` sweeps island count x migration interval, gates
# single-island parity against a plain platform run, determinism across
# driver counts and pickup orders, and the run-manager daemon lifecycle
# (start, submit, stream one generation's records, graceful shutdown);
# the binary exits nonzero on any gate failure. Results land in
# BENCH_islands.json.
cargo run --release --offline -q -p e3-bench --bin repro -- islands >/dev/null

echo "== fast-math: off by default, approximate kernel still in bounds =="
# The fast-math feature forfeits batched/scalar bit-exactness, so it
# must never be a default feature; the gated test suites then verify
# the approximate kernel stays within its documented error envelope.
if grep -Eq '^default *=.*fast-math' crates/neat/Cargo.toml crates/platform/Cargo.toml; then
    echo "error: fast-math must not be a default cargo feature" >&2
    exit 1
fi
cargo test -q --offline -p e3-neat --features fast-math

echo "== observability: traced run exports valid artifacts =="
# A short traced run must produce Perfetto-loadable trace JSON
# (well-formed, non-empty, monotonic span end times) and a parseable
# Prometheus metrics dump; trace_check exits nonzero otherwise.
trace_tmp=$(mktemp -d)
trap 'rm -rf "$trace_tmp"' EXIT
cargo run --release --offline -q -p e3-bench --bin repro -- \
    run --env cartpole --trace "$trace_tmp/trace.json" \
    --metrics "$trace_tmp/metrics.prom" >/dev/null
cargo run --release --offline -q -p e3-bench --bin trace_check -- \
    "$trace_tmp/trace.json" "$trace_tmp/metrics.prom"
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

echo "== serve: HTTP observability plane is inert, live scrape validates =="
# `repro serve` mounts the HTTP server on a live run manager, hits
# /healthz, /runs, /runs/{id}, and the NDJSON event stream, scrapes
# /metrics mid-flight, and exits nonzero unless the served run's final
# populations and telemetry are bit-identical to a server-less run.
# The saved final scrape must then parse as Prometheus text exposition.
cargo run --release --offline -q -p e3-bench --bin repro -- \
    serve --scrape-out "$trace_tmp/scrape.prom" >/dev/null
cargo run --release --offline -q -p e3-bench --bin trace_check -- \
    --metrics "$trace_tmp/scrape.prom"

echo "== generalize: scenario distributions, held-out gap, determinism gate =="
# `repro generalize` evolves on a sampled scenario distribution at
# K ∈ {1,4,8} scenarios per evaluation, scores each champion on a
# held-out shifted distribution, and exits nonzero unless every
# configuration reproduces bit-identically across worker-thread counts
# and emits one Generalization record per generation. Results land in
# BENCH_generalize.json; the NDJSON telemetry (including the new
# Generalization records) must then validate against the pinned wire
# format.
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
# (bit-identical resume contract, see crates/store).
store_dir="$trace_tmp/store"
ref=$(cargo run --release --offline -q -p e3-bench --bin repro -- \
    run --env cartpole --backend inax --seed 7 --json)
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

echo "== benchmark/: the instrument still builds and checks out =="
# benchmark/ is a package of its own that links against the platform
# API; nothing else in this script compiles it. Build it and run two
# one-second workloads (the fixed-env default route and the K=4
# scenario route). The single-workload form writes neither
# BENCHMARK.json nor benchmark/history.ndjson; its last stdout line
# must report every output check passed and no generation failed.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
for workload in cartpole_default lander_k4; do
    last=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
    case "$last" in
        *'"correct":true,'*'"failed":0,'*) ;;
        *)
            echo "error: benchmark workload $workload did not check out: $last" >&2
            exit 1
            ;;
    esac
done

echo "== clippy (warnings are errors) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustfmt =="
cargo fmt --check

echo "ci: all checks passed"
