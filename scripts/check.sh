#!/usr/bin/env bash
# The full local gate — identical to what CI runs (.github/workflows/ci.yml).
#
#   scripts/check.sh            # everything
#   scripts/check.sh --fast     # skip the test suite (fmt + clippy + lint + audits, the
#                               # hot-path allocation count, the training pin and the
#                               # checkpoint and graph integrity tests only)
#
# Exits non-zero on the first failing step.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

step() {
    echo
    echo "==> $*"
    "$@"
}

step cargo fmt --all --check
step cargo clippy --workspace --all-targets -- -D warnings
step cargo run -p pup-analysis --quiet -- lint --strict
step cargo run -p pup-analysis --quiet -- audit-concurrency
step cargo run -p pup-analysis --quiet -- audit-hotpath
step cargo test -q -p pup-recsys --test hot_allocs
step cargo test -q -p pup-models --test training_pin
# Data, checkpoint and graph integrity: the CSV loader and split against
# their set-based reference, registry error parity on every path, and the
# graph kernels against their triplet-sort oracle.
step cargo test -q -p pup-data --test loader_differential
step cargo test -q -p pup-ckpt --test registry
step cargo test -q -p pup-graph --test build_differential
step cargo run -p pup-analysis --quiet -- audit-graph
if [[ $fast -eq 0 ]]; then
    step cargo test --workspace -q
    # Benchmark build: perfbench/ builds the library crates as path
    # dependencies from its own manifest, so a public-API change that breaks
    # the benchmark fails here rather than in the benchmark run.
    step env CARGO_TARGET_DIR=.bench_build \
        cargo build --release --manifest-path perfbench/Cargo.toml
    # Chaos gate: the fault-injection + kill/resume suites, run explicitly so
    # a recovery regression is named in the output even when buried in the
    # workspace run above.
    step cargo test -q -p pup-models --test chaos
    step cargo test -q -p pup-models --test checkpoint_resume
    # Telemetry smoke: a tiny traced run must produce a JSONL file that
    # report-telemetry parses and renders (exit 0 = schema intact end to end).
    smoke=target/telemetry-smoke
    rm -rf "$smoke" && mkdir -p "$smoke"
    step cargo run --release -q -p pup-recsys --bin pup -- \
        generate --preset yelp --scale 0.01 --seed 7 --out "$smoke/data"
    step cargo run --release -q -p pup-recsys --bin pup -- \
        evaluate --items "$smoke/data/items.csv" \
        --interactions "$smoke/data/interactions.csv" \
        --model bprmf --epochs 2 --k 10 --telemetry "$smoke/run.jsonl"
    step cargo run --release -q -p pup-recsys --bin pup -- \
        report-telemetry "$smoke/run.jsonl"
    # Serving smoke: train with checkpoints, restore into the fault-tolerant
    # scoring service, and drive it with an injected fault schedule. The
    # serve-bench exit code enforces zero panics/hangs, >= 99% availability
    # of admitted requests, and — via --slo — that no SLO monitor is still
    # paging at the end of the run. Any flight-recorder dump the run
    # produces lands in $serve_smoke/flight (CI archives it as an
    # artifact); slo-report must then parse the telemetry back and render
    # the event log + tail exemplars (exit 0 = trace/SLO schema intact end
    # to end). recommend proves the checkpoint answers a real top-K query.
    serve_smoke=target/serve-smoke
    rm -rf "$serve_smoke" && mkdir -p "$serve_smoke"
    step cargo run --release -q -p pup-recsys --bin pup -- \
        generate --preset yelp --scale 0.01 --seed 7 --out "$serve_smoke/data"
    step cargo run --release -q -p pup-recsys --bin pup -- \
        evaluate --items "$serve_smoke/data/items.csv" \
        --interactions "$serve_smoke/data/interactions.csv" \
        --model bprmf --epochs 2 --k 10 --checkpoint-dir "$serve_smoke/ckpts"
    step cargo run --release -q -p pup-recsys --bin pup -- \
        serve-bench --items "$serve_smoke/data/items.csv" \
        --interactions "$serve_smoke/data/interactions.csv" \
        --checkpoint-dir "$serve_smoke/ckpts" --model bprmf \
        --requests 200 --clients 4 --workers 2 \
        --fault-errors 5,6,7,20-24 --fault-spikes 40:10,80:10 \
        --min-availability 0.99 \
        --slo "avail=0.95,p99-ms=50,fast=20,slow=60,warn=3,page=10,min=10" \
        --flight-dir "$serve_smoke/flight" --telemetry "$serve_smoke/serve.jsonl"
    step cargo run --release -q -p pup-recsys --bin pup -- \
        slo-report "$serve_smoke/serve.jsonl"
    step cargo run --release -q -p pup-recsys --bin pup -- \
        recommend --items "$serve_smoke/data/items.csv" \
        --interactions "$serve_smoke/data/interactions.csv" \
        --checkpoint-dir "$serve_smoke/ckpts" --model bprmf --user 54 -k 5
    # Network front-door gate: the deterministic net-chaos suite (torn
    # reads, slowloris stalls, mid-response disconnects, malformed frames —
    # all over the in-memory transport, so failures replay exactly), then a
    # self-hosted open-loop run over real loopback TCP with slow clients,
    # mid-exchange aborts, and an authenticated rate-limited tenant. The
    # exit code enforces >= 99% availability of delivered requests.
    step cargo test -q -p pup-serve --test net_chaos
    step cargo run --release -q -p pup-recsys --bin pup -- \
        net-bench --items "$serve_smoke/data/items.csv" \
        --interactions "$serve_smoke/data/interactions.csv" \
        --checkpoint-dir "$serve_smoke/ckpts" --model bprmf \
        --requests 200 --clients 4 --slow-every 25 --abort-every 40 \
        --api-keys "bench:bench-key:500:100" --api-key bench-key \
        --min-availability 0.99
    # Swap-chaos gate: publish the trained checkpoint as generations of a
    # model registry, then hot-swap mid-load — clean, with the candidate
    # corrupted on disk, and with the process killed mid pointer-flip. All
    # three runs must hold >= 99% availability (a swap never drops a
    # request) and end with a registry whose CURRENT pointer is valid.
    registry="$serve_smoke/registry"
    step cargo run --release -q -p pup-recsys --bin pup -- \
        registry publish --registry "$registry" --checkpoint-dir "$serve_smoke/ckpts"
    step cargo run --release -q -p pup-recsys --bin pup -- \
        registry publish --registry "$registry" --checkpoint-dir "$serve_smoke/ckpts"
    step cargo run --release -q -p pup-recsys --bin pup -- \
        serve-bench --items "$serve_smoke/data/items.csv" \
        --interactions "$serve_smoke/data/interactions.csv" \
        --registry "$registry" --model bprmf \
        --requests 200 --clients 4 --workers 2 \
        --swap-at 40 --swap-to 1 --shadow 16 \
        --min-availability 0.99
    # Corrupt-new-checkpoint: validation must roll back without serving it.
    step cargo run --release -q -p pup-recsys --bin pup -- \
        registry publish --registry "$registry" --checkpoint-dir "$serve_smoke/ckpts"
    step cargo run --release -q -p pup-recsys --bin pup -- \
        serve-bench --items "$serve_smoke/data/items.csv" \
        --interactions "$serve_smoke/data/interactions.csv" \
        --registry "$registry" --model bprmf \
        --requests 200 --clients 4 --workers 2 \
        --swap-at 40 --swap-to 2 --shadow 16 --swap-fault corrupt-new \
        --min-availability 0.99
    # Kill-mid-pointer-flip: the old generation keeps serving; the next run
    # (a fresh process = the restart) must still come up on a valid CURRENT.
    step cargo run --release -q -p pup-recsys --bin pup -- \
        registry publish --registry "$registry" --checkpoint-dir "$serve_smoke/ckpts"
    step cargo run --release -q -p pup-recsys --bin pup -- \
        serve-bench --items "$serve_smoke/data/items.csv" \
        --interactions "$serve_smoke/data/interactions.csv" \
        --registry "$registry" --model bprmf \
        --requests 200 --clients 4 --workers 2 \
        --swap-at 40 --swap-to 3 --shadow 16 --swap-fault kill-flip \
        --min-availability 0.99
    step cargo run --release -q -p pup-recsys --bin pup -- \
        registry ls --registry "$registry"
fi

# Size: the Rust line count under crates/ (every .rs file, test fixtures
# included) that ROADMAP.md tracks. Printed only; it gates nothing.
echo
echo "==> Rust lines under crates/"
find crates -name '*.rs' -print0 | xargs -0 cat | wc -l

echo
echo "all checks passed"
