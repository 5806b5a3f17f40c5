#!/bin/sh
# Offline CI gate: build, test, lint, format — no crate registry access.
# Usage: ./ci.sh
set -eu

cd "$(dirname "$0")"

echo "==> guard: no build artifacts committed"
if git ls-files | grep -q '^target/'; then
    echo "error: build artifacts are tracked under target/;" \
        "run 'git rm -r --cached target/' and commit" >&2
    exit 1
fi

echo "==> cargo build --offline --release"
cargo build --offline --release --workspace

# A wedged shard (a thread stuck inside one `process` call) is invisible
# to the in-process supervisor; the hard timeout is the outer tripwire
# that turns a hang into a CI failure instead of a stalled pipeline.
echo "==> cargo test --offline -q (hard timeout 1800s)"
timeout 1800 cargo test --offline --workspace -q

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> msa-lint: rule catalog"
rules=$(cargo run --offline --release -q -p msa-lint -- --list-rules | wc -l)
echo "msa-lint: $rules rules registered"
if [ "$rules" -lt 16 ]; then
    echo "error: msa-lint catalog shrank to $rules rules (expected >= 16);" \
        "a rule was compiled out" >&2
    exit 1
fi

echo "==> guard: every rule ships a positive and a negative fixture"
cargo run --offline --release -q -p msa-lint -- --list-rules | while read -r id _; do
    stem=$(echo "$id" | tr '[:upper:]' '[:lower:]')
    for kind in pos neg; do
        if [ ! -f "crates/lint/tests/fixtures/${stem}_${kind}.rs" ]; then
            echo "error: rule $id has no ${kind} fixture" \
                "(crates/lint/tests/fixtures/${stem}_${kind}.rs)" >&2
            exit 1
        fi
    done
done

echo "==> msa-lint: self-lint (the linter held to its own rules)"
cargo run --offline --release -q -p msa-lint -- crates/lint/src/*.rs

echo "==> msa-lint --workspace (JSON artifact: results/LINT_report.json)"
cargo run --offline --release -q -p msa-lint -- --workspace --json results/LINT_report.json

echo "==> differential battery (reduced matrix)"
# The full {shards} x {faults} x {guard} x {crash points} matrix runs in
# the workspace test step above; this re-runs the sharded-vs-serial
# battery at the reduced CI matrix to prove the MSA_SCALE knob works.
MSA_SCALE=0.05 timeout 900 cargo test --offline -q --test differential

echo "==> supervision drill matrix (reduced matrix)"
# {panic, stall, poison} x {shards} x {guard on/off}: each cell must be
# deterministic across two runs and, where replay covers the outage,
# bit-identical to the fault-free serial run.
MSA_SCALE=0.05 timeout 900 cargo test --offline -q --test supervision

echo "==> bound-soundness battery (reduced matrix)"
# {shards} x {loss, dup, burst} x {panic, stall, poison} x {crash
# points}: every guaranteed interval must contain the fault-free true
# count, bit-identically across two seeded runs.
MSA_SCALE=0.05 timeout 900 cargo test --offline -q --test bounds

echo "==> vectorization battery (reduced matrix)"
# {scalar, chunked} x {chunk sizes} x {shards} x {faults} x {crash
# points}: chunked ingestion must be bit-identical to the per-record
# oracle in every cell — reports, per-epoch results, bounds and
# snapshot encodings.
MSA_SCALE=0.05 timeout 900 cargo test --offline -q --test vectorized

echo "==> adaptive-runtime battery (reduced matrix)"
# {static, adaptive} x {drift kinds} x {shards} x {crash during swap}:
# closed-epoch outputs must be bit-identical across two runs in every
# cell, and identical modulo the swap ledger between static and
# adaptive in lossless cells; includes the forced-rollback drill.
MSA_SCALE=0.05 timeout 900 cargo test --offline -q --test adaptive

echo "==> replan-swap bench (reduced scale)"
# Swap pause (in records), before/after throughput and collision rate;
# two-run determinism is asserted inside the bench. The committed
# full-scale JSON is restored afterwards.
MSA_SCALE=0.05 timeout 900 cargo run --offline --release -q -p msa-bench --bin replan_swap
git checkout -- results/BENCH_replan_swap.json 2>/dev/null || true

echo "==> chunk-throughput bench (reduced scale)"
# Single-shard chunked-vs-scalar ingestion; in-bench determinism gate
# (two runs per path, chunked == scalar bit for bit). The >= 2x speedup
# bar is asserted only at MSA_SCALE=1, so the reduced run checks
# correctness and artifact plumbing; the committed full-scale JSON is
# restored afterwards.
MSA_SCALE=0.05 timeout 900 cargo run --offline --release -q -p msa-bench --bin chunk_throughput
git checkout -- results/BENCH_chunk_throughput.json 2>/dev/null || true
if [ ! -s results/BENCH_chunk_throughput.json ]; then
    echo "error: results/BENCH_chunk_throughput.json missing or empty" >&2
    exit 1
fi

echo "==> degraded-accuracy bench (reduced scale)"
# Width-vs-error soundness and two-run interval determinism are
# asserted inside the bench; the committed full-scale JSON is restored
# afterwards so the reduced run never clobbers the published numbers.
MSA_SCALE=0.05 timeout 900 cargo run --offline --release -q -p msa-bench --bin degraded_accuracy
git checkout -- results/BENCH_degraded_accuracy.json 2>/dev/null || true

echo "==> durability drill (reduced matrix)"
# {bit-flip, truncation} x {head snapshot, chain link below the head,
# manifest pair}, {torn write, ENOSPC, EIO, crash-after-op} x every
# store op of the run, the lying fsync, plus the DiskBackend
# kill-between-syscalls sweep over every step: each cell must end in
# bit-identical recovery or an explicit accounted fallback, twice. A
# rotten chain link must land recovery just below it and leave the
# abandoned branch to GC.
MSA_SCALE=0.05 timeout 900 cargo test --offline -q --test recovery

echo "==> checkpoint-durability bench (reduced scale)"
# Durable-disk overhead vs the in-memory twin and cold-start (open +
# scrub + rebuild) latency per checkpoint density; functional two-run
# determinism and the O(epoch) commit (newest generation file at most
# twice the smallest delta, read from each row's store directory) are
# asserted inside the bench. The committed full-scale JSON is restored
# afterwards.
MSA_SCALE=0.05 timeout 900 cargo run --offline --release -q -p msa-bench --bin checkpoint_durability
git checkout -- results/BENCH_durability.json 2>/dev/null || true
if [ ! -s results/BENCH_durability.json ]; then
    echo "error: results/BENCH_durability.json missing or empty" >&2
    exit 1
fi

echo "==> perfbench smoke (every workload)"
# perfbench/ is its own cargo workspace, so the steps above never build
# it. A short run of each workload compiles it against the current store
# and executor API and drives the shared eviction path; the durable one
# also crashes, recovers and replays. Each exits non-zero on any oracle
# mismatch, store failure or divergence.
for workload in trace collide wide durable; do
    echo "--> perfbench $workload"
    timeout 900 cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0
done

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "CI OK"
