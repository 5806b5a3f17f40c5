#!/bin/sh
# Offline CI gate: build, test, lint, format — no crate registry access.
# Usage: ./ci.sh
set -eu

cd "$(dirname "$0")"

# Reruns bench `$1` at the scale and seed results/BENCH_$1.json was
# recorded with and fails on any byte difference. For benches whose
# file holds only counts, never timings; the committed file is restored
# either way.
reproduces_bench() {
    out="results/BENCH_$1.json"
    want=$(mktemp)
    cp "$out" "$want"
    MSA_SCALE=1 MSA_SEED=42 timeout 900 cargo run --offline --release -q -p msa-bench --bin "$1" > /dev/null
    if ! cmp -s "$want" "$out"; then
        echo "error: bench $1 no longer writes $out byte for byte:" >&2
        diff "$want" "$out" | head -20 >&2 || true
        cp "$want" "$out"
        rm -f "$want"
        exit 1
    fi
    rm -f "$want"
}

echo "==> guard: no build artifacts committed"
if git ls-files | grep -q '^target/'; then
    echo "error: build artifacts are tracked under target/;" \
        "run 'git rm -r --cached target/' and commit" >&2
    exit 1
fi

echo "==> cargo build --offline --release"
cargo build --offline --release --workspace

# A wedged shard (a thread stuck inside one `offer_chunk` call) is invisible
# to the in-process supervisor; the hard timeout is the outer tripwire
# that turns a hang into a CI failure instead of a stalled pipeline.
echo "==> cargo test --offline -q (hard timeout 1800s)"
timeout 1800 cargo test --offline --workspace -q

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> perfbench: clippy -D warnings and fmt --check"
# perfbench/ is its own cargo workspace, so neither the clippy step
# above nor the fmt step at the end sees it; hold it to the same bar.
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
cargo fmt --check --manifest-path perfbench/Cargo.toml

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

echo "==> guard: every rule has a row in DESIGN.md's rule table"
cargo run --offline --release -q -p msa-lint -- --list-rules | while read -r id _; do
    if ! grep -q "^| $id |" DESIGN.md; then
        echo "error: rule $id has no '| $id |' row in DESIGN.md §9" >&2
        exit 1
    fi
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
# {chunk sizes} x {faults} x {guard} on one executor, and {shards} x
# {faults} x {guard} x {crash points} through the deployment with a
# per-shard oracle: chunked ingestion must be bit-identical to
# per-record `process` in every cell — reports, per-epoch results,
# bounds and snapshot encodings.
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
# Single-shard chunked ingestion vs the per-record `process` oracle;
# in-bench determinism gate (two runs per path, chunked == oracle bit
# for bit). The >= 2x speedup
# bar is asserted only at MSA_SCALE=1, so the reduced run checks
# correctness and artifact plumbing; the committed full-scale JSON is
# restored afterwards.
MSA_SCALE=0.05 timeout 900 cargo run --offline --release -q -p msa-bench --bin chunk_throughput
git checkout -- results/BENCH_chunk_throughput.json 2>/dev/null || true
if [ ! -s results/BENCH_chunk_throughput.json ]; then
    echo "error: results/BENCH_chunk_throughput.json missing or empty" >&2
    exit 1
fi

echo "==> shard-scaling bench (reduced scale)"
# Wall-clock records/s of the threaded deployment at 1/2/4/8 shards;
# two threaded runs per shard count are asserted bit-identical inside
# the bench before anything is timed. The committed full-scale JSON is
# restored afterwards.
MSA_SCALE=0.05 timeout 900 cargo run --offline --release -q -p msa-bench --bin shard_scaling
git checkout -- results/BENCH_shard_scaling.json 2>/dev/null || true
if [ ! -s results/BENCH_shard_scaling.json ]; then
    echo "error: results/BENCH_shard_scaling.json missing or empty" >&2
    exit 1
fi

echo "==> recovery-latency bench (reduced scale)"
# Replay distance of a supervised restart at every decile of the last
# shard's partition across 1/2/4/8 shards; two drilled runs per shard
# count are asserted bit-identical (health ledger included) inside the
# bench. The committed full-scale JSON is restored afterwards.
MSA_SCALE=0.05 timeout 900 cargo run --offline --release -q -p msa-bench --bin recovery_latency
git checkout -- results/BENCH_recovery_latency.json 2>/dev/null || true
if [ ! -s results/BENCH_recovery_latency.json ]; then
    echo "error: results/BENCH_recovery_latency.json missing or empty" >&2
    exit 1
fi
echo "--> recovery-latency bench reproduces its committed file (full scale)"
# The file holds only counts (records replayed, restarts), so a
# full-scale run must rewrite it byte for byte: a restart that replays a
# different distance fails here.
reproduces_bench recovery_latency

echo "==> degraded-accuracy bench (reduced scale)"
# Width-vs-error soundness and two-run interval determinism are
# asserted inside the bench; the committed full-scale JSON is restored
# afterwards so the reduced run never clobbers the published numbers.
MSA_SCALE=0.05 timeout 900 cargo run --offline --release -q -p msa-bench --bin degraded_accuracy
git checkout -- results/BENCH_degraded_accuracy.json 2>/dev/null || true
if [ ! -s results/BENCH_degraded_accuracy.json ]; then
    echo "error: results/BENCH_degraded_accuracy.json missing or empty" >&2
    exit 1
fi
echo "--> degraded-accuracy bench reproduces its committed file (full scale)"
# Counts only (interval bounds, widths, losses): byte for byte as well.
reproduces_bench degraded_accuracy

echo "==> durability drill (reduced matrix)"
# {bit-flip, truncation} x {head snapshot, chain link below the head},
# {torn write, ENOSPC, EIO, crash-after-op} x every store op of the run
# (one generation write per commit), the lying fsync, plus the
# DiskBackend kill-between-syscalls sweep over every step (four per
# commit): each cell must end in bit-identical recovery or an explicit
# accounted fallback, twice, and every kill point must recover with
# zero fallbacks and zero quarantines. A rotten chain link must land
# recovery just below it and leave the abandoned branch to GC.
MSA_SCALE=0.05 timeout 900 cargo test --offline -q --test recovery

echo "==> checkpoint-durability bench (reduced scale)"
# Durable-disk overhead vs the identical run checkpointing in memory
# only (boundary marks, no store), and cold-start (open + scrub +
# rebuild) latency per checkpoint density; functional two-run
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
# mismatch, store failure or divergence. Each run's counted model cost
# per record must equal results/perfbench_cost_per_rec.txt byte for
# byte: it depends only on the plan and the data, so a change that
# moves a GCSL plan cannot pass as a pure speed-up.
costs=$(mktemp)
for workload in trace collide wide durable; do
    echo "--> perfbench $workload"
    run=$(mktemp)
    timeout 900 cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 > "$run"
    cat "$run"
    grep '^metric cost_per_rec ' "$run" | sed "s/^/$workload /" >> "$costs"
    rm -f "$run"
done
if ! cmp -s results/perfbench_cost_per_rec.txt "$costs"; then
    echo "error: perfbench cost_per_rec differs from results/perfbench_cost_per_rec.txt:" >&2
    diff results/perfbench_cost_per_rec.txt "$costs" >&2 || true
    rm -f "$costs"
    exit 1
fi
rm -f "$costs"
# Traced once more: the run fails when the layer self times leave more
# than 10% of the traced wall time unattributed, so the ledger keeps
# covering the boundary commit and recovery path (durable) and the
# epoch close's drain and cascade (wide).
for workload in durable wide; do
    echo "--> perfbench $workload (traced)"
    timeout 900 cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 1
done

echo "==> figure outputs reproduce byte for byte (full scale)"
# Every committed fig/table/ablation output is rebuilt at the scale and
# seed it was recorded with into a temporary directory and compared
# byte for byte, so a kernel change that claims bit-identity proves it,
# and a change that moves a figure must regenerate it (results/README.md).
figs=$(mktemp -d)
count=0
for out in results/fig*.txt results/table*.txt results/ablation*.txt; do
    bin=$(basename "$out" .txt)
    MSA_SCALE=1 MSA_SEED=42 timeout 900 "./target/release/$bin" > "$figs/$bin.txt"
    if ! cmp -s "$out" "$figs/$bin.txt"; then
        echo "error: $bin no longer prints $out byte for byte:" >&2
        diff "$out" "$figs/$bin.txt" | head -20 >&2 || true
        rm -rf "$figs"
        exit 1
    fi
    count=$((count + 1))
done
rm -rf "$figs"
echo "figure outputs: $count identical"
if [ "$count" -lt 17 ]; then
    echo "error: only $count figure outputs under results/ (expected >= 17)" >&2
    exit 1
fi

echo "==> example outputs reproduce byte for byte"
# Each example asserts its own invariants (exact counts, bias identity,
# bit-identical recovery) and prints a deterministic report. Every one
# is rebuilt, run, and its stdout compared byte for byte with
# results/examples/<name>.txt, so the engine, runtime and recovery paths
# the examples drive end to end are held to the committed output too.
cargo build --offline --release --examples
examples=$(mktemp -d)
count=0
for src in examples/*.rs; do
    name=$(basename "$src" .rs)
    timeout 300 "./target/release/examples/$name" > "$examples/$name.txt"
    if ! cmp -s "results/examples/$name.txt" "$examples/$name.txt"; then
        echo "error: example $name no longer prints results/examples/$name.txt byte for byte:" >&2
        diff "results/examples/$name.txt" "$examples/$name.txt" | head -20 >&2 || true
        rm -rf "$examples"
        exit 1
    fi
    count=$((count + 1))
done
rm -rf "$examples"
echo "example outputs: $count identical"
if [ "$count" -lt 10 ]; then
    echo "error: only $count examples under examples/ (expected >= 10)" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "CI OK"
