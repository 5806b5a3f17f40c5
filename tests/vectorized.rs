//! Differential vectorization battery: the chunked columnar LFTA path
//! versus the scalar oracle.
//!
//! The same seeded trace is replayed through scalar ingestion and
//! through the chunked [`Ingest::offer_chunk`] path across the matrix
//! {chunk sizes 1/7/64/1024} × {shard counts} × {loss, dup, burst
//! faults} × {crash points}, asserting at every cell that the chunked
//! path is **bit-identical** to the scalar one:
//!
//! * identical [`RunReport`]s (every counter, cost trace and ledger);
//! * identical per-epoch HFTA result lists and per-group totals;
//! * identical guaranteed error-bound reports ([`BoundsReport`]);
//! * identical durable snapshots, byte-for-byte through the
//!   [`ShardedSnapshot`] encoding;
//! * identical crash/recovery outcomes when a shard dies mid-chunk.
//!
//! Chunking is pure batching: the executor re-derives epoch boundaries
//! from the timestamp column, so no chunk size, shard count, fault or
//! crash point may shift a single PRNG draw or checkpoint byte.
//! `MSA_SCALE` (0, 1] shrinks the trace and trims the matrix.

use msa_core::{
    AttrSet, Burst, CostParams, CrashPlan, Executor, FaultPlan, GuardPolicy, Ingest, IngestMode,
    Record, RecordChunk, RunReport, ShardedExecutor, ShardedSnapshot, ValueSource,
};
use msa_gigascope::plan::{PhysicalPlan, PlanNode};
use msa_gigascope::Hfta;
use msa_stream::UniformStreamBuilder;

const EPOCH: u64 = 500_000;
const SEED: u64 = 0xC401;
const GUARD_BUDGET: f64 = 3_000.0;
const CHUNK_SIZES: [usize; 4] = [1, 7, 64, 1024];

fn s(x: &str) -> AttrSet {
    AttrSet::parse(x).unwrap()
}

fn scale() -> f64 {
    std::env::var("MSA_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.0)
        .clamp(0.01, 1.0)
}

fn shard_counts(scale: f64) -> Vec<usize> {
    if scale < 0.5 {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8]
    }
}

fn chunk_sizes(scale: f64) -> Vec<usize> {
    if scale < 0.5 {
        vec![1, 7, 1024]
    } else {
        CHUNK_SIZES.to_vec()
    }
}

/// AB phantom feeding A and B query tables (the differential plan).
fn phantom_plan() -> PhysicalPlan {
    PhysicalPlan::new(vec![
        PlanNode {
            attrs: s("AB"),
            parent: None,
            buckets: 64,
            is_query: false,
        },
        PlanNode {
            attrs: s("A"),
            parent: Some(0),
            buckets: 16,
            is_query: true,
        },
        PlanNode {
            attrs: s("B"),
            parent: Some(0),
            buckets: 16,
            is_query: true,
        },
    ])
    .unwrap()
}

fn stream(scale: f64) -> Vec<Record> {
    let records = ((6_000.0 * scale) as usize).max(800);
    UniformStreamBuilder::new(4, 120)
        .records(records)
        .duration_secs(6.0)
        .seed(SEED)
        .build()
        .records
}

fn fault_columns() -> Vec<(&'static str, Option<FaultPlan>)> {
    vec![
        ("no-fault", None),
        (
            "loss",
            Some(FaultPlan::new(0xC4F1).with_eviction_loss(0.10)),
        ),
        (
            "duplication",
            Some(FaultPlan::new(0xC4F2).with_eviction_duplication(0.05)),
        ),
        (
            "burst",
            Some(FaultPlan::new(0xC4F3).with_burst(Burst {
                start_epoch: 2,
                epochs: 2,
                amplification: 3,
                fresh_groups: false,
            })),
        ),
    ]
}

fn disturbed(base: &[Record], faults: &Option<FaultPlan>) -> Vec<Record> {
    match faults {
        Some(f) => f.apply_to_stream(base, EPOCH),
        None => base.to_vec(),
    }
}

fn build_serial(faults: &Option<FaultPlan>, guard_on: bool) -> Executor {
    let mut ex = Executor::new(phantom_plan(), CostParams::paper(), EPOCH, SEED)
        .with_value_source(ValueSource::Attr(2));
    if let Some(f) = faults {
        ex = ex.with_faults(f);
    }
    if guard_on {
        ex = ex.with_guard(GuardPolicy::new(GUARD_BUDGET));
    }
    ex
}

fn build_sharded(
    n: usize,
    faults: &Option<FaultPlan>,
    guard_on: bool,
    durable: bool,
    ingest: IngestMode,
) -> ShardedExecutor {
    let mut sx = ShardedExecutor::new(phantom_plan(), CostParams::paper(), EPOCH, SEED, n)
        .unwrap()
        .with_value_source(ValueSource::Attr(2))
        .with_ingest(ingest);
    if let Some(f) = faults {
        sx = sx.with_faults(f);
    }
    if guard_on {
        sx = sx.with_guard(GuardPolicy::new(GUARD_BUDGET));
    }
    if durable {
        sx = sx.with_durability();
    }
    sx
}

/// Everything a cell can observe from a finished serial executor.
fn finish_serial(ex: Executor) -> (RunReport, Hfta, msa_core::BoundsReport) {
    let bounds = ex.bounds();
    let (report, hfta) = ex.finish();
    (report, hfta, bounds)
}

/// Serial cells: {chunk size} × {fault} × {guard}, chunked through the
/// [`Ingest`] trait versus the scalar oracle through the same trait.
#[test]
fn serial_chunked_matches_scalar_oracle_bit_for_bit() {
    let scale = scale();
    let base = stream(scale);
    for (fname, faults) in fault_columns() {
        let records = disturbed(&base, &faults);
        for guard_on in [false, true] {
            let mut oracle = build_serial(&faults, guard_on);
            for r in &records {
                Ingest::offer(&mut oracle, r);
            }
            let (want_report, want_hfta, want_bounds) = finish_serial(oracle);
            for &size in &chunk_sizes(scale) {
                let label = format!("chunk={size}/{fname}/guard={guard_on}");
                let mut chunked = build_serial(&faults, guard_on);
                for batch in records.chunks(size) {
                    Ingest::offer_chunk(&mut chunked, &RecordChunk::from_records(batch));
                }
                let (got_report, got_hfta, got_bounds) = finish_serial(chunked);
                assert_eq!(got_report, want_report, "{label}: report");
                assert_eq!(got_hfta.results(), want_hfta.results(), "{label}: results");
                assert_eq!(got_bounds, want_bounds, "{label}: bounds");
            }
        }
    }
}

/// Chunk boundaries may land anywhere — including mid-epoch. Feeding
/// the whole trace as one giant chunk exercises multi-epoch segmenting
/// inside a single `offer_chunk` call.
#[test]
fn one_giant_chunk_spans_every_epoch_boundary() {
    let base = stream(scale());
    let mut oracle = build_serial(&None, false);
    oracle.run(&base);
    let (want_report, want_hfta, _) = finish_serial(oracle);
    let mut chunked = build_serial(&None, false);
    chunked.offer_chunk(&RecordChunk::from_records(&base));
    let (got_report, got_hfta, _) = finish_serial(chunked);
    assert_eq!(got_report, want_report);
    assert_eq!(got_hfta.results(), want_hfta.results());
}

/// Sharded cells: {chunk size} × {shards} × {fault} × {guard}. The
/// chunked feed (chunk-at-a-time partitioning, per-shard re-chunking)
/// must merge to the exact scalar-feed outputs, and two chunked
/// threaded runs must agree bit-for-bit with each other.
#[test]
fn sharded_chunked_matches_scalar_feed_across_matrix() {
    let scale = scale();
    let base = stream(scale);
    for (fname, faults) in fault_columns() {
        let records = disturbed(&base, &faults);
        for guard_on in [false, true] {
            for &n in &shard_counts(scale) {
                let mut scalar = build_sharded(n, &faults, guard_on, false, IngestMode::Scalar);
                scalar.run(&records);
                let want_bounds = scalar.bounds();
                let (want_report, want_hfta) = scalar.finish();
                for &size in &chunk_sizes(scale) {
                    let label = format!("{n} shards/chunk={size}/{fname}/guard={guard_on}");
                    let mode = IngestMode::Chunked { size };
                    let run = || {
                        let mut sx = build_sharded(n, &faults, guard_on, false, mode);
                        sx.run(&records);
                        let bounds = sx.bounds();
                        let (report, hfta) = sx.finish();
                        (report, hfta, bounds)
                    };
                    let (r1, h1, b1) = run();
                    let (r2, h2, b2) = run();
                    assert_eq!(r1, r2, "{label}: two chunked runs");
                    assert_eq!(h1.results(), h2.results(), "{label}: two chunked runs");
                    assert_eq!(b1, b2, "{label}: two chunked runs");
                    assert_eq!(r1, want_report, "{label}: report vs scalar");
                    assert_eq!(h1.results(), want_hfta.results(), "{label}: results");
                    assert_eq!(b1, want_bounds, "{label}: bounds vs scalar");
                }
            }
        }
    }
}

/// Crash cells: a shard dies at an armed point while fed chunked; its
/// durable artifacts, the recovery, and the recovered outputs must all
/// be bit-identical to the scalar-feed crash run — and to the no-crash
/// baseline after recovery.
#[test]
fn crashed_chunked_shards_recover_identically_to_scalar() {
    let scale = scale();
    let base = stream(scale);
    let sizes = if scale < 0.5 { vec![7] } else { vec![7, 1024] };
    for (fname, faults) in fault_columns() {
        let records = disturbed(&base, &faults);
        for &n in &shard_counts(scale) {
            let crash_shard = n - 1;
            let probe = build_sharded(n, &faults, false, true, IngestMode::Scalar);
            let part_len = probe.partition(&records)[crash_shard].len() as u64;
            // No-crash durable chunked baseline, with snapshot framing.
            let mut baseline =
                build_sharded(n, &faults, false, true, IngestMode::Chunked { size: 64 });
            baseline.run(&records);
            let snap = baseline
                .durable_snapshot()
                .expect("every shard checkpoints");
            assert_eq!(ShardedSnapshot::decode(&snap.encode()).unwrap(), snap);
            let (want_report, want_hfta) = baseline.finish();
            let mut crash_points = vec![
                ("at-record-0", CrashPlan::at_record(0)),
                ("mid-stream", CrashPlan::at_record(part_len / 2)),
                ("after-offers", CrashPlan::after_offers(10)),
            ];
            if scale < 0.5 {
                crash_points.truncate(2);
            }
            for (cname, crash) in crash_points {
                // Scalar-feed crash run: the oracle's boundary checkpoint.
                let mut scalar = build_sharded(n, &faults, false, true, IngestMode::Scalar)
                    .with_crash(crash_shard, crash);
                scalar.run(&records);
                let want_snap = scalar
                    .latest_snapshot(crash_shard)
                    .cloned()
                    .expect("crash leaves a boundary checkpoint");
                for &size in &sizes {
                    let label = format!("{n} shards/chunk={size}/{fname}/{cname}");
                    let mut sx =
                        build_sharded(n, &faults, false, true, IngestMode::Chunked { size })
                            .with_crash(crash_shard, crash);
                    sx.run(&records);
                    assert_eq!(sx.crashed_shards(), vec![crash_shard], "{label}");
                    let got_snap = sx
                        .latest_snapshot(crash_shard)
                        .cloned()
                        .expect("crash leaves a boundary checkpoint");
                    // The checkpoint a mid-chunk death leaves is the
                    // scalar one, byte for byte.
                    assert_eq!(got_snap.encode(), want_snap.encode(), "{label}: snapshot");
                    sx.recover_shard(crash_shard, &got_snap, &records)
                        .expect("recovery succeeds");
                    assert!(sx.crashed_shards().is_empty(), "{label}");
                    let (got_report, got_hfta) = sx.finish();
                    assert_eq!(got_report, want_report, "{label}: recovered report");
                    assert_eq!(got_hfta.results(), want_hfta.results(), "{label}: results");
                }
            }
        }
    }
}

/// Regression: the router's final, partially-filled chunk is flushed at
/// feed close, never dropped — every record reaches its shard even when
/// the stream length shares no factor with the chunk size, and a
/// crashed shard's shutdown-loss ledger stays exact under chunked feed.
#[test]
fn partial_final_chunk_is_flushed_and_shutdown_loss_stays_exact() {
    let scale = scale();
    let base = stream(scale);
    // 1024 > any single shard's tail: every shard ends on a partial
    // chunk; 997 is prime, so no boundary ever aligns.
    for &size in &[997usize, 1024] {
        for &n in &shard_counts(scale) {
            let mut sx = build_sharded(n, &None, false, false, IngestMode::Chunked { size });
            sx.run(&base);
            let (report, _) = sx.finish();
            assert_eq!(
                report.records,
                base.len() as u64,
                "{n} shards/chunk={size}: every record of every partial chunk processed"
            );
        }
    }
    // A shard dead mid-stream never consumes its tail — including the
    // partial final chunk. The shutdown-loss ledger must count exactly
    // the unconsumed records, same as under scalar feed.
    let n = 2;
    let crash_shard = n - 1;
    let probe = build_sharded(n, &None, false, true, IngestMode::Scalar);
    let part_len = probe.partition(&base)[crash_shard].len() as u64;
    let crash = CrashPlan::at_record(part_len / 2);
    let run = |mode: IngestMode| {
        let mut sx = build_sharded(n, &None, false, true, mode).with_crash(crash_shard, crash);
        sx.run(&base);
        sx.finish()
    };
    let (scalar_report, _) = run(IngestMode::Scalar);
    let (chunked_report, _) = run(IngestMode::Chunked { size: 997 });
    assert_eq!(
        chunked_report, scalar_report,
        "shutdown-loss ledger identical across feed modes"
    );
    assert!(
        chunked_report.records_shutdown_lost > 0,
        "the drill actually stranded records"
    );
}
