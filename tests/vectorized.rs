//! Differential vectorization battery: the chunked columnar LFTA path
//! versus the per-record oracle, [`Executor::process`].
//!
//! The same seeded trace is replayed through both paths across the
//! matrix {chunk sizes 1/7/64/1024} × {loss, dup, burst faults} ×
//! {guard} on one executor, and {shard counts} × {faults} × {guard} ×
//! {crash points} through the sharded deployment, whose feed ships
//! 1024-lane chunks. The sharded oracle is per shard: a clone of each
//! freshly built shard executor is fed its partition record by record.
//! Every cell must be **bit-identical** to the oracle:
//!
//! * identical [`RunReport`]s (every counter, cost trace and ledger);
//! * identical per-epoch HFTA result lists;
//! * identical guaranteed error-bound reports;
//! * identical durable snapshots, byte-for-byte through every shard's
//!   [`Snapshot`] encoding;
//! * identical crash/recovery outcomes when a shard dies mid-chunk.
//!
//! Chunking is pure batching: the executor re-derives epoch boundaries
//! from the timestamp column, so no chunk size, shard count, fault or
//! crash point may shift a single PRNG draw or checkpoint byte.
//! `MSA_SCALE` (0, 1] shrinks the trace and trims the matrix.

use msa_core::{
    AttrSet, Burst, CostParams, CrashPlan, Executor, ExecutorConfig, FaultPlan, GuardPolicy,
    Record, RecordChunk, RunReport, ShardedExecutor, Snapshot, ValueSource,
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
    ExecutorConfig {
        value_source: ValueSource::Attr(2),
        faults: *faults,
        guard: guard_on.then(|| GuardPolicy::new(GUARD_BUDGET)),
        ..ExecutorConfig::new(phantom_plan(), CostParams::paper(), EPOCH, SEED)
    }
    .build()
}

fn build_sharded(
    n: usize,
    faults: &Option<FaultPlan>,
    guard_on: bool,
    durable: bool,
) -> ShardedExecutor {
    let config = ExecutorConfig {
        value_source: ValueSource::Attr(2),
        faults: *faults,
        guard: guard_on.then(|| GuardPolicy::new(GUARD_BUDGET)),
        durable,
        ..ExecutorConfig::new(phantom_plan(), CostParams::paper(), EPOCH, SEED)
    };
    ShardedExecutor::new(config, n).unwrap()
}

/// Everything a cell can observe from a finished serial executor.
fn finish_serial(ex: Executor) -> (RunReport, Hfta, msa_core::BoundsReport) {
    let bounds = ex.bounds();
    let (report, hfta) = ex.finish();
    (report, hfta, bounds)
}

/// The per-shard oracle: a clone of every freshly built shard of `sx`
/// (call before `sx.run`), fed its partition of `records` one record at
/// a time through [`Executor::process`].
fn shard_oracles(sx: &ShardedExecutor, records: &[Record]) -> Vec<Executor> {
    sx.partition(records)
        .iter()
        .enumerate()
        .map(|(k, part)| {
            let mut ex = sx.shard(k).clone();
            for r in part {
                ex.process(r);
            }
            ex
        })
        .collect()
}

/// Shard `got` against its oracle: report, bounds, per-epoch results
/// and the latest checkpoint's encoding.
fn assert_shard_matches(label: &str, got: &Executor, want: &Executor) {
    assert_eq!(got.report(), want.report(), "{label}: report");
    assert_eq!(got.bounds(), want.bounds(), "{label}: bounds");
    assert_eq!(
        got.latest_snapshot().as_ref().map(Snapshot::encode),
        want.latest_snapshot().as_ref().map(Snapshot::encode),
        "{label}: snapshot"
    );
    let (_, got_hfta) = got.clone().finish();
    let (_, want_hfta) = want.clone().finish();
    assert_eq!(got_hfta.results(), want_hfta.results(), "{label}: results");
}

/// Serial cells: {chunk size} × {fault} × {guard}, `offer_chunk` versus
/// the per-record oracle.
#[test]
fn serial_chunked_matches_scalar_oracle_bit_for_bit() {
    let scale = scale();
    let base = stream(scale);
    for (fname, faults) in fault_columns() {
        let records = disturbed(&base, &faults);
        for guard_on in [false, true] {
            let mut oracle = build_serial(&faults, guard_on);
            for r in &records {
                oracle.process(r);
            }
            let (want_report, want_hfta, want_bounds) = finish_serial(oracle);
            for &size in &chunk_sizes(scale) {
                let label = format!("chunk={size}/{fname}/guard={guard_on}");
                let mut chunked = build_serial(&faults, guard_on);
                for batch in records.chunks(size) {
                    chunked.offer_chunk(&RecordChunk::from_records(batch));
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
    for r in &base {
        oracle.process(r);
    }
    let (want_report, want_hfta, _) = finish_serial(oracle);
    let mut chunked = build_serial(&None, false);
    chunked.offer_chunk(&RecordChunk::from_records(&base));
    let (got_report, got_hfta, _) = finish_serial(chunked);
    assert_eq!(got_report, want_report);
    assert_eq!(got_hfta.results(), want_hfta.results());
}

/// Sharded cells: {shards} × {fault} × {guard}. Every shard of the
/// chunked deployment (chunk-at-a-time partitioning, supervised
/// workers) must end bit-identical to its per-record oracle, and two
/// threaded runs must agree bit-for-bit on the merged outputs.
#[test]
fn sharded_chunked_matches_scalar_feed_across_matrix() {
    let scale = scale();
    let base = stream(scale);
    for (fname, faults) in fault_columns() {
        let records = disturbed(&base, &faults);
        for guard_on in [false, true] {
            for &n in &shard_counts(scale) {
                let label = format!("{n} shards/{fname}/guard={guard_on}");
                let run = || {
                    let mut sx = build_sharded(n, &faults, guard_on, true);
                    let oracles = shard_oracles(&sx, &records);
                    sx.run(&records);
                    for (k, want) in oracles.iter().enumerate() {
                        assert_shard_matches(&format!("{label}/shard {k}"), sx.shard(k), want);
                    }
                    let bounds = sx.bounds();
                    let snaps: Vec<Vec<u8>> = (0..n)
                        .map(|k| {
                            sx.shard(k)
                                .latest_snapshot()
                                .expect("every shard checkpoints")
                                .encode()
                        })
                        .collect();
                    let (report, hfta) = sx.finish();
                    (report, hfta, bounds, snaps)
                };
                let (r1, h1, b1, s1) = run();
                let (r2, h2, b2, s2) = run();
                assert_eq!(r1, r2, "{label}: two chunked runs");
                assert_eq!(h1.results(), h2.results(), "{label}: two chunked runs");
                assert_eq!(b1, b2, "{label}: two chunked runs");
                assert_eq!(s1, s2, "{label}: two chunked runs");
                assert_eq!(r1.records, records.len() as u64, "{label}");
            }
        }
    }
}

/// `report` without the shutdown-loss ledger a supervised crashed shard
/// absorbs at feed close (the per-record oracle never closes a feed).
fn without_shutdown_loss(report: &RunReport) -> RunReport {
    let lost = report.records_shutdown_lost;
    RunReport {
        records: report.records - lost,
        records_shed: report.records_shed - lost,
        records_shutdown_lost: 0,
        ..report.clone()
    }
}

/// Crash cells: a shard dies at an armed point while fed chunked. Every
/// shard's boundary checkpoint is byte-identical to its per-record
/// oracle's, the crashed shard's report matches the oracle's up to the
/// shutdown ledger, and recovery lands bit-identical on the no-crash
/// baseline.
#[test]
fn crashed_chunked_shards_recover_identically_to_scalar() {
    let scale = scale();
    let base = stream(scale);
    for (fname, faults) in fault_columns() {
        let records = disturbed(&base, &faults);
        for &n in &shard_counts(scale) {
            let crash_shard = n - 1;
            let probe = build_sharded(n, &faults, false, true);
            let part_len = probe.partition(&records)[crash_shard].len() as u64;
            // No-crash durable baseline, with snapshot framing.
            let mut baseline = build_sharded(n, &faults, false, true);
            baseline.run(&records);
            for k in 0..n {
                let snap = baseline
                    .shard(k)
                    .latest_snapshot()
                    .expect("every shard checkpoints");
                assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
            }
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
                let label = format!("{n} shards/{fname}/{cname}");
                let mut sx = build_sharded(n, &faults, false, true).with_crash(crash_shard, crash);
                let oracles = shard_oracles(&sx, &records);
                sx.run(&records);
                assert_eq!(sx.crashed_shards(), vec![crash_shard], "{label}");
                for (k, want) in oracles.iter().enumerate() {
                    let got = sx.shard(k);
                    if k == crash_shard {
                        // The checkpoint a mid-chunk death leaves is the
                        // oracle's, byte for byte.
                        assert_eq!(
                            got.latest_snapshot().as_ref().map(Snapshot::encode),
                            want.latest_snapshot().as_ref().map(Snapshot::encode),
                            "{label}: crashed shard snapshot"
                        );
                        assert_eq!(
                            without_shutdown_loss(got.report()),
                            *want.report(),
                            "{label}: crashed shard report"
                        );
                    } else {
                        assert_shard_matches(&format!("{label}/shard {k}"), got, want);
                    }
                }
                assert!(
                    sx.shard(crash_shard).latest_snapshot().is_some(),
                    "crash leaves a boundary checkpoint"
                );
                assert_eq!(
                    sx.recover_shard(crash_shard, &records),
                    0,
                    "recovery succeeds"
                );
                assert!(sx.crashed_shards().is_empty(), "{label}");
                let (got_report, got_hfta) = sx.finish();
                assert_eq!(got_report, want_report, "{label}: recovered report");
                assert_eq!(got_hfta.results(), want_hfta.results(), "{label}: results");
            }
        }
    }
}

/// Regression: the router's final, partially-filled chunk of every
/// shard is flushed at feed close, never dropped — every record reaches
/// its shard — and a crashed shard's shutdown-loss ledger counts
/// exactly its unconsumed records.
#[test]
fn partial_final_chunk_is_flushed_and_shutdown_loss_stays_exact() {
    let scale = scale();
    let base = stream(scale);
    for &n in &shard_counts(scale) {
        let mut sx = build_sharded(n, &None, false, false);
        sx.run(&base);
        let (report, _) = sx.finish();
        assert_eq!(
            report.records,
            base.len() as u64,
            "{n} shards: every record of every partial chunk processed"
        );
    }
    // A shard dead mid-stream never consumes its tail — including the
    // partial final chunk. The shutdown-loss ledger must count exactly
    // the unconsumed records.
    let n = 2;
    let crash_shard = n - 1;
    let probe = build_sharded(n, &None, false, true);
    let part_len = probe.partition(&base)[crash_shard].len() as u64;
    let crash = CrashPlan::at_record(part_len / 2);
    let mut sx = build_sharded(n, &None, false, true).with_crash(crash_shard, crash);
    sx.run(&base);
    let (report, _) = sx.finish();
    assert_eq!(
        report.records_shutdown_lost,
        part_len - part_len / 2,
        "shutdown loss is exactly the crashed shard's unconsumed tail"
    );
    assert_eq!(report.records, base.len() as u64);
}
