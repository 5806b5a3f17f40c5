//! Differential battery: sharded execution versus the serial executor.
//!
//! The same seeded trace is replayed through the serial [`Executor`]
//! and through [`ShardedExecutor`] across the full deployment matrix
//! {shard counts} × {fault plans} × {guard on/off} × {crash points},
//! asserting at every cell:
//!
//! * **determinism** — two threaded sharded runs produce bit-identical
//!   [`RunReport`]s and result lists, whatever the scheduler did;
//! * **serial equivalence** — with one shard the sharded run is
//!   bit-identical to the serial executor; with lossless channels and
//!   no guard, any shard count reproduces the serial per-epoch result
//!   list exactly and every per-group total equals a naive recount;
//! * **bias identity** — under channel loss/duplication and guard
//!   shedding, `observed = records + count_bias(q)` holds exactly on
//!   both the serial and the merged sharded report, so bias-corrected
//!   totals agree with ground truth on both sides;
//! * **crash equivalence** — crash any one shard at any armed point,
//!   recover it from its boundary snapshot plus replay, and the merged
//!   outputs are bit-identical to the same deployment never crashing;
//! * **snapshot framing** — every shard's boundary checkpoint
//!   round-trips through its binary encoding.
//!
//! `MSA_SCALE` (0, 1] shrinks the trace and trims the matrix so CI can
//! run a reduced battery; unset means the full matrix.

use msa_core::{
    AttrSet, Burst, CostParams, CrashPlan, Executor, ExecutorConfig, FaultPlan, GuardPolicy,
    Record, RunReport, ShardedExecutor, Snapshot,
};
use msa_gigascope::plan::{PhysicalPlan, PlanNode};
use msa_gigascope::Hfta;
use msa_stream::hash::FastMap;
use msa_stream::{GroupKey, UniformStreamBuilder};

const EPOCH: u64 = 500_000;
const SEED: u64 = 0xD1FF;
const GUARD_BUDGET: f64 = 3_000.0;

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

/// AB phantom feeding A and B query tables.
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

/// The fault columns of the matrix: `(name, plan)`. `None` = no-fault.
fn fault_columns() -> Vec<(&'static str, Option<FaultPlan>)> {
    vec![
        ("no-fault", None),
        (
            "loss",
            Some(FaultPlan::new(0xD1F1).with_eviction_loss(0.10)),
        ),
        (
            "duplication",
            Some(FaultPlan::new(0xD1F2).with_eviction_duplication(0.05)),
        ),
        (
            "burst",
            Some(FaultPlan::new(0xD1F3).with_burst(Burst {
                start_epoch: 2,
                epochs: 2,
                amplification: 3,
                fresh_groups: false,
            })),
        ),
    ]
}

/// True when the column leaves the eviction channel lossless (a burst
/// disturbs the stream, which both paths consume identically).
fn lossless(faults: &Option<FaultPlan>) -> bool {
    faults
        .as_ref()
        .is_none_or(|f| f.eviction_loss == 0.0 && f.eviction_duplication == 0.0)
}

/// The stream the executors actually see in this column.
fn disturbed(base: &[Record], faults: &Option<FaultPlan>) -> Vec<Record> {
    match faults {
        Some(f) => f.apply_to_stream(base, EPOCH),
        None => base.to_vec(),
    }
}

fn build_serial(faults: &Option<FaultPlan>, guard_on: bool) -> Executor {
    ExecutorConfig {
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
        faults: *faults,
        guard: guard_on.then(|| GuardPolicy::new(GUARD_BUDGET)),
        durable,
        ..ExecutorConfig::new(phantom_plan(), CostParams::paper(), EPOCH, SEED)
    };
    ShardedExecutor::new(config, n).unwrap()
}

fn run_sharded(
    n: usize,
    faults: &Option<FaultPlan>,
    guard_on: bool,
    records: &[Record],
) -> (RunReport, Hfta) {
    let mut sx = build_sharded(n, faults, guard_on, false);
    sx.run(records);
    sx.finish()
}

fn exact(records: &[Record], q: AttrSet) -> FastMap<GroupKey, u64> {
    let mut m = FastMap::default();
    for r in records {
        *m.entry(r.project(q)).or_insert(0) += 1;
    }
    m
}

/// `observed = records + count_bias(q)` must hold exactly; returns the
/// observed total for further comparison.
fn assert_bias_identity(label: &str, report: &RunReport, hfta: &Hfta, truth: usize) {
    for q in [s("A"), s("B")] {
        let observed: u64 = hfta.totals(q).values().sum();
        assert_eq!(
            observed as i64,
            truth as i64 + report.count_bias(q),
            "{label}: bias identity for query {q}"
        );
    }
}

/// The full no-crash matrix: {shards} × {faults} × {guard}.
#[test]
fn matrix_sharded_runs_are_deterministic_and_serial_equivalent() {
    let scale = scale();
    let base = stream(scale);
    for (fname, faults) in fault_columns() {
        let records = disturbed(&base, &faults);
        for guard_on in [false, true] {
            let mut serial = build_serial(&faults, guard_on);
            serial.run(&records);
            let (serial_report, serial_hfta) = serial.finish();
            assert_bias_identity(
                &format!("serial/{fname}/guard={guard_on}"),
                &serial_report,
                &serial_hfta,
                records.len(),
            );
            for &n in &shard_counts(scale) {
                let label = format!("{n} shards/{fname}/guard={guard_on}");
                let (r1, h1) = run_sharded(n, &faults, guard_on, &records);
                let (r2, h2) = run_sharded(n, &faults, guard_on, &records);
                // Determinism: thread scheduling never leaks into the
                // merged outputs.
                assert_eq!(r1, r2, "{label}: reports across two runs");
                assert_eq!(h1.results(), h2.results(), "{label}: results across runs");
                assert_eq!(r1.records, records.len() as u64, "{label}");
                // Bias identity holds on the merged report exactly as
                // on the serial one — bias-corrected totals therefore
                // agree with ground truth on both sides.
                assert_bias_identity(&label, &r1, &h1, records.len());
                if n == 1 {
                    // One shard: literal bit-identity with serial.
                    assert_eq!(r1, serial_report, "{label}: serial report");
                    assert_eq!(h1.results(), serial_hfta.results(), "{label}");
                }
                if lossless(&faults) && !guard_on {
                    // Lossless, guard off: the merged per-epoch result
                    // list equals serial exactly, and per-group totals
                    // equal a naive recount.
                    assert_eq!(h1.results(), serial_hfta.results(), "{label}: results");
                    for q in [s("A"), s("B")] {
                        assert_eq!(h1.totals(q), exact(&records, q), "{label}: query {q}");
                    }
                }
            }
        }
    }
}

/// The crash columns: {shards} × {faults} × {guard} × {crash points},
/// each recovered shard-locally and compared bit-for-bit against the
/// same deployment never crashing.
#[test]
fn matrix_crashed_shards_recover_to_no_crash_run() {
    let scale = scale();
    let base = stream(scale);
    let full_matrix = scale >= 0.5;
    for (fname, faults) in fault_columns() {
        let records = disturbed(&base, &faults);
        for guard_on in [false, true] {
            for &n in &shard_counts(scale) {
                // No-crash durable baseline for this cell.
                let mut baseline = build_sharded(n, &faults, guard_on, true);
                baseline.run(&records);
                // Every shard's checkpoint frames and round-trips.
                for k in 0..n {
                    let snap = baseline
                        .shard(k)
                        .latest_snapshot()
                        .expect("every shard checkpoints");
                    assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
                }
                let (want_report, want_hfta) = baseline.finish();
                // Crash the last shard at each armed point; fuses count
                // shard-local positions.
                let crash_shard = n - 1;
                let probe = build_sharded(n, &faults, guard_on, true);
                let part_len = probe.partition(&records)[crash_shard].len() as u64;
                let mut crash_points = vec![
                    ("at-record-0", CrashPlan::at_record(0)),
                    ("mid-stream", CrashPlan::at_record(part_len / 2)),
                    ("after-offers", CrashPlan::after_offers(10)),
                ];
                if !full_matrix {
                    crash_points.truncate(2);
                }
                for (cname, crash) in crash_points {
                    let label = format!("{n} shards/{fname}/guard={guard_on}/{cname}");
                    let mut sx =
                        build_sharded(n, &faults, guard_on, true).with_crash(crash_shard, crash);
                    sx.run(&records);
                    assert_eq!(sx.crashed_shards(), vec![crash_shard], "{label}");
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
                    assert_eq!(got_report, want_report, "{label}: merged report");
                    assert_eq!(got_hfta.results(), want_hfta.results(), "{label}: results");
                }
            }
        }
    }
}

/// Durability itself is transparent: a durable sharded run produces the
/// same merged outputs as a non-durable one.
#[test]
fn durability_does_not_change_results() {
    let scale = scale();
    let base = stream(scale);
    for &n in &shard_counts(scale) {
        let (plain_report, plain_hfta) = run_sharded(n, &None, false, &base);
        let mut durable = build_sharded(n, &None, false, true);
        durable.run(&base);
        let (durable_report, durable_hfta) = durable.finish();
        assert_eq!(plain_report, durable_report, "{n} shards");
        assert_eq!(plain_hfta.results(), durable_hfta.results(), "{n} shards");
    }
}
