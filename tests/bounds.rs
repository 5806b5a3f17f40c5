//! Bound-soundness battery: the degraded-answer subsystem under every
//! loss class the runtime can produce.
//!
//! The contract under test, for every cell of
//! {shard counts} × {channel loss, duplication, burst} × {panic, stall,
//! poison} × {crash points}:
//!
//! * **sound** — the fault-free true count lies inside the guaranteed
//!   interval: `lo <= truth <= hi` per query, and every per-group count
//!   lies inside its group interval;
//! * **exact when nothing was lost** — fault-free runs report the
//!   degenerate interval `lo == hi == truth`, bit-identical across
//!   shard counts;
//! * **deterministic** — two seeded runs of the same cell produce
//!   bit-identical [`BoundsReport`]s;
//! * **policy-faithful** — `ExactOrStall` never reports a
//!   non-degenerate interval, `BoundedApprox { max_width }` keeps the
//!   width within the promise unless `bound_breached` says otherwise,
//!   and the breach flag survives crash recovery bit-exactly.
//!
//! `MSA_SCALE` (0, 1] shrinks the trace and trims the matrix as in the
//! differential battery.

use msa_core::{
    AttrSet, BoundsReport, Burst, CostParams, CrashPlan, DegradationPolicy, Executor, FaultPlan,
    GuardPolicy, Record, ShardFault, ShardedExecutor, SupervisorPolicy,
};
use msa_gigascope::plan::{PhysicalPlan, PlanNode};
use msa_stream::hash::FastMap;
use msa_stream::{GroupKey, UniformStreamBuilder};

const EPOCH: u64 = 500_000;
const SEED: u64 = 0xB0DD;

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

fn build(n: usize) -> ShardedExecutor {
    ShardedExecutor::new(phantom_plan(), CostParams::paper(), EPOCH, SEED, n).unwrap()
}

/// Exact per-group recount of the undisturbed stream for one query.
fn exact(records: &[Record], q: AttrSet) -> FastMap<GroupKey, u64> {
    let mut m = FastMap::default();
    for r in records {
        *m.entry(r.project(q)).or_insert(0) += 1;
    }
    m
}

/// Core soundness assertion: the fault-free truth of `records` lies
/// inside every query interval and every group interval of `bounds`.
fn assert_sound(label: &str, bounds: &BoundsReport, records: &[Record]) {
    let truth = records.len() as u64;
    for q in [s("A"), s("B")] {
        let qb = bounds
            .for_query(q)
            .unwrap_or_else(|| panic!("{label}: no bounds for query {q}"));
        assert!(
            qb.contains(truth),
            "{label}: query {q}: truth {truth} outside [{}, {}]",
            qb.lo(),
            qb.hi()
        );
        assert_eq!(
            qb.width(),
            qb.losses.total(),
            "{label}: width must equal attributed loss mass"
        );
        for (key, count) in exact(records, q) {
            let (lo, hi) = qb.group_bounds(key);
            assert!(
                lo <= count && count <= hi,
                "{label}: query {q} group {key}: true {count} outside [{lo}, {hi}]"
            );
        }
    }
}

/// Fault-free runs report the degenerate interval, bit-identical across
/// every shard count, and the live (pre-finish) view is already sound.
#[test]
fn fault_free_intervals_are_degenerate_and_shard_invariant() {
    let records = stream(scale());
    let truth = records.len() as u64;
    let mut reference: Option<BoundsReport> = None;
    for &n in &shard_counts(scale()) {
        let mut sx = build(n);
        sx.run(&records);
        // Live view before the final flush: mass still parked in tables
        // is progress, not error — the progressive bound covers it.
        let live = sx.bounds();
        for qb in &live.queries {
            assert!(
                qb.lo() <= truth && truth <= qb.hi_progressive(),
                "{n} shards: live truth {truth} outside [{}, {}]",
                qb.lo(),
                qb.hi_progressive()
            );
        }
        let (report, hfta) = sx.finish();
        let bounds = BoundsReport::at_finish(&report, &hfta);
        assert_sound(&format!("{n} shards/fault-free"), &bounds, &records);
        assert!(bounds.is_exact(), "{n} shards: fault-free must be exact");
        assert!(!bounds.bound_breached);
        for q in [s("A"), s("B")] {
            let qb = bounds.for_query(q).unwrap();
            assert_eq!(qb.observed, truth, "{n} shards: observed mass");
            assert_eq!(qb.in_flight, 0, "{n} shards: nothing in flight");
            assert_eq!((qb.lo(), qb.hi()), (truth, truth));
            // Degenerate group intervals equal the exact recount.
            for (key, count) in exact(&records, q) {
                assert_eq!(qb.group_bounds(key), (count, count), "{n} shards/{q}");
            }
        }
        // The interval bytes are invariant in the shard count.
        match &reference {
            Some(r) => assert_eq!(*r, bounds, "{n} shards vs reference bounds"),
            None => reference = Some(bounds),
        }
    }
}

/// {shards} × {loss, dup, loss+dup} channel-fault matrix: intervals
/// contain the truth, losses land in the right classes, and two seeded
/// runs agree bit for bit.
#[test]
fn channel_fault_matrix_is_sound_and_deterministic() {
    let records = stream(scale());
    let cells: Vec<(&str, FaultPlan)> = vec![
        ("loss", FaultPlan::new(0xB01).with_eviction_loss(0.10)),
        ("dup", FaultPlan::new(0xB02).with_eviction_duplication(0.08)),
        (
            "loss+dup",
            FaultPlan::new(0xB03)
                .with_eviction_loss(0.06)
                .with_eviction_duplication(0.05),
        ),
    ];
    for &n in &shard_counts(scale()) {
        for (fname, faults) in &cells {
            let label = format!("{n} shards/{fname}");
            let run_once = || {
                let mut sx = build(n).with_faults(faults);
                sx.run(&records);
                let (report, hfta) = sx.finish();
                (BoundsReport::at_finish(&report, &hfta), report)
            };
            let (b1, report) = run_once();
            let (b2, _) = run_once();
            assert_eq!(b1, b2, "{label}: bounds across two runs");
            assert_sound(&label, &b1, &records);
            for q in [s("A"), s("B")] {
                let qb = b1.for_query(q).unwrap();
                assert_eq!(qb.in_flight, 0, "{label}: ledgers attribute everything");
                // The injected class is the one that widened the interval.
                assert_eq!(
                    qb.losses.channel_dropped,
                    report.dropped_records_for(q),
                    "{label}"
                );
                assert_eq!(
                    qb.losses.channel_duplicated,
                    report.duplicated_records_for(q),
                    "{label}"
                );
                assert_eq!(qb.losses.guard_shed, 0, "{label}: no guard configured");
            }
            if fname.contains("loss") {
                assert!(
                    [s("A"), s("B")].iter().any(|&q| b1
                        .for_query(q)
                        .unwrap()
                        .losses
                        .channel_dropped
                        > 0),
                    "{label}: loss must fire"
                );
            }
            if fname.contains("dup") {
                assert!(
                    [s("A"), s("B")].iter().any(|&q| b1
                        .for_query(q)
                        .unwrap()
                        .losses
                        .channel_duplicated
                        > 0),
                    "{label}: dup must fire"
                );
            }
        }
    }
}

/// A rate burst changes *which* stream arrives, not the soundness
/// contract: bounds are computed against the disturbed stream's truth,
/// stay sound under composed channel loss, and are deterministic.
#[test]
fn burst_disturbance_keeps_bounds_sound() {
    let records = stream(scale());
    let plan = FaultPlan::new(0xB57).with_burst(Burst {
        start_epoch: 2,
        epochs: 2,
        amplification: 3,
        fresh_groups: false,
    });
    let disturbed = plan.apply_to_stream(&records, EPOCH);
    assert!(disturbed.len() > records.len(), "burst must add mass");
    let faults = FaultPlan::new(0xB58).with_eviction_loss(0.07);
    for &n in &shard_counts(scale()) {
        let label = format!("{n} shards/burst");
        let run_once = || {
            let mut sx = build(n).with_faults(&faults);
            sx.run(&disturbed);
            let (report, hfta) = sx.finish();
            BoundsReport::at_finish(&report, &hfta)
        };
        let b1 = run_once();
        assert_eq!(b1, run_once(), "{label}: bounds across two runs");
        assert_sound(&label, &b1, &disturbed);
    }
}

/// {panic, stall, poison} × {shards} supervision drills: replay-covered
/// faults stay exact, quarantines widen the interval by exactly the
/// poisoned mass, and the replay odometer surfaces what supervision
/// saved.
#[test]
fn supervision_drills_keep_bounds_sound() {
    let scale = scale();
    let records = stream(scale);
    let truth = records.len() as u64;
    for &n in &shard_counts(scale) {
        let len = build(n).partition(&records)[n - 1].len() as u64;
        let drills: Vec<(&str, ShardFault, SupervisorPolicy)> = vec![
            (
                "panic",
                ShardFault::panic_at(len / 2),
                SupervisorPolicy::default(),
            ),
            (
                "stall",
                ShardFault::stall_at(len / 3, 1 << 40),
                SupervisorPolicy::default().with_stall_deadline(16),
            ),
            (
                "poison",
                ShardFault::panic_repeating(len / 2, 8),
                SupervisorPolicy::default(),
            ),
        ];
        for (dname, fault, policy) in drills {
            let label = format!("{n} shards/{dname}");
            let run_once = || {
                let mut sx = build(n)
                    .with_shard_fault(n - 1, fault)
                    .with_supervision(policy);
                sx.run(&records);
                let live = sx.bounds();
                let (report, hfta) = sx.finish();
                (live, BoundsReport::at_finish(&report, &hfta))
            };
            let (live1, b1) = run_once();
            let (live2, b2) = run_once();
            assert_eq!(live1, live2, "{label}: live bounds across runs");
            assert_eq!(b1, b2, "{label}: final bounds across runs");
            assert_sound(&label, &b1, &records);
            if dname == "poison" {
                // Exactly the quarantined record is uncertain.
                for q in [s("A"), s("B")] {
                    let qb = b1.for_query(q).unwrap();
                    assert_eq!(qb.losses.poison_quarantined, 1, "{label}");
                    assert_eq!((qb.lo(), qb.hi()), (truth - 1, truth), "{label}");
                    assert!(!qb.is_exact(), "{label}");
                }
            } else {
                // Replay covered the outage: the answer is exact and the
                // replayed mass is credited, not charged.
                assert!(b1.is_exact(), "{label}: replay-covered must be exact");
                assert!(
                    live1.records_replayed > 0,
                    "{label}: replay odometer must show the save"
                );
            }
        }
    }
}

/// Replay-buffer overrun and a mid-epoch dead shard: both losses are
/// typed, the intervals stay sound, and the cells are deterministic.
#[test]
fn overrun_and_shutdown_losses_stay_sound() {
    let records = stream(scale());
    let n = 4;
    let len = build(n).partition(&records)[n - 1].len() as u64;

    // Zero-capacity replay buffer: the checkpoint-to-kill gap is lost.
    let overrun_once = || {
        let mut sx = build(n)
            .with_shard_fault(n - 1, ShardFault::panic_at(3 * len / 4))
            .with_supervision(SupervisorPolicy::default().with_replay_capacity(0));
        sx.run(&records);
        let (report, hfta) = sx.finish();
        BoundsReport::at_finish(&report, &hfta)
    };
    let b1 = overrun_once();
    assert_eq!(b1, overrun_once(), "overrun: bounds across runs");
    assert_sound("overrun", &b1, &records);
    let qb = b1.for_query(s("A")).unwrap();
    assert!(qb.losses.replay_overrun > 0, "overrun class must fire");
    assert_eq!(qb.losses.guard_shed, 0, "overrun is not guard shedding");

    // A dead *process* mid-epoch: its in-flight feed is shutdown loss,
    // its parked table mass is abandoned — never silently dropped.
    let shutdown_once = || {
        let mut sx = build(n)
            .with_durability()
            .with_crash(n - 1, CrashPlan::at_record(len / 2));
        sx.run(&records);
        let (report, hfta) = sx.finish();
        BoundsReport::at_finish(&report, &hfta)
    };
    let b2 = shutdown_once();
    assert_eq!(b2, shutdown_once(), "shutdown: bounds across runs");
    assert_sound("shutdown", &b2, &records);
    let qb = b2.for_query(s("A")).unwrap();
    assert!(qb.losses.shutdown_lost > 0, "shutdown class must fire");
    assert!(qb.losses.abandoned > 0, "abandoned class must fire");
    assert!(!b2.is_exact(), "a dead shard cannot be exact");
}

/// Overload harness shared by the policy tests: a 4× burst against a
/// deliberately modest budget, long enough to force the guard ladder up.
fn overload_stream(scale: f64) -> (Vec<Record>, f64, u64) {
    let epoch_micros = 1_000_000;
    let records = ((24_000.0 * scale) as usize).max(6_000);
    let organic = UniformStreamBuilder::new(4, 50)
        .records(records)
        .duration_secs(6.0)
        .seed(3)
        .build();
    let mut base = Executor::new(phantom_plan(), CostParams::paper(), epoch_micros, 7);
    base.run(&organic.records);
    let (base_report, _) = base.finish();
    let planned: f64 = base_report
        .epoch_costs
        .iter()
        .map(|&(_, i, f)| i + f)
        .fold(0.0, f64::max);
    let faults = FaultPlan::new(17).with_burst(Burst {
        start_epoch: 2,
        epochs: 2,
        amplification: 4,
        fresh_groups: false,
    });
    let disturbed = faults.apply_to_stream(&organic.records, epoch_micros);
    // Deliberately tight budget (well under the organic peak): the
    // guard must reach the shedding rung at every `MSA_SCALE`, because
    // these tests exercise the policy wiring, not the ladder timing
    // (the chaos suite owns that).
    (disturbed, 0.6 * planned, epoch_micros)
}

fn overloaded(policy: DegradationPolicy, e_p: f64, epoch: u64) -> Executor {
    let mut guard = GuardPolicy::new(e_p).with_degradation(policy);
    guard.recover_ratio = 0.6;
    guard.shed_factor = 4;
    Executor::new(phantom_plan(), CostParams::paper(), epoch, 7).with_guard(guard)
}

/// `BestEffort` sheds freely under the burst; every shed record is
/// attributed to the guard-shed class and the interval still contains
/// the truth. No budget means no breach, ever.
#[test]
fn best_effort_shedding_is_attributed_and_sound() {
    let (records, e_p, epoch) = overload_stream(scale());
    let run_once = || {
        let mut ex = overloaded(DegradationPolicy::BestEffort, e_p, epoch);
        ex.run(&records);
        let live = ex.bounds();
        let (report, hfta) = ex.finish();
        (live, BoundsReport::at_finish(&report, &hfta), report)
    };
    let (live1, b1, report) = run_once();
    let (live2, b2, _) = run_once();
    assert_eq!(live1, live2, "best-effort: live bounds across runs");
    assert_eq!(b1, b2, "best-effort: final bounds across runs");
    assert!(report.records_shed > 0, "the burst must force shedding");
    assert_sound("best-effort", &b1, &records);
    assert!(!b1.bound_breached, "best-effort has no budget to breach");
    assert_eq!(b1.records_shed_denied, 0, "best-effort never denies");
    assert_eq!(
        live1.records_lost, report.records_shed,
        "every shed is metered on the odometer"
    );
    let qb = b1.for_query(s("A")).unwrap();
    assert_eq!(qb.losses.guard_shed, report.records_shed);
}

/// `ExactOrStall` under the same burst: the lossy rung is skipped, every
/// drop slot is denied, and the reported interval is degenerate — the
/// answer never degrades, whatever the load.
#[test]
fn exact_or_stall_never_reports_a_non_degenerate_interval() {
    let (records, e_p, epoch) = overload_stream(scale());
    let truth = records.len() as u64;
    let mut ex = overloaded(DegradationPolicy::ExactOrStall, e_p, epoch);
    ex.run(&records);
    let (report, hfta) = ex.finish();
    let bounds = BoundsReport::at_finish(&report, &hfta);
    assert_eq!(report.records_shed, 0, "exact-or-stall must not shed");
    assert!(
        bounds.records_shed_denied > 0,
        "the overload must have asked; every ask must be denied"
    );
    assert!(bounds.is_exact(), "interval must stay degenerate");
    assert!(!bounds.bound_breached);
    assert_sound("exact-or-stall", &bounds, &records);
    for q in [s("A"), s("B")] {
        let qb = bounds.for_query(q).unwrap();
        assert_eq!((qb.lo(), qb.hi()), (truth, truth), "{q}");
    }
}

/// `BoundedApprox { max_width }` spends exactly its budget and stops:
/// the final width never exceeds the promise, the denial counter shows
/// the guard holding the line, and the breach flag stays down.
#[test]
fn bounded_approx_caps_the_interval_width() {
    let (records, e_p, epoch) = overload_stream(scale());
    let max_width = 64;
    let run_once = || {
        let mut ex = overloaded(DegradationPolicy::BoundedApprox { max_width }, e_p, epoch);
        ex.run(&records);
        let live = ex.bounds();
        let (report, hfta) = ex.finish();
        (live, BoundsReport::at_finish(&report, &hfta), report)
    };
    let (live1, b1, report) = run_once();
    let (live2, b2, _) = run_once();
    assert_eq!(live1, live2, "bounded: live bounds across runs");
    assert_eq!(b1, b2, "bounded: final bounds across runs");
    assert_sound("bounded", &b1, &records);
    assert!(!b1.bound_breached, "controlled shedding never breaches");
    assert_eq!(
        report.records_shed, max_width,
        "the guard spends its whole budget under a sustained burst"
    );
    assert!(
        b1.max_width() <= max_width,
        "width {} exceeds the promise {max_width}",
        b1.max_width()
    );
    assert!(
        b1.records_shed_denied > 0,
        "post-budget drop slots must be denied"
    );
    assert_eq!(live1.records_lost, max_width);
}

/// Uncontrolled loss (channel drops) past the promised width latches
/// the breach flag — the interval stays sound, the *promise* breaks,
/// and the latch is deterministic.
#[test]
fn uncontrolled_loss_breaches_the_promise_deterministically() {
    let records = stream(scale());
    let run_once = || {
        let guard = GuardPolicy::new(1e12)
            .with_degradation(DegradationPolicy::BoundedApprox { max_width: 1 });
        let mut ex = Executor::new(phantom_plan(), CostParams::paper(), EPOCH, SEED)
            .with_guard(guard)
            .with_faults(&FaultPlan::new(0xFA11).with_eviction_loss(0.10));
        ex.run(&records);
        let (report, hfta) = ex.finish();
        (BoundsReport::at_finish(&report, &hfta), report)
    };
    let (b1, report) = run_once();
    let (b2, _) = run_once();
    assert_eq!(b1, b2, "breach latch across runs");
    assert!(report.evictions_dropped > 1, "drops must exceed the budget");
    assert!(
        b1.bound_breached,
        "uncontrolled loss past the budget must latch the breach"
    );
    assert_sound("breached", &b1, &records);
    assert!(
        b1.max_width() > 1,
        "the width really did exceed the promise"
    );
}

/// Crash → recover → resume under guard shedding *and* channel faults:
/// the recovered run's bounds — intervals, loss classes, breach flag —
/// are bit-identical to the never-crashed run at every crash point.
#[test]
fn bounds_survive_crash_recovery_bit_identical() {
    let scale = scale();
    let records = stream(scale);
    let faults = FaultPlan::new(0xC4A5)
        .with_eviction_loss(0.08)
        .with_eviction_duplication(0.04);
    let guard =
        GuardPolicy::new(1e12).with_degradation(DegradationPolicy::BoundedApprox { max_width: 3 });

    let mut base = Executor::new(phantom_plan(), CostParams::paper(), EPOCH, SEED)
        .with_guard(guard)
        .with_faults(&faults);
    base.run(&records);
    let (base_report, base_hfta) = base.finish();
    let base_bounds = BoundsReport::at_finish(&base_report, &base_hfta);
    assert_sound("recovery baseline", &base_bounds, &records);
    assert!(
        base_bounds.bound_breached,
        "the 8% loss must breach the tiny promise"
    );

    let n = records.len() as u64;
    let crash_points = if scale < 0.5 {
        vec![n / 4, n / 2]
    } else {
        vec![1, n / 4, n / 2, 3 * n / 4, n - 1]
    };
    for at in crash_points {
        let label = format!("crash at record {at}");
        let mut crashed = Executor::new(phantom_plan(), CostParams::paper(), EPOCH, SEED)
            .with_guard(guard)
            .with_faults(&faults)
            .with_snapshots()
            .with_crash(CrashPlan::at_record(at));
        crashed.run(&records);
        assert!(crashed.has_crashed(), "{label}: fuse must fire");
        // The degraded-answer view of the crashed process: still sound
        // against the truth, even with the tail of the stream unseen.
        let partial = crashed.bounds();
        for qb in &partial.queries {
            assert!(
                qb.lo() <= n,
                "{label}: partial lo {} above the whole-stream truth",
                qb.lo()
            );
        }
        let snap = crashed.latest_snapshot().expect("genesis snapshot exists");
        let mut recovered = Executor::new(phantom_plan(), CostParams::paper(), EPOCH, SEED)
            .recover(snap)
            .unwrap_or_else(|e| panic!("{label}: recovery refused: {e}"));
        recovered.run(&records[snap.records_hwm as usize..]);
        let (report, hfta) = recovered.finish();
        let bounds = BoundsReport::at_finish(&report, &hfta);
        assert_eq!(bounds, base_bounds, "{label}: bounds vs never-crashed");
    }
}
