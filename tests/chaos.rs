//! Chaos suite: seeded fault injection and runtime overload, end to end.
//!
//! Three families of properties:
//!
//! 1. **Exact accounting** — for any injected channel faults and any
//!    shedding, the identity `observed = true + count_bias(q)` holds per
//!    query, and the report accounts every injected event.
//! 2. **No panics** — the executor and HFTA complete on disturbed
//!    streams (bursts, clock skew, loss, duplication, tiny tables).
//! 3. **Overload guard demo** — a burst 4× the planned rate breaches
//!    the budget; the degradation ladder caps the per-epoch cost within
//!    two epochs and the guard returns to level 0 after the burst.
//! 4. **Crash sweeps** — process deaths at the stream's start, middle,
//!    end and mid-flush, composed with channel loss/duplication, all
//!    recover bit-identically from the boundary checkpoint plus replay.

use msa_core::{
    AttrSet, Burst, CostParams, CrashPlan, EngineOptions, Executor, FaultPlan, GuardLevel,
    GuardPolicy, MultiAggregator, Record,
};
use msa_gigascope::plan::{PhysicalPlan, PlanNode};
use msa_stream::hash::FastMap;
use msa_stream::{GroupKey, PacketTraceBuilder, TraceProfile, UniformStreamBuilder};

fn s(x: &str) -> AttrSet {
    AttrSet::parse(x).unwrap()
}

fn exact(records: &[Record], q: AttrSet) -> FastMap<GroupKey, u64> {
    let mut m = FastMap::default();
    for r in records {
        *m.entry(r.project(q)).or_insert(0) += 1;
    }
    m
}

/// AB phantom feeding A and B query tables.
fn phantom_plan(parent_buckets: usize, child_buckets: usize) -> PhysicalPlan {
    PhysicalPlan::new(vec![
        PlanNode {
            attrs: s("AB"),
            parent: None,
            buckets: parent_buckets,
            is_query: false,
        },
        PlanNode {
            attrs: s("A"),
            parent: Some(0),
            buckets: child_buckets,
            is_query: true,
        },
        PlanNode {
            attrs: s("B"),
            parent: Some(0),
            buckets: child_buckets,
            is_query: true,
        },
    ])
    .unwrap()
}

/// The fig. 14 workload (four 2-attribute queries over the calibrated
/// packet trace) under 10 % eviction loss + 5 % duplication: the run
/// completes, every injected event is accounted, and per-query counts
/// match the reported bias exactly.
#[test]
fn fig14_chaos_faults_are_accounted_exactly() {
    let trace = PacketTraceBuilder::new(TraceProfile::paper_scaled(0.05))
        .seed(41)
        .build();
    let queries = vec![s("AB"), s("BC"), s("BD"), s("CD")];
    let mut opts = EngineOptions::new(3_000.0);
    opts.faults = Some(
        FaultPlan::new(0xC4A0_5EED)
            .with_eviction_loss(0.10)
            .with_eviction_duplication(0.05),
    );
    let mut engine = MultiAggregator::new(queries.clone(), opts);
    for r in &trace.records {
        engine.push(*r);
    }
    let out = engine.finish();
    assert_eq!(out.report.records as usize, trace.len());

    // The faults actually fired, and the totals account both sides.
    assert!(out.report.evictions_dropped > 0, "loss must fire at 10%");
    assert!(out.report.evictions_duplicated > 0, "dup must fire at 5%");
    let dropped_mass: u64 = out.report.dropped_records.iter().map(|(_, n)| n).sum();
    let duplicated_mass: u64 = out.report.duplicated_records.iter().map(|(_, n)| n).sum();
    assert!(dropped_mass >= out.report.evictions_dropped);
    assert!(duplicated_mass >= out.report.evictions_duplicated);
    // The per-epoch fault trace covers every channel event.
    let (trace_drops, trace_dups) = out
        .report
        .epoch_faults
        .iter()
        .fold((0, 0), |(d, u), &(_, dd, du)| (d + dd, u + du));
    assert_eq!(trace_drops, out.report.evictions_dropped);
    assert_eq!(trace_dups, out.report.evictions_duplicated);

    // Exact bias identity per query: observed = true + count_bias(q),
    // which also places every count inside the reported bounds.
    for q in &queries {
        let observed: u64 = out.totals(*q).values().sum();
        let truth = trace.len() as i64;
        assert_eq!(
            observed as i64,
            truth + out.report.count_bias(*q),
            "bias identity for query {q}"
        );
        let lower =
            truth - out.report.dropped_records_for(*q) as i64 - out.report.records_shed as i64;
        let upper = truth + out.report.duplicated_records_for(*q) as i64;
        assert!((lower..=upper).contains(&(observed as i64)));
    }
}

/// Burst + clock-skew disturbances change *which* stream the executor
/// sees, not its exactness: results must equal a naive recount of the
/// disturbed stream, and the plan replays deterministically.
#[test]
fn burst_and_skew_streams_stay_exact() {
    let stream = UniformStreamBuilder::new(4, 300)
        .records(30_000)
        .duration_secs(10.0)
        .seed(5)
        .build();
    let plan = FaultPlan::new(9)
        .with_burst(Burst {
            start_epoch: 3,
            epochs: 2,
            amplification: 3,
            fresh_groups: false,
        })
        .with_clock_skew(250_000);
    let disturbed = plan.apply_to_stream(&stream.records, 1_000_000);
    assert!(disturbed.len() > stream.records.len(), "burst amplified");
    assert_eq!(disturbed, plan.apply_to_stream(&stream.records, 1_000_000));

    let mut ex = Executor::new(phantom_plan(512, 256), CostParams::paper(), 1_000_000, 7);
    ex.run(&disturbed);
    let (report, hfta) = ex.finish();
    assert_eq!(report.records as usize, disturbed.len());
    for q in [s("A"), s("B")] {
        assert_eq!(hfta.totals(q), exact(&disturbed, q), "query {q}");
    }
}

/// Fresh-group bursts (DoS-style new flows) are also exact — the
/// synthetic groups are ordinary records as far as counting goes.
#[test]
fn fresh_group_burst_is_exact_and_raises_flush_cost() {
    let stream = UniformStreamBuilder::new(4, 100)
        .records(20_000)
        .duration_secs(10.0)
        .seed(6)
        .build();
    let plan = FaultPlan::new(12).with_burst(Burst {
        start_epoch: 4,
        epochs: 3,
        amplification: 4,
        fresh_groups: true,
    });
    let disturbed = plan.apply_to_stream(&stream.records, 1_000_000);

    let mut ex = Executor::new(phantom_plan(4096, 2048), CostParams::paper(), 1_000_000, 7);
    ex.run(&disturbed);
    let (report, hfta) = ex.finish();
    for q in [s("A"), s("B")] {
        assert_eq!(hfta.totals(q), exact(&disturbed, q), "query {q}");
    }
    // Group explosion: burst epochs must flush strictly more than calm
    // ones (that is what distinguishes fresh_groups from a rate burst).
    let flush_at = |e: u64| {
        report
            .epoch_costs
            .iter()
            .find(|(ep, _, _)| *ep == e)
            .map(|&(_, _, f)| f)
            .unwrap_or(0.0)
    };
    assert!(
        flush_at(5) > 2.0 * flush_at(1),
        "fresh groups must blow up the flush: {} vs {}",
        flush_at(5),
        flush_at(1)
    );
}

/// The fig. 15 scenario at runtime: a 4× rate burst mid-stream breaches
/// the peak budget; the guard sheds within two epochs, holds the
/// per-epoch cost within 10 % of `E_p`, and steps back to level 0
/// within three epochs of the burst ending.
#[test]
fn overload_guard_demo_caps_cost_and_recovers() {
    let stream = UniformStreamBuilder::new(4, 50)
        .records(60_000)
        .duration_secs(15.0)
        .seed(3)
        .build();
    let epoch_micros = 1_000_000;

    // Baseline: unguarded run on the organic stream fixes the planned
    // per-epoch cost.
    let mut base = Executor::new(phantom_plan(128, 64), CostParams::paper(), epoch_micros, 7);
    base.run(&stream.records);
    let (base_report, _) = base.finish();
    let planned: f64 = base_report
        .epoch_costs
        .iter()
        .map(|&(_, i, f)| i + f)
        .fold(0.0, f64::max);
    assert!(planned > 0.0);
    // A 4x rate burst of *replicated* records multiplies only the
    // raw-probe term (copies are streak hits on occupied buckets), so
    // the headroom is deliberately modest.
    let e_p = 1.25 * planned;

    // The burst: 4× the planned rate for epochs 6..10.
    let burst_start = 6;
    let burst_epochs = 4;
    let burst_end = burst_start + burst_epochs; // first calm epoch
    let faults = FaultPlan::new(17).with_burst(Burst {
        start_epoch: burst_start,
        epochs: burst_epochs,
        amplification: 4,
        fresh_groups: false,
    });
    let disturbed = faults.apply_to_stream(&stream.records, epoch_micros);

    // recover_ratio splits "burst but shedding" (~planned, hold) from
    // "burst over, still shedding" (~planned/4, calm, step down).
    let mut policy = GuardPolicy::new(e_p);
    policy.recover_ratio = 0.6;
    policy.shed_factor = 4;
    let mut ex = Executor::new(phantom_plan(128, 64), CostParams::paper(), epoch_micros, 7)
        .with_guard(policy);
    ex.run(&disturbed);
    let (report, _, guard) = ex.finish_parts();
    let guard = guard.expect("guard configured");

    // The burst breached: the first transition leaves Normal inside the
    // burst window. (Transition epochs are 1-based flush counts; the
    // 0-based epoch whose flush triggered it is `epoch - 1`.)
    let first = report.guard_transitions.first().expect("burst must breach");
    assert_eq!(first.from, GuardLevel::Normal);
    let breach = first.epoch - 1;
    assert!(
        (burst_start..burst_end).contains(&breach),
        "breach at epoch {breach}, burst {burst_start}..{burst_end}"
    );

    // Within two epochs of the breach, per-epoch cost is back within
    // 10% of E_p, and stays there until the burst ends.
    for &(epoch, intra, flush) in &report.epoch_costs {
        if epoch >= breach + 2 && epoch < burst_end {
            assert!(
                intra + flush <= 1.1 * e_p,
                "epoch {epoch}: cost {} exceeds 1.1 x E_p = {}",
                intra + flush,
                1.1 * e_p
            );
        }
    }
    assert!(report.epochs_degraded > 0);
    assert!(report.records_shed > 0, "the ladder must have shed");

    // Recovery: back to level 0 within three epochs of the burst end.
    let last = report.guard_transitions.last().unwrap();
    assert_eq!(last.to, GuardLevel::Normal, "guard must fully recover");
    assert!(
        last.epoch - 1 <= burst_end + 3,
        "recovered at epoch {}, burst ended at {burst_end}",
        last.epoch - 1
    );
    assert_eq!(guard.level(), GuardLevel::Normal);

    // Degradation is accounted: shedding undercounts every query by
    // exactly records_shed.
    assert_eq!(report.count_bias(s("A")), -(report.records_shed as i64));
}

/// Engine-level overload: the guard escalates to Repair, the engine
/// applies an incremental shrink (repairs ≥ 1), and the merged report
/// still satisfies the bias identity across executor swaps.
#[test]
fn engine_applies_guard_repair_and_stays_accounted() {
    let stream = UniformStreamBuilder::new(4, 200)
        .records(60_000)
        .duration_secs(12.0)
        .seed(8)
        .build();
    let queries = vec![s("AB"), s("BC")];
    let mut opts = EngineOptions::new(4_000.0);
    opts.epoch_micros = 1_000_000;
    opts.bootstrap_records = 5_000;
    opts.retain_results = true;
    // A budget low enough that the organic load breaches repeatedly:
    // the ladder runs through shed → phantoms-off → repair.
    opts.guard = Some(GuardPolicy::new(1.0));
    let mut engine = MultiAggregator::new(queries.clone(), opts);
    for r in &stream.records {
        engine.push(*r);
    }
    let out = engine.finish();

    assert!(out.repairs >= 1, "guard must trigger at least one repair");
    assert!(out.report.records_shed > 0);
    assert!(out.report.epochs_degraded > 0);
    assert!(!out.report.guard_transitions.is_empty());
    assert_eq!(out.report.records as usize, stream.records.len());
    for q in &queries {
        let observed: u64 = out.totals(*q).values().sum();
        assert_eq!(
            observed as i64,
            stream.records.len() as i64 + out.report.count_bias(*q),
            "bias identity across repairs for query {q}"
        );
    }
}

/// Crash sweep composed with channel chaos: kill the pipeline at 0 %,
/// 50 %, mid-flush and the last record of a lossy, duplicating run;
/// every recovery lands bit-identical to the crash-free run, so the
/// count-bias bounds of the fault suite carry over unchanged.
#[test]
fn crash_sweep_composed_with_channel_faults_recovers_exactly() {
    let stream = UniformStreamBuilder::new(4, 150)
        .records(12_000)
        .duration_secs(6.0)
        .seed(31)
        .build();
    let faults = FaultPlan::new(0xDEAD)
        .with_eviction_loss(0.10)
        .with_eviction_duplication(0.05);
    let build = || {
        Executor::new(phantom_plan(64, 32), CostParams::paper(), 1_000_000, 9).with_faults(&faults)
    };

    // Crash-free reference.
    let mut base = build();
    base.run(&stream.records);
    let (base_report, base_hfta) = base.finish();
    assert!(base_report.evictions_dropped > 0);
    assert!(base_report.evictions_duplicated > 0);
    let total_offers = base_report.intra_evictions + base_report.flush_evictions;

    // A provably mid-flush offer index: one offer into the first
    // end-of-epoch scan that makes at least two.
    let mid_flush = {
        let mut probe = build();
        let mut found = None;
        let (mut prev_offers, mut prev_flush, mut prev_epochs) = (0u64, 0u64, 0u64);
        for r in &stream.records {
            probe.process(r);
            let rep = probe.report();
            if rep.epochs > prev_epochs && rep.flush_evictions - prev_flush >= 2 {
                found = Some(prev_offers + 1);
                break;
            }
            prev_epochs = rep.epochs;
            prev_flush = rep.flush_evictions;
            prev_offers = rep.intra_evictions + rep.flush_evictions;
        }
        found.expect("workload must have a multi-eviction flush")
    };

    let n = stream.records.len() as u64;
    let crashes = [
        (CrashPlan::at_record(0), "0%"),
        (CrashPlan::at_record(n / 2), "50%"),
        (CrashPlan::after_offers(mid_flush), "mid-flush"),
        (CrashPlan::at_record(n - 1), "last record"),
        (CrashPlan::after_offers(total_offers - 1), "final flush"),
    ];
    for (crash, what) in crashes {
        let mut crashed = build().with_snapshots().with_crash(crash);
        crashed.run(&stream.records);
        if !crashed.has_crashed() {
            crashed.flush_epoch();
        }
        assert!(crashed.has_crashed(), "fuse at {what} must fire");
        let snap = crashed.latest_snapshot().expect("boundary checkpoint");

        let mut ex = build()
            .recover(snap)
            .unwrap_or_else(|e| panic!("recovery at {what}: {e}"));
        ex.run(&stream.records[snap.records_hwm as usize..]);
        let (report, hfta) = ex.finish();
        assert_eq!(report, base_report, "report diverged at {what}");
        for q in [s("A"), s("B")] {
            assert_eq!(
                hfta.totals(q),
                base_hfta.totals(q),
                "totals for {q} diverged at {what}"
            );
            // The chaos suite's bias identity survives the crash.
            let observed: u64 = hfta.totals(q).values().sum();
            assert_eq!(
                observed as i64,
                stream.records.len() as i64 + report.count_bias(q),
                "bias identity at {what} for {q}"
            );
        }
    }
}

/// A pathologically small plan (one-bucket tables) under every fault at
/// once: the pipeline must not panic and must stay exactly accounted.
#[test]
fn tiny_tables_under_full_fault_plan_do_not_panic() {
    let stream = UniformStreamBuilder::new(4, 500)
        .records(5_000)
        .duration_secs(5.0)
        .seed(13)
        .build();
    let faults = FaultPlan::new(99)
        .with_eviction_loss(0.3)
        .with_eviction_duplication(0.3)
        .with_burst(Burst {
            start_epoch: 1,
            epochs: 2,
            amplification: 5,
            fresh_groups: true,
        })
        .with_clock_skew(-750_000);
    let disturbed = faults.apply_to_stream(&stream.records, 1_000_000);
    let mut ex = Executor::new(phantom_plan(1, 1), CostParams::paper(), 1_000_000, 21)
        .with_faults(&faults)
        .with_guard(GuardPolicy::new(0.0));
    ex.run(&disturbed);
    let (report, hfta) = ex.finish();
    assert_eq!(report.records as usize, disturbed.len());
    for q in [s("A"), s("B")] {
        let observed: u64 = hfta.totals(q).values().sum();
        assert_eq!(
            observed as i64,
            disturbed.len() as i64 + report.count_bias(q),
            "bias identity under combined faults for {q}"
        );
    }
}

/// Determinism smoke for the panic-free refactor: the same seeded chaos
/// pipeline, built twice from scratch, yields bit-identical
/// [`RunReport`]s and query results. The trace generator's seeded sets,
/// the planner's ordered statistics maps and the fault PRNGs are all on
/// this path, so any reintroduced run-to-run variance (msa-lint
/// D001/D002 territory) trips here before it reaches the recovery
/// proofs.
#[test]
fn identical_seeds_produce_identical_run_reports() {
    let run = || {
        let trace = PacketTraceBuilder::new(TraceProfile::paper_scaled(0.05))
            .seed(77)
            .build();
        let faults = FaultPlan::new(0xFEED_FACE)
            .with_eviction_loss(0.08)
            .with_eviction_duplication(0.04);
        let mut ex = Executor::new(phantom_plan(64, 32), CostParams::paper(), 1_000_000, 5)
            .with_faults(&faults)
            .with_snapshots();
        ex.run(&trace.records);
        ex.finish()
    };
    let (report_a, hfta_a) = run();
    let (report_b, hfta_b) = run();
    assert_eq!(report_a, report_b, "RunReport must be bit-identical");
    assert_eq!(hfta_a.results(), hfta_b.results());
    assert!(report_a.records > 0);
}

/// Sharded determinism sweep: across 20 root seeds, a threaded 4-shard
/// chaos run (channel loss + duplication + guard) built twice from
/// scratch yields bit-identical merged [`RunReport`]s and result lists
/// — whatever the OS scheduler did to the shard threads — and its
/// bias-corrected per-query totals match the serial executor's on the
/// same stream. Probe/eviction cost counters legitimately differ from
/// serial (each shard hashes into a smaller table with its own derived
/// seed), so equivalence is asserted on counts, not costs.
#[test]
fn sharded_chaos_runs_are_deterministic_across_seeds() {
    use msa_core::ShardedExecutor;
    for seed in 0..20u64 {
        let records = UniformStreamBuilder::new(4, 90)
            .records(1_500)
            .duration_secs(3.0)
            .seed(seed ^ 0xC0A5)
            .build()
            .records;
        let faults = FaultPlan::new(seed.wrapping_mul(0x9E37))
            .with_eviction_loss(0.06)
            .with_eviction_duplication(0.03);
        let sharded = || {
            let mut sx = ShardedExecutor::new(
                phantom_plan(64, 16),
                CostParams::paper(),
                1_000_000,
                seed,
                4,
            )
            .unwrap()
            .with_faults(&faults)
            .with_guard(GuardPolicy::new(4_000.0));
            sx.run(&records);
            sx.finish()
        };
        let (report_a, hfta_a) = sharded();
        let (report_b, hfta_b) = sharded();
        assert_eq!(report_a, report_b, "seed {seed}: merged report");
        assert_eq!(hfta_a.results(), hfta_b.results(), "seed {seed}: results");
        let mut serial = Executor::new(phantom_plan(64, 16), CostParams::paper(), 1_000_000, seed)
            .with_faults(&faults)
            .with_guard(GuardPolicy::new(4_000.0));
        serial.run(&records);
        let (serial_report, serial_hfta) = serial.finish();
        assert_eq!(report_a.records, serial_report.records, "seed {seed}");
        for q in [s("A"), s("B")] {
            let sharded_total: u64 = hfta_a.totals(q).values().sum();
            let serial_total: u64 = serial_hfta.totals(q).values().sum();
            // Both paths are exact after correcting their own bias.
            assert_eq!(
                sharded_total as i64 - report_a.count_bias(q),
                records.len() as i64,
                "seed {seed}: sharded bias-corrected total for {q}"
            );
            assert_eq!(
                serial_total as i64 - serial_report.count_bias(q),
                records.len() as i64,
                "seed {seed}: serial bias-corrected total for {q}"
            );
        }
    }
}

/// Lossless sharded chaos (burst + clock skew, no channel faults): the
/// merged totals equal both a naive recount and the serial executor's
/// totals, for every seed.
#[test]
fn sharded_lossless_chaos_matches_serial_totals() {
    use msa_core::ShardedExecutor;
    for seed in 0..20u64 {
        let base = UniformStreamBuilder::new(4, 60)
            .records(1_200)
            .duration_secs(3.0)
            .seed(seed ^ 0xB00)
            .build()
            .records;
        let disturb = FaultPlan::new(seed)
            .with_burst(Burst {
                start_epoch: 1,
                epochs: 1,
                amplification: 3,
                fresh_groups: seed % 2 == 0,
            })
            .with_clock_skew(150_000);
        let records = disturb.apply_to_stream(&base, 1_000_000);
        let mut sx =
            ShardedExecutor::new(phantom_plan(32, 8), CostParams::paper(), 1_000_000, seed, 3)
                .unwrap();
        sx.run(&records);
        let (_, hfta) = sx.finish();
        let mut serial = Executor::new(phantom_plan(32, 8), CostParams::paper(), 1_000_000, seed);
        serial.run(&records);
        let (_, serial_hfta) = serial.finish();
        for q in [s("A"), s("B")] {
            let want = exact(&records, q);
            assert_eq!(hfta.totals(q), want, "seed {seed}: query {q}");
            assert_eq!(serial_hfta.totals(q), want, "seed {seed}: serial {q}");
        }
    }
}
