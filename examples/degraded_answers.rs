//! Progressive answers under shed load: a burst overruns the planned
//! budget, the guard sheds within its degradation policy, and the
//! pipeline keeps answering — every answer an `observed ± ε` interval
//! that is *guaranteed* to contain the fault-free true count.
//!
//! The run uses `DegradationPolicy::BoundedApprox { max_width }`: the
//! guard may spend at most `max_width` records of accuracy, and once the
//! budget is gone further shed requests are denied (the records are
//! processed instead). A lossy eviction channel adds *uncontrolled*
//! loss on top, so the interval has several loss classes to attribute.
//!
//! Run with: `cargo run --release --example degraded_answers`

use msa_core::{
    AttrSet, Burst, CostParams, DegradationPolicy, ExecutorConfig, FaultPlan, GuardPolicy, MsaError,
};
use msa_gigascope::plan::{PhysicalPlan, PlanNode};
use msa_stream::UniformStreamBuilder;

const EPOCH_MICROS: u64 = 1_000_000;

fn plan() -> Result<PhysicalPlan, MsaError> {
    Ok(PhysicalPlan::new(vec![
        PlanNode {
            attrs: AttrSet::parse_checked("AB")?,
            parent: None,
            buckets: 64,
            is_query: false,
        },
        PlanNode {
            attrs: AttrSet::parse_checked("A")?,
            parent: Some(0),
            buckets: 16,
            is_query: true,
        },
        PlanNode {
            attrs: AttrSet::parse_checked("B")?,
            parent: Some(0),
            buckets: 16,
            is_query: true,
        },
    ])?)
}

fn main() -> Result<(), MsaError> {
    // 6 s of steady traffic, then a 4× burst in epochs 2..4.
    let organic = UniformStreamBuilder::new(4, 50)
        .records(24_000)
        .duration_secs(6.0)
        .seed(3)
        .build();
    let burst = FaultPlan::new(17).with_burst(Burst {
        start_epoch: 2,
        epochs: 2,
        amplification: 4,
        fresh_groups: false,
    });
    let records = burst.apply_to_stream(&organic.records, EPOCH_MICROS);
    let truth = records.len() as u64;

    // Calibrate the planned per-epoch cost on the organic stream, then
    // set a deliberately tight budget so the burst forces degradation.
    let mut probe = ExecutorConfig::new(plan()?, CostParams::paper(), EPOCH_MICROS, 7).build();
    probe.run(&organic.records);
    let (probe_report, _) = probe.finish();
    let planned = probe_report
        .epoch_costs
        .iter()
        .map(|&(_, i, f)| i + f)
        .fold(0.0, f64::max);
    let e_p = 0.6 * planned;

    let max_width = 600;
    let policy = DegradationPolicy::BoundedApprox { max_width };
    let mut guard = GuardPolicy::new(e_p).with_degradation(policy);
    guard.recover_ratio = 0.6;
    guard.shed_factor = 4;
    println!(
        "burst: epochs 2..4 at 4x rate ({truth} records total); \
         budget E_p = {e_p:.0}; policy {policy}"
    );

    // The channel is lossy too: 3% eviction loss the guard cannot
    // control — it is metered against the same promise.
    let faults = FaultPlan::new(99).with_eviction_loss(0.03);

    let base_plan = plan()?;
    let run = || -> (msa_core::BoundsReport, Vec<String>) {
        let mut ex = ExecutorConfig {
            guard: Some(guard),
            faults: Some(faults),
            ..ExecutorConfig::new(base_plan.clone(), CostParams::paper(), EPOCH_MICROS, 7)
        }
        .build();
        let mut lines = Vec::new();
        let mut seen_epochs = 0;
        for r in &records {
            ex.process(r);
            // An epoch closed: publish the progressive answer.
            let epochs = ex.report().epochs;
            if epochs > seen_epochs {
                seen_epochs = epochs;
                let bounds = ex.bounds();
                for qb in &bounds.queries {
                    lines.push(format!(
                        "  epoch {:>2}, query {}: {} | budget spent {}/{}{}",
                        epochs - 1,
                        qb.query,
                        qb,
                        bounds.records_lost,
                        max_width,
                        if bounds.bound_breached {
                            " << PROMISE BREACHED"
                        } else {
                            ""
                        }
                    ));
                }
            }
        }
        ex.flush_epoch();
        let live = ex.bounds();
        (live, lines)
    };

    let (bounds, lines) = run();
    println!("\nprogressive answers at each epoch boundary:");
    for line in &lines {
        println!("{line}");
    }

    println!("\nfinal intervals:");
    for qb in &bounds.queries {
        println!("  query {}: {}", qb.query, qb);
        for (class, mass) in qb.losses.classes() {
            if mass > 0 {
                println!("    {mass:>6} records {class}");
            }
        }
        assert!(
            qb.contains(truth),
            "true count {truth} must sit inside [{}, {}]",
            qb.lo(),
            qb.hi()
        );
    }
    println!(
        "\nbudget: {} / {max_width} records spent; denied sheds: {}; promise breached: {}",
        bounds.records_lost, bounds.records_shed_denied, bounds.bound_breached
    );

    // The degraded answers are deterministic: a second run reproduces
    // every interval — and every progressive line — bit for bit.
    let (bounds2, lines2) = run();
    assert_eq!(bounds, bounds2, "intervals must be bit-identical");
    assert_eq!(lines, lines2, "progressive answers must be bit-identical");
    println!(
        "\nevery answer carried a guaranteed bound, and a second run \
         reproduced all of them bit-identically."
    );
    Ok(())
}
