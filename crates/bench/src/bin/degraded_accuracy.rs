//! Degraded-answer accuracy: guaranteed bound width vs actual error vs
//! shed rate, across the degradation-policy sweep.
//!
//! A 4× burst overruns a deliberately tight budget (0.6× the organic
//! peak), so the overload guard must degrade. Each
//! [`DegradationPolicy`] is run through the identical incident twice —
//! the merged [`BoundsReport`]s must be bit-identical before a row
//! counts — and the row records what the policy *promised* (the width
//! budget), what it *reported* (the guaranteed interval width), and
//! what was *actually wrong* (the max per-query |observed − truth|).
//! Soundness is asserted in-bench: the truth sits inside every
//! interval, so `actual_error <= bound_width` in every row.
//!
//! Two scenario groups: `pure_shed` (guard shedding is the only loss —
//! the width is exactly the shed mass, and `exact-or-stall` holds the
//! degenerate interval) and `channel_faults` (8% eviction loss + 4%
//! duplication on top — uncontrolled loss the guard meters against the
//! same promise, breaching tight budgets deterministically).
//!
//! Writes `results/BENCH_degraded_accuracy.json`.

use msa_bench::{print_table, scale, seed, CostParams, PhysicalPlan, PlanNode};
use msa_core::{
    AttrSet, BoundsReport, Burst, DegradationPolicy, ExecutorConfig, FaultPlan, GuardPolicy,
    MsaError, Record,
};
use msa_stream::UniformStreamBuilder;

const EPOCH_MICROS: u64 = 1_000_000;

fn plan() -> Result<PhysicalPlan, MsaError> {
    let q = |name: &str, parent, buckets, is_query| -> Result<_, MsaError> {
        Ok(PlanNode {
            attrs: AttrSet::parse_checked(name)?,
            parent,
            buckets,
            is_query,
        })
    };
    Ok(PhysicalPlan::new(vec![
        q("AB", None, 64, false)?,
        q("A", Some(0), 16, true)?,
        q("B", Some(0), 16, true)?,
    ])?)
}

struct Row {
    group: &'static str,
    policy: String,
    promised: Option<u64>,
    shed: u64,
    denied: u64,
    shed_rate_pct: f64,
    bound_width: u64,
    actual_error: u64,
    breached: bool,
}

fn measure(
    group: &'static str,
    policy: DegradationPolicy,
    records: &[Record],
    e_p: f64,
    faults: Option<&FaultPlan>,
) -> Result<Row, MsaError> {
    let base_plan = plan()?;
    let run = || {
        let mut guard = GuardPolicy::new(e_p).with_degradation(policy);
        guard.recover_ratio = 0.6;
        guard.shed_factor = 4;
        let mut ex = ExecutorConfig {
            guard: Some(guard),
            faults: faults.copied(),
            ..ExecutorConfig::new(base_plan.clone(), CostParams::paper(), EPOCH_MICROS, seed())
        }
        .build();
        ex.run(records);
        ex.flush_epoch();
        let bounds = ex.bounds();
        let (report, hfta) = ex.finish();
        (bounds, BoundsReport::at_finish(&report, &hfta), report)
    };
    // Determinism gate: accuracy numbers only count if the intervals
    // are schedule- and rerun-independent.
    let (live1, final1, report) = run();
    let (live2, final2, _) = run();
    assert!(live1 == live2, "{group}/{policy}: live bounds differ");
    assert!(final1 == final2, "{group}/{policy}: final bounds differ");

    let truth = records.len() as u64;
    let mut bound_width = 0u64;
    let mut actual_error = 0u64;
    for qb in &final1.queries {
        // Soundness in-bench: the interval must contain the truth.
        assert!(
            qb.contains(truth),
            "{group}/{policy}: truth {truth} outside [{}, {}]",
            qb.lo(),
            qb.hi()
        );
        bound_width = bound_width.max(qb.width());
        actual_error = actual_error.max(qb.observed.abs_diff(truth));
    }
    assert!(
        actual_error <= bound_width,
        "{group}/{policy}: error {actual_error} above width {bound_width}"
    );
    Ok(Row {
        group,
        policy: policy.to_string(),
        promised: match policy {
            DegradationPolicy::ExactOrStall => Some(0),
            DegradationPolicy::BoundedApprox { max_width } => Some(max_width),
            DegradationPolicy::BestEffort => None,
        },
        shed: report.records_shed,
        denied: report.records_shed_denied,
        shed_rate_pct: 100.0 * report.records_shed as f64 / records.len() as f64,
        bound_width,
        actual_error,
        breached: final1.bound_breached,
    })
}

fn json(rows: &[Row], records: usize, root_seed: u64) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"group\": \"{}\", \"policy\": \"{}\", \"promised_max_width\": {}, \
                 \"records_shed\": {}, \"sheds_denied\": {}, \"shed_rate_pct\": {:.3}, \
                 \"bound_width\": {}, \"actual_error\": {}, \"bound_breached\": {}}}",
                r.group,
                r.policy,
                r.promised.map_or("null".to_string(), |w| w.to_string()),
                r.shed,
                r.denied,
                r.shed_rate_pct,
                r.bound_width,
                r.actual_error,
                r.breached
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"degraded_accuracy\",\n  \"workload\": \"uniform4_burst4x\",\n  \
         \"records\": {records},\n  \"epoch_micros\": {EPOCH_MICROS},\n  \"seed\": {root_seed},\n  \
         \"note\": \"Each row is one DegradationPolicy through the identical 4x-burst incident, \
         run twice with bit-identical BoundsReports asserted before counting. bound_width is the \
         widest per-query guaranteed interval; actual_error is the max per-query \
         |observed - truth|; soundness (truth inside every interval, so error <= width) is \
         asserted in-bench. pure_shed rows lose records only to guard shedding; channel_faults \
         rows add 8% eviction loss + 4% duplication, uncontrolled loss that breaches tight \
         promises deterministically.\",\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    )
}

fn main() -> Result<(), MsaError> {
    let records_n = ((24_000.0 * scale()).round() as usize).max(6_000);
    let organic = UniformStreamBuilder::new(4, 50)
        .records(records_n)
        .duration_secs(6.0)
        .seed(seed())
        .build();
    let burst = FaultPlan::new(17).with_burst(Burst {
        start_epoch: 2,
        epochs: 2,
        amplification: 4,
        fresh_groups: false,
    });
    let records = burst.apply_to_stream(&organic.records, EPOCH_MICROS);

    // Calibrate the organic peak, then promise less: the burst must
    // force the guard onto its degradation ladder.
    let mut probe = ExecutorConfig::new(plan()?, CostParams::paper(), EPOCH_MICROS, seed()).build();
    probe.run(&organic.records);
    let (probe_report, _) = probe.finish();
    let planned = probe_report
        .epoch_costs
        .iter()
        .map(|&(_, i, f)| i + f)
        .fold(0.0, f64::max);
    let e_p = 0.6 * planned;
    println!(
        "Degraded-answer accuracy: {} records, burst 4x in epochs 2..4, E_p = {e_p:.0}",
        records.len()
    );

    let policies = [
        DegradationPolicy::ExactOrStall,
        DegradationPolicy::BoundedApprox { max_width: 64 },
        DegradationPolicy::BoundedApprox { max_width: 512 },
        DegradationPolicy::BoundedApprox { max_width: 4096 },
        DegradationPolicy::BestEffort,
    ];
    let channel = FaultPlan::new(0xACC)
        .with_eviction_loss(0.08)
        .with_eviction_duplication(0.04);
    let mut rows = Vec::new();
    for policy in policies {
        rows.push(measure("pure_shed", policy, &records, e_p, None)?);
    }
    for policy in policies {
        rows.push(measure(
            "channel_faults",
            policy,
            &records,
            e_p,
            Some(&channel),
        )?);
    }

    // The sweep's shape: exactness costs everything or nothing.
    assert!(
        rows[0].bound_width == 0 && rows[0].shed == 0,
        "exact-or-stall must hold the degenerate interval when losses are controllable"
    );
    assert!(
        rows.iter().any(|r| r.shed > 0),
        "the burst must force shedding somewhere in the sweep"
    );

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.group.to_string(),
                r.policy.clone(),
                r.promised.map_or("-".into(), |w| w.to_string()),
                r.shed.to_string(),
                r.denied.to_string(),
                format!("{:.2}", r.shed_rate_pct),
                r.bound_width.to_string(),
                r.actual_error.to_string(),
                r.breached.to_string(),
            ]
        })
        .collect();
    print_table(
        "Bound width vs actual error vs shed rate",
        &[
            "group", "policy", "promise", "shed", "denied", "shed %", "width", "error", "breach",
        ],
        &table,
    );

    let out = json(&rows, records.len(), seed());
    std::fs::write("results/BENCH_degraded_accuracy.json", &out)
        .map_err(|e| MsaError::TraceIo(e.into()))?;
    println!("wrote results/BENCH_degraded_accuracy.json");
    Ok(())
}
