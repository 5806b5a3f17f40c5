//! Recovery-latency benchmark: how far a restarted shard has to replay.
//!
//! A supervised shard that dies is rebuilt from its latest epoch-aligned
//! checkpoint and re-processes the records between that checkpoint and
//! the kill point from the replay buffer. That replay distance — the
//! `records_replayed` counter in [`msa_core::ShardHealth`] — is the
//! deterministic MTTR proxy this harness measures: it is the work a
//! recovery costs, independent of host speed, and it is what an
//! operator tunes with the epoch length (checkpoint density).
//!
//! For each deployment size the last shard is killed once at each decile
//! of its own partition and the replay distances are aggregated into
//! median / 95th-percentile / max. Before measuring, the mid-stream kill
//! is run twice and the merged [`RunReport`]s, result lists, and health
//! ledgers are asserted bit-identical — latency numbers only count if
//! recovery itself is schedule-independent. `MSA_SCALE` shrinks the
//! trace as in the other harnesses.
//!
//! Writes `results/BENCH_recovery_latency.json`.

use msa_bench::{print_table, scale, seed, CostParams, PhysicalPlan, RunReport};
use msa_core::{
    ExecutorConfig, Hfta, MsaError, ShardFault, ShardHealth, ShardedExecutor, SupervisorPolicy,
};
use msa_stream::{AttrSet, Record, UniformStreamBuilder};

const EPOCH_MICROS: u64 = 500_000;

fn plan() -> Result<PhysicalPlan, MsaError> {
    // The shard-scaling plan: query set A/B/C/D under an ABCD phantom.
    let q = |name: &str, parent, buckets, is_query| -> Result<_, MsaError> {
        Ok(msa_bench::PlanNode {
            attrs: AttrSet::parse_checked(name)?,
            parent,
            buckets,
            is_query,
        })
    };
    Ok(PhysicalPlan::new(vec![
        q("ABCD", None, 8_192, false)?,
        q("A", Some(0), 2_048, true)?,
        q("B", Some(0), 2_048, true)?,
        q("C", Some(0), 2_048, true)?,
        q("D", Some(0), 2_048, true)?,
    ])?)
}

fn build(plan: &PhysicalPlan, root_seed: u64, shards: usize) -> Result<ShardedExecutor, MsaError> {
    ShardedExecutor::new(
        ExecutorConfig::new(plan.clone(), CostParams::paper(), EPOCH_MICROS, root_seed),
        shards,
    )
    .map_err(|_| MsaError::State("shard count must be positive"))
}

/// Kills the last shard at shard-local record `at` and returns the run's
/// merged outputs plus that shard's health ledger.
fn drilled_run(
    plan: &PhysicalPlan,
    records: &[Record],
    root_seed: u64,
    shards: usize,
    at: u64,
) -> Result<(RunReport, Hfta, ShardHealth), MsaError> {
    let target = shards - 1;
    let mut sx = build(plan, root_seed, shards)?
        .with_shard_fault(target, ShardFault::panic_at(at))
        .with_supervision(SupervisorPolicy::default());
    sx.run(records);
    let health = sx.shard_health(target).clone();
    let (report, hfta) = sx.finish();
    Ok((report, hfta, health))
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

struct Row {
    shards: usize,
    part_len: u64,
    kills: usize,
    median: u64,
    p95: u64,
    max: u64,
}

fn json(rows: &[Row], records: usize, root_seed: u64) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"shards\": {}, \"partition_records\": {}, \"kills\": {}, \
                 \"median_records_to_recover\": {}, \"p95_records_to_recover\": {}, \
                 \"max_records_to_recover\": {}}}",
                r.shards, r.part_len, r.kills, r.median, r.p95, r.max
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"recovery_latency\",\n  \"workload\": \"uniform4_supervised\",\n  \
         \"records\": {records},\n  \"epoch_micros\": {EPOCH_MICROS},\n  \"seed\": {root_seed},\n  \
         \"metric\": \"records_to_recover\",\n  \
         \"note\": \"records_to_recover = ShardHealth.records_replayed after one injected kill: \
         the replay distance from the latest epoch-aligned checkpoint back to the kill point — \
         a host-independent MTTR proxy, bounded by the records one epoch admits. The last shard \
         is killed once at each decile of its own partition. Determinism (two drilled runs \
         bit-identical, health ledger included) is asserted before measuring.\",\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    )
}

fn main() -> Result<(), MsaError> {
    let records_n = ((120_000.0 * scale()).round() as usize).max(5_000);
    let stream = UniformStreamBuilder::new(4, 500)
        .records(records_n)
        .duration_secs(6.0)
        .seed(seed())
        .build();
    let records = &stream.records;
    let plan = plan()?;
    let root_seed = seed();

    println!(
        "Recovery latency under supervised restart ({} records)",
        records.len()
    );

    let mut rows = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let target = shards - 1;
        let part_len = build(&plan, root_seed, shards)?.partition(records)[target].len() as u64;

        // Determinism gate on the mid-partition kill.
        let mid = part_len / 2;
        let (r1, h1, hl1) = drilled_run(&plan, records, root_seed, shards, mid)?;
        let (r2, h2, hl2) = drilled_run(&plan, records, root_seed, shards, mid)?;
        assert_eq!(r1, r2, "{shards} shards: reports differ across runs");
        assert_eq!(
            h1.results(),
            h2.results(),
            "{shards} shards: results differ across runs"
        );
        assert_eq!(hl1, hl2, "{shards} shards: health differs across runs");
        assert_eq!(r1.records, records.len() as u64);

        let mut distances = Vec::new();
        for decile in 1..=9u64 {
            let at = part_len * decile / 10;
            let (report, _, health) = drilled_run(&plan, records, root_seed, shards, at)?;
            assert_eq!(report.records, records.len() as u64);
            assert_eq!(health.restarts, 1, "{shards} shards, kill at {at}");
            assert_eq!(
                health.records_unreplayed, 0,
                "{shards} shards, kill at {at}"
            );
            distances.push(health.records_replayed);
        }
        distances.sort_unstable();
        rows.push(Row {
            shards,
            part_len,
            kills: distances.len(),
            median: percentile(&distances, 50.0),
            p95: percentile(&distances, 95.0),
            max: *distances.last().unwrap_or(&0),
        });
    }

    assert!(
        rows.iter().any(|r| r.median > 0),
        "replay distances must be nonzero somewhere in the sweep"
    );

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.shards.to_string(),
                r.part_len.to_string(),
                r.kills.to_string(),
                r.median.to_string(),
                r.p95.to_string(),
                r.max.to_string(),
            ]
        })
        .collect();
    print_table(
        "Records to recover (replay distance) by shard count",
        &["shards", "part rec", "kills", "median", "p95", "max"],
        &table,
    );

    let out = json(&rows, records.len(), root_seed);
    std::fs::write("results/BENCH_recovery_latency.json", &out)
        .map_err(|e| MsaError::TraceIo(e.into()))?;
    println!("wrote results/BENCH_recovery_latency.json");
    Ok(())
}
