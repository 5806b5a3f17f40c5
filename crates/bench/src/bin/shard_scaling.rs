//! Shard-scaling benchmark: multi-core LFTA throughput on the fig. 13
//! synthetic workload.
//!
//! For each deployment size `N` (default sweep 1/2/4/8, or a single
//! point via `--shards N`) the headline is the wall clock of the real
//! threaded run through [`msa_core::ShardedExecutor`]: records per
//! second and the speedup over one shard, from the median of three
//! timed runs after a warm-up. The host's core count is recorded with
//! it, since a deployment can only beat one shard on spare cores. The
//! critical path — the stream hash-partitioned as the deployment does,
//! each shard's executor timed serially on its own partition, the
//! slowest shard taken — is kept as a secondary column: what the
//! threaded runtime would approach with `N` free cores and no feed or
//! merge overhead.
//!
//! Before measuring, each deployment size is run twice through the
//! threaded path and the merged [`RunReport`]s and result lists are
//! asserted bit-identical — the scaling numbers only count if the
//! answer is schedule-independent.
//!
//! Writes `results/BENCH_shard_scaling.json`.

use msa_bench::sharding::{measure, ShardRow};
use msa_bench::{paper_uniform, print_table, seed, CostParams, PhysicalPlan, RunReport};
use msa_core::{ExecutorConfig, Hfta, MsaError, ShardedExecutor};
use msa_stream::{AttrSet, Record};

const EPOCH_MICROS: u64 = 1_000_000;

fn plan() -> Result<PhysicalPlan, MsaError> {
    // The fig. 13 query set A/B/C/D under an ABCD phantom — the shape
    // the paper's optimizer picks for this workload at mid budgets.
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

fn threaded_run(
    plan: &PhysicalPlan,
    records: &[Record],
    root_seed: u64,
    shards: usize,
) -> Result<(RunReport, Hfta), MsaError> {
    let mut sx = ShardedExecutor::new(
        ExecutorConfig::new(plan.clone(), CostParams::paper(), EPOCH_MICROS, root_seed),
        shards,
    )
    .map_err(|_| MsaError::State("shard count must be positive"))?;
    sx.run(records);
    Ok(sx.finish())
}

fn sweep() -> Vec<usize> {
    let args: Vec<String> = std::env::args().collect();
    for pair in args.windows(2) {
        if pair[0] == "--shards" {
            if let Ok(n) = pair[1].parse::<usize>() {
                return vec![n.max(1)];
            }
        }
    }
    vec![1, 2, 4, 8]
}

fn json(rows: &[ShardRow], records: usize, root_seed: u64, host_cores: usize) -> String {
    let base = rows.first().map_or(0.0, |r| r.wall_clock_secs);
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"shards\": {}, \"records_per_sec\": {:.0}, \
                 \"wall_clock_secs\": {:.6}, \"speedup_vs_1_shard\": {:.3}, \
                 \"critical_path_secs\": {:.6}}}",
                r.shards,
                r.records_per_sec,
                r.wall_clock_secs,
                base / r.wall_clock_secs.max(f64::MIN_POSITIVE),
                r.critical_path_secs,
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"shard_scaling\",\n  \"workload\": \"fig13_synthetic_uniform4\",\n  \
         \"records\": {records},\n  \"epoch_micros\": {EPOCH_MICROS},\n  \"seed\": {root_seed},\n  \
         \"host_cores\": {host_cores},\n  \"metric\": \"wall_clock\",\n  \
         \"note\": \"records_per_sec = records / wall_clock_secs, the median of three timed \
         threaded runs after a warm-up on this host; speedup_vs_1_shard is the ratio of those \
         wall clocks. critical_path_secs (secondary) is the slowest shard's serial time, what \
         the threaded runtime would approach with >= N free cores and no feed or merge \
         overhead. Determinism (two threaded runs bit-identical) is asserted before \
         measuring.\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    )
}

fn main() -> Result<(), MsaError> {
    let stream = paper_uniform(4);
    let records = &stream.records;
    let plan = plan()?;
    let root_seed = seed();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "Shard scaling on the fig. 13 synthetic workload ({} records, {host_cores} host cores)",
        records.len()
    );

    let mut rows = Vec::new();
    for n in sweep() {
        // Determinism gate: scheduling must not leak into the answer.
        let (r1, h1) = threaded_run(&plan, records, root_seed, n)?;
        let (r2, h2) = threaded_run(&plan, records, root_seed, n)?;
        assert_eq!(r1, r2, "{n} shards: reports differ across threaded runs");
        assert_eq!(
            h1.results(),
            h2.results(),
            "{n} shards: results differ across threaded runs"
        );
        assert_eq!(r1.records, records.len() as u64);
        rows.push(measure(&plan, records, EPOCH_MICROS, root_seed, n));
    }

    let base = rows.first().map_or(0.0, |r| r.wall_clock_secs);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.shards.to_string(),
                format!("{:.0}", r.records_per_sec),
                format!("{:.2}", base / r.wall_clock_secs.max(f64::MIN_POSITIVE)),
                format!("{:.4}", r.wall_clock_secs),
                format!("{:.4}", r.critical_path_secs),
            ]
        })
        .collect();
    print_table(
        &format!("Wall-clock throughput by shard count ({host_cores} host cores)"),
        &["shards", "rec/s", "speedup", "wall s", "critical s"],
        &table,
    );

    let out = json(&rows, records.len(), root_seed, host_cores);
    std::fs::write("results/BENCH_shard_scaling.json", &out)
        .map_err(|e| MsaError::TraceIo(e.into()))?;
    println!("wrote results/BENCH_shard_scaling.json");
    Ok(())
}
