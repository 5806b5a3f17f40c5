//! Checkpoint-durability benchmark: what crash safety costs, and how
//! fast a cold process comes back.
//!
//! The durable store commits a generation at every epoch boundary
//! (write-temp → fsync → rename → fsync-dir) and writes nothing in
//! between. Each generation after genesis is a delta holding only the
//! epoch it closed, chained to its parent. Commits buy crash atomicity
//! with real syscalls, so the interesting numbers are the *overhead* of
//! a store-attached run against the identical in-memory run, amortized
//! per commit, and the *cold-start latency*: reopening the directory,
//! scrubbing every artifact, and rebuilding an executor from the newest
//! chain.
//!
//! The epoch length is the checkpoint-density knob, so the sweep runs
//! one row per epoch length: denser checkpoints mean more commit
//! traffic but a shorter source replay on recovery. Before any timing is
//! reported, each row's durable run and its recovery are executed twice
//! and asserted bit-identical — reports, per-query results, store
//! counters, and the recovered generation all included; wall-clock is
//! the only thing allowed to vary. Each row also gates the O(epoch)
//! commit on the row's store directory: the uniform stream closes
//! epochs of one size, so the newest generation file must be at most
//! twice the smallest one after genesis. The gate is clock-free and runs
//! at every scale.
//!
//! Writes `results/BENCH_durability.json`.

use msa_bench::{print_table, scale, seed, CostParams, PhysicalPlan, RunReport};
use msa_core::{CheckpointStore, ExecutorConfig, Hfta, MsaError, StoreHandle, StoreStats};
use msa_stream::{AttrSet, Record, UniformStreamBuilder};
use std::path::{Path, PathBuf};
use std::time::Instant;

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

fn config(plan: &PhysicalPlan, epoch_micros: u64, root_seed: u64) -> ExecutorConfig {
    let mut cfg = ExecutorConfig::new(plan.clone(), CostParams::paper(), epoch_micros, root_seed);
    cfg.durable = true;
    cfg
}

fn store_error(e: msa_core::StoreError) -> MsaError {
    println!("store error: {e}");
    MsaError::State("durable store refused an operation")
}

/// One timed durable run into a fresh directory. The executor is
/// dropped without `finish()` — the process "dies" with the last epoch
/// open, exactly the state a cold start has to replay.
struct DurableRun {
    report: RunReport,
    stats: StoreStats,
    run_ms: f64,
    /// Snapshot-file bytes of the newest generation.
    newest_bytes: u64,
    /// Snapshot-file bytes of the smallest generation after genesis.
    smallest_delta_bytes: u64,
}

/// Snapshot-file size of every generation under `root`, in generation
/// order. The chain keeps one generation per commit, so the root must
/// hold exactly the files of generations `1..=commits`.
fn generation_sizes(root: &Path, commits: u64) -> Result<Vec<u64>, MsaError> {
    let io = |e: std::io::Error| MsaError::TraceIo(e.into());
    let files = std::fs::read_dir(root).map_err(io)?.count() as u64;
    assert_eq!(
        files, commits,
        "the store must hold one chained generation per commit"
    );
    (1..=commits)
        .map(|g| {
            let path = root.join(CheckpointStore::generation_path(g));
            Ok(std::fs::metadata(path).map_err(io)?.len())
        })
        .collect()
}

fn durable_run(
    plan: &PhysicalPlan,
    root: &PathBuf,
    epoch_micros: u64,
    root_seed: u64,
    records: &[Record],
) -> Result<DurableRun, MsaError> {
    std::fs::remove_dir_all(root).ok();
    let handle = StoreHandle::on_disk(root).map_err(store_error)?;
    let mut ex = config(plan, epoch_micros, root_seed)
        .build()
        .with_store(handle.clone());
    let t = Instant::now();
    ex.run(records);
    let run_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(!ex.store_degraded(), "the disk store must not degrade");
    let report = ex.report().clone();
    drop(ex);
    // O(epoch) commits: past the genesis base every generation holds
    // one epoch's results, which this stationary stream keeps at one
    // size. The chain keeps one generation per commit, so the sizes
    // span the whole run; a commit that re-encoded every result since
    // record zero would grow linearly and fail here.
    let stats = handle.stats();
    let sizes = generation_sizes(root, stats.commits)?;
    let (Some(&newest_bytes), Some(smallest_delta_bytes)) =
        (sizes.last(), sizes.iter().skip(1).copied().min())
    else {
        return Err(MsaError::State(
            "a durable run must leave a delta generation",
        ));
    };
    assert!(
        newest_bytes <= 2 * smallest_delta_bytes,
        "commit size grows with the run: newest generation {newest_bytes} B, \
         smallest delta {smallest_delta_bytes} B ({sizes:?})"
    );
    Ok(DurableRun {
        report,
        stats,
        run_ms,
        newest_bytes,
        smallest_delta_bytes,
    })
}

/// One timed cold-start: reopen the directory, scrub everything, and
/// rebuild an executor from the newest generation; then replay the
/// stream tail to the fault-free answer.
struct ColdStart {
    report: RunReport,
    hfta: Hfta,
    generation: u64,
    replay_records: u64,
    recover_ms: f64,
}

fn cold_start(
    plan: &PhysicalPlan,
    root: &PathBuf,
    epoch_micros: u64,
    root_seed: u64,
    records: &[Record],
) -> Result<ColdStart, MsaError> {
    let t = Instant::now();
    let handle = StoreHandle::on_disk(root).map_err(store_error)?;
    let scrub = handle.scrub().map_err(store_error)?;
    assert!(
        scrub.generations_quarantined.is_empty(),
        "a clean shutdown must scrub clean: {scrub:?}"
    );
    let recovery = handle.recover_executor(&config(plan, epoch_micros, root_seed));
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(recovery.fallbacks, 0, "clean store: no fallback");
    let Some(mut ex) = recovery.executor else {
        return Err(MsaError::State("clean store must yield an executor"));
    };
    let hwm = usize::try_from(recovery.records_hwm)
        .map_err(|_| MsaError::State("recovered high-water mark overflows usize"))?;
    ex.run(&records[hwm..]);
    let (report, hfta) = ex.finish();
    Ok(ColdStart {
        report,
        hfta,
        generation: recovery.generation,
        replay_records: records.len() as u64 - recovery.records_hwm,
        recover_ms,
    })
}

struct Row {
    epoch_micros: u64,
    commits: u64,
    run_ms: f64,
    baseline_ms: f64,
    overhead_pct: f64,
    per_commit_us: f64,
    recover_ms: f64,
    replay_records: u64,
    newest_bytes: u64,
    smallest_delta_bytes: u64,
}

fn json(rows: &[Row], records: usize, root_seed: u64) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"epoch_micros\": {}, \"commits\": {}, \
                 \"durable_run_ms\": {:.3}, \"in_memory_run_ms\": {:.3}, \
                 \"overhead_pct\": {:.1}, \"per_commit_overhead_us\": {:.1}, \
                 \"cold_start_ms\": {:.3}, \"replay_records\": {}, \
                 \"newest_generation_bytes\": {}, \"smallest_delta_bytes\": {}}}",
                r.epoch_micros,
                r.commits,
                r.run_ms,
                r.baseline_ms,
                r.overhead_pct,
                r.per_commit_us,
                r.recover_ms,
                r.replay_records,
                r.newest_bytes,
                r.smallest_delta_bytes
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"checkpoint_durability\",\n  \"workload\": \"uniform4_durable_disk\",\n  \
         \"records\": {records},\n  \"seed\": {root_seed},\n  \
         \"metric\": \"durable-run overhead and cold-start latency by checkpoint density\",\n  \
         \"note\": \"Each row attaches a real DiskBackend (write-temp/fsync/rename/fsync-dir \
         commits, one per epoch boundary and nothing in between) and compares against the \
         identical in-memory run; per_commit_overhead_us charges the whole durable-minus-\
         in-memory difference to the commits. Each generation after the genesis base is a \
         delta holding only the epoch it closed, chained to its parent; newest_generation_bytes \
         and smallest_delta_bytes are snapshot-file sizes read from the store directory, and \
         the bench asserts the first is at most twice the second. cold_start_ms = reopen + \
         full scrub + rebuild from the newest chain; replay_records = stream tail past the \
         recovered high-water mark. Functional \
         determinism (two durable runs and two recoveries bit-identical: reports, results, \
         store counters, generation) is asserted before timings are reported — wall-clock \
         is the only free variable.\",\n  \"rows\": [\n{}\n  ]\n}}\n",
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
    let base = std::env::temp_dir().join(format!("msa_bench_durability_{}", std::process::id()));

    println!(
        "Checkpoint durability: disk-backed overhead and cold start ({} records)",
        records.len()
    );

    let mut rows = Vec::new();
    for epoch_micros in [250_000u64, 500_000, 1_000_000, 2_000_000] {
        // In-memory baseline: same config, no store attached.
        let mut ex = config(&plan, epoch_micros, root_seed).build();
        let t = Instant::now();
        ex.run(records);
        let baseline_ms = t.elapsed().as_secs_f64() * 1e3;
        let baseline = ex.finish();

        // Determinism gate: two fresh durable runs, two cold starts —
        // everything but wall-clock must be bit-identical.
        let root = base.join(format!("epoch_{epoch_micros}"));
        let d1 = durable_run(&plan, &root, epoch_micros, root_seed, records)?;
        let c1 = cold_start(&plan, &root, epoch_micros, root_seed, records)?;
        let root2 = base.join(format!("epoch_{epoch_micros}_twin"));
        let d2 = durable_run(&plan, &root2, epoch_micros, root_seed, records)?;
        let c2 = cold_start(&plan, &root2, epoch_micros, root_seed, records)?;
        assert_eq!(d1.report, d2.report, "durable runs diverged");
        assert_eq!(d1.stats, d2.stats, "store counters diverged");
        assert_eq!(c1.report, c2.report, "recoveries diverged");
        assert_eq!(c1.generation, c2.generation, "generations diverged");
        assert_eq!(c1.hfta.results(), c2.hfta.results(), "replays diverged");
        // And the recovered-and-replayed answer equals the run that
        // never went down.
        assert_eq!(c1.report.records, baseline.0.records, "record conservation");
        assert_eq!(
            c1.hfta.results(),
            baseline.1.results(),
            "cold start must land on the fault-free answer"
        );
        assert!(d1.stats.commits >= 2, "sweep needs several commits");
        assert_eq!(d1.stats.io_gave_up, 0);

        let overhead_ms = (d1.run_ms - baseline_ms).max(0.0);
        rows.push(Row {
            epoch_micros,
            commits: d1.stats.commits,
            run_ms: d1.run_ms,
            baseline_ms,
            overhead_pct: if baseline_ms > 0.0 {
                100.0 * overhead_ms / baseline_ms
            } else {
                0.0
            },
            per_commit_us: overhead_ms * 1e3 / d1.stats.commits as f64,
            recover_ms: c1.recover_ms,
            replay_records: c1.replay_records,
            newest_bytes: d1.newest_bytes,
            smallest_delta_bytes: d1.smallest_delta_bytes,
        });
        std::fs::remove_dir_all(&root).ok();
        std::fs::remove_dir_all(&root2).ok();
    }
    std::fs::remove_dir_all(&base).ok();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.epoch_micros.to_string(),
                r.commits.to_string(),
                format!("{:.1}", r.run_ms),
                format!("{:.1}", r.baseline_ms),
                format!("{:.1}", r.overhead_pct),
                format!("{:.1}", r.per_commit_us),
                format!("{:.2}", r.recover_ms),
                r.replay_records.to_string(),
            ]
        })
        .collect();
    print_table(
        "Durable-store overhead and cold-start latency by epoch length",
        &[
            "epoch us",
            "commits",
            "run ms",
            "mem ms",
            "ovh %",
            "us/commit",
            "cold ms",
            "replay",
        ],
        &table,
    );

    let out = json(&rows, records.len(), root_seed);
    std::fs::write("results/BENCH_durability.json", &out)
        .map_err(|e| MsaError::TraceIo(e.into()))?;
    println!("wrote results/BENCH_durability.json");
    Ok(())
}
