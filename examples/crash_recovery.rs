//! Surviving a crash — on real disk: the process dies mid-epoch with
//! partial aggregates in flight, a fresh process reopens the store
//! directory and comes back **bit-identical**, and when the power cut
//! also tears the newest checkpoint the recovery falls back one
//! generation — explicitly, with the loss accounted — and still lands
//! on the exact answer after replay.
//!
//! The durable layout is the generational checkpoint store: each
//! `gen-N.snapshot.bin` in the store root holds one atomically-written
//! epoch-boundary snapshot — the boundary state plus only the epochs
//! closed since its parent, chained to it — and its rename is the
//! commit. Every generation carries an FNV-1a checksum, so a torn or
//! flipped byte is refused, never restored. Nothing is written between
//! boundaries: recovery replays the source from the snapshot's record
//! high-water mark, and determinism regenerates the lost open epoch
//! exactly.
//!
//! Run with: `cargo run --release --example crash_recovery`

use msa_core::{
    AttrSet, BoundsReport, CheckpointStore, CostParams, CrashPlan, ExecutorConfig, FaultPlan,
    MsaError, StoreHandle,
};
use msa_gigascope::plan::{PhysicalPlan, PlanNode};
use msa_stream::UniformStreamBuilder;

fn plan() -> Result<PhysicalPlan, MsaError> {
    // AB phantom feeding the A and B queries: evictions cascade on
    // every path, so the crash lands in a busy pipeline.
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

fn store_error(e: msa_core::StoreError) -> MsaError {
    println!("store error: {e}");
    MsaError::State("durable store refused an operation")
}

fn main() -> Result<(), MsaError> {
    let stream = UniformStreamBuilder::new(4, 120)
        .records(12_000)
        .duration_secs(6.0)
        .seed(7)
        .build();
    // A lossy, duplicating channel makes the claim strict: recovery
    // must re-draw the *same* fault decisions, not just the same sums.
    let faults = FaultPlan::new(99)
        .with_eviction_loss(0.05)
        .with_eviction_duplication(0.02);
    let base_plan = plan()?;
    let config = || {
        let mut cfg = ExecutorConfig::new(base_plan.clone(), CostParams::paper(), 1_000_000, 42);
        cfg.durable = true;
        cfg.faults = Some(faults);
        cfg
    };

    // The reference: a run that never crashes.
    let mut reference = config().build();
    reference.run(&stream.records);
    let (ref_report, ref_hfta) = reference.finish();
    println!(
        "reference run: {} records, {} epochs, {} evictions ({} dropped, {} duplicated)",
        ref_report.records,
        ref_report.epochs,
        ref_report.intra_evictions + ref_report.flush_evictions,
        ref_report.evictions_dropped,
        ref_report.evictions_duplicated,
    );

    // The store lives in a real directory: every commit is one
    // write-temp → fsync → atomic-rename → fsync-dir, once per epoch
    // boundary.
    let root = std::env::temp_dir().join(format!("msa_crash_recovery_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();

    // The incident: the process dies at record 7 000 — mid-epoch, with
    // partial aggregates sitting in every LFTA table. Everything the
    // dead process leaves behind is what `fsync` promised, nothing more.
    {
        let handle = StoreHandle::on_disk(&root).map_err(store_error)?;
        let mut cfg = config();
        cfg.crash = CrashPlan::at_record(7_000);
        let mut victim = cfg.build().with_store(handle.clone());
        victim.run(&stream.records);
        assert!(victim.has_crashed());
        let stats = handle.stats();
        println!(
            "\ncrash at record 7000: store holds generation {} after {} commits, \
             one chain, {} generations garbage-collected",
            handle.generation(),
            stats.commits,
            stats.generations_removed,
        );
    } // the "process" is gone; only the directory survives

    // Recovery is a fresh process: reopen the directory, list its
    // generations, stitch the newest one's chain into one snapshot,
    // then resume the stream from its high-water mark. The
    // replay re-drains and re-delivers the open epoch the crash lost,
    // bit for bit.
    let handle = StoreHandle::on_disk(&root).map_err(store_error)?;
    let recovery = handle.recover_executor(&config());
    let mut recovered = recovery
        .executor
        .ok_or(MsaError::State("clean store must yield an executor"))?;
    println!(
        "reboot: recovered generation {} at record {} ({} records to replay), {} fallbacks",
        recovery.generation,
        recovery.records_hwm,
        stream.records.len() as u64 - recovery.records_hwm,
        recovery.fallbacks,
    );
    assert_eq!(recovery.fallbacks, 0, "nothing was torn yet");
    recovered.run(&stream.records[usize::try_from(recovery.records_hwm).unwrap_or(0)..]);
    let (report, hfta) = recovered.finish();
    assert_eq!(report, ref_report, "reports must be bit-identical");
    assert_eq!(hfta.results(), ref_hfta.results());
    println!("recovered run is bit-identical to the crash-free run");

    // The second incident: the power cut also tore the newest
    // generation's snapshot mid-write — half the bytes on disk, the
    // checksum unsatisfiable. The scrub names the rotten generation...
    let newest = handle.generation();
    let snap_path = CheckpointStore::generation_path(newest);
    let len = handle
        .with_backend(|b| b.read(&snap_path).map(|v| v.len()))
        .map_err(store_error)?;
    handle
        .with_backend(|b| b.truncate(&snap_path, len / 2))
        .map_err(store_error)?;
    let scrub = handle.scrub().map_err(store_error)?;
    println!(
        "\ntorn write injected into {snap_path} ({} -> {} bytes): \
         scrub quarantines {:?}",
        len,
        len / 2,
        scrub.generations_quarantined,
    );
    assert_eq!(scrub.generations_quarantined, vec![newest]);

    // ...and recovery refuses it, falling back one generation. The
    // fallback is explicit — counted in the ledger, never silent — and
    // replay from the older high-water mark covers the gap exactly.
    let handle = StoreHandle::on_disk(&root).map_err(store_error)?;
    let recovery = handle.recover_executor(&config());
    let mut recovered = recovery
        .executor
        .ok_or(MsaError::State("an older generation must stay readable"))?;
    println!(
        "reboot after rot: fell back {} generation(s) to gen {}, resuming at record {}",
        recovery.fallbacks, recovery.generation, recovery.records_hwm,
    );
    assert!(
        recovery.fallbacks >= 1,
        "the torn generation must be skipped"
    );
    assert!(recovery.generation < newest);
    recovered.run(&stream.records[usize::try_from(recovery.records_hwm).unwrap_or(0)..]);
    let (report, hfta) = recovered.finish();
    assert_eq!(report, ref_report, "fallback recovery must also be exact");
    assert_eq!(hfta.results(), ref_hfta.results());

    // The degraded-answer view at shutdown: the channel's losses and
    // duplicates became guaranteed interval width, the bias identity
    // restates the interval's center, and recovery reproduced the
    // *bounds* bit-for-bit too — not just the sums.
    let bounds = BoundsReport::at_finish(&report, &hfta);
    let ref_bounds = BoundsReport::at_finish(&ref_report, &ref_hfta);
    assert_eq!(bounds, ref_bounds, "intervals must survive the crash");
    let truth = stream.records.len() as u64;
    println!("\nfallback recovery is bit-identical to the crash-free run:");
    for q in [AttrSet::parse_checked("A")?, AttrSet::parse_checked("B")?] {
        let qb = bounds
            .for_query(q)
            .ok_or(MsaError::State("query missing from bounds"))?;
        println!(
            "  query {q}: {} groups, {qb} (bias {:+})",
            hfta.totals(q).len(),
            report.count_bias(q)
        );
        assert_eq!(qb.observed as i64 - report.count_bias(q), truth as i64);
        assert!(qb.contains(truth), "true count must sit inside the bound");
        assert_eq!(hfta.totals(q), ref_hfta.totals(q));
    }
    std::fs::remove_dir_all(&root).ok();
    println!(
        "\nreplay from the last boundary off real disk: every delivery applied once,\n\
         none lost, none doubled — even when the newest checkpoint itself was torn."
    );
    Ok(())
}
