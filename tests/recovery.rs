//! Crash-recovery suite: the last epoch-boundary checkpoint plus
//! replay of the source from its record high-water mark.
//!
//! The headline invariant: for **any** seed and **any** crash point —
//! between records, between epochs, or in the middle of an end-of-epoch
//! flush — a crashed-and-recovered run produces bit-identical per-query
//! results and a bit-identical [`RunReport`] to a run that never
//! crashed. Composed with channel loss/duplication faults the same
//! holds, because the checkpoint carries the channel's PRNG cursor.
//! Every such cell compares against a never-crashed oracle: the replay
//! regenerates each delivery the crash lost, bit for bit.
//!
//! Alongside the sweep: snapshot round-trips through the binary
//! encoding, corruption rejection with typed errors, and the typed
//! refusal paths of the recovery driver (plan mismatch, misaligned
//! captures).

use msa_core::{
    AttrSet, CheckpointStore, CostParams, CrashPlan, DiskBackend, Executor, ExecutorConfig,
    FaultPlan, GuardPolicy, Record, RecoveryError, RunReport, ShardedExecutor, SimBackend,
    Snapshot, SnapshotError, StorageBackend, StorageFaultPlan, StoreError, StoreErrorKind,
    StoreHandle, StoreStats, SwapError, SwapFault,
};
use msa_gigascope::plan::{PhysicalPlan, PlanNode};
use msa_gigascope::Hfta;
use msa_stream::UniformStreamBuilder;
use std::sync::{Arc, Mutex};

const EPOCH: u64 = 1_000_000;

fn s(x: &str) -> AttrSet {
    AttrSet::parse(x).unwrap()
}

/// AB phantom feeding A and B query tables — evictions on every path.
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

fn stream(seed: u64) -> Vec<Record> {
    UniformStreamBuilder::new(4, 120)
        .records(6_000)
        .duration_secs(6.0)
        .seed(seed)
        .build()
        .records
}

fn config(seed: u64) -> ExecutorConfig {
    ExecutorConfig::new(phantom_plan(), CostParams::paper(), EPOCH, seed)
}

fn executor(seed: u64) -> Executor {
    config(seed).build()
}

/// A durable executor with `crash` armed.
fn crashing(seed: u64, crash: CrashPlan) -> Executor {
    ExecutorConfig {
        durable: true,
        crash,
        ..config(seed)
    }
    .build()
}

/// Fault-free reference: the run that never crashes.
fn baseline(seed: u64, faults: Option<&FaultPlan>, records: &[Record]) -> (RunReport, Hfta) {
    let mut ex = ExecutorConfig {
        faults: faults.copied(),
        ..config(seed)
    }
    .build();
    ex.run(records);
    ex.finish()
}

/// Runs `ex` into its armed crash and returns the checkpoint the "dead
/// process" leaves behind (the harness flushes explicitly so fuses
/// aimed at the final flush are reachable too).
fn run_to_crash(mut ex: Executor, records: &[Record]) -> Snapshot {
    ex.run(records);
    if !ex.has_crashed() {
        ex.flush_epoch();
    }
    assert!(ex.has_crashed(), "crash fuse must fire for this sweep");
    ex.latest_snapshot()
        .expect("genesis snapshot always exists")
}

/// Crash → recover → resume → compare bit-for-bit against `base`.
fn recover_and_compare(
    seed: u64,
    faults: Option<&FaultPlan>,
    records: &[Record],
    crash: CrashPlan,
    base: &(RunReport, Hfta),
    label: &str,
) {
    let crashed = ExecutorConfig {
        faults: faults.copied(),
        durable: true,
        crash,
        ..config(seed)
    }
    .build();
    let snap = run_to_crash(crashed, records);

    let hwm = snap.records_hwm as usize;
    let recovered = executor(seed)
        .recover(snap)
        .unwrap_or_else(|e| panic!("{label}: recovery refused: {e}"));
    let mut ex = recovered;
    ex.run(&records[hwm..]);
    let (report, hfta) = ex.finish();

    assert_eq!(report, base.0, "{label}: RunReport must be bit-identical");
    assert_eq!(
        hfta.results(),
        base.1.results(),
        "{label}: per-epoch results must be bit-identical"
    );
    for q in [s("A"), s("B")] {
        assert_eq!(hfta.totals(q), base.1.totals(q), "{label}: totals for {q}");
    }
}

/// The first crash point that is provably *mid-flush*: one eviction
/// offer into an end-of-epoch scan that makes at least two.
fn mid_flush_offer(seed: u64, faults: Option<&FaultPlan>, records: &[Record]) -> Option<u64> {
    let mut ex = ExecutorConfig {
        faults: faults.copied(),
        ..config(seed)
    }
    .build();
    let mut prev_offers = 0u64;
    let mut prev_flush = 0u64;
    let mut prev_epochs = 0u64;
    for r in records {
        ex.process(r);
        let rep = ex.report();
        if rep.epochs > prev_epochs && rep.flush_evictions - prev_flush >= 2 {
            return Some(prev_offers + 1);
        }
        prev_epochs = rep.epochs;
        prev_flush = rep.flush_evictions;
        prev_offers = rep.intra_evictions + rep.flush_evictions;
    }
    None
}

/// The headline sweep: ≥ 20 seeds × ≥ 4 crash positions (first record,
/// 25 % / 50 % / 75 % of the stream, provably mid-flush, last record,
/// and inside the final flush), every combination bit-identical to the
/// fault-free run.
#[test]
fn any_seed_any_crash_point_recovers_bit_identical() {
    for seed in 0..20u64 {
        let records = stream(seed);
        let base = baseline(seed, None, &records);
        let n = records.len() as u64;
        let total_offers = base.0.intra_evictions + base.0.flush_evictions;
        assert!(total_offers > 10, "seed {seed}: workload must evict");

        let mut crashes = vec![
            (CrashPlan::at_record(0), "record 0".to_string()),
            (CrashPlan::at_record(n / 4), "record 25%".to_string()),
            (CrashPlan::at_record(n / 2), "record 50%".to_string()),
            (CrashPlan::at_record(3 * n / 4), "record 75%".to_string()),
            (CrashPlan::at_record(n - 1), "last record".to_string()),
            (
                CrashPlan::after_offers(total_offers - 1),
                "final flush".to_string(),
            ),
        ];
        if let Some(offers) = mid_flush_offer(seed, None, &records) {
            crashes.push((CrashPlan::after_offers(offers), "mid-flush".to_string()));
        }
        for (crash, what) in crashes {
            recover_and_compare(
                seed,
                None,
                &records,
                crash,
                &base,
                &format!("seed {seed}, crash at {what}"),
            );
        }
    }
}

/// Composed with PR 1's channel faults: the checkpoint carries the
/// channel's PRNG cursor, so the recovered run re-draws the identical
/// loss/duplication decisions — bit-identical reports (and therefore
/// the same count-bias bounds) survive crashes too.
#[test]
fn crash_recovery_composes_with_channel_faults() {
    for seed in [3u64, 7, 11, 19, 23] {
        let records = stream(seed);
        let faults = FaultPlan::new(seed ^ 0xFA_17)
            .with_eviction_loss(0.10)
            .with_eviction_duplication(0.05);
        let base = baseline(seed, Some(&faults), &records);
        assert!(base.0.evictions_dropped > 0, "seed {seed}: loss must fire");
        assert!(
            base.0.evictions_duplicated > 0,
            "seed {seed}: dup must fire"
        );

        let n = records.len() as u64;
        let mut crashes = vec![
            (CrashPlan::at_record(n / 3), "record 33%".to_string()),
            (CrashPlan::at_record(2 * n / 3), "record 66%".to_string()),
        ];
        if let Some(offers) = mid_flush_offer(seed, Some(&faults), &records) {
            crashes.push((CrashPlan::after_offers(offers), "mid-flush".to_string()));
        }
        for (crash, what) in crashes {
            recover_and_compare(
                seed,
                Some(&faults),
                &records,
                crash,
                &base,
                &format!("faulty seed {seed}, crash at {what}"),
            );
        }
        // And the bias identity still reconciles the observed counts.
        for q in [s("A"), s("B")] {
            let observed: u64 = base.1.totals(q).values().sum();
            assert_eq!(
                observed as i64,
                records.len() as i64 + base.0.count_bias(q),
                "bias identity for {q}"
            );
        }
    }
}

/// The guard's shed cursor is part of the checkpoint: a crashed-and-
/// recovered overloaded run sheds the identical records.
#[test]
fn crash_recovery_preserves_overload_guard_state() {
    let seed = 5u64;
    let records = stream(seed);
    let guarded = ExecutorConfig {
        guard: Some(GuardPolicy::new(400.0)),
        ..config(seed)
    };
    let build = || guarded.build();
    let mut base_ex = build();
    base_ex.run(&records);
    let base = base_ex.finish();
    assert!(base.0.records_shed > 0, "budget must force shedding");
    assert!(!base.0.guard_transitions.is_empty());

    for at in [1_000u64, 2_500, 4_999] {
        let crashed = ExecutorConfig {
            durable: true,
            crash: CrashPlan::at_record(at),
            ..guarded.clone()
        }
        .build();
        let snap = run_to_crash(crashed, &records);
        assert!(snap.guard.is_some(), "guard state must be captured");
        let hwm = snap.records_hwm as usize;
        let mut ex = build().recover(snap).expect("recovery");
        ex.run(&records[hwm..]);
        let (report, hfta) = ex.finish();
        assert_eq!(report, base.0, "crash at record {at}");
        assert_eq!(hfta.results(), base.1.results());
    }
}

/// Satellite: determinism regression — two same-seed runs produce
/// identical reports and identical per-epoch results (the property the
/// whole recovery design rests on).
#[test]
fn same_seed_runs_are_bit_identical() {
    for seed in [0u64, 9, 42] {
        let records = stream(seed);
        let run = || {
            let faults = FaultPlan::new(seed)
                .with_eviction_loss(0.05)
                .with_eviction_duplication(0.02);
            let mut ex = ExecutorConfig {
                faults: Some(faults),
                ..config(seed)
            }
            .build();
            ex.run(&records);
            ex.finish()
        };
        let (report_a, hfta_a) = run();
        let (report_b, hfta_b) = run();
        assert_eq!(report_a, report_b, "seed {seed}: reports diverged");
        assert_eq!(
            hfta_a.results(),
            hfta_b.results(),
            "seed {seed}: results diverged"
        );
    }
}

/// The checkpoint survives its binary encoding losslessly, and recovery
/// from the decoded bytes is as good as from the original.
#[test]
fn recovery_works_through_the_binary_encoding() {
    let seed = 13u64;
    let records = stream(seed);
    let base = baseline(seed, None, &records);
    let crashed = crashing(seed, CrashPlan::at_record(records.len() as u64 / 2));
    let snap = run_to_crash(crashed, &records);

    let snap2 = Snapshot::decode(&snap.encode()).expect("snapshot round-trip");
    assert_eq!(snap2, snap);

    let hwm = snap2.records_hwm as usize;
    let mut ex = executor(seed).recover(snap2).expect("recovery");
    ex.run(&records[hwm..]);
    let (report, hfta) = ex.finish();
    assert_eq!(report, base.0);
    assert_eq!(hfta.results(), base.1.results());
}

/// A corrupted checkpoint decodes to a typed error, never to garbage
/// state.
#[test]
fn corrupted_artifacts_are_rejected() {
    let seed = 17u64;
    let records = stream(seed);
    let crashed = crashing(seed, CrashPlan::at_record(3_000));
    let snap = run_to_crash(crashed, &records);

    let mut bytes = snap.encode();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    assert!(matches!(
        Snapshot::decode(&bytes),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));
    let good = snap.encode();
    assert!(matches!(
        Snapshot::decode(&good[..good.len() - 2]),
        Err(SnapshotError::Truncated)
    ));
}

/// The adversarial sweep behind [`corrupted_artifacts_are_rejected`]:
/// for 20 seeds, truncate the checkpoint at a spread of lengths and
/// flip single bits across a spread of positions. Every mutation must
/// decode to a typed [`SnapshotError`] — never to `Ok` garbage and never
/// to a panic (a panic in `decode` fails this test by itself, which is
/// exactly the supervised-restart property: a corrupt checkpoint
/// downgrades recovery, it does not kill the process).
#[test]
fn corruption_sweep_truncations_and_bit_flips_yield_typed_errors() {
    for seed in 0..20u64 {
        let records = stream(seed);
        let crashed = crashing(seed, CrashPlan::at_record(2_000 + 100 * seed));
        let snap = run_to_crash(crashed, &records);
        let bytes = snap.encode();
        let check = |mutated: &[u8], how: &str| {
            assert!(
                Snapshot::decode(mutated).is_err(),
                "seed {seed}: {how} snapshot decoded to Ok garbage"
            );
        };
        // Truncations: every prefix at 16 evenly spread lengths, the
        // empty slice included.
        for i in 0..16usize {
            let cut = bytes.len() * i / 16;
            check(&bytes[..cut], &format!("truncated-to-{cut}"));
        }
        // Bit flips: one bit at 64 evenly spread byte positions —
        // header, payload, and checksum territory all get hit.
        for i in 0..64usize {
            let pos = bytes.len() * i / 64;
            let mut mutated = bytes.clone();
            mutated[pos] ^= 1 << (i % 8);
            check(&mutated, &format!("bit-flipped-at-{pos}"));
        }
        // The pristine checkpoint still recovers: the sweep rejected
        // copies, not the original.
        assert!(executor(seed).recover(snap).is_ok(), "seed {seed}");
    }
}

/// A backend double whose every read returns the stored bytes with one
/// byte flipped: each generation written through it rots on the way
/// back, so recovery quarantines every one.
#[derive(Debug)]
struct RottingReads {
    inner: SimBackend,
}

impl StorageBackend for RottingReads {
    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.inner.write_atomic(path, bytes)
    }

    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.inner.append(path, bytes)
    }

    fn sync(&mut self, path: &str) -> Result<(), StoreError> {
        self.inner.sync(path)
    }

    fn read(&mut self, path: &str) -> Result<Vec<u8>, StoreError> {
        let mut bytes = self.inner.read(path)?;
        let mid = bytes.len() / 2;
        if let Some(byte) = bytes.get_mut(mid) {
            *byte ^= 0x01;
        }
        Ok(bytes)
    }

    fn list(&mut self, dir: &str) -> Result<Vec<String>, StoreError> {
        self.inner.list(dir)
    }

    fn remove(&mut self, path: &str) -> Result<(), StoreError> {
        self.inner.remove(path)
    }

    fn truncate(&mut self, path: &str, len: usize) -> Result<(), StoreError> {
        self.inner.truncate(path, len)
    }

    fn corrupt(&mut self, path: &str, index: usize) -> Result<(), StoreError> {
        self.inner.corrupt(path, index)
    }

    fn power_cut(&mut self) {
        self.inner.power_cut();
    }
}

/// A supervised shard whose checkpoint has rotted does not die: the
/// restart falls back to a fresh build plus whatever the replay buffer
/// holds, and the loss is ledgered. Two cells:
///
/// * a transient panic with no store: the restart reads the boundary
///   mark and the run accounts for every record;
/// * a store whose every read rots: the restart quarantines every
///   generation and falls back to a fresh build at record 0. The replay
///   buffer was pruned at the last commit, so the records below it are
///   lost to the stale fallback, and the guaranteed interval still
///   holds the true count.
#[test]
fn recovery_refuses_mismatched_artifacts_never_panics_supervised() {
    use msa_core::{BoundsReport, ShardFault, ShardedExecutor, SupervisorPolicy};
    let records = stream(31);
    // Arm a transient panic with a replay buffer big enough to cover
    // the whole partition: even if every checkpoint were refused, the
    // fresh-build fallback replays from record zero and the run still
    // accounts for every record.
    let mut sx = ShardedExecutor::new(config(31), 2)
        .unwrap()
        .with_shard_fault(1, ShardFault::panic_at(40))
        .with_supervision(SupervisorPolicy::default().with_replay_capacity(u64::MAX));
    sx.run(&records);
    assert_eq!(sx.shard_health(1).restarts, 1);
    let (report, _) = sx.finish();
    assert_eq!(report.records, records.len() as u64);

    // Shard 1's store rots every generation it hands back.
    let rotten = StoreHandle::new(
        CheckpointStore::open(Box::new(RottingReads {
            inner: SimBackend::new(),
        }))
        .unwrap(),
    );
    let mut sx = ShardedExecutor::new(config(31), 2)
        .unwrap()
        .with_stores(vec![StoreHandle::in_memory().unwrap(), rotten.clone()])
        .with_shard_fault(1, ShardFault::panic_at(2_500))
        .with_supervision(SupervisorPolicy::default().with_replay_capacity(u64::MAX));
    sx.run(&records);
    assert_eq!(sx.shard_health(1).restarts, 1);
    let stats = rotten.stats();
    assert!(stats.generations_quarantined >= 1, "{stats:?}");
    assert!(stats.fallbacks >= 1, "{stats:?}");
    let (report, hfta) = sx.finish();
    assert!(report.records_stale_lost > 0, "{report:?}");
    assert_eq!(report.records, records.len() as u64);
    let truth = records.len() as u64;
    let bounds = BoundsReport::at_finish(&report, &hfta);
    for q in [s("A"), s("B")] {
        let b = bounds.for_query(q).expect("query is bounded");
        assert!(
            b.lo() <= truth && truth <= b.hi(),
            "{q}: [{}, {}] misses {truth}",
            b.lo(),
            b.hi()
        );
    }
}

/// The recovery driver's refusal path: a checkpoint taken under another
/// configuration is refused with its typed error.
#[test]
fn recovery_refuses_mismatched_artifacts() {
    let seed = 23u64;
    let records = stream(seed);
    let crashed = crashing(seed, CrashPlan::at_record(4_000));
    let snap = run_to_crash(crashed, &records);
    assert!(snap.records_hwm > 0, "need a checkpoint past genesis");

    // A different seed is a different configuration.
    assert!(matches!(
        executor(seed + 1).recover(snap.clone()),
        Err(RecoveryError::PlanMismatch { .. })
    ));
    // So is a different epoch length.
    assert!(matches!(
        ExecutorConfig::new(phantom_plan(), CostParams::paper(), EPOCH / 2, seed)
            .build()
            .recover(snap.clone()),
        Err(RecoveryError::PlanMismatch { .. })
    ));

    // And the checkpoint is still good: the matching executor recovers.
    assert!(executor(seed).recover(snap).is_ok());
}

/// Manual captures are refused mid-epoch: snapshots are epoch-aligned
/// by contract.
#[test]
fn mid_epoch_capture_is_refused() {
    let records = stream(29);
    let mut ex = executor(29);
    ex.run(&records[..100]);
    assert!(matches!(ex.snapshot(), Err(SnapshotError::EpochUnaligned)));
    ex.flush_epoch();
    let snap = ex.snapshot().expect("boundary capture succeeds");
    assert_eq!(snap.records_hwm, 100);
    assert!(snap.plan_fingerprint != 0);
}

// ---------------------------------------------------------------------
// Durable-store drills: the seeded fault matrix over the generational
// checkpoint store. Every cell must end in one of exactly two states —
// bit-identical recovery (given replay from the recovered high-water
// mark) or an explicit, ledger-accounted fallback to an older
// generation — and every cell must be bit-identical across two runs.
// ---------------------------------------------------------------------

/// Drives `ex` over `epochs` from index `from` on, closing every
/// boundary explicitly. At each boundary an alive executor reaches, the
/// on-demand checkpoint must encode exactly as the eager `snapshot()`;
/// returns the last boundary's encoding (`last` when none is reached).
fn drive_checkpoints(
    ex: &mut Executor,
    epochs: &[&[Record]],
    from: usize,
    mut last: Vec<u8>,
    label: &str,
) -> Vec<u8> {
    for (e, batch) in epochs.iter().enumerate().skip(from) {
        ex.run(batch);
        ex.align_to_epoch(e as u64 + 1);
        if ex.has_crashed() {
            break;
        }
        let eager = ex.snapshot().expect("aligned").encode();
        assert_eq!(
            ex.latest_snapshot().map(|snap| snap.encode()),
            Some(eager.clone()),
            "{label}: boundary {}",
            e + 1
        );
        last = eager;
    }
    last
}

/// The checkpoint an executor builds on demand from its boundary mark
/// is the eager one, over {no store, in-memory store} × {no crash, a
/// crash mid-epoch, a crash mid-flush}: at every boundary, after the
/// crash (the last boundary's, byte for byte), and after recovery (the
/// snapshot recovered from).
#[test]
fn on_demand_checkpoint_equals_the_eager_snapshot() {
    const PER_EPOCH: usize = 100;
    let recs = drill_records(6 * PER_EPOCH as u32);
    let epochs: Vec<&[Record]> = recs.chunks(PER_EPOCH).collect();
    let cfg = |crash: CrashPlan| ExecutorConfig {
        crash,
        ..drill_config(5)
    };
    // Offers made before epoch 2 closes: a fuse one past them dies
    // right after that flush's first offer.
    let mut probe = cfg(CrashPlan::none()).build();
    for (e, batch) in epochs.iter().take(2).enumerate() {
        probe.run(batch);
        probe.align_to_epoch(e as u64 + 1);
    }
    probe.run(epochs[2]);
    let offers = probe.report().intra_evictions + probe.report().flush_evictions;
    let flushed = probe.report().flush_evictions;
    probe.align_to_epoch(3);
    assert!(probe.report().flush_evictions >= flushed + 2);
    let (_, want) = drill_oracle(5, &recs);
    for with_store in [false, true] {
        for (name, crash) in [
            ("no crash", CrashPlan::none()),
            ("mid-epoch", CrashPlan::at_record(2 * PER_EPOCH as u64 + 50)),
            ("mid-flush", CrashPlan::after_offers(offers + 1)),
        ] {
            let label = format!("store={with_store}/{name}");
            let handle = StoreHandle::in_memory().unwrap();
            let mut ex = cfg(crash).build();
            if with_store {
                ex = ex.with_store(handle.clone());
            }
            let genesis = ex.snapshot().expect("aligned").encode();
            let last = drive_checkpoints(&mut ex, &epochs, 0, genesis, &label);
            assert_eq!(ex.has_crashed(), !crash.is_none(), "{label}");
            if name == "mid-flush" {
                assert_eq!(ex.current_epoch(), 2, "{label}");
                assert_eq!(ex.report().flush_evictions, flushed + 1, "{label}");
            }
            assert_eq!(
                ex.latest_snapshot().map(|snap| snap.encode()),
                Some(last.clone()),
                "{label}: the checkpoint left behind is the last boundary's"
            );
            let (mut recovered, hwm) = if with_store {
                let recovery = handle.recover_executor(&cfg(CrashPlan::none()));
                let recovered = recovery.executor.expect("a readable chain");
                assert_eq!(
                    recovered.latest_snapshot(),
                    Some(Snapshot::decode(&last).unwrap()),
                    "{label}: recovered checkpoint"
                );
                assert_eq!(
                    recovered.latest_snapshot().map(|snap| snap.encode()),
                    Some(last.clone()),
                    "{label}: recovered checkpoint, byte for byte"
                );
                (recovered, recovery.records_hwm)
            } else {
                let snap = ex.latest_snapshot().unwrap();
                let hwm = snap.records_hwm;
                let recovered = cfg(CrashPlan::none())
                    .build()
                    .recover(snap.clone())
                    .unwrap();
                assert_eq!(
                    recovered.latest_snapshot(),
                    Some(snap),
                    "{label}: recovered checkpoint"
                );
                (recovered, hwm)
            };
            let from = usize::try_from(hwm).unwrap() / PER_EPOCH;
            drive_checkpoints(&mut recovered, &epochs, from, last, &label);
            let (_, got) = recovered.finish();
            assert_eq!(got.results(), want.results(), "{label}: results");
        }
    }
}

/// Dense drill stream: epoch boundary every 100 records (epoch
/// 1 000 µs, timestamps 10 µs apart) and a key space wider than every
/// LFTA on the path (23 × 17 = 391 AB keys into 64 buckets; 23 A and
/// 17 B values into 16 buckets each) — pigeonhole guarantees
/// intra-epoch evictions, so the open epoch a crash loses always holds
/// deliveries the replay must regenerate.
const DRILL_EPOCH: u64 = 1_000;

/// Fault-sweep drill length: six epoch closes after the genesis commit,
/// so every sweep reaches a seven-generation chain.
const SWEEP_RECORDS: u32 = 700;

fn drill_records(n: u32) -> Vec<Record> {
    (0..n)
        .map(|i| Record::new(&[i % 23, i % 17, 0, 0], u64::from(i) * 10))
        .collect()
}

fn drill_config(seed: u64) -> ExecutorConfig {
    let mut cfg = ExecutorConfig::new(phantom_plan(), CostParams::paper(), DRILL_EPOCH, seed);
    cfg.durable = true;
    cfg
}

/// Fault-free drill reference.
fn drill_oracle(seed: u64, recs: &[Record]) -> (RunReport, Hfta) {
    let mut ex = drill_config(seed).build();
    ex.run(recs);
    ex.finish()
}

/// What the store asked of a backend, as [`Observed`] saw it.
#[derive(Clone, Copy, Debug, Default)]
struct Seen {
    /// The backend's own fault index after its last mutating call:
    /// mutating ops for [`SimBackend`], syscall steps for
    /// [`DiskBackend`]. A sweep over it reaches every fault point.
    points: u64,
    /// Root listings.
    lists: u64,
}

/// A backend that forwards every call and records what it saw in a
/// shared [`Seen`] — shared because the store owns its backend.
#[derive(Debug)]
struct Observed<B> {
    inner: B,
    /// Reads the inner backend's fault index.
    points: fn(&B) -> u64,
    seen: Arc<Mutex<Seen>>,
}

impl<B> Observed<B> {
    fn noted<T>(&mut self, out: T) -> T {
        self.seen.lock().unwrap().points = (self.points)(&self.inner);
        out
    }
}

impl<B: StorageBackend> StorageBackend for Observed<B> {
    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let out = self.inner.write_atomic(path, bytes);
        self.noted(out)
    }

    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let out = self.inner.append(path, bytes);
        self.noted(out)
    }

    fn sync(&mut self, path: &str) -> Result<(), StoreError> {
        let out = self.inner.sync(path);
        self.noted(out)
    }

    fn read(&mut self, path: &str) -> Result<Vec<u8>, StoreError> {
        self.inner.read(path)
    }

    fn list(&mut self, dir: &str) -> Result<Vec<String>, StoreError> {
        self.seen.lock().unwrap().lists += 1;
        self.inner.list(dir)
    }

    fn remove(&mut self, path: &str) -> Result<(), StoreError> {
        let out = self.inner.remove(path);
        self.noted(out)
    }

    fn truncate(&mut self, path: &str, len: usize) -> Result<(), StoreError> {
        let out = self.inner.truncate(path, len);
        self.noted(out)
    }

    fn corrupt(&mut self, path: &str, index: usize) -> Result<(), StoreError> {
        self.inner.corrupt(path, index)
    }

    fn power_cut(&mut self) {
        self.inner.power_cut();
    }
}

/// What a fault-free store-attached drill run leaves: its store
/// counters, the backend's root listing, and the fault points its
/// backend observed. Sweeps range over the observed points and prove
/// each fault fired by comparing against the counters and the listing.
struct Unfused {
    stats: StoreStats,
    listing: Vec<String>,
    seen: Seen,
}

fn unfused_drill<B: StorageBackend + 'static>(
    inner: B,
    points: fn(&B) -> u64,
    seed: u64,
    recs: &[Record],
) -> Unfused {
    let seen = Arc::new(Mutex::new(Seen::default()));
    let backend = Observed {
        inner,
        points,
        seen: Arc::clone(&seen),
    };
    let handle = StoreHandle::new(CheckpointStore::open(Box::new(backend)).unwrap());
    let mut live = drill_config(seed).build().with_store(handle.clone());
    live.run(recs);
    assert!(!live.store_degraded(), "the unfused run must stay healthy");
    let seen = *seen.lock().unwrap();
    let stats = handle.stats();
    let listing = handle.with_backend(|b| b.list("")).unwrap();
    let mut chain: Vec<String> = (1..=stats.commits)
        .map(CheckpointStore::generation_path)
        .collect();
    chain.sort();
    // Each commit extends one chain: a steady-state run leaves one
    // generation file per commit and nothing else, GC has nothing to
    // remove, and nothing lists the root after open.
    assert!(
        stats.commits >= 6 && stats.generations_removed == 0 && listing == chain,
        "the drill must cross five boundaries on one chain: {stats:?}, {listing:?}"
    );
    assert_eq!(
        seen.lists, 1,
        "a steady-state drill lists the root only at open"
    );
    Unfused {
        stats,
        listing,
        seen,
    }
}

/// Everything a drill cell produces, for the two-run bit-identity gate.
struct CellOutcome {
    stats: StoreStats,
    generation: u64,
    records_hwm: u64,
    fallbacks: u64,
    report: RunReport,
    hfta: Hfta,
}

fn assert_cells_identical(a: &CellOutcome, b: &CellOutcome, label: &str) {
    assert_eq!(a.stats, b.stats, "{label}: store stats diverged");
    assert_eq!(a.generation, b.generation, "{label}: generation diverged");
    assert_eq!(a.records_hwm, b.records_hwm, "{label}: hwm diverged");
    assert_eq!(a.fallbacks, b.fallbacks, "{label}: fallbacks diverged");
    assert_eq!(a.report, b.report, "{label}: reports diverged");
    assert_eq!(
        a.hfta.results(),
        b.hfta.results(),
        "{label}: results diverged"
    );
    for q in [s("A"), s("B")] {
        assert_eq!(a.hfta.totals(q), b.hfta.totals(q), "{label}: totals {q}");
    }
}

/// The no-silent-corruption gate: a recovered-and-replayed run matches
/// the fault-free oracle bit for bit.
fn assert_matches_oracle(cell: &CellOutcome, oracle: &(RunReport, Hfta), label: &str) {
    assert_eq!(
        cell.report.records, oracle.0.records,
        "{label}: record conservation"
    );
    assert_eq!(
        cell.hfta.results(),
        oracle.1.results(),
        "{label}: per-epoch results vs oracle"
    );
    for q in [s("A"), s("B")] {
        assert_eq!(
            cell.hfta.totals(q),
            oracle.1.totals(q),
            "{label}: totals {q} vs oracle"
        );
    }
}

/// One post-hoc corruption cell: run durably, rot one artifact class,
/// power-cut, recover, replay, compare against the oracle. `link` rots
/// the generation below the head — strictly inside the newest chain.
fn corruption_cell(
    artifact: &str,
    rot: &str,
    recs: &[Record],
    oracle: &(RunReport, Hfta),
    label: &str,
) -> CellOutcome {
    let handle = StoreHandle::in_memory().unwrap();
    let mut live = drill_config(7).build().with_store(handle.clone());
    live.run(recs);
    drop(live);
    let newest = handle.generation();
    assert!(
        newest >= 3,
        "{label}: the chain needs a link below the head"
    );
    let link = newest - 1;
    let path = CheckpointStore::generation_path(if artifact == "link" { link } else { newest });
    let len = handle.with_backend(|b| b.read(&path).unwrap().len());
    match rot {
        "bit-flip" => handle.with_backend(|b| b.corrupt(&path, len / 3)).unwrap(),
        _ => handle.with_backend(|b| b.truncate(&path, len / 2)).unwrap(),
    }
    handle.power_cut().unwrap();
    let recovery = handle.recover_executor(&drill_config(7));
    let mut ex = recovery
        .executor
        .unwrap_or_else(|| panic!("{label}: an older generation must stay readable"));
    ex.run(&recs[usize::try_from(recovery.records_hwm).unwrap()..]);
    let (report, hfta) = ex.finish();
    let cell = CellOutcome {
        stats: handle.stats(),
        generation: recovery.generation,
        records_hwm: recovery.records_hwm,
        fallbacks: recovery.fallbacks,
        report,
        hfta,
    };
    assert_matches_oracle(&cell, oracle, label);
    match artifact {
        "snapshot" => {
            // The newest checkpoint is gone: explicit, ledgered fallback.
            assert!(cell.fallbacks >= 1, "{label}: fallback must be taken");
            assert!(cell.generation < newest, "{label}: older generation");
            assert!(
                cell.stats.generations_quarantined >= 1,
                "{label}: the rotten generation must be quarantined"
            );
        }
        _ => {
            // The head chains through the rotten link: recovery lands
            // on the generation just below it, explicitly.
            assert_eq!(cell.generation, link - 1, "{label}: just below the rot");
            assert!(cell.fallbacks >= 1, "{label}: fallback must be taken");
            assert!(
                cell.stats.generations_quarantined >= 1,
                "{label}: the rotten link must be quarantined"
            );
            // The replay's commits chain onto the recovered head, so GC
            // drops the abandoned branch: the rotten link and the heads
            // above it.
            assert!(
                cell.stats.generations_removed >= 1,
                "{label}: the abandoned branch must be collected"
            );
            let listing = handle.with_backend(|b| b.list("")).unwrap();
            for g in link..=newest {
                assert!(
                    !listing.contains(&CheckpointStore::generation_path(g)),
                    "{label}: gen-{g} is off every chain but survived GC"
                );
            }
        }
    }
    cell
}

/// The post-hoc corruption matrix: {bit-flip, truncation} × {snapshot,
/// chain link}, each cell run twice and required to be bit-identical —
/// and each cell required to end in bit-identical recovery or explicit
/// accounted fallback, never silent corruption.
#[test]
fn corruption_matrix_recovers_bit_identically_or_falls_back_accounted() {
    let recs = drill_records(240);
    let oracle = drill_oracle(7, &recs);
    for artifact in ["snapshot", "link"] {
        for rot in ["bit-flip", "truncate"] {
            let label = format!("{artifact} x {rot}");
            let first = corruption_cell(artifact, rot, &recs, &oracle, &label);
            let second = corruption_cell(artifact, rot, &recs, &oracle, &label);
            assert_cells_identical(&first, &second, &label);
        }
    }
}

/// One in-flight fault-plan cell: the plan is armed before the run, the
/// pipeline must survive it (degrading to in-memory checkpoints at
/// worst), and post-power-cut recovery plus replay must match the
/// oracle bit for bit. With `unfused` given, the fault must also have
/// observably fired: the store degraded, or its counters or listing
/// differ from the fault-free run.
fn in_flight_cell(
    plan: StorageFaultPlan,
    recs: &[Record],
    oracle: &(RunReport, Hfta),
    unfused: Option<&Unfused>,
    label: &str,
) -> CellOutcome {
    let handle = StoreHandle::in_memory_with_faults(plan).unwrap();
    let mut live = drill_config(7).build().with_store(handle.clone());
    live.run(recs);
    assert_eq!(
        live.report().records,
        recs.len() as u64,
        "{label}: a storage fault must never take the pipeline down"
    );
    if let Some(clean) = unfused {
        let fired = live.store_degraded()
            || handle.stats() != clean.stats
            || handle.with_backend(|b| b.list("")).ok().as_ref() != Some(&clean.listing);
        assert!(fired, "{label}: the fault never fired");
    }
    drop(live);
    handle.power_cut().unwrap();
    let recovery = handle.recover_executor(&drill_config(7));
    let (generation, records_hwm, fallbacks) = (
        recovery.generation,
        recovery.records_hwm,
        recovery.fallbacks,
    );
    let mut ex = match recovery.executor {
        Some(ex) => ex,
        // Nothing recoverable (e.g. the fault hit the genesis commit):
        // an explicit fresh start, replayed from record zero.
        None => drill_config(7).build(),
    };
    ex.run(&recs[usize::try_from(records_hwm).unwrap()..]);
    let (report, hfta) = ex.finish();
    let cell = CellOutcome {
        stats: handle.stats(),
        generation,
        records_hwm,
        fallbacks,
        report,
        hfta,
    };
    assert_matches_oracle(&cell, oracle, label);
    cell
}

/// The in-flight fault sweep: {torn write, ENOSPC, transient EIO,
/// crash-after-op} × every mutating op index the fault-free run made —
/// one generation write per commit, one removal per GC'd generation —
/// plus the lying-fsync cell, whose "durable" generations evaporate at
/// the power cut and recovery restarts explicitly from record zero.
#[test]
fn in_flight_storage_fault_sweep_recovers_bit_identically() {
    let recs = drill_records(SWEEP_RECORDS);
    let oracle = drill_oracle(7, &recs);
    let unfused = unfused_drill(SimBackend::new(), SimBackend::ops, 7, &recs);
    let ops = unfused.seen.points;
    assert_eq!(
        ops,
        unfused.stats.commits + unfused.stats.generations_removed,
        "one mutating op per commit and per GC removal"
    );
    for op in 0..ops {
        for kind in ["torn-write", "enospc", "transient-eio", "crash-after"] {
            let plan = match kind {
                "torn-write" => StorageFaultPlan {
                    torn_write: Some((op, 7)),
                    ..StorageFaultPlan::none()
                },
                "enospc" => StorageFaultPlan {
                    fail_op: Some((op, StoreErrorKind::NoSpace)),
                    ..StorageFaultPlan::none()
                },
                "transient-eio" => StorageFaultPlan {
                    transient_eio: Some((op, 3)),
                    ..StorageFaultPlan::none()
                },
                _ => StorageFaultPlan {
                    crash_after_op: Some(op),
                    ..StorageFaultPlan::none()
                },
            };
            let label = format!("{kind} at op {op}");
            let first = in_flight_cell(plan.clone(), &recs, &oracle, Some(&unfused), &label);
            let second = in_flight_cell(plan, &recs, &oracle, Some(&unfused), &label);
            assert_cells_identical(&first, &second, &label);
            if kind == "transient-eio" {
                // A 3-op EIO window sits inside the attempt-counted
                // retry budget: absorbed, never surfaced.
                assert!(first.stats.io_retries >= 3, "{label}: window absorbed");
                assert_eq!(first.stats.io_gave_up, 0, "{label}");
                assert_eq!(first.fallbacks, 0, "{label}: no fallback");
            }
        }
    }
    let lying = StorageFaultPlan {
        lying_fsync: true,
        ..StorageFaultPlan::none()
    };
    let label = "lying-fsync";
    let first = in_flight_cell(lying.clone(), &recs, &oracle, None, label);
    let second = in_flight_cell(lying, &recs, &oracle, None, label);
    assert_eq!(
        first.records_hwm, 0,
        "{label}: nothing claimed durable survives the power cut"
    );
    assert_cells_identical(&first, &second, label);
}

/// The kill-between-syscalls sweep over real files: a fused
/// [`DiskBackend`] aborts after exactly `k` syscall steps — mid
/// write-temp, between fsync and rename, after rename but before the
/// directory fsync, during GC — and for every `k` a fresh process
/// reopening the directory must recover to a state that, after replay,
/// is bit-identical to the fault-free run. `k` sweeps every step the
/// fault-free run made. A kill interrupts at most the write of a
/// generation nobody has committed yet, so every reopen recovers
/// without a fallback or a quarantine. This is the crash-atomicity
/// proof for the disk backend's write discipline.
#[test]
fn disk_kill_between_syscalls_sweep_is_crash_atomic() {
    let recs = drill_records(SWEEP_RECORDS);
    let oracle = drill_oracle(11, &recs);
    let base = std::env::temp_dir().join(format!("msa_recovery_kill_{}", std::process::id()));
    let clean_root = base.join("unfused");
    let _ = std::fs::remove_dir_all(&clean_root);
    let unfused = unfused_drill(
        DiskBackend::new(&clean_root).unwrap(),
        DiskBackend::steps,
        11,
        &recs,
    );
    let steps = unfused.seen.points;
    assert_eq!(
        steps,
        4 * unfused.stats.commits + unfused.stats.generations_removed,
        "four steps per generation write, one per GC removal"
    );
    for k in 0..steps {
        let root = base.join(format!("k{k}"));
        let _ = std::fs::remove_dir_all(&root);
        {
            let backend = DiskBackend::with_kill_after(&root, k).unwrap();
            let store = StoreHandle::new(CheckpointStore::open(Box::new(backend)).unwrap());
            let mut live = drill_config(11).build().with_store(store.clone());
            live.run(&recs);
            assert_eq!(
                live.report().records,
                recs.len() as u64,
                "kill at step {k}: the pipeline must survive the dead store"
            );
            assert!(
                store.with_backend(|b| b.list("")).is_err(),
                "kill at step {k} never fired"
            );
        }
        // "Reboot": a fresh backend over the same directory sees only
        // what a killed process would have left on disk.
        let handle = StoreHandle::on_disk(&root).unwrap();
        let recovery = handle.recover_executor(&drill_config(11));
        assert_eq!(
            recovery.fallbacks, 0,
            "kill at step {k}: an interrupted write is no fallback"
        );
        assert_eq!(
            handle.stats().generations_quarantined,
            0,
            "kill at step {k}: nothing on disk is corrupt"
        );
        let records_hwm = recovery.records_hwm;
        let mut ex = match recovery.executor {
            Some(ex) => ex,
            None => drill_config(11).build(),
        };
        ex.run(&recs[usize::try_from(records_hwm).unwrap()..]);
        let (report, hfta) = ex.finish();
        assert_eq!(report.records, oracle.0.records, "kill at step {k}");
        assert_eq!(
            hfta.results(),
            oracle.1.results(),
            "kill at step {k}: recovery must be bit-identical — never a mixture"
        );
        for q in [s("A"), s("B")] {
            assert_eq!(hfta.totals(q), oracle.1.totals(q), "kill at step {k} {q}");
        }
        std::fs::remove_dir_all(&root).ok();
    }
    std::fs::remove_dir_all(&base).ok();
}

/// A store-backed supervised restart: the panicked shard's driver
/// recovers from its durable generations (not the in-process artifacts)
/// and, with replay covering the gap, the merged output is
/// bit-identical to the fault-free run — twice. A second cell breaks
/// the store first: shard 1's third write, the commit that closes epoch
/// 1, fails with ENOSPC, so the store stops at its second generation
/// while the run goes on. The restart reads that generation, and the
/// replay buffer, pruned at the last successful commit, still holds
/// every record above it: nothing is lost.
#[test]
fn store_backed_supervised_restart_replays_bit_identically() {
    use msa_core::{ShardFault, SupervisorPolicy};
    let records = stream(31);
    let baseline = {
        let mut sx = ShardedExecutor::new(
            ExecutorConfig {
                durable: true,
                ..config(31)
            },
            2,
        )
        .unwrap();
        sx.run(&records);
        sx.finish()
    };
    let run = |shard_1_store: StoreHandle, panic_at: u64| {
        let stores = vec![StoreHandle::in_memory().unwrap(), shard_1_store];
        let mut sx = ShardedExecutor::new(config(31), 2)
            .unwrap()
            .with_stores(stores)
            .with_shard_fault(1, ShardFault::panic_at(panic_at))
            .with_supervision(SupervisorPolicy::default().with_replay_capacity(u64::MAX));
        sx.run(&records);
        assert_eq!(sx.shard_health(1).restarts, 1);
        sx.finish()
    };
    let healthy = || StoreHandle::in_memory().unwrap();
    let (report_a, hfta_a) = run(healthy(), 40);
    let (report_b, hfta_b) = run(healthy(), 40);
    assert_eq!(report_a, report_b, "two store-backed restarts diverged");
    assert_eq!(report_a.records, records.len() as u64);
    assert_eq!(
        hfta_a.results(),
        baseline.1.results(),
        "store-backed restart must match the fault-free run"
    );
    for q in [s("A"), s("B")] {
        assert_eq!(hfta_a.totals(q), baseline.1.totals(q));
        assert_eq!(hfta_b.totals(q), baseline.1.totals(q));
    }

    let broken = || {
        let full = StorageFaultPlan {
            fail_op: Some((2, StoreErrorKind::NoSpace)),
            ..StorageFaultPlan::none()
        };
        StoreHandle::in_memory_with_faults(full).unwrap()
    };
    let (report_a, hfta_a) = run(broken(), 2_500);
    let (report_b, hfta_b) = run(broken(), 2_500);
    assert_eq!(report_a, report_b, "two broken-store restarts diverged");
    assert_eq!(hfta_a.results(), hfta_b.results());
    assert_eq!(
        report_a.records_unreplayed, 0,
        "the replay buffer must reach back to the last commit"
    );
    let mut scrubbed = report_a.clone();
    scrubbed.shard_restarts = 0;
    assert_eq!(scrubbed, baseline.0, "broken store: report vs fault-free");
    assert_eq!(
        hfta_a.results(),
        baseline.1.results(),
        "broken store: results vs fault-free"
    );
}

/// A crashed shard recovers from its attached store — once from a
/// pristine store (no fallback) and once after its newest generation
/// has rotted (explicit fallback, replay covers the gap) — and both
/// paths merge to the serial no-crash oracle bit for bit.
#[test]
fn crashed_shard_recovers_from_its_store_with_and_without_rot() {
    for seed in [11u64, 42] {
        let records = stream(seed);
        let mut serial = executor(seed);
        serial.run(&records);
        let (_, want) = serial.finish();
        for rot in [false, true] {
            let stores: Vec<StoreHandle> =
                (0..4).map(|_| StoreHandle::in_memory().unwrap()).collect();
            let crash_shard = 2usize;
            let mut sx = ShardedExecutor::new(config(seed), 4)
                .unwrap()
                .with_stores(stores.clone())
                .with_crash(crash_shard, CrashPlan::after_offers(7));
            sx.run(&records);
            assert_eq!(sx.crashed_shards(), vec![crash_shard], "seed {seed}");
            if rot {
                let store = &stores[crash_shard];
                let newest = store.generation();
                assert!(newest >= 1, "seed {seed}: genesis commit must exist");
                store
                    .with_backend(|b| b.corrupt(&CheckpointStore::generation_path(newest), 9))
                    .unwrap();
            }
            assert!(
                sx.shard(crash_shard).store_handle().is_some(),
                "crashed shard has a store attached"
            );
            let fallbacks = sx.recover_shard(crash_shard, &records);
            if rot {
                assert!(fallbacks >= 1, "seed {seed}: rot must force a fallback");
            } else {
                assert_eq!(fallbacks, 0, "seed {seed}: pristine store, no fallback");
            }
            let (report, hfta) = sx.finish();
            assert_eq!(report.records, records.len() as u64, "seed {seed}");
            assert_eq!(
                hfta.results(),
                want.results(),
                "seed {seed}, rot {rot}: merged results vs serial no-crash run"
            );
            for q in [s("A"), s("B")] {
                assert_eq!(hfta.totals(q), want.totals(q), "seed {seed} rot {rot} {q}");
            }
        }
    }
}

/// A hot swap whose durable commit is refused rolls the whole
/// transaction back: the old deployment keeps serving bit-identically
/// to a run that never attempted the swap, and the rollback ticks the
/// ledger. A healthy twin proves the refusal was the store, not the
/// plan — and that a committed swap persists a new generation in every
/// shard's store.
#[test]
fn hot_swap_durable_commit_failure_rolls_back_untouched() {
    use msa_gigascope::plan::PlanNode;
    let seed = 13u64;
    let records = stream(seed);
    // Split exactly at an epoch boundary so the quiesce barrier is the
    // same flush the stream itself would have run.
    let half = records
        .iter()
        .position(|r| r.ts_micros / EPOCH >= 3)
        .expect("stream spans six epochs");
    let flat_plan = || {
        PhysicalPlan::new(vec![
            PlanNode {
                attrs: s("A"),
                parent: None,
                buckets: 16,
                is_query: true,
            },
            PlanNode {
                attrs: s("B"),
                parent: None,
                buckets: 16,
                is_query: true,
            },
        ])
        .unwrap()
    };
    let build = |stores: Vec<StoreHandle>| {
        ShardedExecutor::new(config(seed), 2)
            .unwrap()
            .with_stores(stores)
    };
    // Oracle: the same deployment, aligned the same way, never swapping.
    let oracle = {
        let mut sx = build(vec![
            StoreHandle::in_memory().unwrap(),
            StoreHandle::in_memory().unwrap(),
        ]);
        sx.run(&records[..half]);
        sx.align_to_epoch(3);
        sx.run(&records[half..]);
        sx.finish()
    };
    // Shard 1's store refuses every write (an EIO window wider than any
    // retry budget): the handoff cannot be made durable.
    let sick = StorageFaultPlan {
        transient_eio: Some((0, u64::MAX)),
        ..StorageFaultPlan::none()
    };
    let mut sx = build(vec![
        StoreHandle::in_memory().unwrap(),
        StoreHandle::in_memory_with_faults(sick).unwrap(),
    ]);
    sx.run(&records[..half]);
    sx.align_to_epoch(3);
    let err = sx.hot_swap(flat_plan(), &SwapFault::none()).unwrap_err();
    assert!(
        matches!(err, SwapError::DurableCommit { shard: 1, .. }),
        "expected a durable-commit refusal, got: {err}"
    );
    sx.run(&records[half..]);
    let (report, hfta) = sx.finish();
    assert_eq!(report.records, records.len() as u64);
    assert_eq!(
        report.replans_rolled_back, 1,
        "rollback must tick the ledger"
    );
    assert_eq!(report.replans_committed, 0);
    assert_eq!(
        hfta.results(),
        oracle.1.results(),
        "a rolled-back swap must leave the deployment untouched"
    );
    for q in [s("A"), s("B")] {
        assert_eq!(hfta.totals(q), oracle.1.totals(q), "{q}");
    }
    // The healthy twin: same swap, working stores, committed durably.
    let stores = vec![
        StoreHandle::in_memory().unwrap(),
        StoreHandle::in_memory().unwrap(),
    ];
    let mut sx = build(stores.clone());
    sx.run(&records[..half]);
    sx.align_to_epoch(3);
    let pre = [stores[0].stats().commits, stores[1].stats().commits];
    let swap = sx
        .hot_swap(flat_plan(), &SwapFault::none())
        .expect("clean swap");
    assert!(swap.outcome.committed());
    assert!(
        stores[0].stats().commits > pre[0] && stores[1].stats().commits > pre[1],
        "the handoff itself must land as a durable generation per shard"
    );
    sx.run(&records[half..]);
    let (report, _) = sx.finish();
    assert_eq!(report.records, records.len() as u64);
    assert_eq!(report.replans_committed, 1);
}

/// The hot swap's quiesce barrier refuses a deployment stopped
/// mid-epoch with [`SwapError::Unaligned`] and touches nothing: the
/// deployment then finishes bit-identically to a twin that never tried,
/// and the same swap commits once the shards are aligned.
#[test]
fn hot_swap_refuses_mid_epoch_and_commits_once_aligned() {
    let seed = 17u64;
    let records = stream(seed);
    // Stop inside epoch 3, with its groups still in the shards' tables.
    let mid = records
        .iter()
        .position(|r| r.ts_micros / EPOCH >= 3)
        .expect("stream spans six epochs")
        + 50;
    let flat_plan = || PhysicalPlan::flat([(s("A"), 16), (s("B"), 16)]);
    let build = || ShardedExecutor::new(config(seed), 2).unwrap();
    let (want_report, want_hfta) = {
        let mut twin = build();
        twin.run(&records[..mid]);
        twin.run(&records[mid..]);
        twin.finish()
    };
    let refused = |sx: &mut ShardedExecutor| {
        let err = sx.hot_swap(flat_plan(), &SwapFault::none()).unwrap_err();
        assert!(
            matches!(err, SwapError::Unaligned(SnapshotError::EpochUnaligned)),
            "expected a mid-epoch refusal, got: {err}"
        );
    };
    let mut sx = build();
    sx.run(&records[..mid]);
    refused(&mut sx);
    assert_eq!(sx.current_epoch(), 3, "the refusal closes no epoch");
    sx.run(&records[mid..]);
    let (report, hfta) = sx.finish();
    assert_eq!(
        report, want_report,
        "a refused swap leaves the report as is"
    );
    assert_eq!(hfta.results(), want_hfta.results());
    // A retry after the quiesce barrier commits.
    let mut sx = build();
    sx.run(&records[..mid]);
    refused(&mut sx);
    sx.align_to_epoch(4);
    let swap = sx
        .hot_swap(flat_plan(), &SwapFault::none())
        .expect("an aligned swap");
    assert!(swap.outcome.committed());
    assert_eq!(swap.epoch, 4);
    sx.run(&records[mid..]);
    let (report, hfta) = sx.finish();
    assert_eq!(report.records, records.len() as u64);
    assert_eq!(
        (report.replans_committed, report.replans_rolled_back),
        (1, 0)
    );
    for q in [s("A"), s("B")] {
        assert_eq!(hfta.totals(q), want_hfta.totals(q), "{q}");
    }
}

/// Shard-local recovery: crash one shard of a 4-shard deployment
/// mid-epoch (after a handful of eviction offers, i.e. during a flush
/// or cascade), recover it from its own boundary checkpoint, and the
/// merged HFTA matches the **serial** executor's no-crash run on the
/// same stream — full per-epoch result equality, since the channels
/// are lossless.
#[test]
fn crashed_shard_recovers_to_match_serial_run() {
    use msa_core::ShardedExecutor;
    for seed in [3u64, 11, 42] {
        let records = stream(seed);
        // Serial reference that never crashes.
        let mut serial = executor(seed);
        serial.run(&records);
        let (_, want_hfta) = serial.finish();
        let build = || {
            ShardedExecutor::new(
                ExecutorConfig {
                    durable: true,
                    ..config(seed)
                },
                4,
            )
            .unwrap()
        };
        for crash_shard in [0usize, 2] {
            // A few offers into the shard's run lands the fuse inside an
            // epoch — after the genesis checkpoint, before the final
            // flush — so recovery must replay suffix records and
            // regenerate the evictions the crash lost.
            let mut sx = build().with_crash(crash_shard, CrashPlan::after_offers(7));
            sx.run(&records);
            assert_eq!(sx.crashed_shards(), vec![crash_shard], "seed {seed}");
            let snapshot = sx
                .shard(crash_shard)
                .latest_snapshot()
                .expect("crashed shard has a boundary checkpoint");
            assert!(
                snapshot.records_hwm < records.len() as u64,
                "seed {seed}: crash landed mid-stream"
            );
            assert_eq!(
                sx.recover_shard(crash_shard, &records),
                0,
                "shard recovery succeeds"
            );
            let (report, hfta) = sx.finish();
            assert_eq!(report.records, records.len() as u64, "seed {seed}");
            assert_eq!(
                hfta.results(),
                want_hfta.results(),
                "seed {seed}, shard {crash_shard}: merged results vs serial no-crash run"
            );
            for q in [s("A"), s("B")] {
                assert_eq!(hfta.totals(q), want_hfta.totals(q), "seed {seed} {q}");
            }
        }
    }
}
