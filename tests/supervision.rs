//! Supervision drill matrix: the self-healing shard runtime under
//! injected panics, stalls, and poison records.
//!
//! Every cell of {panic, stall, poison} × {shard counts} × {guard
//! on/off} must be:
//!
//! * **deterministic** — two threaded runs produce bit-identical
//!   merged [`RunReport`]s, result lists, and supervision outcomes,
//!   whatever the scheduler did;
//! * **replay-exact** — where the replay buffer covers the outage
//!   (transient panic, stuck shard), the run is bit-identical to the
//!   same deployment never faulting, except for the restart counter;
//! * **loss-exact** — where records are lost (poison quarantine,
//!   replay-buffer overrun, mid-epoch shutdown), the loss is typed and
//!   counted, and `observed = truth + count_bias(q)` holds exactly.
//!
//! `MSA_SCALE` (0, 1] shrinks the trace and trims the matrix as in the
//! differential battery.

use msa_core::{
    shard_of, AttrSet, CheckpointStore, CostParams, CrashPlan, ExecutorConfig, GuardPolicy, Record,
    RunReport, ShardFault, ShardState, ShardedExecutor, SimBackend, StorageBackend, StoreError,
    StoreHandle, SupervisorPolicy, SwapError, SwapFault,
};
use msa_gigascope::plan::{PhysicalPlan, PlanNode};
use msa_gigascope::Hfta;
use msa_stream::UniformStreamBuilder;

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

fn config(guard_on: bool) -> ExecutorConfig {
    ExecutorConfig {
        guard: guard_on.then(|| GuardPolicy::new(GUARD_BUDGET)),
        ..ExecutorConfig::new(phantom_plan(), CostParams::paper(), EPOCH, SEED)
    }
}

fn build(n: usize, guard_on: bool) -> ShardedExecutor {
    ShardedExecutor::new(config(guard_on), n).unwrap()
}

/// One drilled run: arm `fault` on the last shard under `policy`, feed
/// the trace, and collect everything observable.
struct Drilled {
    report: RunReport,
    hfta: Hfta,
    health: msa_core::ShardHealth,
    final_state: ShardState,
}

fn drill(
    n: usize,
    guard_on: bool,
    fault: ShardFault,
    policy: SupervisorPolicy,
    records: &[Record],
) -> Drilled {
    let target = n - 1;
    let mut sx = build(n, guard_on)
        .with_shard_fault(target, fault)
        .with_supervision(policy);
    sx.run(records);
    let health = sx.shard_health(target).clone();
    let final_state = sx.heartbeat(target).state();
    let (report, hfta) = sx.finish();
    Drilled {
        report,
        hfta,
        health,
        final_state,
    }
}

/// `observed = truth + count_bias(q)` must hold exactly.
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

/// Shard-local partition length of the drilled (last) shard.
fn part_len(n: usize, records: &[Record]) -> u64 {
    build(n, false).partition(records)[n - 1].len() as u64
}

/// The tentpole matrix: {panic, stall, poison} × {shards} × {guard}.
#[test]
fn drill_matrix_is_deterministic_and_replay_exact() {
    let scale = scale();
    let records = stream(scale);
    for guard_on in [false, true] {
        for &n in &shard_counts(scale) {
            // Fault-free run of the same deployment: the replay-exact
            // target (itself serial-equivalent per the differential
            // battery).
            let mut base = build(n, guard_on);
            base.run(&records);
            let (base_report, base_hfta) = base.finish();
            let len = part_len(n, &records);
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
                let label = format!("{n} shards/{dname}/guard={guard_on}");
                let d1 = drill(n, guard_on, fault, policy, &records);
                let d2 = drill(n, guard_on, fault, policy, &records);
                // Determinism: supervision decisions are counted in
                // records, never wall-clock, so two runs agree bit for
                // bit — outcomes included.
                assert_eq!(d1.report, d2.report, "{label}: reports across runs");
                assert_eq!(
                    d1.hfta.results(),
                    d2.hfta.results(),
                    "{label}: results across runs"
                );
                assert_eq!(d1.health, d2.health, "{label}: health across runs");
                // The injected fault no longer aborts the deployment:
                // every record is accounted for and the shard retires
                // cleanly.
                assert_eq!(d1.report.records, records.len() as u64, "{label}");
                assert_eq!(d1.final_state, ShardState::Done, "{label}: heartbeat");
                assert_bias_identity(&label, &d1.report, &d1.hfta, records.len());
                match dname {
                    "panic" => {
                        // Transient: one kill, one restart, full replay.
                        assert_eq!(d1.health.panics_caught, 1, "{label}");
                        assert_eq!(d1.health.restarts, 1, "{label}");
                        assert_eq!(d1.health.stalls_detected, 0, "{label}");
                        assert!(d1.health.poisoned.is_empty(), "{label}");
                    }
                    "stall" => {
                        // The stuck deadline fires after 16 records of
                        // no progress; the restart swallows the wedge.
                        assert_eq!(d1.health.stalls_detected, 1, "{label}");
                        assert_eq!(d1.health.restarts, 1, "{label}");
                        assert_eq!(d1.health.panics_caught, 0, "{label}");
                    }
                    _ => {
                        // Poison: threshold consecutive kills, then
                        // quarantine — typed, indexed, never silent.
                        assert_eq!(d1.health.panics_caught, 3, "{label}");
                        assert_eq!(d1.health.restarts, 3, "{label}");
                        assert_eq!(d1.report.records_poisoned, 1, "{label}");
                        assert_eq!(d1.health.poisoned.len(), 1, "{label}");
                        let p = &d1.health.poisoned[0];
                        assert_eq!(p.shard, n - 1, "{label}");
                        assert_eq!(p.index, len / 2, "{label}");
                        assert_eq!(p.attempts, 3, "{label}");
                        assert_eq!(p.queries, vec![s("A"), s("B")], "{label}");
                    }
                }
                if dname != "poison" {
                    // Replay-exact: bit-identical to never faulting,
                    // except the restart counter itself.
                    assert_eq!(d1.health.records_unreplayed, 0, "{label}");
                    let mut scrubbed = d1.report.clone();
                    assert!(scrubbed.shard_restarts > 0, "{label}: restart counted");
                    scrubbed.shard_restarts = 0;
                    assert_eq!(scrubbed, base_report, "{label}: report vs fault-free");
                    assert_eq!(
                        d1.hfta.results(),
                        base_hfta.results(),
                        "{label}: results vs fault-free"
                    );
                }
            }
        }
    }
}

/// A stall shorter than the deadline resumes by itself: no restart, no
/// supervision noise, outputs bit-identical to never stalling.
#[test]
fn short_stall_resumes_without_restart() {
    let records = stream(scale());
    let n = 2;
    let len = part_len(n, &records);
    let mut base = build(n, false);
    base.run(&records);
    let (base_report, base_hfta) = base.finish();
    let d = drill(
        n,
        false,
        ShardFault::stall_at(len / 3, 8),
        SupervisorPolicy::default(),
        &records,
    );
    assert_eq!(d.health.stalls_detected, 0);
    assert_eq!(d.health.restarts, 0);
    assert_eq!(d.health.panics_caught, 0);
    assert_eq!(d.report, base_report);
    assert_eq!(d.hfta.results(), base_hfta.results());
}

/// Replay-buffer overrun: with a zero-capacity buffer the gap between
/// the last checkpoint and the kill point cannot be replayed. The gap
/// degrades explicitly — counted, shed, bias-exact — instead of
/// aborting or silently dropping.
#[test]
fn replay_overrun_degrades_explicitly_and_exactly() {
    let records = stream(scale());
    let n = 2;
    let len = part_len(n, &records);
    let policy = SupervisorPolicy::default().with_replay_capacity(0);
    let fault = ShardFault::panic_at(3 * len / 4);
    let d1 = drill(n, false, fault, policy, &records);
    let d2 = drill(n, false, fault, policy, &records);
    assert_eq!(
        d1.report, d2.report,
        "degraded runs are still deterministic"
    );
    assert_eq!(d1.hfta.results(), d2.hfta.results());
    assert_eq!(d1.health, d2.health);
    // The uncovered gap is real and every ledger agrees on its size.
    assert!(d1.health.records_unreplayed > 0, "gap must be nonzero");
    assert_eq!(d1.report.records_unreplayed, d1.health.records_unreplayed);
    assert!(d1.report.records_shed >= d1.health.records_unreplayed);
    assert_eq!(d1.report.records, records.len() as u64);
    assert_bias_identity("overrun", &d1.report, &d1.hfta, records.len());
}

/// Quarantine interacts with degradation: a poison record inside a
/// zero-capacity replay window still quarantines after the threshold,
/// and both loss ledgers stay exact side by side.
#[test]
fn poison_and_overrun_compose() {
    let records = stream(scale());
    let n = 4;
    let len = part_len(n, &records);
    let policy = SupervisorPolicy::default()
        .with_replay_capacity(0)
        .with_poison_threshold(2);
    let fault = ShardFault::panic_repeating(2 * len / 3, 5);
    let d = drill(n, false, fault, policy, &records);
    assert_eq!(d.health.panics_caught, 2);
    assert_eq!(d.health.poisoned.len(), 1);
    assert_eq!(d.report.records_poisoned, 1);
    assert_eq!(d.report.records, records.len() as u64);
    assert_bias_identity("poison+overrun", &d.report, &d.hfta, records.len());
}

/// Satellite regression: a shard killed mid-epoch by a [`CrashPlan`]
/// (a dead *process*, outside the supervisor's reach) loses its
/// in-flight feed at close. That loss must land in the shutdown ledger
/// and the abandoned deployment must still finish bias-exact — no
/// silent drops on the shutdown path.
#[test]
fn mid_epoch_close_accounts_shutdown_loss() {
    let records = stream(scale());
    let n = 4;
    let target = n - 1;
    let len = part_len(n, &records);
    let run_once = || {
        let config = ExecutorConfig {
            durable: true,
            ..config(false)
        };
        let mut sx = ShardedExecutor::new(config, n)
            .unwrap()
            .with_crash(target, CrashPlan::at_record(len / 2));
        sx.run(&records);
        assert_eq!(sx.crashed_shards(), vec![target]);
        let stats = sx.channel_stats();
        let (report, hfta) = sx.finish();
        (stats, report, hfta)
    };
    let (stats1, report1, hfta1) = run_once();
    let (stats2, report2, hfta2) = run_once();
    assert_eq!(report1, report2, "abandoned runs are deterministic");
    assert_eq!(hfta1.results(), hfta2.results());
    assert_eq!(stats1, stats2);
    // The feed kept arriving after the kill; close() must have counted
    // every one of those records as shutdown loss, not dropped them.
    assert!(stats1.shutdown_lost > 0, "mid-epoch loss must be ledgered");
    assert_eq!(report1.records, records.len() as u64);
    assert_bias_identity("abandoned", &report1, &hfta1, records.len());
}

/// Heartbeats observe a live run without perturbing it: states stay in
/// the published vocabulary and the progress counter lands exactly on
/// the shard's partition size.
#[test]
fn heartbeats_report_progress_and_final_state() {
    let records = stream(scale());
    let n = 2;
    let mut sx = build(n, false);
    let hb = sx.heartbeat(0);
    assert_eq!(hb.state(), ShardState::Healthy);
    assert_eq!(hb.processed(), 0);
    sx.run(&records);
    let parts = sx.partition(&records);
    for (k, part) in parts.iter().enumerate() {
        let hb = sx.heartbeat(k);
        assert_eq!(hb.state(), ShardState::Done, "shard {k}");
        assert_eq!(hb.processed(), part.len() as u64, "shard {k}");
    }
    let (report, _) = sx.finish();
    assert_eq!(report.records, records.len() as u64);
    assert_eq!(report.shard_restarts, 0);
}

/// A poison record arriving *inside a chunk* quarantines exactly that
/// one record. The supervisor cuts the shard's chunks at the armed
/// index and replays around it, and the chunk boundary leaks into
/// nothing: at every position of the poisoned record — first, second,
/// mid-partition, last — the run matches a fault-free run of the same
/// stream without that record, apart from the poison and restart
/// counters.
#[test]
fn poison_inside_a_chunk_quarantines_exactly_one_record() {
    let records = stream(scale());
    let n = 4;
    let target = n - 1;
    let len = part_len(n, &records);
    let policy = SupervisorPolicy::default();
    for p in [0, 1, len / 2, len - 1] {
        let label = format!("poison at {p}");
        let fault = ShardFault::panic_repeating(p, 8);
        let d1 = drill(n, false, fault, policy, &records);
        let d2 = drill(n, false, fault, policy, &records);
        assert_eq!(d1.report, d2.report, "{label}: determinism");
        assert_eq!(d1.hfta.results(), d2.hfta.results(), "{label}");
        assert_eq!(d1.health, d2.health, "{label}");
        // Exactly one record quarantined, at the armed index; the rest
        // of its chunk replays.
        assert_eq!(d1.report.records_poisoned, 1, "{label}");
        assert_eq!(d1.health.poisoned.len(), 1, "{label}");
        assert_eq!(d1.health.poisoned[0].index, p, "{label}");
        assert_eq!(d1.report.records, records.len() as u64, "{label}");
        assert_eq!(d1.final_state, ShardState::Done, "{label}");
        assert_bias_identity(&label, &d1.report, &d1.hfta, records.len());
        // The same stream with the poisoned record cut out, fault-free.
        let at = records
            .iter()
            .enumerate()
            .filter(|(_, r)| shard_of(SEED, r, n) == target)
            .nth(p as usize)
            .map(|(at, _)| at)
            .unwrap();
        let mut without = records.clone();
        let poisoned = without.remove(at);
        assert_eq!(d1.health.poisoned[0].record, poisoned, "{label}");
        let mut clean = build(n, false);
        clean.run(&without);
        let (clean_report, clean_hfta) = clean.finish();
        let mut scrubbed = d1.report.clone();
        scrubbed.records -= 1;
        scrubbed.records_poisoned = 0;
        scrubbed.shard_restarts = 0;
        assert_eq!(
            scrubbed, clean_report,
            "{label}: report vs stream without it"
        );
        assert_eq!(
            d1.hfta.results(),
            clean_hfta.results(),
            "{label}: results vs stream without it"
        );
    }
}

/// Supervised shards keep counting across `run` calls: fault fuses and
/// quarantine indices count the shard's whole partition, so an armed
/// panic fires once whichever call reaches it, a restart in a later
/// call replays only that call's records, and every unreplayed record
/// is counted once. Cells: {panic in the first call, in the second} ×
/// {default replay capacity, capacity 0}.
#[test]
fn repeated_runs_count_fault_indices_across_the_whole_partition() {
    let records = stream(scale());
    let n = 2;
    let target = n - 1;
    let len = part_len(n, &records);
    let half = records.len() / 2;
    let mut base = build(n, false);
    base.run(&records);
    let (base_report, base_hfta) = base.finish();
    for (cname, at) in [("first call", len / 8), ("second call", 3 * len / 4)] {
        for capacity in [SupervisorPolicy::default().replay_capacity, 0] {
            let label = format!("panic in the {cname}/replay capacity {capacity}");
            let mut sx = build(n, false)
                .with_shard_fault(target, ShardFault::panic_at(at))
                .with_supervision(SupervisorPolicy::default().with_replay_capacity(capacity));
            sx.run(&records[..half]);
            sx.run(&records[half..]);
            let health = sx.shard_health(target).clone();
            let (report, hfta) = sx.finish();
            assert_eq!(report.records, records.len() as u64, "{label}");
            assert_bias_identity(&label, &report, &hfta, records.len());
            assert_eq!(
                health.records_unreplayed, report.records_unreplayed,
                "{label}: health and report agree on the gap"
            );
            assert_eq!(health.panics_caught, 1, "{label}");
            if capacity == 0 {
                assert!(health.records_unreplayed > 0, "{label}: a gap opened");
            } else {
                let mut scrubbed = report.clone();
                assert_eq!(scrubbed.shard_restarts, 1, "{label}");
                scrubbed.shard_restarts = 0;
                assert_eq!(scrubbed, base_report, "{label}: report vs fault-free");
                assert_eq!(
                    hfta.results(),
                    base_hfta.results(),
                    "{label}: results vs fault-free"
                );
            }
        }
    }
}

/// A simulated disk whose `write_atomic` calls numbered in `dying`
/// (1-based) panic before touching anything: a real panic raised on the
/// store's writer, which a shard meets where it joins the commit — at
/// an epoch close in the middle of a chunk, or when its feed closes.
#[derive(Debug)]
struct PanickingDisk {
    inner: SimBackend,
    writes: u32,
    dying: Vec<u32>,
}

/// Payload of the disk's panics, kept off stderr by [`quiet_disk_panics`].
struct DiskPanic;

fn quiet_disk_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<DiskPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

impl StorageBackend for PanickingDisk {
    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.writes += 1;
        if self.dying.contains(&self.writes) {
            std::panic::panic_any(DiskPanic);
        }
        self.inner.write_atomic(path, bytes)
    }

    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.inner.append(path, bytes)
    }

    fn sync(&mut self, path: &str) -> Result<(), StoreError> {
        self.inner.sync(path)
    }

    fn read(&mut self, path: &str) -> Result<Vec<u8>, StoreError> {
        self.inner.read(path)
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

/// A panic escaping the executor in the middle of a chunk — no armed
/// fault, so the supervisor cannot know its record — is pinned to its
/// exact record before the poison verdict counts it. The last shard's
/// store panics on chosen writes; one write is one commit, so its third
/// write is the commit of the close of epoch 1. That write runs on the
/// store's writer, and its panic is raised again where the executor
/// joins the commit: at the close of epoch 2, run by the partition's
/// first record of epoch 3.
///
/// * transient (third write only): one restart, then a clean replay,
///   bit-identical to the fault-free run apart from `shard_restarts`;
/// * recurring (writes 3–6): the escaped range costs one restart, then
///   `poison_threshold` single-record kills at that record quarantine
///   exactly it, and the seventh write goes through.
#[test]
fn panics_escaping_a_chunk_are_pinned_to_their_record() {
    quiet_disk_panics();
    let records = stream(scale());
    let n = 2;
    let target = n - 1;
    let run = |dying: Vec<u32>| {
        let disk = PanickingDisk {
            inner: SimBackend::new(),
            writes: 0,
            dying,
        };
        let stores = vec![
            StoreHandle::in_memory().unwrap(),
            StoreHandle::new(CheckpointStore::open(Box::new(disk)).unwrap()),
        ];
        let mut sx = build(n, false).with_stores(stores);
        sx.run(&records);
        let health = sx.shard_health(target).clone();
        let (report, hfta) = sx.finish();
        (report, hfta, health)
    };
    let (clean_report, clean_hfta, clean_health) = run(vec![]);
    assert_eq!(clean_health.panics_caught, 0);

    let (report, hfta, health) = run(vec![3]);
    assert_eq!((health.panics_caught, health.restarts), (1, 1), "transient");
    assert!(health.poisoned.is_empty(), "transient");
    let mut scrubbed = report.clone();
    scrubbed.shard_restarts = 0;
    assert_eq!(scrubbed, clean_report, "transient: report vs fault-free");
    assert_eq!(hfta.results(), clean_hfta.results(), "transient: results");

    let part = build(n, false).partition(&records).swap_remove(target);
    let at = part
        .iter()
        .position(|r| r.ts_micros >= 3 * EPOCH)
        .expect("the partition reaches epoch 3");
    let (report, hfta, health) = run(vec![3, 4, 5, 6]);
    assert_eq!((health.panics_caught, health.restarts), (4, 4), "recurring");
    assert_eq!(health.poisoned.len(), 1, "recurring");
    assert_eq!(health.poisoned[0].index, at as u64, "recurring");
    assert_eq!(health.poisoned[0].record, part[at], "recurring");
    assert_eq!(health.poisoned[0].attempts, 3, "recurring");
    assert_eq!(report.records_poisoned, 1, "recurring");
    assert_eq!(report.records, records.len() as u64, "recurring");
    assert_bias_identity("recurring", &report, &hfta, records.len());
}

/// The last commit a supervised run hands off is still in flight on the
/// store's writer when the shard's feed closes; a backend panic in it is
/// caught there, where the shard joins it inside its panic boundary, and
/// charged to the record whose offer crossed the last boundary (the
/// partition's first record of its last epoch). The last shard's store
/// panics on that commit's write, counted from a fault-free twin.
///
/// * then `finish`, transient (that write only): one restart, a replay
///   that commits again, and a report bit-identical to the fault-free
///   run apart from `shard_restarts`;
/// * then `finish`, recurring (that write and the two rewrites after
///   it): the record is quarantined after `poison_threshold` kills and
///   the run stays exact up to the bias identity;
/// * then `finish`, transient, with an eight-record replay buffer that
///   no longer holds that record: the commit is given up without a
///   restart, and the report is bit-identical to the fault-free run;
/// * then a hot swap, transient: the swap's quiesce barrier finds no
///   commit in flight and refuses the open epoch as unaligned, then the
///   aligned swap commits, and the run ends bit-identical to a
///   fault-free twin taking the same steps apart from `shard_restarts`.
#[test]
fn a_panic_in_a_runs_last_commit_is_caught_when_the_feed_closes() {
    quiet_disk_panics();
    let records = stream(scale());
    let n = 2;
    let target = n - 1;
    let half = records
        .iter()
        .position(|r| r.ts_micros >= 3 * EPOCH)
        .expect("the stream reaches epoch 3");
    let deploy = |dying: Vec<u32>, policy: SupervisorPolicy| {
        let disk = PanickingDisk {
            inner: SimBackend::new(),
            writes: 0,
            dying,
        };
        let stores = vec![
            StoreHandle::in_memory().unwrap(),
            StoreHandle::new(CheckpointStore::open(Box::new(disk)).unwrap()),
        ];
        let sx = build(n, false)
            .with_stores(stores.clone())
            .with_supervision(policy);
        (sx, stores)
    };
    // Writes the target's store has run once `prefix` has streamed.
    let writes_after = |prefix: &[Record]| {
        let (mut sx, stores) = deploy(vec![], SupervisorPolicy::default());
        sx.run(prefix);
        u32::try_from(stores[target].stats().commits).unwrap()
    };

    let whole = writes_after(&records);
    let finished = |dying: Vec<u32>, policy: SupervisorPolicy| {
        let (mut sx, _) = deploy(dying, policy);
        sx.run(&records);
        let health = sx.shard_health(target).clone();
        let (report, hfta) = sx.finish();
        (report, hfta, health)
    };
    let policy = SupervisorPolicy::default();
    let (clean_report, clean_hfta, clean_health) = finished(vec![], policy);
    assert_eq!(clean_health.panics_caught, 0);
    let (report, hfta, health) = finished(vec![whole], policy);
    assert_eq!((health.panics_caught, health.restarts), (1, 1), "finish");
    assert!(health.poisoned.is_empty(), "finish");
    let mut scrubbed = report.clone();
    scrubbed.shard_restarts = 0;
    assert_eq!(scrubbed, clean_report, "finish: report vs fault-free");
    assert_eq!(hfta.results(), clean_hfta.results(), "finish: results");

    let part = build(n, false).partition(&records).swap_remove(target);
    let last = part.last().expect("the partition is not empty").ts_micros / EPOCH;
    let at = part
        .iter()
        .position(|r| r.ts_micros >= last * EPOCH)
        .expect("the partition reaches its last epoch");
    let (report, hfta, health) = finished(vec![whole, whole + 1, whole + 2], policy);
    assert_eq!((health.panics_caught, health.restarts), (3, 3), "recurring");
    assert_eq!(health.poisoned.len(), 1, "recurring");
    assert_eq!(health.poisoned[0].index, at as u64, "recurring");
    assert_eq!(health.poisoned[0].record, part[at], "recurring");
    assert_eq!(report.records_poisoned, 1, "recurring");
    assert_eq!(report.records, records.len() as u64, "recurring");
    assert_bias_identity("recurring", &report, &hfta, records.len());

    // An eight-record replay buffer has let go of that record by the
    // time the feed closes, so the commit is given up, with no restart.
    let short = policy.with_replay_capacity(8);
    let (clean_report, clean_hfta, _) = finished(vec![], short);
    let (report, hfta, health) = finished(vec![whole], short);
    assert_eq!((health.panics_caught, health.restarts), (1, 0), "given up");
    assert_eq!(report, clean_report, "given up: report vs fault-free");
    assert_eq!(hfta.results(), clean_hfta.results(), "given up: results");

    let flat = || PhysicalPlan::flat([(s("A"), 16), (s("B"), 16)]);
    let swapped = |dying: Vec<u32>| {
        let (mut sx, _) = deploy(dying, policy);
        sx.run(&records[..half]);
        let refused = sx.hot_swap(flat(), &SwapFault::none());
        assert!(
            matches!(refused, Err(SwapError::Unaligned(_))),
            "epoch 2 is still open: {refused:?}"
        );
        sx.align_to_epoch(3);
        let swap = sx.hot_swap(flat(), &SwapFault::none()).expect("aligned");
        assert!(swap.outcome.committed());
        sx.run(&records[half..]);
        let restarts = sx.shard_health(target).restarts;
        let (report, hfta) = sx.finish();
        (report, hfta, restarts)
    };
    let (clean_report, clean_hfta, _) = swapped(vec![]);
    let (report, hfta, restarts) = swapped(vec![writes_after(&records[..half])]);
    assert_eq!(restarts, 1, "hot swap");
    let mut scrubbed = report.clone();
    scrubbed.shard_restarts = 0;
    assert_eq!(scrubbed, clean_report, "hot swap: report vs fault-free");
    assert_eq!(hfta.results(), clean_hfta.results(), "hot swap: results");
}
