//! Sharded multi-core LFTA execution.
//!
//! Gigascope-style deployments scale by partitioning the packet stream
//! across processing units ahead of the aggregation tier. This module
//! runs `N` independent shard [`Executor`]s — each with its own LFTA
//! tables (cut to `buckets/N`), eviction channel, overload guard and a
//! hash seed derived from the root seed — on OS threads behind bounded
//! SPSC feeds, then merges the per-shard outputs deterministically:
//!
//! * records are routed by [`shard_of`], a pure function of the root
//!   seed and the record's attribute tuple (never its timestamp), so
//!   identical tuples always co-locate and replay-identical partitions
//!   fall out of any arrival order;
//! * per-epoch evictions merge into one [`Hfta`] in shard-then-sequence
//!   order ([`Hfta::merge_ordered`]), and per-shard [`RunReport`]s fold
//!   with the commutative [`RunReport::merge`] in shard order — the
//!   final outputs are therefore independent of thread scheduling;
//! * with one shard every derivation is the identity (same plan, same
//!   seed, no merge pass), so `ShardedExecutor` with `N = 1` is
//!   bit-identical to the serial [`Executor`].
//!
//! This file is the only place in the engine allowed to spawn threads
//! (msa-lint rule D005 enforces the containment): everything outside
//! sees ordinary deterministic values.

use crate::bounds::BoundsReport;
use crate::channel::ChannelStats;
use crate::executor::{Executor, ExecutorConfig, RunReport};
use crate::faults::{CrashPlan, ShardFault};
use crate::guard::DegradationPolicy;
use crate::hfta::Hfta;
use crate::plan::PhysicalPlan;
use crate::store::StoreHandle;
use crate::supervise::{ShardDriver, ShardHealth, ShardHeartbeat, ShardState, SupervisorPolicy};
use crate::swap::{
    validate_handoff, HandoffViolation, RollbackReason, SwapCrashPoint, SwapError, SwapFault,
    SwapOutcome, SwapReport,
};
use crate::table::TableStats;
use msa_stream::hash::mix64;
use msa_stream::{AttrSet, Record, RecordChunk, PROCESSING_WINDOW_SIZE};
use std::sync::Arc;

/// Domain-separation salt for the partitioner's hash chain.
const PARTITION_SALT: u64 = 0x5348_4152_4450_4152;
/// Domain-separation salt for per-shard executor seeds.
const SHARD_SEED_SALT: u64 = 0x5348_4152_4453_4544;
/// Domain-separation salt for per-shard fault-plan seeds.
const FAULT_SEED_SALT: u64 = 0x5348_4152_4446_4C54;

/// Bounded SPSC depth, in chunks, per shard feed.
const FEED_DEPTH: usize = 4;

/// The shard a record belongs to: a pure function of the root seed and
/// the record's attribute tuple. Timestamps are deliberately excluded,
/// so re-ordered or re-timestamped replays of the same tuples partition
/// identically, and records with equal attributes always co-locate —
/// which is what keeps every per-group aggregate whole within one
/// shard's table cascade.
pub fn shard_of(root_seed: u64, record: &Record, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h = mix64(root_seed ^ PARTITION_SALT);
    for &a in &record.attrs {
        h = mix64(h ^ u64::from(a));
    }
    (h % (shards as u64).max(1)) as usize
}

/// The hash-seed base of shard `k` in an `n`-way deployment, derived
/// from the root seed. With one shard the derivation is the identity,
/// so a 1-way sharded run uses the exact serial executor seed.
pub fn shard_seed(root_seed: u64, k: usize, n: usize) -> u64 {
    if n == 1 {
        root_seed
    } else {
        mix64(root_seed ^ SHARD_SEED_SALT ^ k as u64)
    }
}

/// Per-shard fault-plan seed (same identity rule as [`shard_seed`]).
fn fault_seed(root_seed: u64, k: usize, n: usize) -> u64 {
    if n == 1 {
        root_seed
    } else {
        mix64(root_seed ^ FAULT_SEED_SALT ^ k as u64)
    }
}

/// Sharded-deployment construction failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// A deployment needs at least one shard.
    ZeroShards,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::ZeroShards => write!(f, "a sharded deployment needs at least one shard"),
        }
    }
}

impl std::error::Error for ShardError {}

/// `N` shard [`Executor`]s behind a deterministic hash partitioner.
///
/// Built from the same [`ExecutorConfig`] as a serial executor: every
/// shard instantiates it, with per-shard derivations where the
/// subsystem needs them (seeds, fault PRNG streams, `peak_budget / N`
/// guard budgets, `buckets / N` table allocations). Feed records with
/// [`ShardedExecutor::run`], and collect the merged outputs with
/// [`ShardedExecutor::finish`].
#[derive(Debug)]
pub struct ShardedExecutor {
    config: ExecutorConfig,
    crashes: Vec<CrashPlan>,
    shard_faults: Vec<ShardFault>,
    policy: SupervisorPolicy,
    /// Per-shard durable stores (empty = in-memory durability only).
    /// Shard `k` persists through `stores[k]`; a deployment may attach
    /// fewer stores than shards, leaving the tail un-stored.
    stores: Vec<StoreHandle>,
    shards: Vec<Executor>,
    health: Vec<ShardHealth>,
    heartbeats: Vec<Arc<ShardHeartbeat>>,
    n: usize,
    /// Queries a committed hot-swap removed from the live plan. Their
    /// finished results stay in every shard's HFTA verbatim; `finish`
    /// must still merge them, so removal never erases history.
    retired: Vec<AttrSet>,
}

impl ShardedExecutor {
    /// Creates a `shards`-way deployment of `config`. Its plan is the
    /// *serial* plan — each shard instantiates it with `buckets / N`
    /// per table, so the deployment as a whole respects the memory
    /// limit the plan was sized for. An armed `config.crash` arms every
    /// shard (fuse counters are shard-local);
    /// [`ShardedExecutor::with_crash`] overrides one shard's fuses.
    pub fn new(config: ExecutorConfig, shards: usize) -> Result<ShardedExecutor, ShardError> {
        if shards == 0 {
            return Err(ShardError::ZeroShards);
        }
        let mut sharded = ShardedExecutor {
            crashes: vec![config.crash; shards],
            config,
            shard_faults: vec![ShardFault::none(); shards],
            policy: SupervisorPolicy::default(),
            stores: Vec::new(),
            shards: Vec::new(),
            health: vec![ShardHealth::default(); shards],
            heartbeats: (0..shards)
                .map(|_| Arc::new(ShardHeartbeat::default()))
                .collect(),
            n: shards,
            retired: Vec::new(),
        };
        sharded.shards = (0..shards)
            .map(|k| sharded.build_shard(&sharded.config.plan, k))
            .collect();
        Ok(sharded)
    }

    /// The executor configuration of shard `k`: the serial recipe with
    /// the plan split `N` ways, the shard's derived hash and fault
    /// seeds, its slice of the guard budget, and its crash fuses. A
    /// shard with an armed [`ShardFault`] is durable whatever the
    /// deployment setting — supervised restart recovers from the
    /// epoch-aligned snapshot, and durability is observation-
    /// transparent (`durability_does_not_change_results`).
    fn shard_config(&self, k: usize) -> ExecutorConfig {
        self.shard_config_for(&self.config.plan, k)
    }

    /// [`ShardedExecutor::shard_config`] against an arbitrary serial
    /// plan — the hot-swap transaction builds *new-plan* shard recipes
    /// while the old plan is still installed.
    fn shard_config_for(&self, plan: &PhysicalPlan, k: usize) -> ExecutorConfig {
        let mut cfg = self.config.clone();
        cfg.plan = plan.split_for_shards(self.n);
        cfg.seed = shard_seed(self.config.seed, k, self.n);
        if let Some(faults) = &mut cfg.faults {
            faults.seed = fault_seed(faults.seed, k, self.n);
        }
        if let Some(guard) = &mut cfg.guard {
            guard.peak_budget /= self.n as f64;
            if let DegradationPolicy::BoundedApprox { max_width } = guard.degradation {
                // The promised interval width is a deployment-wide
                // budget: shard shares must sum to exactly `max_width`
                // (merged widths add), so low-index shards absorb the
                // division remainder.
                let n = self.n as u64;
                let share = max_width / n.max(1) + u64::from((k as u64) < max_width % n.max(1));
                guard.degradation = DegradationPolicy::BoundedApprox { max_width: share };
            }
        }
        cfg.crash = self.crashes.get(k).copied().unwrap_or_else(CrashPlan::none);
        cfg.durable = self.config.durable || self.shard_faults.get(k).is_some_and(|f| !f.is_none());
        cfg
    }

    /// A fresh shard `k` executor over the serial plan `plan`: its
    /// recipe built, its store attached. The constructor, the per-shard
    /// verbs and the hot swap's new-plan shards all build through this;
    /// a verb rebuilds only the shards whose recipe it changed,
    /// discarding their processed state, exactly as reconfiguring a
    /// serial executor mid-stream would be a new run.
    fn build_shard(&self, plan: &PhysicalPlan, k: usize) -> Executor {
        let ex = self.shard_config_for(plan, k).build();
        match self.stores.get(k) {
            Some(store) => ex.with_store(store.clone()),
            None => ex,
        }
    }

    /// Attaches one durable [`StoreHandle`] per shard (by index) and
    /// enables durability deployment-wide: shard `k` checkpoints into
    /// `stores[k]`, restarts read it first with generation fallback,
    /// and hot-swaps commit their handoff through it. Extra handles
    /// beyond the shard count are ignored; with fewer handles the tail
    /// shards keep in-memory durability only. Rebuilds every shard.
    pub fn with_stores(mut self, stores: Vec<StoreHandle>) -> ShardedExecutor {
        self.config.durable = true;
        self.stores = stores;
        self.shards = (0..self.n)
            .map(|k| self.build_shard(&self.config.plan, k))
            .collect();
        self
    }

    /// Arms crash fuses on shard `k` only (fuse counters are
    /// shard-local: they count the shard's own records and offers).
    /// Rebuilds shard `k` only.
    pub fn with_crash(mut self, k: usize, crash: CrashPlan) -> ShardedExecutor {
        self.crashes[k] = crash;
        self.shards[k] = self.build_shard(&self.config.plan, k);
        self
    }

    /// Arms a supervised [`ShardFault`] on shard `k`: an injected panic
    /// or stall the shard supervisor must absorb (restart, quarantine
    /// or explicit degradation) without aborting the deployment. Fuse
    /// indices are shard-local and count the whole partition across
    /// `run` calls, like crash fuses. Rebuilds shard `k` only (an armed
    /// fault makes it durable).
    pub fn with_shard_fault(mut self, k: usize, fault: ShardFault) -> ShardedExecutor {
        self.shard_faults[k] = fault;
        self.shards[k] = self.build_shard(&self.config.plan, k);
        self
    }

    /// Overrides the supervision policy (stuck deadline, poison
    /// threshold, replay-buffer bound) for every shard. The policy
    /// belongs to the supervision loop, not the executors: no shard is
    /// rebuilt.
    pub fn with_supervision(mut self, policy: SupervisorPolicy) -> ShardedExecutor {
        self.policy = policy;
        self
    }

    /// Supervision outcome of shard `k` from the runs so far: restarts,
    /// caught panics, stuck detections, replay volume and quarantined
    /// poison records.
    pub fn shard_health(&self, k: usize) -> &ShardHealth {
        &self.health[k]
    }

    /// Shard `k`'s live heartbeat (progress counter + supervision
    /// state), observable from outside the worker thread.
    pub fn heartbeat(&self, k: usize) -> Arc<ShardHeartbeat> {
        Arc::clone(&self.heartbeats[k])
    }

    /// The shard executor at index `k`.
    pub fn shard(&self, k: usize) -> &Executor {
        &self.shards[k]
    }

    /// Indices of shards whose crash fuse has fired.
    pub fn crashed_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, ex)| ex.has_crashed())
            .map(|(k, _)| k)
            .collect()
    }

    /// Splits `records` into per-shard partitions, preserving stream
    /// order within each partition — exactly the sequences the shard
    /// executors consume.
    pub fn partition(&self, records: &[Record]) -> Vec<Vec<Record>> {
        let mut parts = vec![Vec::new(); self.n];
        for &r in records {
            parts[shard_of(self.config.seed, &r, self.n)].push(r);
        }
        parts
    }

    /// Streams `records` through the deployment: the caller's thread
    /// routes each record, in stream order, into its shard's columnar
    /// [`RecordChunk`] builder, and a chunk of
    /// [`PROCESSING_WINDOW_SIZE`] lanes ships to the shard's bounded
    /// SPSC feed the moment it fills (the final, partial chunk of every
    /// shard ships at feed close). One OS thread per shard drains its
    /// feed into its executor through the supervision loop, and every
    /// executor is joined back before returning — so the post-run state
    /// is a plain deterministic value whatever the scheduler did.
    pub fn run(&mut self, records: &[Record]) {
        if self.n == 1 && self.shard_faults.first().is_some_and(|f| f.is_none()) {
            // Single healthy shard: the serial executor itself, with no
            // threads, channel hops or supervision overhead.
            if let Some(ex) = self.shards.first_mut() {
                ex.run(records);
            }
            return;
        }
        let executors = std::mem::take(&mut self.shards);
        let root_seed = self.config.seed;
        let n = self.n;
        let configs: Vec<ExecutorConfig> = (0..n).map(|k| self.shard_config(k)).collect();
        let policy = self.policy;
        let finished = std::thread::scope(|scope| {
            let mut senders = Vec::with_capacity(n);
            let mut handles = Vec::with_capacity(n);
            for (k, (ex, cfg)) in executors.into_iter().zip(configs).enumerate() {
                let (tx, rx) = std::sync::mpsc::sync_channel::<RecordChunk>(FEED_DEPTH);
                senders.push(tx);
                let fault = self
                    .shard_faults
                    .get(k)
                    .copied()
                    .unwrap_or_else(ShardFault::none);
                let Some(heartbeat) = self.heartbeats.get(k).map(Arc::clone) else {
                    continue;
                };
                handles.push(scope.spawn(move || {
                    // Every worker runs the supervision loop: chunks are
                    // processed inside supervise.rs's panic boundary, so
                    // a dying shard restarts from its checkpoint instead
                    // of killing the deployment.
                    let mut driver = ShardDriver::new(k, cfg, ex, fault, policy, heartbeat);
                    while let Ok(chunk) = rx.recv() {
                        driver.offer_chunk(chunk);
                    }
                    driver.close()
                }));
            }
            let mut bufs: Vec<RecordChunk> = (0..n)
                .map(|_| RecordChunk::with_capacity(PROCESSING_WINDOW_SIZE))
                .collect();
            for r in records {
                let k = shard_of(root_seed, r, n);
                let Some(buf) = bufs.get_mut(k) else { continue };
                buf.push(r);
                if buf.len() == PROCESSING_WINDOW_SIZE {
                    let full =
                        std::mem::replace(buf, RecordChunk::with_capacity(PROCESSING_WINDOW_SIZE));
                    // A send only fails if the shard thread died; the
                    // join below surfaces the failure.
                    if let Some(tx) = senders.get(k) {
                        let _ = tx.send(full);
                    }
                }
            }
            for (tx, buf) in senders.iter().zip(bufs) {
                if !buf.is_empty() {
                    let _ = tx.send(buf);
                }
            }
            drop(senders);
            let mut out = Vec::with_capacity(n);
            for (k, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(result) => out.push(result),
                    // The supervision boundary lives inside the driver;
                    // an unwind escaping it is a supervisor bug, not a
                    // shard fault, and must not be re-raised quietly.
                    Err(_) => panic!("shard {k} worker died outside the supervision boundary"),
                }
            }
            out
        });
        for (k, (ex, health)) in finished.into_iter().enumerate() {
            self.shards.push(ex);
            if let Some(h) = self.health.get_mut(k) {
                h.absorb(&health);
            }
        }
    }

    /// The deployment's live degraded-answer view: every shard's
    /// guaranteed intervals folded with the commutative
    /// [`BoundsReport::merge`] (fold order cannot matter), plus the
    /// replay volume supervision recovered instead of losing. Queryable
    /// at any epoch boundary without stopping ingestion.
    pub fn bounds(&self) -> BoundsReport {
        let mut merged: Option<BoundsReport> = None;
        for ex in &self.shards {
            let b = ex.bounds();
            match &mut merged {
                Some(acc) => acc.merge(&b),
                None => merged = Some(b),
            }
        }
        let mut bounds = merged.unwrap_or_default();
        for h in &self.health {
            bounds.records_replayed += h.records_replayed;
        }
        bounds
    }

    /// Merged eviction-channel accounting across all shards.
    pub fn channel_stats(&self) -> ChannelStats {
        let mut stats = ChannelStats::default();
        for ex in &self.shards {
            stats.merge(ex.channel_stats());
        }
        stats
    }

    /// Recovers crashed shard `k` from its checkpoint
    /// ([`Executor::restart`]: its store's newest usable generation when
    /// one is attached, else its boundary mark, else a fresh build) with
    /// its crash fuses disarmed, and re-feeds it the tail of its
    /// partition of `records` (the full stream the deployment was
    /// running when the shard died) from the recovered record
    /// high-water mark. Returns the candidates the restart skipped: at 0
    /// the recovered shard is bit-identical to one that never crashed —
    /// the replay rule of [`Executor::recover`], applied per shard.
    pub fn recover_shard(&mut self, k: usize, records: &[Record]) -> u64 {
        let mut cfg = self.shard_config(k);
        cfg.crash = CrashPlan::none();
        let (mut ex, resume_at, fallbacks) = self.shards[k].restart(&cfg);
        let part: Vec<Record> = records
            .iter()
            .filter(|r| shard_of(self.config.seed, r, self.n) == k)
            .copied()
            .collect();
        let resume_at = usize::try_from(resume_at)
            .unwrap_or(part.len())
            .min(part.len());
        ex.run(&part[resume_at..]);
        self.shards[k] = ex;
        self.crashes[k] = CrashPlan::none();
        fallbacks
    }

    /// The serial plan currently installed (each shard instantiates its
    /// `buckets / N` split).
    pub fn plan(&self) -> &PhysicalPlan {
        &self.config.plan
    }

    /// The query set the live plan serves, in slot order.
    pub fn queries(&self) -> Vec<AttrSet> {
        self.shards
            .first()
            .map(|ex| ex.queries().to_vec())
            .unwrap_or_default()
    }

    /// The epoch currently open on shard 0 (all shards agree outside a
    /// skewed mid-`run` window).
    pub fn current_epoch(&self) -> u64 {
        self.shards.first().map_or(0, Executor::current_epoch)
    }

    /// Force-closes epochs on every shard until `epoch` is the open one
    /// — the quiesce barrier of the hot-swap transaction. Each close is
    /// the identical flush a record timestamp crossing the boundary
    /// would run (see [`Executor::align_to_epoch`]), so aligning between
    /// record batches is state-identical to the boundary arriving in the
    /// stream.
    pub fn align_to_epoch(&mut self, epoch: u64) {
        for ex in &mut self.shards {
            ex.align_to_epoch(epoch);
        }
    }

    /// Live per-table collision/eviction telemetry, summed across
    /// shards by relation — the observed rates the drift detector folds
    /// back into the cost model. Shards hash independently but split
    /// every table `buckets / N`, so the summed collision rate is
    /// directly comparable to the serial plan's predicted rate.
    pub fn table_stats(&self) -> Vec<(AttrSet, TableStats)> {
        let mut merged: Vec<(AttrSet, TableStats)> = Vec::new();
        for ex in &self.shards {
            for (attrs, stats) in ex.table_stats() {
                match merged.iter_mut().find(|(a, _)| *a == attrs) {
                    Some((_, acc)) => {
                        acc.probes += stats.probes;
                        acc.collisions += stats.collisions;
                        acc.absorbed_before_eviction += stats.absorbed_before_eviction;
                    }
                    None => merged.push((attrs, stats)),
                }
            }
        }
        merged
    }

    /// Resets every shard's per-table statistics (a fresh drift window).
    pub fn reset_table_stats(&mut self) {
        for ex in &mut self.shards {
            ex.reset_table_stats();
        }
    }

    /// The epoch-boundary hot-swap transaction: quiesce, snapshot,
    /// rehash into `new_plan`, validate the handoff, commit — or roll
    /// back to the old plan on any validation failure. See
    /// [`crate::swap`] for the state machine and every outcome's
    /// guarantee; `fault` injects rollback/crash drills
    /// ([`SwapFault::none`] for a clean swap).
    ///
    /// On success the deployment serves `new_plan` from the next record
    /// on, with every counter, finished result, degradation promise and
    /// PRNG cursor carried over bit-exactly; queries `new_plan` drops
    /// are retired (their history stays in `finish`'s merged output).
    /// On rollback the old deployment is untouched — the new shards
    /// never saw a record — and `replans_rolled_back` ticks.
    pub fn hot_swap(
        &mut self,
        new_plan: PhysicalPlan,
        fault: &SwapFault,
    ) -> Result<SwapReport, SwapError> {
        if let Some(k) = self.shards.iter().position(Executor::has_crashed) {
            return Err(SwapError::ShardCrashed(k));
        }
        if fault.crash.is_some() && !self.config.durable {
            return Err(SwapError::CrashDrillNeedsDurability);
        }
        // Phase 1 + 2: quiesce barrier — every shard's commit in flight
        // lands, and every shard must sit at the same epoch boundary —
        // and per-shard boundary snapshots. A commit that fails here
        // latches its shard's degraded store, as it would at the shard's
        // next boundary.
        for ex in &mut self.shards {
            let _ = ex.join_commit();
        }
        let mut snaps = Vec::with_capacity(self.n);
        for ex in &self.shards {
            snaps.push(ex.snapshot().map_err(SwapError::Unaligned)?);
        }
        let epoch = snaps.first().map_or(0, |s| s.epoch);
        for (k, s) in snaps.iter().enumerate() {
            if s.epoch != epoch {
                return Err(SwapError::EpochSkew {
                    expected: epoch,
                    found: s.epoch,
                    shard: k,
                });
            }
        }
        if fault.crash.is_some() {
            // A drill crash recovers from durable artifacts only;
            // refuse to run if any shard's checkpoint lags the quiesce
            // boundary (recovery would silently lose committed work).
            for (k, ex) in self.shards.iter().enumerate() {
                let current = ex.checkpoint_position() == Some((epoch, ex.report().records));
                if !current {
                    return Err(SwapError::StaleCheckpoint { shard: k });
                }
            }
        }
        // The swap window is observable on the supervision pulse.
        for hb in &self.heartbeats {
            hb.publish(ShardState::Restarting);
        }
        if fault.crash == Some(SwapCrashPoint::AfterQuiesce) {
            return self.recover_old_after_crash(epoch);
        }
        // Phase 3: build new-plan shards and transplant the boundary
        // state. The old shards are not touched — rollback is a drop.
        // The store rides along *before* adoption so the commit phase
        // can persist the handoff — but adoption itself never writes to
        // it: a rollback must leave the store exactly as the old plan
        // left it.
        let old_queries = self.queries();
        let mut new_shards = Vec::with_capacity(self.n);
        for (k, snap) in snaps.into_iter().enumerate() {
            new_shards.push(self.build_shard(&new_plan, k).adopt_boundary_state(snap));
        }
        // Phase 3b: handoff validation — the conservation checks.
        let verdict = if fault.fail_validation {
            Err(HandoffViolation {
                shard: 0,
                check: "injected",
                expected: 0,
                found: 1,
            })
        } else {
            new_shards
                .iter()
                .zip(&self.shards)
                .enumerate()
                .try_for_each(|(k, (ex, old))| validate_handoff(k, ex, old, &old_queries))
        };
        if let Err(violation) = verdict {
            drop(new_shards);
            self.note_rolled_back();
            let reason = if fault.fail_validation {
                RollbackReason::Injected
            } else {
                RollbackReason::Validation(violation)
            };
            return Ok(SwapReport {
                epoch,
                outcome: SwapOutcome::RolledBack(reason),
            });
        }
        if fault.crash == Some(SwapCrashPoint::BeforeCommit) {
            // The validated new shards die with the process; only the
            // old plan's durable artifacts exist.
            drop(new_shards);
            return self.recover_old_after_crash(epoch);
        }
        // Phase 4: commit. The swap ledger ticks on the new deployment
        // *before* any checkpoint is cut, so the state every durable
        // commit persists — and what a crash one instant later
        // recovers — already carries the counter.
        if let Some(ex) = new_shards.first_mut() {
            ex.note_replan_committed();
        }
        // Durable commit: each shard checkpoints its adopted boundary
        // state under the new plan's fingerprint, and a store-backed
        // shard persists it as a new generation, whose rename is the
        // swap's real commit point on disk; the swap joins each commit
        // before it goes on, so it knows the commit landed. A refusal
        // rolls the whole transaction back with the old deployment
        // untouched (a shard whose store already committed merely
        // carries an uncommitted-plan generation that recovery will
        // quarantine and fall back past — never torn state).
        let refused = new_shards.iter_mut().enumerate().find_map(|(k, ex)| {
            ex.checkpoint();
            ex.join_commit().err().map(|error| (k, error))
        });
        if let Some((shard, error)) = refused {
            drop(new_shards);
            self.note_rolled_back();
            return Err(SwapError::DurableCommit { shard, error });
        }
        let new_queries: Vec<AttrSet> = new_shards
            .first()
            .map(|ex| ex.queries().to_vec())
            .unwrap_or_default();
        for q in &old_queries {
            if !new_queries.contains(q) && !self.retired.contains(q) {
                self.retired.push(*q);
            }
        }
        self.retired.retain(|q| !new_queries.contains(q));
        self.shards = new_shards;
        self.config.plan = new_plan;
        if fault.crash == Some(SwapCrashPoint::AfterCommit) {
            self.recover_all_from_checkpoints(epoch)?;
            for hb in &self.heartbeats {
                hb.publish(ShardState::Healthy);
            }
            return Ok(SwapReport {
                epoch,
                outcome: SwapOutcome::CommittedAfterCrash,
            });
        }
        for hb in &self.heartbeats {
            hb.publish(ShardState::Healthy);
        }
        Ok(SwapReport {
            epoch,
            outcome: SwapOutcome::Committed,
        })
    }

    /// Restarts every shard from its checkpoint ([`Executor::restart`]),
    /// the only state a real crash leaves, with its crash fuses
    /// disarmed. Refuses with [`SwapError::StaleCheckpoint`], the
    /// deployment left as it was, when a restart would land below the
    /// quiesce boundary at `epoch`.
    fn recover_all_from_checkpoints(&mut self, epoch: u64) -> Result<(), SwapError> {
        let mut restarted = Vec::with_capacity(self.n);
        for (k, dead) in self.shards.iter().enumerate() {
            let mut cfg = self.shard_config(k);
            cfg.crash = CrashPlan::none();
            let (ex, hwm, _) = dead.restart(&cfg);
            if ex.current_epoch() < epoch || hwm < dead.report().records {
                return Err(SwapError::StaleCheckpoint { shard: k });
            }
            restarted.push(ex);
        }
        self.shards = restarted;
        self.crashes = vec![CrashPlan::none(); self.n];
        Ok(())
    }

    /// Ticks a rolled-back swap on shard 0 and checkpoints it, so the
    /// ledger reaches what a crash would restart from, then closes the
    /// swap window on the supervision pulse.
    fn note_rolled_back(&mut self) {
        if let Some(ex) = self.shards.first_mut() {
            ex.note_replan_rolled_back();
            ex.checkpoint();
        }
        for hb in &self.heartbeats {
            hb.publish(ShardState::Healthy);
        }
    }

    /// Completes a pre-commit crash drill: rebuilds every shard from
    /// the old plan's boundary checkpoint and ticks the rollback
    /// counter.
    fn recover_old_after_crash(&mut self, epoch: u64) -> Result<SwapReport, SwapError> {
        self.recover_all_from_checkpoints(epoch)?;
        self.note_rolled_back();
        Ok(SwapReport {
            epoch,
            outcome: SwapOutcome::RolledBackAfterCrash,
        })
    }

    /// Flushes every shard's final epoch and merges the outputs in
    /// deterministic shard order: reports fold with the commutative
    /// [`RunReport::merge`], HFTAs combine epoch-by-epoch with
    /// [`Hfta::merge_ordered`]. With one shard this is a passthrough —
    /// literally the serial executor's `finish`. Queries a hot-swap
    /// retired are merged alongside the live set, so their history
    /// survives removal.
    pub fn finish(mut self) -> (RunReport, Hfta) {
        if self.n == 1 {
            if let Some(ex) = self.shards.drain(..).next() {
                return ex.finish();
            }
        }
        let mut queries: Vec<AttrSet> = match self.shards.first() {
            Some(ex) => ex.queries().to_vec(),
            None => Vec::new(),
        };
        for q in &self.retired {
            if !queries.contains(q) {
                queries.push(*q);
            }
        }
        let mut report: Option<RunReport> = None;
        let mut hftas = Vec::with_capacity(self.shards.len());
        for ex in self.shards {
            let (r, h) = ex.finish();
            match &mut report {
                Some(acc) => acc.merge(&r),
                None => report = Some(r),
            }
            hftas.push(h);
        }
        (
            report.unwrap_or_default(),
            Hfta::merge_ordered(queries, &hftas),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanNode;
    use crate::CostParams;
    use msa_stream::hash::FastMap;
    use msa_stream::GroupKey;

    fn s(x: &str) -> AttrSet {
        AttrSet::parse(x).unwrap()
    }

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

    fn stream(n: u32) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(&[i % 37, i % 23, 0, 0], u64::from(i) * 400))
            .collect()
    }

    fn exact(records: &[Record], q: AttrSet) -> FastMap<GroupKey, u64> {
        let mut m = FastMap::default();
        for r in records {
            *m.entry(r.project(q)).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn zero_shards_is_rejected() {
        let cfg = ExecutorConfig::new(phantom_plan(), CostParams::paper(), u64::MAX, 1);
        let err = ShardedExecutor::new(cfg, 0).map(|_| ()).unwrap_err();
        assert_eq!(err, ShardError::ZeroShards);
    }

    #[test]
    fn partitioner_ignores_timestamps_and_covers_all_shards() {
        let recs = stream(2000);
        for &n in &[2usize, 4, 8] {
            let mut seen = vec![0u64; n];
            for r in &recs {
                let k = shard_of(42, r, n);
                assert!(k < n);
                seen[k] += 1;
                let shifted = Record {
                    attrs: r.attrs,
                    ts_micros: r.ts_micros + 999_999,
                };
                assert_eq!(shard_of(42, &shifted, n), k, "timestamp must not matter");
            }
            assert!(seen.iter().all(|&c| c > 0), "all {n} shards reached");
        }
    }

    #[test]
    fn one_shard_is_bit_identical_to_serial() {
        let recs = stream(5000);
        let cfg = ExecutorConfig::new(phantom_plan(), CostParams::paper(), 500_000, 7);
        let mut serial = cfg.build();
        serial.run(&recs);
        let (sr, sh) = serial.finish();
        let mut one = ShardedExecutor::new(cfg, 1).unwrap();
        one.run(&recs);
        let (or_, oh) = one.finish();
        assert_eq!(sr, or_);
        assert_eq!(sh.results(), oh.results());
    }

    #[test]
    fn sharded_results_match_serial_per_epoch() {
        let recs = stream(6000);
        let cfg = ExecutorConfig::new(phantom_plan(), CostParams::paper(), 500_000, 7);
        let mut serial = cfg.build();
        serial.run(&recs);
        let (_, sh) = serial.finish();
        for &n in &[2usize, 4] {
            let mut sharded = ShardedExecutor::new(cfg.clone(), n).unwrap();
            sharded.run(&recs);
            let (report, hfta) = sharded.finish();
            assert_eq!(report.records, recs.len() as u64);
            // Lossless, guard-off: the merged per-epoch result list is
            // exactly the serial one, not just the totals.
            assert_eq!(hfta.results(), sh.results(), "{n} shards");
            for q in [s("A"), s("B")] {
                assert_eq!(hfta.totals(q), exact(&recs, q));
            }
        }
    }

    #[test]
    fn two_threaded_runs_are_bit_identical() {
        let recs = stream(6000);
        let run = || {
            let cfg = ExecutorConfig::new(phantom_plan(), CostParams::paper(), 500_000, 11);
            let mut sharded = ShardedExecutor::new(cfg, 4).unwrap();
            sharded.run(&recs);
            sharded.finish()
        };
        let (r1, h1) = run();
        let (r2, h2) = run();
        assert_eq!(r1, r2);
        assert_eq!(h1.results(), h2.results());
    }

    #[test]
    fn shard_seeds_and_plans_are_derived() {
        let cfg = ExecutorConfig::new(phantom_plan(), CostParams::paper(), u64::MAX, 3);
        let sharded = ShardedExecutor::new(cfg, 4).unwrap();
        // Derived seeds are distinct from each other and the root.
        let mut seeds: Vec<u64> = (0..4).map(|k| shard_seed(3, k, 4)).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), 4);
        assert!(!seeds.contains(&3));
        // Tables are cut to a quarter.
        assert_eq!(sharded.shard(0).plan().nodes()[0].buckets, 16);
        assert_eq!(sharded.shard(0).plan().nodes()[1].buckets, 4);
    }
}
