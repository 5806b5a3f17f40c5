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
use crate::executor::{Executor, ExecutorConfig, RunReport, ValueSource};
use crate::faults::{CrashPlan, FaultPlan, ShardFault};
use crate::guard::{DegradationPolicy, GuardPolicy};
use crate::hfta::Hfta;
use crate::plan::PhysicalPlan;
use crate::snapshot::{RecoveryError, ShardedSnapshot, Snapshot};
use crate::store::StoreHandle;
use crate::supervise::{
    PoisonRecord, ShardDriver, ShardHealth, ShardHeartbeat, ShardState, SupervisorPolicy,
};
use crate::swap::{
    validate_handoff, HandoffViolation, RollbackReason, SwapCrashPoint, SwapError, SwapFault,
    SwapOutcome, SwapReport,
};
use crate::table::TableStats;
use crate::CostParams;
use msa_stream::hash::mix64;
use msa_stream::{AttrSet, Filter, Record, RecordChunk};
use std::sync::Arc;

/// Domain-separation salt for the partitioner's hash chain.
const PARTITION_SALT: u64 = 0x5348_4152_4450_4152;
/// Domain-separation salt for per-shard executor seeds.
const SHARD_SEED_SALT: u64 = 0x5348_4152_4453_4544;
/// Domain-separation salt for per-shard fault-plan seeds.
const FAULT_SEED_SALT: u64 = 0x5348_4152_4446_4C54;

/// Records fed to a shard per channel message.
const FEED_BATCH: usize = 256;
/// Bounded SPSC depth, in batches, per shard feed.
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

/// How [`ShardedExecutor::run`] feeds records to the shard executors.
///
/// Both modes produce bit-identical outputs (the differential battery
/// in `tests/vectorized.rs` holds that line); the knob exists so the
/// scalar oracle stays drivable and every pre-existing deployment keeps
/// its exact behavior by default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IngestMode {
    /// Per-record scalar ingestion (the oracle path).
    #[default]
    Scalar,
    /// Columnar [`RecordChunk`]s of `size` lanes through the vectorized
    /// probe: the router partitions chunk-at-a-time and re-chunks per
    /// shard, workers drain whole chunks per panic boundary.
    Chunked {
        /// Lanes per chunk (clamped to at least 1).
        size: usize,
    },
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
/// Configure with the same builder verbs as [`Executor`] (they apply to
/// every shard, with per-shard derivations where the subsystem needs
/// them: seeds, fault PRNG streams, `peak_budget / N` guard budgets,
/// `buckets / N` table allocations), feed records with
/// [`ShardedExecutor::run`], and collect the merged outputs with
/// [`ShardedExecutor::finish`].
#[derive(Debug)]
pub struct ShardedExecutor {
    config: ExecutorConfig,
    crashes: Vec<CrashPlan>,
    shard_faults: Vec<ShardFault>,
    policy: SupervisorPolicy,
    ingest: IngestMode,
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
    /// Creates an `shards`-way deployment over `plan`. The plan is the
    /// *serial* plan — each shard instantiates it with `buckets / N`
    /// per table, so the deployment as a whole respects the memory
    /// limit the plan was sized for.
    pub fn new(
        plan: PhysicalPlan,
        costs: CostParams,
        epoch_micros: u64,
        seed: u64,
        shards: usize,
    ) -> Result<ShardedExecutor, ShardError> {
        if shards == 0 {
            return Err(ShardError::ZeroShards);
        }
        let mut sharded = ShardedExecutor {
            config: ExecutorConfig::new(plan, costs, epoch_micros, seed),
            crashes: vec![CrashPlan::none(); shards],
            shard_faults: vec![ShardFault::none(); shards],
            policy: SupervisorPolicy::default(),
            ingest: IngestMode::Scalar,
            stores: Vec::new(),
            shards: Vec::new(),
            health: vec![ShardHealth::default(); shards],
            heartbeats: (0..shards)
                .map(|_| Arc::new(ShardHeartbeat::default()))
                .collect(),
            n: shards,
            retired: Vec::new(),
        };
        sharded.rebuild();
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

    /// (Re)builds every shard executor from the current configuration.
    /// Builders call this; any processed state is discarded, exactly as
    /// reconfiguring a serial executor mid-stream would be a new run.
    fn rebuild(&mut self) {
        self.shards = (0..self.n)
            .map(|k| {
                let ex = self.shard_config(k).build();
                match self.stores.get(k) {
                    Some(store) => ex.with_store(store.clone()),
                    None => ex,
                }
            })
            .collect();
        self.health = vec![ShardHealth::default(); self.n];
    }

    /// Sets the metric-value source for every shard.
    pub fn with_value_source(mut self, source: ValueSource) -> ShardedExecutor {
        self.config.value_source = source;
        self.rebuild();
        self
    }

    /// Installs a selection filter on every shard.
    pub fn with_filter(mut self, filter: Filter) -> ShardedExecutor {
        self.config.filter = filter;
        self.rebuild();
        self
    }

    /// Wires channel-level faults into every shard. Each shard's
    /// channel draws an independent PRNG stream derived from the plan's
    /// seed, so fault decisions stay deterministic per shard.
    pub fn with_faults(mut self, plan: &FaultPlan) -> ShardedExecutor {
        self.config.faults = Some(*plan);
        self.rebuild();
        self
    }

    /// Enables the overload guard on every shard, each policing
    /// `peak_budget / N` — its share of the deployment budget.
    pub fn with_guard(mut self, policy: GuardPolicy) -> ShardedExecutor {
        self.config.guard = Some(policy);
        self.rebuild();
        self
    }

    /// Enables boundary checkpoints on every shard.
    pub fn with_durability(mut self) -> ShardedExecutor {
        self.config.durable = true;
        self.rebuild();
        self
    }

    /// Attaches one durable [`StoreHandle`] per shard (by index) and
    /// enables durability deployment-wide: shard `k` checkpoints into
    /// `stores[k]`, supervised restarts recover from it with
    /// generation fallback, and hot-swaps commit their handoff through
    /// it. Extra handles beyond the shard count are ignored; with fewer
    /// handles the tail shards keep in-memory durability only.
    pub fn with_stores(mut self, stores: Vec<StoreHandle>) -> ShardedExecutor {
        self.config.durable = true;
        self.stores = stores;
        self.rebuild();
        self
    }

    /// Arms crash fuses on shard `k` only (fuse counters are
    /// shard-local: they count the shard's own records and offers).
    pub fn with_crash(mut self, k: usize, crash: CrashPlan) -> ShardedExecutor {
        self.crashes[k] = crash;
        self.rebuild();
        self
    }

    /// Arms a supervised [`ShardFault`] on shard `k`: an injected panic
    /// or stall the shard supervisor must absorb (restart, quarantine
    /// or explicit degradation) without aborting the deployment. Fuse
    /// indices are shard-local, like crash fuses.
    pub fn with_shard_fault(mut self, k: usize, fault: ShardFault) -> ShardedExecutor {
        self.shard_faults[k] = fault;
        self.rebuild();
        self
    }

    /// Overrides the supervision policy (stuck deadline, poison
    /// threshold, replay-buffer bound) for every shard.
    pub fn with_supervision(mut self, policy: SupervisorPolicy) -> ShardedExecutor {
        self.policy = policy;
        self.rebuild();
        self
    }

    /// Selects the ingestion path (see [`IngestMode`]). Pure feed
    /// plumbing — no executor state depends on it, so no rebuild.
    pub fn with_ingest(mut self, mode: IngestMode) -> ShardedExecutor {
        self.ingest = mode;
        self
    }

    /// Supervision outcome of shard `k` from the runs so far: restarts,
    /// caught panics, stuck detections, replay volume and quarantined
    /// poison records.
    pub fn shard_health(&self, k: usize) -> &ShardHealth {
        &self.health[k]
    }

    /// Every quarantined poison record across the deployment, in shard
    /// order — the typed report behind `RunReport::records_poisoned`.
    pub fn poison_reports(&self) -> Vec<PoisonRecord> {
        self.health
            .iter()
            .flat_map(|h| h.poisoned.iter().cloned())
            .collect()
    }

    /// Shard `k`'s live heartbeat (progress counter + supervision
    /// state), observable from outside the worker thread.
    pub fn heartbeat(&self, k: usize) -> Arc<ShardHeartbeat> {
        Arc::clone(&self.heartbeats[k])
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.n
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
    /// routes each record to its shard's bounded SPSC feed (in stream
    /// order), one OS thread per shard drains its feed into its
    /// executor, and every executor is joined back before returning —
    /// so the post-run state is a plain deterministic value whatever
    /// the scheduler did.
    pub fn run(&mut self, records: &[Record]) {
        match self.ingest {
            IngestMode::Scalar => self.run_scalar(records),
            IngestMode::Chunked { size } => self.run_chunked(records, size),
        }
    }

    /// The per-record feed path (see [`IngestMode::Scalar`]).
    fn run_scalar(&mut self, records: &[Record]) {
        if self.n == 1 {
            if self.shard_faults.first().is_some_and(|f| f.is_none()) {
                // Single healthy shard: the serial fast path,
                // bit-identical to the plain executor (no threads, no
                // channel hop, no supervision overhead).
                if let Some(ex) = self.shards.first_mut() {
                    ex.run(records);
                }
                return;
            }
            // Single shard with an armed fault: run the supervision
            // loop inline on the caller's thread — same state machine,
            // no thread to isolate.
            let Some(heartbeat) = self.heartbeats.first().map(Arc::clone) else {
                return;
            };
            if let Some(ex) = self.shards.pop() {
                let mut driver = ShardDriver::new(
                    0,
                    self.shard_config(0),
                    ex,
                    self.shard_faults
                        .first()
                        .copied()
                        .unwrap_or_else(ShardFault::none),
                    self.policy,
                    heartbeat,
                );
                for batch in records.chunks(FEED_BATCH) {
                    driver.offer(batch);
                }
                let (ex, health) = driver.close();
                self.shards.push(ex);
                if let Some(h) = self.health.first_mut() {
                    h.absorb(&health);
                }
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
                let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<Record>>(FEED_DEPTH);
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
                    // Every worker runs the supervision loop: records
                    // are processed inside supervise.rs's panic
                    // boundary, so a dying shard restarts from its
                    // checkpoint instead of killing the deployment.
                    let mut driver = ShardDriver::new(k, cfg, ex, fault, policy, heartbeat);
                    while let Ok(batch) = rx.recv() {
                        driver.offer(&batch);
                    }
                    driver.close()
                }));
            }
            let mut bufs: Vec<Vec<Record>> =
                (0..n).map(|_| Vec::with_capacity(FEED_BATCH)).collect();
            for &r in records {
                let k = shard_of(root_seed, &r, n);
                let Some(buf) = bufs.get_mut(k) else { continue };
                buf.push(r);
                if buf.len() == FEED_BATCH {
                    let full = std::mem::replace(buf, Vec::with_capacity(FEED_BATCH));
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

    /// The columnar feed path (see [`IngestMode::Chunked`]): the router
    /// partitions chunk-at-a-time — records route in stream order into
    /// per-shard [`RecordChunk`] builders, and a shard's chunk ships
    /// the moment it fills — so workers receive ready-to-probe columnar
    /// batches. The final, partially-filled chunk of every shard is
    /// flushed at feed close, never dropped.
    fn run_chunked(&mut self, records: &[Record], size: usize) {
        let size = size.max(1);
        if self.n == 1 {
            if self.shard_faults.first().is_some_and(|f| f.is_none()) {
                // Single healthy shard: the vectorized probe without
                // threads, channel hops or supervision overhead.
                if let Some(ex) = self.shards.first_mut() {
                    ex.run_chunked(records, size);
                }
                return;
            }
            // Single shard with an armed fault: the inline supervision
            // loop, fed columnar (the driver falls back to the
            // per-record pump while the drill is armed).
            let Some(heartbeat) = self.heartbeats.first().map(Arc::clone) else {
                return;
            };
            if let Some(ex) = self.shards.pop() {
                let mut driver = ShardDriver::new(
                    0,
                    self.shard_config(0),
                    ex,
                    self.shard_faults
                        .first()
                        .copied()
                        .unwrap_or_else(ShardFault::none),
                    self.policy,
                    heartbeat,
                );
                for batch in records.chunks(size) {
                    driver.offer_chunk(&RecordChunk::from_records(batch));
                }
                let (ex, health) = driver.close();
                self.shards.push(ex);
                if let Some(h) = self.health.first_mut() {
                    h.absorb(&health);
                }
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
                    let mut driver = ShardDriver::new(k, cfg, ex, fault, policy, heartbeat);
                    while let Ok(chunk) = rx.recv() {
                        driver.offer_chunk(&chunk);
                    }
                    driver.close()
                }));
            }
            let mut bufs: Vec<RecordChunk> =
                (0..n).map(|_| RecordChunk::with_capacity(size)).collect();
            for &r in records {
                let k = shard_of(root_seed, &r, n);
                let Some(buf) = bufs.get_mut(k) else { continue };
                buf.push(&r);
                if buf.len() == size {
                    let full = std::mem::replace(buf, RecordChunk::with_capacity(size));
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

    /// Shard `k`'s last boundary checkpoint (see
    /// [`Executor::latest_snapshot`]).
    pub fn latest_snapshot(&self, k: usize) -> Option<&Snapshot> {
        self.shards[k].latest_snapshot()
    }

    /// The deployment-wide checkpoint: every shard's latest boundary
    /// snapshot under one shard-count header. `None` until every shard
    /// has checkpointed at least once.
    pub fn durable_snapshot(&self) -> Option<ShardedSnapshot> {
        let mut shards = Vec::with_capacity(self.n);
        for ex in &self.shards {
            shards.push(ex.latest_snapshot()?.clone());
        }
        Some(ShardedSnapshot { shards })
    }

    /// Recovers crashed shard `k` from its boundary checkpoint and
    /// re-feeds it the tail of its partition of `records` (the full
    /// stream the deployment was running when the shard died), from
    /// the snapshot's record high-water mark. The recovered shard is
    /// then bit-identical to one that never crashed — the replay rule
    /// of [`Executor::recover`], applied per shard.
    pub fn recover_shard(
        &mut self,
        k: usize,
        snapshot: &Snapshot,
        records: &[Record],
    ) -> Result<(), RecoveryError> {
        let mut cfg = self.shard_config(k);
        cfg.crash = CrashPlan::none();
        let mut ex = cfg.build().recover(snapshot)?;
        if let Some(store) = self.stores.get(k) {
            ex = ex.with_store(store.clone());
        }
        let part: Vec<Record> = records
            .iter()
            .filter(|r| shard_of(self.config.seed, r, self.n) == k)
            .copied()
            .collect();
        let resume_at = usize::try_from(snapshot.records_hwm)
            .unwrap_or(part.len())
            .min(part.len());
        ex.run(&part[resume_at..]);
        self.shards[k] = ex;
        self.crashes[k] = CrashPlan::none();
        Ok(())
    }

    /// Recovers crashed shard `k` from its attached durable store —
    /// the newest readable generation, falling back past (and
    /// quarantining) corrupt ones — then re-feeds the tail of its
    /// partition of `records` from the recovered high-water mark. When
    /// no generation is readable the shard restarts fresh and replays
    /// its whole partition. Returns the number of generation fallbacks
    /// taken (0 = recovered bit-identically from the newest
    /// checkpoint), or `None` when shard `k` has no store attached.
    pub fn recover_shard_from_store(&mut self, k: usize, records: &[Record]) -> Option<u64> {
        let store = self.stores.get(k)?.clone();
        let mut cfg = self.shard_config(k);
        cfg.crash = CrashPlan::none();
        let recovery = store.recover_executor(&cfg);
        let mut ex = match recovery.executor {
            Some(ex) => ex,
            None => cfg.build().with_store(store),
        };
        let part: Vec<Record> = records
            .iter()
            .filter(|r| shard_of(self.config.seed, r, self.n) == k)
            .copied()
            .collect();
        let resume_at = usize::try_from(recovery.records_hwm)
            .unwrap_or(part.len())
            .min(part.len());
        ex.run(&part[resume_at..]);
        self.shards[k] = ex;
        self.crashes[k] = CrashPlan::none();
        Some(recovery.fallbacks)
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
        // Phase 1 + 2: quiesce barrier — every shard must sit at the
        // same epoch boundary — and per-shard boundary snapshots.
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
                let current = ex
                    .latest_snapshot()
                    .is_some_and(|s| s.epoch == epoch && s.records_hwm == ex.report().records);
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
        let old_queries = self.queries();
        let mut new_shards = Vec::with_capacity(self.n);
        for (k, snap) in snaps.iter().enumerate() {
            let cfg = self.shard_config_for(&new_plan, k);
            let mut ex = cfg.build();
            if let Some(store) = self.stores.get(k) {
                // The store rides along *before* adoption so the commit
                // phase can persist the handoff — but adoption itself
                // never writes to it: a rollback must leave the store
                // exactly as the old plan left it.
                ex = ex.with_store(store.clone());
            }
            new_shards.push(ex.adopt_boundary_state(snap));
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
                .zip(&snaps)
                .enumerate()
                .try_for_each(|(k, (ex, snap))| validate_handoff(k, ex, snap, &old_queries))
        };
        if let Err(violation) = verdict {
            drop(new_shards);
            if let Some(ex) = self.shards.first_mut() {
                ex.note_replan_rolled_back();
                ex.refresh_boundary_checkpoint();
            }
            for hb in &self.heartbeats {
                hb.publish(ShardState::Healthy);
            }
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
        // Durable commit: each store-backed shard persists its adopted
        // boundary state as a new generation; the manifest flip is the
        // swap's real commit point on disk. A refusal rolls the whole
        // transaction back with the old deployment untouched (a shard
        // whose store already committed merely carries an
        // uncommitted-plan generation that recovery will quarantine and
        // fall back past — never torn state).
        for k in 0..new_shards.len() {
            if let Err(error) = new_shards[k].commit_handoff() {
                drop(new_shards);
                if let Some(ex) = self.shards.first_mut() {
                    ex.note_replan_rolled_back();
                    ex.refresh_boundary_checkpoint();
                }
                for hb in &self.heartbeats {
                    hb.publish(ShardState::Healthy);
                }
                return Err(SwapError::DurableCommit { shard: k, error });
            }
        }
        if let Some(ex) = new_shards.first_mut() {
            // Store-backed shards just checkpointed inside
            // `commit_handoff`; only the in-memory path still needs its
            // boundary refresh.
            if ex.store_handle().is_none() {
                ex.refresh_boundary_checkpoint();
            }
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
            self.recover_all_from_checkpoints()?;
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

    /// Rebuilds every shard from its last boundary checkpoint — the only
    /// state a real crash leaves — with its crash fuses disarmed and its
    /// store re-attached.
    fn recover_all_from_checkpoints(&mut self) -> Result<(), SwapError> {
        for k in 0..self.n {
            let snap = self.shards[k]
                .latest_snapshot()
                .cloned()
                .ok_or(SwapError::StaleCheckpoint { shard: k })?;
            let mut cfg = self.shard_config(k);
            cfg.crash = CrashPlan::none();
            self.crashes[k] = CrashPlan::none();
            let mut ex = cfg.build().recover(&snap)?;
            if let Some(store) = self.stores.get(k) {
                ex = ex.with_store(store.clone());
            }
            self.shards[k] = ex;
        }
        Ok(())
    }

    /// Completes a pre-commit crash drill: rebuilds every shard from
    /// the old plan's boundary checkpoint and ticks the rollback
    /// counter.
    fn recover_old_after_crash(&mut self, epoch: u64) -> Result<SwapReport, SwapError> {
        self.recover_all_from_checkpoints()?;
        if let Some(ex) = self.shards.first_mut() {
            ex.note_replan_rolled_back();
            ex.refresh_boundary_checkpoint();
        }
        for hb in &self.heartbeats {
            hb.publish(ShardState::Healthy);
        }
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
        let err = ShardedExecutor::new(phantom_plan(), CostParams::paper(), u64::MAX, 1, 0)
            .map(|_| ())
            .unwrap_err();
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
        let mut serial = Executor::new(phantom_plan(), CostParams::paper(), 500_000, 7);
        serial.run(&recs);
        let (sr, sh) = serial.finish();
        let mut one =
            ShardedExecutor::new(phantom_plan(), CostParams::paper(), 500_000, 7, 1).unwrap();
        one.run(&recs);
        let (or_, oh) = one.finish();
        assert_eq!(sr, or_);
        assert_eq!(sh.results(), oh.results());
    }

    #[test]
    fn sharded_results_match_serial_per_epoch() {
        let recs = stream(6000);
        let mut serial = Executor::new(phantom_plan(), CostParams::paper(), 500_000, 7);
        serial.run(&recs);
        let (_, sh) = serial.finish();
        for &n in &[2usize, 4] {
            let mut sharded =
                ShardedExecutor::new(phantom_plan(), CostParams::paper(), 500_000, 7, n).unwrap();
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
            let mut sharded =
                ShardedExecutor::new(phantom_plan(), CostParams::paper(), 500_000, 11, 4).unwrap();
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
        let sharded =
            ShardedExecutor::new(phantom_plan(), CostParams::paper(), u64::MAX, 3, 4).unwrap();
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
