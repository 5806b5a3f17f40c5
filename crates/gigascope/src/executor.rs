//! The two-level executor: streams records through a configuration.
//!
//! Semantics follow the paper exactly:
//!
//! * every arriving record probes the table of **each raw relation**
//!   (cost `c1` per probe);
//! * a collision in a phantom table evicts the occupant, which is pushed
//!   into each of the phantom's children (one `c1` probe per child),
//!   recursively;
//! * a collision in a *query* table evicts the occupant to the HFTA
//!   (cost `c2`); if the query also feeds children, the occupant feeds
//!   them too;
//! * at each epoch boundary, tables are drained top-down (§3.2.2): a
//!   drained query table evicts its entries to the HFTA, and a drained
//!   table's entries feed its children one child at a time, collisions
//!   cascading as usual.
//!
//! The executor meters intra-epoch and end-of-epoch costs separately, so
//! experiments can compare measured values against Eq. 7 and Eq. 8.

use crate::bounds::BoundsReport;
use crate::channel::{ChannelStats, Delivery, EvictionChannel};
use crate::faults::{CrashPlan, FaultPlan};
use crate::guard::{GuardLevel, GuardPolicy, GuardTransition, OverloadGuard, ShedDecision};
use crate::hfta::Hfta;
use crate::plan::PhysicalPlan;
use crate::snapshot::{plan_fingerprint, RecoveryError, Snapshot, SnapshotError};
use crate::store::{ChainHead, StoreHandle};
use crate::table::{AggState, Entry, LftaTable, Probe, TableStats};
use crate::CostParams;
use msa_stream::hash::mix64;
use msa_stream::store::StoreError;
use msa_stream::{
    AttrSet, Filter, GroupKey, KeyProjection, Record, RecordChunk, PROCESSING_WINDOW_SIZE,
};

/// Where a record's metric value (e.g. packet length) comes from.
///
/// Aggregates beyond `count(*)` — the paper's "average packet length"
/// queries — need a per-record metric. The metric is one of the
/// record's attribute slots, typically one that no query groups by.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ValueSource {
    /// No metric: entries carry counts only.
    #[default]
    None,
    /// Read the metric from attribute slot `0..MAX_ATTRS`.
    Attr(u8),
}

impl ValueSource {
    #[inline]
    fn extract(&self, record: &Record) -> AggState {
        match *self {
            ValueSource::None => AggState::unit(),
            ValueSource::Attr(i) => {
                AggState::from_value(record.attrs.get(i as usize).copied().unwrap_or(0))
            }
        }
    }
}

/// Cost and throughput report of a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Records processed.
    pub records: u64,
    /// Intra-epoch LFTA probes (raw-record probes plus cascade feeds).
    pub intra_probes: u64,
    /// Intra-epoch evictions to the HFTA.
    pub intra_evictions: u64,
    /// End-of-epoch probes (flush propagation).
    pub flush_probes: u64,
    /// End-of-epoch evictions to the HFTA.
    pub flush_evictions: u64,
    /// Number of epochs closed.
    pub epochs: u64,
    /// Records rejected by the selection filter (they are included in
    /// `records` but cost nothing downstream).
    pub filtered_out: u64,
    /// Records dropped by overload shedding (included in `records`;
    /// every query undercounts by exactly this many records).
    pub records_shed: u64,
    /// Evictions lost on the LFTA → HFTA channel.
    pub evictions_dropped: u64,
    /// Evictions delivered twice on the channel.
    pub evictions_duplicated: u64,
    /// Per-query record mass lost to dropped evictions: `(query,
    /// Σ count of dropped partials)`.
    pub dropped_records: Vec<(AttrSet, u64)>,
    /// Per-query record mass double-counted by duplicated evictions.
    pub duplicated_records: Vec<(AttrSet, u64)>,
    /// Epochs that ran at a degradation level above normal.
    pub epochs_degraded: u64,
    /// Every overload-guard state change, in order.
    pub guard_transitions: Vec<GuardTransition>,
    /// Per-epoch cost trace: `(epoch, intra_cost, flush_cost)` of each
    /// closed epoch — what the overload guard judges against `E_p`.
    pub epoch_costs: Vec<(u64, f64, f64)>,
    /// Per-epoch channel faults: `(epoch, dropped, duplicated)`,
    /// recorded only for epochs where at least one fault fired.
    pub epoch_faults: Vec<(u64, u64, u64)>,
    /// Times the shard supervisor restarted a shard from its snapshot
    /// (a panic boundary caught a death, or the stuck deadline fired).
    pub shard_restarts: u64,
    /// Records quarantined as poison: each deterministically killed its
    /// shard `poison_threshold` consecutive times and was skipped. They
    /// are included in `records` and every query undercounts by exactly
    /// this many; the typed per-record reports live in
    /// [`crate::supervise::PoisonRecord`].
    pub records_poisoned: u64,
    /// Records that could not be replayed after a restart because they
    /// had already left the bounded replay buffer. Counted into
    /// `records_shed` (they degrade through the same explicit ledger as
    /// guard shedding), and broken out here so operators can tell
    /// replay-buffer overruns from overload.
    pub records_unreplayed: u64,
    /// The subset of `records_shed` stranded by shutdown: feed records
    /// still in flight when a crashed shard's feed closed. Broken out
    /// so the bounds subsystem can attribute each lost record to one
    /// loss class (`records_shed − records_unreplayed −
    /// records_shutdown_lost` is pure guard shedding).
    pub records_shutdown_lost: u64,
    /// The subset of `records_shed` lost because recovery fell back to
    /// an older durable generation (the newest checkpoint was
    /// unreadable) and the replay source could not reach far enough
    /// back to re-feed the gap. Its own loss class in `bounds.rs`, so a
    /// stale checkpoint degrades the guaranteed interval explicitly
    /// instead of going silently stale.
    pub records_stale_lost: u64,
    /// Shed requests the overload guard *denied* because the
    /// [`crate::guard::DegradationPolicy`] loss budget was exhausted —
    /// the records were processed normally, at the cost the ladder
    /// wanted to avoid.
    pub records_shed_denied: u64,
    /// Per-query record mass stranded in a crashed, never-recovered
    /// executor at shutdown (tables, a mid-flush drain, or the HFTA's
    /// open-epoch maps). Its own loss class: unlike `dropped_records`
    /// these losses are certain — nothing downstream ever saw the mass.
    pub abandoned_records: Vec<(AttrSet, u64)>,
    /// Hot-swap transactions committed: the adaptive runtime re-planned
    /// and transplanted this deployment's state into a new feeding
    /// graph at an epoch boundary (see `shard::ShardedExecutor::hot_swap`).
    pub replans_committed: u64,
    /// Hot-swap transactions rolled back: handoff validation failed (or
    /// a rollback was injected) and the deployment kept the old plan.
    pub replans_rolled_back: u64,
    /// The degradation promise was breached: uncontrolled loss pushed
    /// the accounted total past the policy's budget. Latched; merges
    /// with OR so one breached shard flags the whole deployment.
    pub bound_breached: bool,
    /// Cost parameters used.
    pub costs: CostParams,
}

impl RunReport {
    /// Intra-epoch (maintenance) cost `E_m`.
    pub fn intra_cost(&self) -> f64 {
        self.costs.c1 * self.intra_probes as f64 + self.costs.c2 * self.intra_evictions as f64
    }

    /// End-of-epoch (update) cost `E_u`, summed over all epochs.
    pub fn flush_cost(&self) -> f64 {
        self.costs.c1 * self.flush_probes as f64 + self.costs.c2 * self.flush_evictions as f64
    }

    /// Total cost.
    pub fn total_cost(&self) -> f64 {
        self.intra_cost() + self.flush_cost()
    }

    /// Per-record intra-epoch cost `e_m` (Eq. 7's measured counterpart).
    pub fn per_record_cost(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.intra_cost() / self.records as f64
        }
    }

    fn bump(keyed: &mut Vec<(AttrSet, u64)>, query: AttrSet, n: u64) {
        match keyed.iter_mut().find(|(q, _)| *q == query) {
            Some((_, total)) => *total += n,
            None => keyed.push((query, n)),
        }
    }

    /// Record mass `query` lost to dropped evictions.
    pub fn dropped_records_for(&self, query: AttrSet) -> u64 {
        self.dropped_records
            .iter()
            .find(|(q, _)| *q == query)
            .map_or(0, |(_, n)| *n)
    }

    /// Record mass `query` double-counted via duplicated evictions.
    pub fn duplicated_records_for(&self, query: AttrSet) -> u64 {
        self.duplicated_records
            .iter()
            .find(|(q, _)| *q == query)
            .map_or(0, |(_, n)| *n)
    }

    /// Record mass `query` abandoned at shutdown (crashed, unrecovered).
    pub fn abandoned_records_for(&self, query: AttrSet) -> u64 {
        self.abandoned_records
            .iter()
            .find(|(q, _)| *q == query)
            .map_or(0, |(_, n)| *n)
    }

    /// Exact count bias of `query`: `observed_total − true_total`.
    ///
    /// Every processed record contributes one count to every query, so
    /// shedding undercounts each query by `records_shed` and poison
    /// quarantine by `records_poisoned`; channel drops and duplicates
    /// shift the count by the dropped/duplicated record mass, and an
    /// abandoned shutdown by the stranded mass. The identity
    /// `observed = true + count_bias(q)` holds exactly — the chaos
    /// tests assert it per injected event.
    pub fn count_bias(&self, query: AttrSet) -> i64 {
        self.duplicated_records_for(query) as i64
            - self.dropped_records_for(query) as i64
            - self.abandoned_records_for(query) as i64
            - self.records_shed as i64
            - self.records_poisoned as i64
    }

    /// Folds `other` into `self` (an engine retiring one executor of a
    /// multi-executor run, or a sharded run combining per-shard
    /// reports). Epoch numbering is absolute, so `epochs` takes the
    /// maximum; everything else accumulates.
    ///
    /// The merge **commutes**: `A.merge(B)` equals `B.merge(A)` field
    /// for field. Keyed vectors are re-sorted into a canonical order,
    /// per-epoch traces are coalesced by epoch (shards close the same
    /// absolute epochs; sequential executors cover disjoint ones, for
    /// which coalescing is a no-op), and the cost sums rely on IEEE 754
    /// two-operand addition being commutative. Only `costs` is taken
    /// from `self` — merging reports with different cost parameters is
    /// meaningless.
    ///
    /// `other` is destructured exhaustively — no `..` — so adding a
    /// counter field without deciding how it merges is a compile error,
    /// not a silently-unsound bound (the top drift hazard for the
    /// guaranteed intervals `bounds.rs` derives from this ledger).
    pub fn merge(&mut self, other: &RunReport) {
        let RunReport {
            records,
            intra_probes,
            intra_evictions,
            flush_probes,
            flush_evictions,
            epochs,
            filtered_out,
            records_shed,
            evictions_dropped,
            evictions_duplicated,
            dropped_records,
            duplicated_records,
            epochs_degraded,
            guard_transitions,
            epoch_costs,
            epoch_faults,
            shard_restarts,
            records_poisoned,
            records_unreplayed,
            records_shutdown_lost,
            records_stale_lost,
            records_shed_denied,
            abandoned_records,
            replans_committed,
            replans_rolled_back,
            bound_breached,
            costs: _, // kept from `self` by design
        } = other;
        self.records += records;
        self.intra_probes += intra_probes;
        self.intra_evictions += intra_evictions;
        self.flush_probes += flush_probes;
        self.flush_evictions += flush_evictions;
        self.filtered_out += filtered_out;
        self.records_shed += records_shed;
        self.evictions_dropped += evictions_dropped;
        self.evictions_duplicated += evictions_duplicated;
        self.epochs = self.epochs.max(*epochs);
        self.epochs_degraded += epochs_degraded;
        self.shard_restarts += shard_restarts;
        self.records_poisoned += records_poisoned;
        self.records_unreplayed += records_unreplayed;
        self.records_shutdown_lost += records_shutdown_lost;
        self.records_stale_lost += records_stale_lost;
        self.records_shed_denied += records_shed_denied;
        self.replans_committed += replans_committed;
        self.replans_rolled_back += replans_rolled_back;
        self.bound_breached |= bound_breached;
        for &(q, n) in dropped_records {
            RunReport::bump(&mut self.dropped_records, q, n);
        }
        for &(q, n) in duplicated_records {
            RunReport::bump(&mut self.duplicated_records, q, n);
        }
        for &(q, n) in abandoned_records {
            RunReport::bump(&mut self.abandoned_records, q, n);
        }
        self.dropped_records.sort_by_key(|(q, _)| q.bits());
        self.duplicated_records.sort_by_key(|(q, _)| q.bits());
        self.abandoned_records.sort_by_key(|(q, _)| q.bits());
        self.guard_transitions
            .extend(guard_transitions.iter().copied());
        self.guard_transitions.sort_by_key(|t| {
            (
                t.epoch,
                t.from.index(),
                t.to.index(),
                t.observed_cost.to_bits(),
            )
        });
        for &(e, intra, flush) in epoch_costs {
            match self.epoch_costs.iter_mut().find(|(e2, _, _)| *e2 == e) {
                Some((_, i2, f2)) => {
                    *i2 += intra;
                    *f2 += flush;
                }
                None => self.epoch_costs.push((e, intra, flush)),
            }
        }
        self.epoch_costs.sort_by_key(|&(e, _, _)| e);
        for &(e, dropped, duplicated) in epoch_faults {
            match self.epoch_faults.iter_mut().find(|(e2, _, _)| *e2 == e) {
                Some((_, d2, u2)) => {
                    *d2 += dropped;
                    *u2 += duplicated;
                }
                None => self.epoch_faults.push((e, dropped, duplicated)),
            }
        }
        self.epoch_faults.sort_by_key(|&(e, _, _)| e);
    }
}

/// The recipe every [`Executor`] is built from.
///
/// A plain value: the sharded runtime clones it once per shard, adjusts
/// the copy (plan split, derived seeds, scaled guard budget) and builds
/// it again from scratch when a crashed shard is recovered. Set the
/// public fields, then call [`ExecutorConfig::build`].
#[derive(Clone, Debug)]
pub struct ExecutorConfig {
    /// The physical plan to instantiate.
    pub plan: PhysicalPlan,
    /// Cost parameters for the report.
    pub costs: CostParams,
    /// Epoch length in microseconds (`u64::MAX` for one open epoch).
    pub epoch_micros: u64,
    /// Hash-seed base.
    pub seed: u64,
    /// Metric-value source for SUM/MIN/MAX/AVG aggregates.
    pub value_source: ValueSource,
    /// Selection filter applied ahead of all probes.
    pub filter: Filter,
    /// Channel-level fault injection, if any.
    pub faults: Option<FaultPlan>,
    /// Overload-guard policy, if enabled.
    pub guard: Option<GuardPolicy>,
    /// Take a checkpoint at every epoch boundary.
    pub durable: bool,
    /// Armed crash fuses.
    pub crash: CrashPlan,
}

impl ExecutorConfig {
    /// A recipe over `plan` with epoch length `epoch_micros` (use
    /// `u64::MAX` for a single open-ended epoch) and hash seed `seed`:
    /// count-only, unfiltered, fault-free, unguarded, not durable and
    /// with no crash fuse armed.
    pub fn new(
        plan: PhysicalPlan,
        costs: CostParams,
        epoch_micros: u64,
        seed: u64,
    ) -> ExecutorConfig {
        ExecutorConfig {
            plan,
            costs,
            epoch_micros,
            seed,
            value_source: ValueSource::None,
            filter: Filter::all(),
            faults: None,
            guard: None,
            durable: false,
            crash: CrashPlan::none(),
        }
    }

    /// Builds a fresh executor from this recipe. Channel-level faults
    /// are wired into the eviction channel; stream-level faults (bursts,
    /// clock skew) must be applied to the record stream first via
    /// [`FaultPlan::apply_to_stream`]. A durable executor checkpoints at
    /// every epoch boundary (and once lazily before the first record),
    /// each kept as a mark over the finished results, not a copy (see
    /// [`Executor::latest_snapshot`]). When an armed crash fuse fires the
    /// executor becomes inert, exactly as if the process died: no
    /// farewell flush, no final snapshot — only the last boundary
    /// checkpoint remains.
    pub fn build(&self) -> Executor {
        let plan = self.plan.clone();
        let n = plan.nodes().len();
        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); n];
        for (i, node) in plan.nodes().iter().enumerate() {
            let Some(p) = node.parent else { continue };
            let (Some(parent), Some(out)) = (plan.nodes().get(p), edges.get_mut(p)) else {
                continue;
            };
            out.push(Edge {
                child: i,
                proj: KeyProjection::new(parent.attrs, node.attrs),
            });
        }
        let raw: Vec<usize> = plan.raw_nodes().collect();
        let tables: Vec<LftaTable> = plan
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, node)| LftaTable::new(node.attrs, node.buckets, mix64(self.seed ^ i as u64)))
            .collect();
        let mut query_slot = vec![None; n];
        let mut query_nodes = Vec::new();
        let mut queries = Vec::new();
        for (i, node) in plan.nodes().iter().enumerate() {
            if node.is_query {
                if let Some(slot) = query_slot.get_mut(i) {
                    *slot = Some(queries.len());
                }
                query_nodes.push(i);
                queries.push(node.attrs);
            }
        }
        Executor {
            plan,
            tables,
            edges,
            raw,
            query_nodes,
            query_slot,
            hfta: Hfta::new(queries.clone()),
            queries,
            channel: match &self.faults {
                Some(faults) => EvictionChannel::new(faults.channel_faults(), faults.seed),
                None => EvictionChannel::lossless(),
            },
            guard: self.guard.map(OverloadGuard::new),
            epoch_micros: self.epoch_micros.max(1),
            current_epoch: 0,
            intra_cost_mark: 0.0,
            flush_cost_mark: 0.0,
            dropped_mark: 0,
            duplicated_mark: 0,
            in_flush: false,
            value_source: self.value_source,
            filter: self.filter.clone(),
            report: RunReport {
                costs: self.costs,
                ..RunReport::default()
            },
            seed: self.seed,
            auto_snapshot: self.durable,
            boundary: None,
            crash: self.crash,
            crashed: false,
            store: None,
            store_broken: false,
            store_head: None,
        }
    }
}

/// An executor's last boundary checkpoint, held without its finished
/// results.
///
/// Finished results are append-only: [`Hfta::close_epoch`] pushes them,
/// and only a restore, which replaces the mark as well, removes any. The
/// checkpoint's results are therefore always the prefix
/// `hfta.results()[..results]`. That holds after a crash fuse too,
/// because a crashed flush never reaches `close_epoch`.
#[derive(Clone, Debug)]
struct BoundaryMark {
    /// The boundary state, with `hfta.results` left empty.
    state: Snapshot,
    /// How many finished results existed at the boundary.
    results: usize,
}

/// One edge of the plan tree, resolved at build: the child node and the
/// projection that turns a parent key into the child's key.
#[derive(Clone, Copy, Debug)]
struct Edge {
    child: usize,
    proj: KeyProjection,
}

/// Streams records through a [`PhysicalPlan`], maintaining the LFTA
/// tables and the HFTA combiner, and accounting every cost.
#[derive(Clone, Debug)]
pub struct Executor {
    plan: PhysicalPlan,
    tables: Vec<LftaTable>,
    /// Each node's outgoing edges, in plan order of the children.
    edges: Vec<Vec<Edge>>,
    raw: Vec<usize>,
    /// Indices of query nodes (the phantom-bypass targets).
    query_nodes: Vec<usize>,
    /// HFTA query slot per node (`None` for phantoms).
    query_slot: Vec<Option<usize>>,
    /// Query attribute set per HFTA slot.
    queries: Vec<AttrSet>,
    hfta: Hfta,
    channel: EvictionChannel,
    guard: Option<OverloadGuard>,
    epoch_micros: u64,
    current_epoch: u64,
    /// Cost/fault counters at the previous epoch boundary, for the
    /// per-epoch deltas the guard and the report's traces consume.
    intra_cost_mark: f64,
    flush_cost_mark: f64,
    dropped_mark: u64,
    duplicated_mark: u64,
    in_flush: bool,
    value_source: ValueSource,
    filter: Filter,
    report: RunReport,
    /// Hash-seed base (kept for the recovery fingerprint).
    seed: u64,
    /// Take a checkpoint at every epoch boundary.
    auto_snapshot: bool,
    /// The most recent boundary checkpoint (the durable one a crash
    /// leaves behind), held as a mark over the finished results.
    boundary: Option<Box<BoundaryMark>>,
    /// Armed crash fuses.
    crash: CrashPlan,
    /// A fuse fired: the executor is inert (simulated dead process).
    crashed: bool,
    /// Generational checkpoint store, when real durability is wired in:
    /// boundary checkpoints commit here.
    store: Option<StoreHandle>,
    /// A store operation failed past its retry budget: stop writing,
    /// keep running on in-memory artifacts (graceful degradation — a
    /// later recovery falls back to the last committed generation and
    /// accounts the gap explicitly).
    store_broken: bool,
    /// The store generation this executor's last successful commit
    /// wrote, or the one it was recovered from: its results are a
    /// prefix of ours, so the next commit writes only the results
    /// closed since. `None` makes the next commit a base.
    store_head: Option<ChainHead>,
}

impl Executor {
    /// Disables HFTA result retention (pure cost-measurement runs).
    pub fn discard_results(mut self) -> Executor {
        self.hfta = std::mem::take(&mut self.hfta).discard_results();
        self
    }

    /// Replaces the LFTA → HFTA hand-off with `channel` (bounded and/or
    /// fault-injecting).
    pub fn with_channel(mut self, channel: EvictionChannel) -> Executor {
        self.channel = channel;
        self
    }

    /// Installs an existing guard (state transplant across executor
    /// rebuilds — the engine preserves escalation history when it swaps
    /// allocations).
    pub fn with_guard_state(mut self, guard: OverloadGuard) -> Executor {
        self.guard = Some(guard);
        self
    }

    /// Starts epoch numbering at `epoch` instead of 0 (an engine
    /// swapping executors mid-stream keeps absolute epoch labels and
    /// avoids a storm of empty catch-up flushes).
    pub fn with_start_epoch(mut self, epoch: u64) -> Executor {
        self.current_epoch = epoch;
        self.hfta.set_epoch(epoch);
        self
    }

    /// Attaches a generational checkpoint store: each boundary checkpoint
    /// commits as one atomically renamed generation, so the executor
    /// checkpoints as if built `durable`. The first commit writes a base
    /// generation holding every finished result; each later one chains
    /// a delta holding only the epochs closed since. Store failures
    /// never panic the pipeline: past the retry budget the executor
    /// latches [`Executor::store_degraded`] and continues on in-memory
    /// checkpoints.
    pub fn with_store(mut self, store: StoreHandle) -> Executor {
        self.auto_snapshot = true;
        self.store = Some(store);
        self.store_broken = false;
        self.store_head = None;
        self
    }

    /// [`Executor::with_store`] for an executor just recovered from
    /// `head`: its next commit chains onto that generation instead of
    /// writing a base.
    pub(crate) fn with_store_head(self, store: StoreHandle, head: ChainHead) -> Executor {
        let mut ex = self.with_store(store);
        ex.store_head = Some(head);
        ex
    }

    /// The attached checkpoint store, if any: where a restart reads
    /// first ([`Executor::restart`]).
    pub fn store_handle(&self) -> Option<StoreHandle> {
        self.store.clone()
    }

    /// True once a store operation failed past its retry budget and the
    /// executor fell back to in-memory artifacts only.
    pub fn store_degraded(&self) -> bool {
        self.store_broken
    }

    /// The overload guard, if enabled.
    pub fn guard(&self) -> Option<&OverloadGuard> {
        self.guard.as_ref()
    }

    /// Consumes a pending repair request (see
    /// [`OverloadGuard::take_repair_request`]).
    pub fn take_repair_request(&mut self) -> bool {
        self.guard.as_mut().is_some_and(|g| g.take_repair_request())
    }

    /// Cumulative eviction-channel accounting.
    pub fn channel_stats(&self) -> &ChannelStats {
        self.channel.stats()
    }

    /// The plan being executed.
    pub fn plan(&self) -> &PhysicalPlan {
        &self.plan
    }

    /// Query attribute sets in HFTA slot order.
    pub fn queries(&self) -> &[AttrSet] {
        &self.queries
    }

    /// Per-table statistics `(relation, stats)` in plan order.
    pub fn table_stats(&self) -> Vec<(AttrSet, TableStats)> {
        self.tables.iter().map(|t| (t.attrs(), t.stats())).collect()
    }

    /// Pushes `(key, count)` into node `i`'s table and cascades any
    /// eviction.
    fn push(&mut self, i: usize, key: GroupKey, agg: AggState) {
        if self.crashed {
            return;
        }
        if self.in_flush {
            self.report.flush_probes += 1;
        } else {
            self.report.intra_probes += 1;
        }
        let Some(table) = self.tables.get_mut(i) else {
            return;
        };
        if let Probe::Evicted(old) = table.probe(key, agg) {
            self.emit(i, &[old]);
        }
    }

    /// Applies one channel delivery event to the HFTA: `copies` is 2
    /// for a duplication fault.
    fn deliver(&mut self, slot: usize, key: GroupKey, agg: AggState, copies: u8) {
        for _ in 0..copies {
            self.hfta.receive(slot, key, agg);
        }
    }

    /// Takes a boundary checkpoint, the only place one is taken: marks
    /// the boundary and commits it to the attached store, which reads
    /// the finished results in place. A no-op on an executor that does
    /// not checkpoint. The caller guarantees alignment: every caller
    /// runs at an epoch boundary.
    ///
    /// A store failure degrades (never panics) past the retry budget:
    /// it latches [`Executor::store_degraded`], the run continues on the
    /// boundary mark, and a restart reads the last good generation with
    /// the uncovered gap accounted as stale-fallback loss. The failure
    /// is also returned, for the hot swap, whose transaction must roll
    /// back when its handoff cannot be made durable.
    pub(crate) fn checkpoint(&mut self) -> Result<(), StoreError> {
        if !self.auto_snapshot {
            return Ok(());
        }
        let mark = self.mark();
        let mut committed = Ok(());
        if let Some(store) = self.store.as_ref().filter(|_| !self.store_broken) {
            match store.commit(&mark.state, self.hfta.results(), self.store_head) {
                Ok(head) => self.store_head = Some(head),
                Err(error) => {
                    self.store_broken = true;
                    committed = Err(error);
                }
            }
        }
        self.boundary = Some(Box::new(mark));
        committed
    }

    /// Routes entries leaving node `i` — one evicted entry at ingest,
    /// or the whole drained table at the flush — to the HFTA and/or the
    /// node's children. The HFTA hop goes through the eviction channel,
    /// which may drop or duplicate an entry; either way the report
    /// accounts the exact record mass affected.
    ///
    /// Every entry is offered to the HFTA first; the cascade then feeds
    /// the children one at a time, each child probed with every entry in
    /// order before the next child starts. A child's evictions cascade
    /// at once through this same routine. Each table therefore sees the
    /// probe sequence an entry-by-entry cascade would give it, while a
    /// flush works on one child table at a time instead of interleaving
    /// all of them.
    ///
    /// Generic over the container so that an eviction, passed as a
    /// one-element array, compiles with its length known: the loops over
    /// `entries` then cost the per-record path nothing, where a slice of
    /// unknown length measurably slowed eviction-heavy ingest.
    fn emit<E: AsRef<[Entry]> + ?Sized>(&mut self, i: usize, entries: &E) {
        if self.crashed {
            return;
        }
        let entries = entries.as_ref();
        if let Some(slot) = self.query_slot.get(i).copied().flatten() {
            let query = self.queries.get(slot).copied().unwrap_or(AttrSet::EMPTY);
            for &Entry { key, agg } in entries {
                // Crash fuse: dies right before offer `after_offers + 1`
                // (offers are counted by the eviction totals, so a fuse
                // between two boundary counts lands mid-flush).
                if let Some(n) = self.crash.after_offers {
                    if self.report.intra_evictions + self.report.flush_evictions >= n {
                        self.crashed = true;
                        return;
                    }
                }
                // The transfer attempt costs `c2` whatever its fate.
                if self.in_flush {
                    self.report.flush_evictions += 1;
                } else {
                    self.report.intra_evictions += 1;
                }
                match self.channel.offer() {
                    Delivery::Delivered => self.deliver(slot, key, agg, 1),
                    Delivery::Duplicated => {
                        self.deliver(slot, key, agg, 2);
                        self.report.evictions_duplicated += 1;
                        RunReport::bump(&mut self.report.duplicated_records, query, agg.count);
                        // Uncontrolled overcount: it widens the guaranteed
                        // interval, so it draws down the degradation budget.
                        if let Some(g) = &mut self.guard {
                            g.account_loss(agg.count);
                        }
                    }
                    Delivery::Dropped => {
                        self.report.evictions_dropped += 1;
                        RunReport::bump(&mut self.report.dropped_records, query, agg.count);
                        // Uncontrolled undercount, same budget accounting.
                        if let Some(g) = &mut self.guard {
                            g.account_loss(agg.count);
                        }
                    }
                }
            }
        }
        // At level ≥ 2 raw records probe the query tables directly, so a
        // query occupant cascading into a child query would be counted
        // twice; the guard switches levels only at epoch boundaries
        // (tables empty), so suppressing the cascade keeps counts exact.
        if self.guard.as_ref().is_some_and(|g| g.phantoms_disabled()) {
            return;
        }
        // Index the edge list afresh each step: `push` needs `&mut
        // self`, and re-borrowing beats cloning the list per eviction.
        let mut k = 0;
        while let Some(&edge) = self.edges.get(i).and_then(|out| out.get(k)) {
            k += 1;
            for e in entries {
                if self.crashed {
                    // Died mid-cascade: the rest vanishes with the process.
                    return;
                }
                self.push(edge.child, edge.proj.apply(&e.key), e.agg);
            }
        }
    }

    /// Processes one record, closing epochs as its timestamp dictates.
    ///
    /// The per-record reference path: production ingestion goes through
    /// [`Executor::offer_chunk`], which the differential tests compare
    /// against this oracle.
    #[inline]
    pub fn process(&mut self, record: &Record) {
        if self.crashed {
            return;
        }
        // Genesis checkpoint: before the first record everything is at
        // an epoch boundary by construction, so a crash ahead of the
        // first real boundary still has something to recover from.
        if self.auto_snapshot && self.boundary.is_none() {
            let _ = self.checkpoint();
        }
        // Crash fuse: dies before processing record `at_record`.
        if let Some(n) = self.crash.at_record {
            if self.report.records >= n {
                self.crashed = true;
                return;
            }
        }
        while record.ts_micros >= (self.current_epoch + 1).saturating_mul(self.epoch_micros) {
            self.flush_epoch();
            if self.crashed {
                return;
            }
        }
        self.report.records += 1;
        if !self.filter.matches(record) {
            self.report.filtered_out += 1;
            return;
        }
        let mut phantoms_off = false;
        if let Some(g) = &mut self.guard {
            match g.shed_decision() {
                ShedDecision::Shed => {
                    // A controlled loss: the guard meters it against the
                    // degradation budget so the promised bound holds.
                    g.account_loss(1);
                    self.report.records_shed += 1;
                    return;
                }
                ShedDecision::Denied => {
                    // Budget exhausted: process the record anyway and
                    // count the denial for the operator.
                    self.report.records_shed_denied += 1;
                }
                ShedDecision::Process => {}
            }
            phantoms_off = g.phantoms_disabled();
        }
        let agg = self.value_source.extract(record);
        // At level ≥ 2 the record probes every query table directly
        // (phantom maintenance off); otherwise it probes the raw nodes
        // and evictions cascade as usual.
        let n = if phantoms_off {
            self.query_nodes.len()
        } else {
            self.raw.len()
        };
        for idx in 0..n {
            let node = if phantoms_off {
                self.query_nodes.get(idx)
            } else {
                self.raw.get(idx)
            };
            let Some(&node) = node else { continue };
            let Some(attrs) = self.plan.nodes().get(node).map(|n| n.attrs) else {
                continue;
            };
            let key = record.project(attrs);
            self.push(node, key, agg);
        }
    }

    /// Processes a batch of records, [`PROCESSING_WINDOW_SIZE`] lanes at
    /// a time through [`Executor::offer_chunk`] (stops early if a crash
    /// fuse fires).
    pub fn run(&mut self, records: &[Record]) {
        for batch in records.chunks(PROCESSING_WINDOW_SIZE) {
            if self.crashed {
                break;
            }
            self.offer_chunk(&RecordChunk::from_records(batch));
        }
    }

    /// Processes a columnar chunk, bit-identical to calling
    /// [`Executor::process`] on every lane in order.
    ///
    /// The chunk is cut into *epoch segments* — maximal lane runs whose
    /// timestamps fall inside the current epoch — and each segment goes
    /// through three passes:
    ///
    /// 1. **pack**: group keys for every `(node, lane)` pair are
    ///    projected column-at-a-time ([`RecordChunk::project_range`])
    ///    and their bucket slots precomputed ([`LftaTable::slot_of`]) —
    ///    pure work, hoisted out of the stateful loop;
    /// 2. **warm**: the precomputed slots are touched branch-free
    ///    ([`LftaTable::warm_slot`]), so the independent bucket loads
    ///    overlap instead of serializing behind each probe;
    /// 3. **apply**: a record-major loop replays the *exact* scalar
    ///    op sequence — shed decisions, probes, evictions, channel
    ///    offers — so every PRNG draw lands in the same order as the
    ///    scalar oracle.
    ///
    /// Guard-level and node-set reads are hoisted per segment (the
    /// guard changes level only at epoch boundaries), and the
    /// `records`/`intra_probes` counters are accumulated locally and
    /// flushed at segment boundaries — before any epoch flush,
    /// checkpoint, or return observes the report.
    pub fn offer_chunk(&mut self, chunk: &RecordChunk) {
        let mut nodes: Vec<usize> = Vec::new();
        let mut keys: Vec<GroupKey> = Vec::new();
        let mut slots: Vec<usize> = Vec::new();
        let mut i = 0usize;
        while i < chunk.len() {
            if self.crashed {
                return;
            }
            if self.auto_snapshot && self.boundary.is_none() {
                let _ = self.checkpoint();
            }
            // Crash fuse first, then epoch flushes: the scalar path
            // checks `at_record` *before* closing epochs.
            if let Some(n) = self.crash.at_record {
                if self.report.records >= n {
                    self.crashed = true;
                    return;
                }
            }
            let Some(&ts) = chunk.timestamps().get(i) else {
                return;
            };
            while ts >= (self.current_epoch + 1).saturating_mul(self.epoch_micros) {
                self.flush_epoch();
                if self.crashed {
                    return;
                }
            }
            // Extend the segment over every following lane that stays
            // inside the now-current epoch.
            let boundary = (self.current_epoch + 1).saturating_mul(self.epoch_micros);
            let mut j = i + 1;
            while chunk.timestamps().get(j).is_some_and(|&t| t < boundary) {
                j += 1;
            }
            self.apply_segment(chunk, i, j, &mut nodes, &mut keys, &mut slots);
            if self.crashed {
                return;
            }
            i = j;
        }
    }

    /// Applies lanes `[from, to)` of `chunk` — all inside the current
    /// epoch — with packed keys, precomputed slots and a warmed cache.
    fn apply_segment(
        &mut self,
        chunk: &RecordChunk,
        from: usize,
        to: usize,
        nodes: &mut Vec<usize>,
        keys: &mut Vec<GroupKey>,
        slots: &mut Vec<usize>,
    ) {
        let seg = to.saturating_sub(from);
        if seg == 0 {
            return;
        }
        // The guard escalates/recovers only inside `observe_epoch`
        // (called from `flush_epoch`), so the phantom-bypass level —
        // and with it the active node set — is constant across the
        // segment. Shed decisions still run per record below.
        let phantoms_off = self.guard.as_ref().is_some_and(|g| g.phantoms_disabled());
        let active = if phantoms_off {
            self.query_nodes.len()
        } else {
            self.raw.len()
        };
        // Pass 1 — pack: keys and bucket slots for every (node, lane).
        // Nodes without a plan entry are excluded here, exactly as the
        // scalar path skips them before counting a probe.
        nodes.clear();
        keys.clear();
        slots.clear();
        for nidx in 0..active {
            let node = if phantoms_off {
                self.query_nodes.get(nidx)
            } else {
                self.raw.get(nidx)
            };
            let Some(&node) = node else { continue };
            let Some(attrs) = self.plan.nodes().get(node).map(|n| n.attrs) else {
                continue;
            };
            nodes.push(node);
            chunk.project_range(attrs, from, to, keys);
            let packed = keys.len().saturating_sub(seg);
            if let Some(table) = self.tables.get(node) {
                for key in keys.get(packed..).unwrap_or(&[]) {
                    slots.push(table.slot_of(key));
                }
            } else {
                slots.resize(keys.len(), 0);
            }
        }
        // Passes 2+3 — warm, then apply, a block of lanes at a time.
        // Warming the whole segment up front would touch more lines
        // than L1/L2 hold, evicting the early nodes' slots before the
        // apply loop reaches them; a block's worth of independent loads
        // still overlaps fully but stays resident.
        let fuse = self.crash.at_record;
        let pass_all = self.filter.is_pass_all();
        let records_base = self.report.records;
        let mut local_records = 0u64;
        let mut local_probes = 0u64;
        // With no crash fuse armed, no guard, a pass-all filter and
        // unit aggregation, per-lane work reduces to the probes alone:
        // nothing in `emit` can crash the executor or consult the
        // report mid-segment, so the per-lane checks below hoist out
        // entirely. Every test cell that arms any of those features
        // takes the general loop, whose op order is the contract.
        let fast = fuse.is_none()
            && self.crash.after_offers.is_none()
            && self.guard.is_none()
            && pass_all
            && matches!(self.value_source, ValueSource::None);
        const WARM_BLOCK: usize = 32;
        let mut block = 0usize;
        while block < seg && !self.crashed {
            let block_end = (block + WARM_BLOCK).min(seg);
            for (nidx, &node) in nodes.iter().enumerate() {
                let Some(table) = self.tables.get(node) else {
                    continue;
                };
                let base = nidx * seg;
                for &slot in slots.get(base + block..base + block_end).unwrap_or(&[]) {
                    table.warm_slot(slot);
                }
            }
            if fast {
                for lane in block..block_end {
                    for (nidx, &node) in nodes.iter().enumerate() {
                        let at = nidx * seg + lane;
                        let (Some(&key), Some(&slot)) = (keys.get(at), slots.get(at)) else {
                            continue;
                        };
                        local_probes += 1;
                        let probe = match self.tables.get_mut(node) {
                            Some(table) => table.probe_at(slot, key, AggState::unit()),
                            None => continue,
                        };
                        if let Probe::Evicted(old) = probe {
                            self.emit(node, &[old]);
                        }
                    }
                }
                local_records += (block_end - block) as u64;
                block = block_end;
                continue;
            }
            for lane in block..block_end {
                if let Some(n) = fuse {
                    if records_base + local_records >= n {
                        self.crashed = true;
                        break;
                    }
                }
                local_records += 1;
                if !pass_all {
                    let Some(record) = chunk.get(from + lane) else {
                        continue;
                    };
                    if !self.filter.matches(&record) {
                        self.report.filtered_out += 1;
                        continue;
                    }
                }
                if let Some(g) = &mut self.guard {
                    match g.shed_decision() {
                        ShedDecision::Shed => {
                            g.account_loss(1);
                            self.report.records_shed += 1;
                            continue;
                        }
                        ShedDecision::Denied => {
                            self.report.records_shed_denied += 1;
                        }
                        ShedDecision::Process => {}
                    }
                }
                let agg = match self.value_source {
                    ValueSource::None => AggState::unit(),
                    ValueSource::Attr(a) => AggState::from_value(
                        chunk
                            .column(a as usize)
                            .get(from + lane)
                            .copied()
                            .unwrap_or(0),
                    ),
                };
                for (nidx, &node) in nodes.iter().enumerate() {
                    // An emit may fire a crash fuse mid-record; the scalar
                    // `push` no-ops once crashed, counting nothing.
                    if self.crashed {
                        break;
                    }
                    let at = nidx * seg + lane;
                    let (Some(&key), Some(&slot)) = (keys.get(at), slots.get(at)) else {
                        continue;
                    };
                    local_probes += 1;
                    let probe = match self.tables.get_mut(node) {
                        Some(table) => table.probe_at(slot, key, agg),
                        None => continue,
                    };
                    if let Probe::Evicted(old) = probe {
                        self.emit(node, &[old]);
                    }
                }
                if self.crashed {
                    break;
                }
            }
            block = block_end;
        }
        // Flush the amortized counters before anything — epoch close,
        // checkpoint, caller — reads the report.
        self.report.records += local_records;
        self.report.intra_probes += local_probes;
    }

    /// Closes the current epoch (§3.2.2): drains the tables top-down,
    /// and [`Executor::emit`]s each drained table whole — its query
    /// contents to the HFTA, then into its children one child at a time
    /// — before draining the next.
    pub fn flush_epoch(&mut self) {
        if self.crashed {
            return;
        }
        self.in_flush = true;
        for i in 0..self.tables.len() {
            let Some(table) = self.tables.get_mut(i) else {
                continue;
            };
            let entries = table.drain();
            self.emit(i, &entries);
            if self.crashed {
                // Died mid-flush: the epoch never closes; the rest of
                // the drained entries vanish with the process.
                return;
            }
        }
        self.in_flush = false;
        self.hfta.close_epoch();
        self.channel.end_epoch();
        let closed = self.current_epoch;
        self.current_epoch += 1;
        // Absolute count (equals the increment when starting at epoch 0;
        // see `with_start_epoch`).
        self.report.epochs = self.current_epoch;
        // Per-epoch deltas for the traces and the guard.
        let epoch_intra = self.report.intra_cost() - self.intra_cost_mark;
        let epoch_flush = self.report.flush_cost() - self.flush_cost_mark;
        self.intra_cost_mark = self.report.intra_cost();
        self.flush_cost_mark = self.report.flush_cost();
        self.report
            .epoch_costs
            .push((closed, epoch_intra, epoch_flush));
        let dropped = self.report.evictions_dropped - self.dropped_mark;
        let duplicated = self.report.evictions_duplicated - self.duplicated_mark;
        self.dropped_mark = self.report.evictions_dropped;
        self.duplicated_mark = self.report.evictions_duplicated;
        if dropped > 0 || duplicated > 0 {
            self.report.epoch_faults.push((closed, dropped, duplicated));
        }
        if let Some(g) = &mut self.guard {
            // The guard judges the epoch's *total* cost — a rate burst
            // shows up in the intra term, a group explosion in the flush
            // term; both are work the LFTA must absorb per epoch.
            if let Some(t) = g.observe_epoch(self.current_epoch, epoch_intra + epoch_flush) {
                self.report.guard_transitions.push(t);
            }
            if g.level() != GuardLevel::Normal {
                self.report.epochs_degraded += 1;
            }
            // Publish a latched budget breach at the boundary, before
            // the checkpoint below captures the report.
            if g.bound_breached() {
                self.report.bound_breached = true;
            }
        }
        let _ = self.checkpoint();
    }

    fn fingerprint(&self) -> u64 {
        plan_fingerprint(
            &self.plan,
            self.seed,
            self.epoch_micros,
            self.report.costs,
            self.value_source,
        )
    }

    /// Captures the boundary state without its finished results (caller
    /// guarantees alignment).
    fn boundary_state(&self) -> Snapshot {
        debug_assert!(
            self.tables.iter().all(|t| t.occupied() == 0) && self.hfta.in_flight() == 0,
            "checkpoints are epoch-aligned"
        );
        Snapshot {
            plan_fingerprint: self.fingerprint(),
            epoch: self.current_epoch,
            records_hwm: self.report.records,
            channel: self.channel.clone(),
            guard: self.guard.clone(),
            tables: self.tables.iter().map(|t| t.stats()).collect(),
            hfta: self.hfta.boundary_state(),
            report: self.report.clone(),
            intra_cost_mark: self.intra_cost_mark,
            flush_cost_mark: self.flush_cost_mark,
            dropped_mark: self.dropped_mark,
            duplicated_mark: self.duplicated_mark,
        }
    }

    /// Marks the current boundary (caller guarantees alignment).
    fn mark(&self) -> BoundaryMark {
        BoundaryMark {
            state: self.boundary_state(),
            results: self.hfta.results().len(),
        }
    }

    /// Captures a checkpoint now, copying every finished result: O(run).
    /// Snapshots are epoch-aligned: at a boundary every LFTA table has
    /// just been drained and the HFTA's combining maps are empty, so
    /// the state reduces to counters, finished results and PRNG
    /// cursors. Mid-epoch captures are refused with
    /// [`SnapshotError::EpochUnaligned`].
    pub fn snapshot(&self) -> Result<Snapshot, SnapshotError> {
        if self.tables.iter().any(|t| t.occupied() > 0) || self.hfta.in_flight() > 0 {
            return Err(SnapshotError::EpochUnaligned);
        }
        let mut snap = self.boundary_state();
        snap.hfta.results = self.hfta.results().to_vec();
        Ok(snap)
    }

    /// The most recent boundary checkpoint (see
    /// [`ExecutorConfig::durable`]): what a crash leaves behind, and
    /// all [`Executor::recover`] consumes. `None` before the first
    /// checkpoint exists.
    ///
    /// Built on demand from the boundary mark and a copy of the
    /// finished results it covers, so it costs O(run); checkpoints
    /// themselves copy no results.
    pub fn latest_snapshot(&self) -> Option<Snapshot> {
        let mark = self.boundary.as_deref()?;
        let mut snap = mark.state.clone();
        snap.hfta.results = self.hfta.results().get(..mark.results)?.to_vec();
        Some(snap)
    }

    /// The epoch and record high-water mark a restart
    /// ([`Executor::restart`]) resumes from, read without building the
    /// checkpoint: the last successful commit's when a store is
    /// attached, else the boundary mark's. The supervisor prunes its
    /// replay buffer at this position, so the buffer never lets go of a
    /// record the restart would need.
    pub(crate) fn checkpoint_position(&self) -> Option<(u64, u64)> {
        match &self.store {
            Some(_) => self.store_head.map(|h| (h.epoch, h.records_hwm)),
            None => self
                .boundary
                .as_deref()
                .map(|m| (m.state.epoch, m.state.records_hwm)),
        }
    }

    /// Rebuilds this (typically dead) executor from its checkpoint as
    /// `cfg` describes it: the only way anything restarts from one.
    /// Returns the new executor, the record high-water mark the caller
    /// replays the source from, and the candidates skipped to get there.
    /// It reads from one place:
    ///
    /// * with a store attached, the store's newest usable generation
    ///   ([`StoreHandle::recover_executor`]), the store re-attached;
    /// * otherwise the boundary mark ([`Executor::latest_snapshot`]);
    /// * when neither yields a usable checkpoint, a fresh build at record
    ///   0 (with the store re-attached, so a genesis commit re-seeds it).
    ///
    /// [`Executor::checkpoint_position`] reports the position of that
    /// same source.
    pub(crate) fn restart(&self, cfg: &ExecutorConfig) -> (Executor, u64, u64) {
        if let Some(store) = &self.store {
            let recovery = store.recover_executor(cfg);
            return match recovery.executor {
                Some(ex) => (ex, recovery.records_hwm, recovery.fallbacks),
                None => (cfg.build().with_store(store.clone()), 0, recovery.fallbacks),
            };
        }
        match self.latest_snapshot() {
            Some(snap) => {
                let hwm = snap.records_hwm;
                match cfg.build().recover(snap) {
                    Ok(ex) => (ex, hwm, 0),
                    // A mark `cfg` refuses is a skipped candidate, as a
                    // generation the store refuses is.
                    Err(_) => (cfg.build(), 0, 1),
                }
            }
            None => (cfg.build(), 0, 0),
        }
    }

    /// True once a crash fuse has fired; the executor is then inert.
    pub fn has_crashed(&self) -> bool {
        self.crashed
    }

    /// Supervisor hook: counts one supervised restart of this shard
    /// (a panic boundary caught a death, or the stuck deadline fired).
    pub(crate) fn note_restart(&mut self) {
        self.report.shard_restarts += 1;
    }

    /// Supervisor hook: a poison record was quarantined instead of
    /// processed. It counts as seen, and every query undercounts by
    /// exactly one — `count_bias` carries the correction.
    pub(crate) fn absorb_poisoned(&mut self) {
        self.report.records += 1;
        self.report.records_poisoned += 1;
        if let Some(g) = &mut self.guard {
            g.account_loss(1);
        }
    }

    /// Supervisor hook: `n` feed records could not be replayed after a
    /// restart because the bounded replay buffer had already evicted
    /// them. They degrade through the same explicit ledger as overload
    /// shedding (seen, shed, bias-corrected), broken out as
    /// `records_unreplayed` so operators can tell buffer overruns from
    /// guard pressure.
    pub(crate) fn absorb_replay_gap(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.report.records += n;
        self.report.records_shed += n;
        self.report.records_unreplayed += n;
        self.channel.account_shutdown_loss(n);
        if let Some(g) = &mut self.guard {
            g.account_loss(n);
        }
    }

    /// Shutdown hook: `n` records were still in flight on this shard's
    /// feed when it closed (the shard had crashed and nobody drained
    /// them). They are counted into the shed/bias ledger — never
    /// silently dropped — and tallied on the channel's shutdown stat.
    pub(crate) fn absorb_shutdown_loss(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.report.records += n;
        self.report.records_shed += n;
        self.report.records_shutdown_lost += n;
        self.channel.account_shutdown_loss(n);
        if let Some(g) = &mut self.guard {
            g.account_loss(n);
        }
    }

    /// Supervisor hook: `n` feed records were lost because recovery
    /// fell back to an older durable generation (the newest checkpoint
    /// was unreadable) and the bounded replay buffer could
    /// not reach back to the fallback's record high-water mark. Same
    /// explicit shed/bias ledger as a replay gap, broken out as
    /// `records_stale_lost` so operators can tell storage rot from
    /// buffer overruns.
    pub(crate) fn absorb_stale_loss(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.report.records += n;
        self.report.records_shed += n;
        self.report.records_stale_lost += n;
        self.channel.account_shutdown_loss(n);
        if let Some(g) = &mut self.guard {
            g.account_loss(n);
        }
    }

    /// A crash fuse fired and nobody recovered this executor before
    /// `finish`: the record mass still sitting in its LFTA tables,
    /// drained mid-flush, or parked in the HFTA's open-epoch combining
    /// maps will never reach a finished result. Account it into the
    /// per-query abandonment ledger exactly, so `observed = true +
    /// count_bias(q)` keeps holding on an abandoned deployment instead
    /// of silently undercounting — and the bounds subsystem can report
    /// the stranded mass as its own loss class.
    fn account_abandonment(&mut self) {
        if !self.hfta.retains_results() {
            return;
        }
        let processed = self.report.records
            - self.report.filtered_out
            - self.report.records_shed
            - self.report.records_poisoned;
        let mut total_stranded = 0u64;
        for &q in &self.queries {
            let observed: u64 = self.hfta.totals(q).values().sum();
            // Every processed record owes one count to `q`; what was
            // neither finished nor already ledgered as dropped or
            // abandoned is stranded in a table or an open epoch.
            let expected = processed + self.report.duplicated_records_for(q);
            let reachable = observed
                + self.report.dropped_records_for(q)
                + self.report.abandoned_records_for(q);
            let stranded = expected.saturating_sub(reachable);
            if stranded > 0 {
                RunReport::bump(&mut self.report.abandoned_records, q, stranded);
                total_stranded += stranded;
            }
        }
        self.report.abandoned_records.sort_by_key(|(q, _)| q.bits());
        if total_stranded > 0 {
            self.channel.account_shutdown_loss(total_stranded);
            if let Some(g) = &mut self.guard {
                g.account_loss(total_stranded);
                if g.bound_breached() {
                    self.report.bound_breached = true;
                }
            }
        }
    }

    /// Restores a crashed run into this freshly built executor.
    ///
    /// `self` must be configured identically to the crashed executor
    /// (same plan, costs, epoch length and seed — enforced via the
    /// snapshot's fingerprint). Every subsystem's boundary state is
    /// restored — channel PRNG cursor, guard ladder, table statistics,
    /// HFTA results, the run report and the per-epoch delta marks — and
    /// the caller re-feeds the record stream from
    /// [`Snapshot::records_hwm`]. Determinism of the pipeline (seeded
    /// hashes, restored PRNG and shed cursors) makes that replay
    /// regenerate every delivery of the open epoch, so the resumed run
    /// is bit-identical to a run that never crashed.
    ///
    /// The snapshot is taken by value: its finished results move into
    /// the HFTA without a copy.
    pub fn recover(mut self, snapshot: Snapshot) -> Result<Executor, RecoveryError> {
        let expected = self.fingerprint();
        if snapshot.plan_fingerprint != expected {
            return Err(RecoveryError::PlanMismatch {
                expected,
                found: snapshot.plan_fingerprint,
            });
        }
        for (t, stats) in self.tables.iter_mut().zip(&snapshot.tables) {
            t.restore_stats(*stats);
        }
        self.install(snapshot);
        self.auto_snapshot = true;
        let _ = self.checkpoint();
        self.crashed = false;
        Ok(self)
    }

    /// Installs `snapshot`'s boundary state, all but the table
    /// statistics: its channel and guard move in, and its finished
    /// results move into a new HFTA.
    fn install(&mut self, snapshot: Snapshot) {
        self.channel = snapshot.channel;
        self.guard = snapshot.guard;
        self.hfta = Hfta::restore(self.queries.clone(), snapshot.hfta);
        self.current_epoch = snapshot.epoch;
        self.report = snapshot.report;
        self.intra_cost_mark = snapshot.intra_cost_mark;
        self.flush_cost_mark = snapshot.flush_cost_mark;
        self.dropped_mark = snapshot.dropped_mark;
        self.duplicated_mark = snapshot.duplicated_mark;
    }

    /// Flushes the final epoch and returns the report.
    pub fn finish(self) -> (RunReport, Hfta) {
        let (report, hfta, _) = self.finish_parts();
        (report, hfta)
    }

    /// Like [`Executor::finish`], additionally handing back the guard so
    /// its state can be transplanted into a successor executor.
    pub fn finish_parts(mut self) -> (RunReport, Hfta, Option<OverloadGuard>) {
        if self.crashed {
            self.account_abandonment();
        }
        self.flush_epoch();
        // A crashed executor skips the boundary flush above, so publish
        // any latched breach directly before the report leaves.
        if self.guard.as_ref().is_some_and(|g| g.bound_breached()) {
            self.report.bound_breached = true;
        }
        (self.report, self.hfta, self.guard)
    }

    /// The report so far (without flushing).
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// The guaranteed-interval view of the run so far: per-query count
    /// bounds `[lo, hi]` derived from the loss ledgers, queryable live
    /// without stopping ingestion. At an epoch boundary (tables just
    /// drained, HFTA epoch closed) every processed record is either in
    /// a finished result or in a loss ledger, so the interval is tight;
    /// mid-epoch the still-in-flight mass is reported separately as
    /// [`crate::bounds::QueryBounds::in_flight`].
    pub fn bounds(&self) -> BoundsReport {
        let mut bounds = BoundsReport::from_run(&self.report, &self.hfta, &self.queries);
        if let Some(g) = &self.guard {
            bounds.records_lost = g.records_lost();
            // A breach latched mid-epoch is visible immediately, not at
            // the next boundary.
            if g.bound_breached() {
                bounds.flag_breached();
            }
        }
        bounds
    }

    /// Resets per-table statistics (drift detection works on windows;
    /// table contents and cost counters are unaffected).
    pub fn reset_table_stats(&mut self) {
        for t in &mut self.tables {
            t.reset_stats();
        }
    }

    /// The epoch currently open (records with timestamps inside it are
    /// still being absorbed into the LFTA tables).
    pub fn current_epoch(&self) -> u64 {
        self.current_epoch
    }

    /// Force-closes epochs until `epoch` is the open one. Each close
    /// runs the identical [`Executor::flush_epoch`] a timestamp crossing
    /// inside [`Executor::process`] would run, so aligning between
    /// record batches is state-identical to the boundary arriving
    /// organically. A no-op on a crashed executor and once
    /// `current_epoch >= epoch`.
    pub fn align_to_epoch(&mut self, epoch: u64) {
        while self.current_epoch < epoch && !self.crashed {
            self.flush_epoch();
        }
    }

    /// Swap hook: a hot-swap transaction committed onto this executor.
    pub(crate) fn note_replan_committed(&mut self) {
        self.report.replans_committed += 1;
    }

    /// Swap hook: a hot-swap transaction was rolled back and this
    /// executor keeps serving the old plan.
    pub(crate) fn note_replan_rolled_back(&mut self) {
        self.report.replans_rolled_back += 1;
    }

    /// Swap hook: the HFTA combiner (finished results + open maps).
    pub(crate) fn hfta(&self) -> &Hfta {
        &self.hfta
    }

    /// Transplants an epoch-boundary snapshot of an *old-plan* executor
    /// into this freshly built *new-plan* executor — the state handoff
    /// of a hot-swap transaction.
    ///
    /// At a boundary the old executor's LFTA tables are drained and the
    /// HFTA has nothing in flight, so its complete state is the
    /// snapshot's counters, finished results and PRNG cursors; "rehashing
    /// the LFTA state into the new feeding graph" reduces to carrying
    /// that state over while the new plan's tables start empty (they
    /// fill again from the stream, under the new hash layout). What is
    /// carried:
    ///
    /// * the channel PRNG cursor and fault statistics — fault sequences
    ///   continue exactly where the old plan left them;
    /// * the overload-guard ladder and [`crate::guard::DegradationPolicy`]
    ///   budget odometer — the degradation promise survives the swap
    ///   (snapshot-mediated promise carryover);
    /// * the HFTA's finished results — including results of queries the
    ///   new plan no longer serves ([`Hfta::restore`] keeps them
    ///   verbatim), so removing a query never erases its history;
    /// * the run report, epoch position and per-epoch delta marks.
    ///
    /// Per-table collision statistics deliberately start fresh: the new
    /// plan's tables are different tables, and the drift detector must
    /// observe them from a clean window.
    ///
    /// Adoption takes no checkpoint and writes nothing to an attached
    /// store, so a rollback leaves the store as the old plan left it.
    /// The swap's commit phase checkpoints the adopted state under the
    /// new plan's fingerprint.
    pub(crate) fn adopt_boundary_state(mut self, snapshot: Snapshot) -> Executor {
        debug_assert!(
            self.report.records == 0,
            "adopting executors must be freshly built"
        );
        self.install(snapshot);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PhysicalPlan, PlanNode};
    use msa_stream::hash::FastMap;

    fn s(x: &str) -> AttrSet {
        AttrSet::parse(x).unwrap()
    }

    /// Exact per-group counts computed naively.
    fn exact_counts(records: &[Record], q: AttrSet) -> FastMap<GroupKey, u64> {
        let mut m = FastMap::default();
        for r in records {
            *m.entry(r.project(q)).or_insert(0) += 1;
        }
        m
    }

    fn records(tuples: &[[u32; 4]]) -> Vec<Record> {
        tuples
            .iter()
            .enumerate()
            .map(|(i, t)| Record::new(t, i as u64))
            .collect()
    }

    #[test]
    fn flat_plan_produces_exact_results() {
        let recs = records(&[
            [1, 10, 100, 0],
            [1, 11, 100, 0],
            [2, 10, 101, 0],
            [1, 10, 100, 0],
        ]);
        let plan = PhysicalPlan::flat([(s("A"), 4), (s("B"), 4)]);
        let mut ex = ExecutorConfig::new(plan, CostParams::paper(), u64::MAX, 1).build();
        ex.run(&recs);
        let (report, hfta) = ex.finish();
        assert_eq!(report.records, 4);
        assert_eq!(hfta.totals(s("A")), exact_counts(&recs, s("A")));
        assert_eq!(hfta.totals(s("B")), exact_counts(&recs, s("B")));
    }

    #[test]
    fn phantom_plan_produces_exact_results() {
        // ABC feeds A, B, C; tiny tables force heavy cascading.
        let recs: Vec<Record> = (0..500u32)
            .map(|i| Record::new(&[i % 7, i % 5, i % 3, 0], i as u64))
            .collect();
        let plan = PhysicalPlan::new(vec![
            PlanNode {
                attrs: s("ABC"),
                parent: None,
                buckets: 4,
                is_query: false,
            },
            PlanNode {
                attrs: s("A"),
                parent: Some(0),
                buckets: 2,
                is_query: true,
            },
            PlanNode {
                attrs: s("B"),
                parent: Some(0),
                buckets: 2,
                is_query: true,
            },
            PlanNode {
                attrs: s("C"),
                parent: Some(0),
                buckets: 2,
                is_query: true,
            },
        ])
        .unwrap();
        let mut ex = ExecutorConfig::new(plan, CostParams::paper(), u64::MAX, 3).build();
        ex.run(&recs);
        let (_, hfta) = ex.finish();
        for q in ["A", "B", "C"] {
            assert_eq!(
                hfta.totals(s(q)),
                exact_counts(&recs, s(q)),
                "query {q} mismatch"
            );
        }
    }

    #[test]
    fn multi_level_phantoms_remain_exact() {
        // (ABCD(AB BCD(BC BD CD))) — paper Fig. 3(c).
        let recs: Vec<Record> = (0..2000u32)
            .map(|i| Record::new(&[i % 11, i % 6, i % 4, i % 3], i as u64))
            .collect();
        let plan = PhysicalPlan::new(vec![
            PlanNode {
                attrs: s("ABCD"),
                parent: None,
                buckets: 16,
                is_query: false,
            },
            PlanNode {
                attrs: s("AB"),
                parent: Some(0),
                buckets: 8,
                is_query: true,
            },
            PlanNode {
                attrs: s("BCD"),
                parent: Some(0),
                buckets: 8,
                is_query: false,
            },
            PlanNode {
                attrs: s("BC"),
                parent: Some(2),
                buckets: 4,
                is_query: true,
            },
            PlanNode {
                attrs: s("BD"),
                parent: Some(2),
                buckets: 4,
                is_query: true,
            },
            PlanNode {
                attrs: s("CD"),
                parent: Some(2),
                buckets: 4,
                is_query: true,
            },
        ])
        .unwrap();
        let mut ex = ExecutorConfig::new(plan, CostParams::paper(), u64::MAX, 5).build();
        ex.run(&recs);
        let (_, hfta) = ex.finish();
        for q in ["AB", "BC", "BD", "CD"] {
            assert_eq!(
                hfta.totals(s(q)),
                exact_counts(&recs, s(q)),
                "query {q} mismatch"
            );
        }
    }

    #[test]
    fn epochs_split_results_and_counts_flush_cost() {
        let recs = vec![
            Record::new(&[1, 0, 0, 0], 0),
            Record::new(&[1, 0, 0, 0], 500_000),
            Record::new(&[1, 0, 0, 0], 1_500_000), // second epoch
        ];
        let plan = PhysicalPlan::flat([(s("A"), 4)]);
        let mut ex = ExecutorConfig::new(plan, CostParams::paper(), 1_000_000, 0).build();
        ex.run(&recs);
        let (report, hfta) = ex.finish();
        assert_eq!(report.epochs, 2);
        let res = hfta.results();
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].total_count(), 2);
        assert_eq!(res[1].total_count(), 1);
        // Each epoch flushes one entry from the single query table.
        assert_eq!(report.flush_evictions, 2);
    }

    #[test]
    fn cost_accounting_flat_no_collisions() {
        // 3 distinct groups into 64 buckets: collisions vanishingly rare.
        let recs = records(&[[1, 0, 0, 0], [2, 0, 0, 0], [3, 0, 0, 0]]);
        let plan = PhysicalPlan::flat([(s("A"), 64)]);
        let mut ex = ExecutorConfig::new(plan, CostParams::paper(), u64::MAX, 9).build();
        ex.run(&recs);
        let (report, _) = ex.finish();
        assert_eq!(report.intra_probes, 3);
        assert_eq!(report.intra_evictions, 0);
        assert_eq!(report.flush_evictions, 3);
        assert_eq!(report.intra_cost(), 3.0);
        assert_eq!(report.flush_cost(), 150.0);
        assert_eq!(report.per_record_cost(), 1.0);
    }

    #[test]
    fn phantom_cascade_costs_match_model_shape() {
        // One phantom AB feeding A and B: each phantom collision should
        // add exactly two child probes (E2 structure of §2.5).
        let recs: Vec<Record> = (0..1000u32)
            .map(|i| Record::new(&[i % 50, i / 50, 0, 0], i as u64))
            .collect();
        let plan = PhysicalPlan::new(vec![
            PlanNode {
                attrs: s("AB"),
                parent: None,
                buckets: 8,
                is_query: false,
            },
            PlanNode {
                attrs: s("A"),
                parent: Some(0),
                buckets: 8,
                is_query: true,
            },
            PlanNode {
                attrs: s("B"),
                parent: Some(0),
                buckets: 8,
                is_query: true,
            },
        ])
        .unwrap();
        let mut ex = ExecutorConfig::new(plan, CostParams::paper(), u64::MAX, 13).build();
        ex.run(&recs);
        let stats = ex.table_stats();
        let phantom_collisions = stats[0].1.collisions;
        let child_feeds = stats[1].1.probes + stats[2].1.probes;
        assert_eq!(child_feeds, 2 * phantom_collisions);
        let report = ex.report();
        // Intra probes = n raw probes + child feeds.
        assert_eq!(report.intra_probes, 1000 + child_feeds);
    }

    #[test]
    fn query_feeding_query_reaches_both_hfta_and_child() {
        // Query AB feeds query A: AB evictions must land in the HFTA and
        // also feed A's table.
        let recs: Vec<Record> = (0..200u32)
            .map(|i| Record::new(&[i % 10, i % 7, 0, 0], i as u64))
            .collect();
        let plan = PhysicalPlan::new(vec![
            PlanNode {
                attrs: s("AB"),
                parent: None,
                buckets: 4,
                is_query: true,
            },
            PlanNode {
                attrs: s("A"),
                parent: Some(0),
                buckets: 4,
                is_query: true,
            },
        ])
        .unwrap();
        let mut ex = ExecutorConfig::new(plan, CostParams::paper(), u64::MAX, 21).build();
        ex.run(&recs);
        let (_, hfta) = ex.finish();
        assert_eq!(hfta.totals(s("AB")), exact_counts(&recs, s("AB")));
        assert_eq!(hfta.totals(s("A")), exact_counts(&recs, s("A")));
    }

    #[test]
    fn value_aggregates_survive_the_cascade() {
        // Metric = attribute D (e.g. packet length); grouping on A via
        // phantom AB. SUM/MIN/MAX per A-group must match a naive pass,
        // no matter how entries bounce through the phantom.
        let recs: Vec<Record> = (0..600u32)
            .map(|i| Record::new(&[i % 12, i % 7, 0, 100 + (i % 50)], i as u64))
            .collect();
        let plan = PhysicalPlan::new(vec![
            PlanNode {
                attrs: s("AB"),
                parent: None,
                buckets: 4,
                is_query: false,
            },
            PlanNode {
                attrs: s("A"),
                parent: Some(0),
                buckets: 4,
                is_query: true,
            },
        ])
        .unwrap();
        let mut ex = ExecutorConfig {
            value_source: ValueSource::Attr(3),
            ..ExecutorConfig::new(plan, CostParams::paper(), u64::MAX, 8)
        }
        .build();
        ex.run(&recs);
        let (_, hfta) = ex.finish();
        let got = hfta.aggregate_totals(s("A"));
        // Naive ground truth.
        let mut want: FastMap<GroupKey, (u64, u64, u32, u32)> = FastMap::default();
        for r in &recs {
            let k = r.project(s("A"));
            let v = r.attrs[3];
            let e = want.entry(k).or_insert((0, 0, u32::MAX, 0));
            e.0 += 1;
            e.1 += u64::from(v);
            e.2 = e.2.min(v);
            e.3 = e.3.max(v);
        }
        assert_eq!(got.len(), want.len());
        for (k, (count, sum, min, max)) in want {
            let a = got[&k];
            assert_eq!(
                (a.count, a.sum, a.min, a.max),
                (count, sum, min, max),
                "group {k}"
            );
        }
    }

    #[test]
    fn selection_filter_runs_before_probes() {
        use msa_stream::{CmpOp, Filter};
        // Keep only records with B = 0 (e.g. "dstPort = 80").
        let recs: Vec<Record> = (0..300u32)
            .map(|i| Record::new(&[i % 10, i % 3, 0, 0], i as u64))
            .collect();
        let plan = PhysicalPlan::flat([(s("A"), 32)]);
        let mut ex = ExecutorConfig {
            filter: Filter::all().and(1, CmpOp::Eq, 0),
            ..ExecutorConfig::new(plan, CostParams::paper(), u64::MAX, 6)
        }
        .build();
        ex.run(&recs);
        let (report, hfta) = ex.finish();
        assert_eq!(report.records, 300);
        assert_eq!(report.filtered_out, 200);
        // Probes happened only for passing records.
        assert_eq!(report.intra_probes, 100);
        // Results equal a naive filtered computation.
        let filtered: Vec<Record> = recs.iter().copied().filter(|r| r.attrs[1] == 0).collect();
        assert_eq!(hfta.totals(s("A")), exact_counts(&filtered, s("A")));
    }

    /// The phantom plan `AB → {A, B}` with tiny tables (heavy traffic on
    /// every path: evictions, cascades, flushes).
    fn small_phantom_plan() -> PhysicalPlan {
        PhysicalPlan::new(vec![
            PlanNode {
                attrs: s("AB"),
                parent: None,
                buckets: 8,
                is_query: false,
            },
            PlanNode {
                attrs: s("A"),
                parent: Some(0),
                buckets: 4,
                is_query: true,
            },
            PlanNode {
                attrs: s("B"),
                parent: Some(0),
                buckets: 4,
                is_query: true,
            },
        ])
        .unwrap()
    }

    #[test]
    fn channel_faults_are_accounted_exactly() {
        use crate::faults::FaultPlan;
        // 10% loss + 5% duplication; per query the observed total must
        // equal truth plus the reported bias, record for record.
        let recs: Vec<Record> = (0..20_000u32)
            .map(|i| Record::new(&[i % 37, i % 23, 0, 0], u64::from(i) * 200))
            .collect();
        let faults = FaultPlan::new(0xFA_17)
            .with_eviction_loss(0.10)
            .with_eviction_duplication(0.05);
        let mut ex = ExecutorConfig {
            faults: Some(faults),
            ..ExecutorConfig::new(small_phantom_plan(), CostParams::paper(), 1_000_000, 11)
        }
        .build();
        ex.run(&recs);
        let stats = *ex.channel_stats();
        let (report, hfta) = ex.finish();
        assert!(report.evictions_dropped > 0, "faults must actually fire");
        assert!(report.evictions_duplicated > 0);
        // finish() offers the final flush to the channel too, so compare
        // against the pre-finish snapshot plus whatever the flush added.
        assert!(report.evictions_dropped >= stats.dropped);
        for q in [s("A"), s("B")] {
            let observed: u64 = hfta.totals(q).values().sum();
            let expected = recs.len() as i64 + report.count_bias(q);
            assert_eq!(observed as i64, expected, "query {q}");
        }
    }

    #[test]
    fn guard_sheds_under_breach_and_bias_stays_exact() {
        use crate::guard::GuardPolicy;
        // Budget 0 breaches every epoch: the guard walks the full ladder
        // (shed → phantoms off → repair request) while counts keep
        // satisfying the bias identity exactly — including the cascade
        // suppression of the phantom bypass.
        let recs: Vec<Record> = (0..30_000u32)
            .map(|i| Record::new(&[i % 41, i % 17, 0, 0], u64::from(i) * 100))
            .collect();
        let mut ex = ExecutorConfig {
            guard: Some(GuardPolicy::new(0.0)),
            ..ExecutorConfig::new(small_phantom_plan(), CostParams::paper(), 500_000, 3)
        }
        .build();
        ex.run(&recs);
        assert!(
            ex.guard().is_some_and(OverloadGuard::repair_requested),
            "ladder must reach the repair level"
        );
        let (report, hfta) = ex.finish();
        assert!(report.records_shed > 0, "shedding must engage");
        assert!(report.epochs_degraded > 0);
        assert!(report.guard_transitions.len() >= 3, "one step per level");
        assert_eq!(report.guard_transitions[0].from, GuardLevel::Normal);
        for q in [s("A"), s("B")] {
            let observed: u64 = hfta.totals(q).values().sum();
            assert_eq!(
                observed as i64,
                recs.len() as i64 + report.count_bias(q),
                "query {q}"
            );
            // No channel faults: the bias is pure shedding.
            assert_eq!(report.count_bias(q), -(report.records_shed as i64));
        }
    }

    #[test]
    fn guard_recovers_when_load_subsides() {
        use crate::guard::GuardPolicy;
        // Epoch 0 is heavy (500 distinct AB groups through 8 buckets →
        // expensive flush); later epochs are nearly idle. The guard must
        // escalate on the breach and walk back to Normal.
        let mut recs: Vec<Record> = (0..5000u32)
            .map(|i| Record::new(&[i % 50, i % 10, 0, 0], u64::from(i) * 100))
            .collect();
        for e in 1..6u32 {
            for i in 0..10u32 {
                recs.push(Record::new(
                    &[1, 1, 0, 0],
                    u64::from(e) * 1_000_000 + u64::from(i),
                ));
            }
        }
        let mut ex = ExecutorConfig {
            guard: Some(GuardPolicy::new(500.0)),
            ..ExecutorConfig::new(small_phantom_plan(), CostParams::paper(), 1_000_000, 7)
        }
        .build();
        ex.run(&recs);
        let (report, _) = ex.finish();
        let last = report.guard_transitions.last().expect("transitions");
        assert_eq!(
            last.to,
            GuardLevel::Normal,
            "{:?}",
            report.guard_transitions
        );
        assert!(report.epochs_degraded < report.epochs);
    }

    #[test]
    fn start_epoch_keeps_absolute_labels() {
        let recs = vec![Record::new(&[1, 0, 0, 0], 3_500_000)];
        let plan = PhysicalPlan::flat([(s("A"), 4)]);
        let mut ex = ExecutorConfig::new(plan, CostParams::paper(), 1_000_000, 0)
            .build()
            .with_start_epoch(3);
        ex.run(&recs);
        let (report, hfta) = ex.finish();
        assert_eq!(report.epochs, 4);
        assert_eq!(hfta.results().len(), 1);
        assert_eq!(hfta.results()[0].epoch, 3);
    }

    #[test]
    fn bounded_channel_drops_overflow_with_exact_accounting() {
        use crate::channel::EvictionChannel;
        // Capacity 5 deliveries per epoch; everything beyond is dropped
        // and the dropped record mass reconciles the observed counts.
        let recs: Vec<Record> = (0..400u32)
            .map(|i| Record::new(&[i % 40, 0, 0, 0], u64::from(i) * 1000))
            .collect();
        let plan = PhysicalPlan::flat([(s("A"), 8)]);
        let mut ex = ExecutorConfig::new(plan, CostParams::paper(), 100_000, 1)
            .build()
            .with_channel(EvictionChannel::lossless().with_capacity(5));
        ex.run(&recs);
        let (report, hfta) = ex.finish();
        assert!(report.evictions_dropped > 0, "capacity bound must bite");
        let observed: u64 = hfta.totals(s("A")).values().sum();
        assert_eq!(
            observed as i64,
            recs.len() as i64 + report.count_bias(s("A"))
        );
    }

    #[test]
    fn report_merge_commutes() {
        use crate::guard::{GuardLevel, GuardTransition};
        // Two reports with overlapping epochs, differently ordered keyed
        // vectors and interleaved guard histories: folding either way
        // must land on the identical struct.
        let a = RunReport {
            records: 10,
            intra_probes: 100,
            intra_evictions: 7,
            flush_probes: 20,
            flush_evictions: 5,
            epochs: 3,
            filtered_out: 1,
            records_shed: 2,
            evictions_dropped: 3,
            evictions_duplicated: 1,
            dropped_records: vec![(s("B"), 4), (s("A"), 2)],
            duplicated_records: vec![(s("A"), 1)],
            epochs_degraded: 1,
            guard_transitions: vec![GuardTransition {
                epoch: 2,
                from: GuardLevel::Normal,
                to: GuardLevel::Shedding,
                observed_cost: 12.5,
            }],
            epoch_costs: vec![(0, 1.5, 2.5), (1, 3.0, 4.0), (2, 0.25, 0.5)],
            epoch_faults: vec![(1, 2, 0), (2, 1, 1)],
            shard_restarts: 1,
            records_poisoned: 2,
            records_unreplayed: 0,
            records_shutdown_lost: 3,
            records_stale_lost: 1,
            records_shed_denied: 1,
            abandoned_records: vec![(s("B"), 2)],
            replans_committed: 1,
            replans_rolled_back: 0,
            bound_breached: false,
            costs: CostParams::paper(),
        };
        let b = RunReport {
            records: 4,
            intra_probes: 40,
            intra_evictions: 2,
            flush_probes: 9,
            flush_evictions: 3,
            epochs: 2,
            filtered_out: 0,
            records_shed: 1,
            evictions_dropped: 1,
            evictions_duplicated: 2,
            dropped_records: vec![(s("A"), 5), (s("C"), 1)],
            duplicated_records: vec![(s("B"), 3), (s("A"), 2)],
            epochs_degraded: 2,
            guard_transitions: vec![
                GuardTransition {
                    epoch: 1,
                    from: GuardLevel::Normal,
                    to: GuardLevel::Shedding,
                    observed_cost: 9.0,
                },
                GuardTransition {
                    epoch: 2,
                    from: GuardLevel::Shedding,
                    to: GuardLevel::Normal,
                    observed_cost: 1.0,
                },
            ],
            epoch_costs: vec![(1, 0.125, 8.0), (3, 6.0, 7.0)],
            epoch_faults: vec![(1, 0, 3)],
            shard_restarts: 2,
            records_poisoned: 0,
            records_unreplayed: 4,
            records_shutdown_lost: 1,
            records_stale_lost: 2,
            records_shed_denied: 2,
            abandoned_records: vec![(s("A"), 1), (s("B"), 3)],
            replans_committed: 0,
            replans_rolled_back: 2,
            bound_breached: true,
            costs: CostParams::paper(),
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        // Coalescing preserved totals and keyed sums.
        assert_eq!(ab.records, 14);
        assert_eq!(ab.dropped_records_for(s("A")), 7);
        assert_eq!(ab.duplicated_records_for(s("A")), 3);
        assert_eq!(ab.epoch_costs.len(), 4);
        assert_eq!(ab.epoch_costs[1], (1, 3.0 + 0.125, 4.0 + 8.0));
        assert_eq!(ab.epoch_faults, vec![(1, 2, 3), (2, 1, 1)]);
        assert_eq!(ab.shard_restarts, 3);
        assert_eq!(ab.records_poisoned, 2);
        assert_eq!(ab.records_shutdown_lost, 4);
        assert_eq!(ab.records_shed_denied, 3);
        assert_eq!(ab.abandoned_records_for(s("A")), 1);
        assert_eq!(ab.abandoned_records_for(s("B")), 5);
        assert_eq!(ab.replans_committed, 1);
        assert_eq!(ab.replans_rolled_back, 2);
        // A breach on either side survives the fold.
        assert!(ab.bound_breached);
        assert_eq!(ab.records_unreplayed, 4);
        // Merging commutes with itself repeatedly (fold in any order).
        let mut fold1 = RunReport {
            costs: CostParams::paper(),
            ..RunReport::default()
        };
        fold1.merge(&a);
        fold1.merge(&b);
        assert_eq!(fold1, ab);
    }

    #[test]
    fn results_conserve_record_counts() {
        // Σ counts per query = number of records, whatever the plan.
        let recs: Vec<Record> = (0..777u32)
            .map(|i| Record::new(&[i % 13, i % 9, i % 2, 0], i as u64))
            .collect();
        let plan = PhysicalPlan::new(vec![
            PlanNode {
                attrs: s("ABC"),
                parent: None,
                buckets: 8,
                is_query: false,
            },
            PlanNode {
                attrs: s("AB"),
                parent: Some(0),
                buckets: 4,
                is_query: true,
            },
            PlanNode {
                attrs: s("C"),
                parent: Some(0),
                buckets: 2,
                is_query: true,
            },
        ])
        .unwrap();
        let mut ex = ExecutorConfig::new(plan, CostParams::paper(), u64::MAX, 2).build();
        ex.run(&recs);
        let (_, hfta) = ex.finish();
        for q in ["AB", "C"] {
            let total: u64 = hfta.totals(s(q)).values().sum();
            assert_eq!(total, 777, "query {q}");
        }
    }

    /// The entry-major drain the flush used before it went child by
    /// child: each drained entry is emitted alone, reaching the HFTA and
    /// then every child before the next entry starts. Leaves the tables
    /// empty; the caller closes the epoch with `flush_epoch`.
    fn entry_major_drain(ex: &mut Executor) {
        ex.in_flush = true;
        for i in 0..ex.tables.len() {
            let entries = ex.tables[i].drain();
            for e in entries {
                ex.emit(i, &[e]);
                if ex.crashed {
                    return;
                }
            }
        }
    }

    #[test]
    fn child_by_child_flush_matches_entry_major_reference() {
        // ABCD feeds a query AB that feeds a query A, and a phantom BCD
        // with three query children. Tiny tables over a narrow key range
        // make every drained entry collide on its way down.
        let node = |attrs: &str, parent: Option<usize>, buckets: usize, is_query: bool| PlanNode {
            attrs: s(attrs),
            parent,
            buckets,
            is_query,
        };
        let plan = PhysicalPlan::new(vec![
            node("ABCD", None, 61, false),
            node("AB", Some(0), 7, true),
            node("A", Some(1), 3, true),
            node("BCD", Some(0), 13, false),
            node("BC", Some(3), 5, true),
            node("BD", Some(3), 4, true),
            node("CD", Some(3), 5, true),
        ])
        .unwrap();
        let mut rng = msa_stream::SplitMix64::new(0xF1_05);
        let recs: Vec<Record> = (0..6_000u64)
            .map(|i| {
                let vals = [
                    rng.gen_u32_below(6),
                    rng.gen_u32_below(9),
                    rng.gen_u32_below(5),
                    rng.gen_u32_below(7),
                ];
                Record::new(&vals, i * 1_000)
            })
            .collect();
        let epoch_micros = 1_000_000;
        let mut flushed = ExecutorConfig {
            value_source: ValueSource::Attr(3),
            durable: true,
            ..ExecutorConfig::new(plan, CostParams::paper(), epoch_micros, 5)
        }
        .build();
        let mut reference = flushed.clone();
        let mut closes = 0;
        for epoch in recs.chunks(1_000) {
            flushed.run(epoch);
            reference.run(epoch);
            assert!(
                flushed.tables.iter().any(|t| t.occupied() > 0),
                "the boundary must have entries to drain"
            );
            flushed.flush_epoch();
            entry_major_drain(&mut reference);
            reference.flush_epoch();
            closes += 1;
            assert_eq!(flushed.table_stats(), reference.table_stats());
            assert_eq!(flushed.report(), reference.report());
            assert_eq!(flushed.hfta().results(), reference.hfta().results());
            let (Some(a), Some(b)) = (flushed.latest_snapshot(), reference.latest_snapshot())
            else {
                panic!("both copies checkpoint at every boundary");
            };
            assert_eq!(
                a.encode(),
                b.encode(),
                "snapshot bytes after close {closes}"
            );
        }
        assert_eq!(closes, 6);
        let report = flushed.report();
        assert!(report.flush_probes > 0 && report.flush_evictions > 0);
        assert!(
            flushed.table_stats().iter().all(|(_, t)| t.collisions > 0),
            "every table must see collisions for the order to matter"
        );
        // Every record reached every query exactly once.
        let (_, hfta) = flushed.finish();
        for q in ["AB", "A", "BC", "BD", "CD"] {
            assert_eq!(hfta.totals(s(q)), exact_counts(&recs, s(q)), "query {q}");
        }
    }
}
