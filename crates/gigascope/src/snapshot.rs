//! Epoch-aligned checkpoints: the executor's only durable artifact.
//!
//! A [`Snapshot`] is the complete serializable state of the executor at
//! an **epoch boundary** (every LFTA table's statistics, the channel's
//! PRNG cursor, the guard ladder, the HFTA's finished results, the full
//! [`RunReport`], and the record high-water mark). Boundaries are the
//! natural consistency points of the paper's pipeline: the end-of-epoch
//! scan drains every table and closes the HFTA epoch, so the only state
//! that exists is cumulative — no in-flight partials.
//!
//! Recovery restores the snapshot and re-feeds the source from
//! [`Snapshot::records_hwm`]. Execution from a restored boundary is
//! deterministic (seeded hashes, restored channel PRNG, guard cursors
//! and table statistics), so the replay regenerates every delivery the
//! crashed run made in the open epoch, bit for bit, and a recovered run
//! is bit-identical to one that never crashed. The contract requires a
//! **replayable source**; a non-replayable one would need a durable log
//! of input chunks, group-committed per chunk — not of evictions.
//!
//! The encoding is versioned, framed by a magic tag and guarded by an
//! FNV-1a checksum; torn or corrupted bytes decode to a typed
//! [`SnapshotError`] instead of garbage state. The frame verifies
//! itself, so a store generation needs no second record of its
//! checksum beside it. The payload opens with a chain link, so the same
//! format serves the checkpoint store's generations (see
//! [`crate::store`]): a *base* has no parent and holds every finished
//! result, a *delta* holds the boundary state plus only the results
//! finished since its parent generation. A standalone snapshot
//! ([`Snapshot::encode`]) is always a base.

use crate::channel::{ChannelFaults, ChannelStats, EvictionChannel};
use crate::executor::{RunReport, ValueSource};
use crate::guard::{DegradationPolicy, GuardLevel, GuardPolicy, GuardTransition, OverloadGuard};
use crate::hfta::{CombineTable, EpochResult, HftaState};
use crate::plan::PhysicalPlan;
use crate::table::{AggState, TableStats};
use crate::CostParams;
use msa_stream::{AttrSet, GroupKey, SplitMix64, MAX_ATTRS};

/// Current snapshot encoding version.
///
/// Version 2 added the degraded-answer ledger section: the report's
/// shutdown/abandonment/denied-shed counters and breach flag, plus the
/// guard's [`crate::guard::DegradationPolicy`] and budget odometer, so
/// recovery restores guaranteed count intervals bit-exactly.
/// Version 3 added the adaptive-runtime swap ledger: the report's
/// `replans_committed`/`replans_rolled_back` counters, so a recovered
/// deployment remembers its hot-swap history bit-exactly.
/// Version 4 added the durable-store ledger: the report's
/// `records_stale_lost` counter, so generation-fallback loss survives a
/// second crash with its accounting intact.
/// Version 5 dropped the delivery-sequence mark: recovery replays the
/// source from `records_hwm` and consumes no eviction log.
/// Version 6 opened the payload with a chain link (parent generation,
/// results before): a store generation holds only the results finished
/// since its parent. A version-5 buffer is refused with
/// [`SnapshotError::UnsupportedVersion`], never misread.
pub const SNAPSHOT_VERSION: u32 = 6;

const SNAPSHOT_MAGIC: [u8; 4] = *b"MSNP";

/// Failure decoding (or capturing) a snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the expected magic tag.
    BadMagic,
    /// The encoding version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The payload checksum does not match — torn write or bit rot.
    ChecksumMismatch {
        /// Checksum recorded in the frame.
        expected: u64,
        /// Checksum of the bytes actually present.
        found: u64,
    },
    /// The buffer ends mid-field.
    Truncated,
    /// A field decoded to an impossible value (named for diagnosis).
    Malformed(&'static str),
    /// A capture was requested mid-epoch (tables or HFTA maps non-empty).
    EpochUnaligned,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "bad magic tag"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            SnapshotError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "checksum mismatch: expected {expected:#018x}, found {found:#018x}"
                )
            }
            SnapshotError::Truncated => write!(f, "buffer truncated"),
            SnapshotError::Malformed(what) => write!(f, "malformed field: {what}"),
            SnapshotError::EpochUnaligned => {
                write!(
                    f,
                    "capture requested mid-epoch; snapshots are epoch-aligned"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Failure recovering an executor from a snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// The snapshot was taken under a different plan/seed/epoch/cost
    /// configuration than the executor being recovered.
    PlanMismatch {
        /// Fingerprint the recovering executor computes.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::PlanMismatch { expected, found } => write!(
                f,
                "snapshot belongs to a different configuration: fingerprint {found:#018x}, executor has {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// The complete executor state at an epoch boundary.
///
/// Everything needed to resume the run bit-exactly: restore this state
/// into a freshly built executor (same plan, seed, epoch length, costs)
/// and re-feed the record stream from [`Snapshot::records_hwm`].
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Fingerprint of the configuration (plan shape, hash seed, epoch
    /// length, cost parameters, value source) — recovery refuses a
    /// snapshot taken under a different configuration.
    pub plan_fingerprint: u64,
    /// The epoch open at capture time (all earlier epochs are closed).
    pub epoch: u64,
    /// Records processed at capture — the resume index into the stream.
    pub records_hwm: u64,
    /// The eviction channel (PRNG cursor, capacity budget, stats).
    pub channel: EvictionChannel,
    /// The overload guard, if one was installed.
    pub guard: Option<OverloadGuard>,
    /// Per-table cumulative statistics, in plan order (tables themselves
    /// are empty at a boundary).
    pub tables: Vec<TableStats>,
    /// HFTA boundary state (finished results + counters).
    pub hfta: HftaState,
    /// The run report at capture.
    pub report: RunReport,
    /// Intra-epoch cost consumed by closed epochs (per-epoch delta base).
    pub intra_cost_mark: f64,
    /// Flush cost consumed by closed epochs.
    pub flush_cost_mark: f64,
    /// Dropped-eviction count consumed by closed epochs.
    pub dropped_mark: u64,
    /// Duplicated-eviction count consumed by closed epochs.
    pub duplicated_mark: u64,
}

/// A delta generation's link to the generation holding its earlier
/// finished results. Both fields sit inside the checksummed payload, so
/// a rotten link is caught like rotten results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ChainLink {
    /// The parent generation (always below the linked one).
    pub(crate) parent: u64,
    /// Finished results the parent's chain holds: the linked
    /// generation's results continue from this index.
    pub(crate) results_before: u64,
}

impl Snapshot {
    /// Serializes the snapshot (versioned, checksummed) as a base: no
    /// parent link, every finished result.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_generation(&self.hfta.results, None)
    }

    /// Serializes a store generation from borrowed parts: this boundary
    /// state, whose own `hfta.results` is not read, and `results`, every
    /// finished result at the boundary, of which only those from
    /// `link.results_before` on are written, behind the link itself.
    /// `None` encodes a base, identical to [`Snapshot::encode`]. A
    /// checkpoint encodes the executor's results in place this way,
    /// without copying them. The caller guarantees `results_before` is
    /// at most the result count.
    pub(crate) fn encode_generation(
        &self,
        results: &[EpochResult],
        link: Option<ChainLink>,
    ) -> Vec<u8> {
        let skip = link.map_or(0, |l| l.results_before);
        debug_assert!(
            skip <= results.len() as u64,
            "a link never skips past the results"
        );
        let mut w = ByteWriter::default();
        w.opt_u64(link.map(|l| l.parent));
        w.u64(skip);
        w.u64(self.plan_fingerprint);
        w.u64(self.epoch);
        w.u64(self.records_hwm);
        // Channel.
        w.f64(self.channel.faults.loss_rate);
        w.f64(self.channel.faults.duplicate_rate);
        w.opt_u64(self.channel.capacity);
        w.u64(self.channel.epoch_sent);
        w.u64(self.channel.rng.state());
        w.u64(self.channel.stats.delivered);
        w.u64(self.channel.stats.dropped);
        w.u64(self.channel.stats.duplicated);
        w.u64(self.channel.stats.overflowed);
        w.u64(self.channel.stats.shutdown_lost);
        // Guard.
        match &self.guard {
            None => w.u8(0),
            Some(g) => {
                w.u8(1);
                w.f64(g.policy.peak_budget);
                w.f64(g.policy.recover_ratio);
                w.u64(g.policy.recover_epochs);
                w.u64(g.policy.shed_factor);
                w.u8(g.level.index());
                w.u64(g.calm_epochs);
                w.u64(g.shed_counter);
                w.f64(g.last_cost);
                w.u8(u8::from(g.repair_requested));
                w.degradation(g.policy.degradation);
                w.u64(g.records_lost);
                w.u8(u8::from(g.bound_breached));
            }
        }
        // Tables.
        w.u64(self.tables.len() as u64);
        for t in &self.tables {
            w.u64(t.probes);
            w.u64(t.collisions);
            w.u64(t.absorbed_before_eviction);
        }
        // HFTA.
        w.u64(self.hfta.epoch);
        w.u64(self.hfta.received);
        w.u8(u8::from(self.hfta.retain_results));
        let tail = results
            .iter()
            .skip(usize::try_from(skip).unwrap_or(usize::MAX));
        w.u64(tail.len() as u64);
        for r in tail {
            w.u16(r.query.bits());
            w.u64(r.epoch);
            w.u64(r.aggregates.len() as u64);
            for (key, agg) in &r.aggregates {
                w.key(*key);
                w.agg(*agg);
            }
        }
        // Report.
        w.u64(self.report.records);
        w.u64(self.report.intra_probes);
        w.u64(self.report.intra_evictions);
        w.u64(self.report.flush_probes);
        w.u64(self.report.flush_evictions);
        w.u64(self.report.epochs);
        w.u64(self.report.filtered_out);
        w.u64(self.report.records_shed);
        w.u64(self.report.evictions_dropped);
        w.u64(self.report.evictions_duplicated);
        w.keyed_counts(&self.report.dropped_records);
        w.keyed_counts(&self.report.duplicated_records);
        w.u64(self.report.epochs_degraded);
        w.u64(self.report.shard_restarts);
        w.u64(self.report.records_poisoned);
        w.u64(self.report.records_unreplayed);
        w.u64(self.report.records_shutdown_lost);
        w.u64(self.report.records_stale_lost);
        w.u64(self.report.records_shed_denied);
        w.u64(self.report.replans_committed);
        w.u64(self.report.replans_rolled_back);
        w.keyed_counts(&self.report.abandoned_records);
        w.u8(u8::from(self.report.bound_breached));
        w.u64(self.report.guard_transitions.len() as u64);
        for t in &self.report.guard_transitions {
            w.u64(t.epoch);
            w.u8(t.from.index());
            w.u8(t.to.index());
            w.f64(t.observed_cost);
        }
        w.u64(self.report.epoch_costs.len() as u64);
        for &(e, intra, flush) in &self.report.epoch_costs {
            w.u64(e);
            w.f64(intra);
            w.f64(flush);
        }
        w.u64(self.report.epoch_faults.len() as u64);
        for &(e, dropped, duplicated) in &self.report.epoch_faults {
            w.u64(e);
            w.u64(dropped);
            w.u64(duplicated);
        }
        w.f64(self.report.costs.c1);
        w.f64(self.report.costs.c2);
        // Per-epoch delta bases.
        w.f64(self.intra_cost_mark);
        w.f64(self.flush_cost_mark);
        w.u64(self.dropped_mark);
        w.u64(self.duplicated_mark);
        frame(SNAPSHOT_MAGIC, w)
    }

    /// Deserializes a snapshot, validating magic, version and checksum.
    /// A delta generation is refused: without its parent chain it would
    /// read as a snapshot missing its older results.
    #[must_use = "a decoded snapshot must be installed or verified; dropping it hides corruption"]
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        match Snapshot::decode_link(bytes)? {
            (snapshot, None) => Ok(snapshot),
            (_, Some(_)) => Err(SnapshotError::Malformed(
                "delta generation outside its chain",
            )),
        }
    }

    /// Deserializes a store generation: its link (`None` for a base) and
    /// a snapshot whose `hfta.results` holds only the generation's own
    /// results, from `results_before` on.
    #[must_use = "a decoded generation must be stitched or verified; dropping it hides corruption"]
    pub(crate) fn decode_link(
        bytes: &[u8],
    ) -> Result<(Snapshot, Option<ChainLink>), SnapshotError> {
        let mut r = unframe(SNAPSHOT_MAGIC, bytes)?;
        let parent = r.opt_u64()?;
        let results_before = r.u64()?;
        let link = match parent {
            Some(parent) => Some(ChainLink {
                parent,
                results_before,
            }),
            None if results_before == 0 => None,
            None => return Err(SnapshotError::Malformed("base with results before it")),
        };
        let plan_fingerprint = r.u64()?;
        let epoch = r.u64()?;
        let records_hwm = r.u64()?;
        let channel = EvictionChannel {
            faults: ChannelFaults {
                loss_rate: r.f64()?,
                duplicate_rate: r.f64()?,
            },
            capacity: r.opt_u64()?,
            epoch_sent: r.u64()?,
            rng: SplitMix64::from_state(r.u64()?),
            stats: ChannelStats {
                delivered: r.u64()?,
                dropped: r.u64()?,
                duplicated: r.u64()?,
                overflowed: r.u64()?,
                shutdown_lost: r.u64()?,
            },
        };
        let guard = match r.u8()? {
            0 => None,
            1 => {
                // Field order mirrors `encode`: the degradation policy
                // and budget odometer trail the v1 fields.
                let peak_budget = r.f64()?;
                let recover_ratio = r.f64()?;
                let recover_epochs = r.u64()?;
                let shed_factor = r.u64()?;
                let level = r.guard_level()?;
                let calm_epochs = r.u64()?;
                let shed_counter = r.u64()?;
                let last_cost = r.f64()?;
                let repair_requested = r.bool()?;
                let degradation = r.degradation()?;
                let records_lost = r.u64()?;
                let bound_breached = r.bool()?;
                Some(OverloadGuard {
                    policy: GuardPolicy {
                        peak_budget,
                        recover_ratio,
                        recover_epochs,
                        shed_factor,
                        degradation,
                    },
                    level,
                    calm_epochs,
                    shed_counter,
                    last_cost,
                    repair_requested,
                    records_lost,
                    bound_breached,
                })
            }
            _ => return Err(SnapshotError::Malformed("guard presence tag")),
        };
        let n_tables = r.u64()?;
        let mut tables = Vec::with_capacity(n_tables.min(1 << 16) as usize);
        for _ in 0..n_tables {
            tables.push(TableStats {
                probes: r.u64()?,
                collisions: r.u64()?,
                absorbed_before_eviction: r.u64()?,
            });
        }
        let hfta_epoch = r.u64()?;
        let received = r.u64()?;
        let retain_results = r.bool()?;
        let n_results = r.u64()?;
        let mut results = Vec::with_capacity(n_results.min(1 << 20) as usize);
        for _ in 0..n_results {
            let query = r.attr_set()?;
            let res_epoch = r.u64()?;
            let n_groups = r.u64()?;
            let mut aggregates = CombineTable::with_capacity(n_groups.min(1 << 20) as usize);
            for _ in 0..n_groups {
                let key = r.key()?;
                let agg = r.agg()?;
                if aggregates.contains_key(&key) {
                    return Err(SnapshotError::Malformed("group repeated in a result"));
                }
                aggregates.combine(key, agg);
            }
            results.push(EpochResult {
                query,
                epoch: res_epoch,
                aggregates,
            });
        }
        let hfta = HftaState {
            epoch: hfta_epoch,
            received,
            retain_results,
            results,
        };
        let mut report = RunReport {
            records: r.u64()?,
            intra_probes: r.u64()?,
            intra_evictions: r.u64()?,
            flush_probes: r.u64()?,
            flush_evictions: r.u64()?,
            epochs: r.u64()?,
            filtered_out: r.u64()?,
            records_shed: r.u64()?,
            evictions_dropped: r.u64()?,
            evictions_duplicated: r.u64()?,
            dropped_records: r.keyed_counts()?,
            duplicated_records: r.keyed_counts()?,
            epochs_degraded: r.u64()?,
            shard_restarts: r.u64()?,
            records_poisoned: r.u64()?,
            records_unreplayed: r.u64()?,
            records_shutdown_lost: r.u64()?,
            records_stale_lost: r.u64()?,
            records_shed_denied: r.u64()?,
            replans_committed: r.u64()?,
            replans_rolled_back: r.u64()?,
            abandoned_records: r.keyed_counts()?,
            bound_breached: r.bool()?,
            ..RunReport::default()
        };
        let n_transitions = r.u64()?;
        for _ in 0..n_transitions {
            report.guard_transitions.push(GuardTransition {
                epoch: r.u64()?,
                from: r.guard_level()?,
                to: r.guard_level()?,
                observed_cost: r.f64()?,
            });
        }
        let n_costs = r.u64()?;
        for _ in 0..n_costs {
            report.epoch_costs.push((r.u64()?, r.f64()?, r.f64()?));
        }
        let n_faults = r.u64()?;
        for _ in 0..n_faults {
            report.epoch_faults.push((r.u64()?, r.u64()?, r.u64()?));
        }
        report.costs = CostParams {
            c1: r.f64()?,
            c2: r.f64()?,
        };
        let intra_cost_mark = r.f64()?;
        let flush_cost_mark = r.f64()?;
        let dropped_mark = r.u64()?;
        let duplicated_mark = r.u64()?;
        r.done()?;
        let snapshot = Snapshot {
            plan_fingerprint,
            epoch,
            records_hwm,
            channel,
            guard,
            tables,
            hfta,
            report,
            intra_cost_mark,
            flush_cost_mark,
            dropped_mark,
            duplicated_mark,
        };
        Ok((snapshot, link))
    }
}

/// Fingerprints an executor configuration: plan shape, per-table hash
/// seed base, epoch length, cost parameters and value source. Recovery
/// compares fingerprints so a snapshot can never be restored into an
/// executor that would interpret its state differently.
pub fn plan_fingerprint(
    plan: &PhysicalPlan,
    seed: u64,
    epoch_micros: u64,
    costs: CostParams,
    value_source: ValueSource,
) -> u64 {
    let mut w = ByteWriter::default();
    w.u64(seed);
    w.u64(epoch_micros);
    w.f64(costs.c1);
    w.f64(costs.c2);
    match value_source {
        ValueSource::None => w.u8(0),
        ValueSource::Attr(a) => {
            w.u8(1);
            w.u8(a);
        }
    }
    w.u64(plan.nodes().len() as u64);
    for node in plan.nodes() {
        w.u16(node.attrs.bits());
        w.opt_u64(node.parent.map(|p| p as u64));
        w.u64(node.buckets as u64);
        w.u8(u8::from(node.is_query));
    }
    fnv64(&w.buf)
}

/// FNV-1a over the payload — fast, dependency-free, and plenty for
/// detecting torn writes and bit rot (not an integrity MAC).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Frames a payload: magic, version, length, checksum, payload.
fn frame(magic: [u8; 4], w: ByteWriter) -> Vec<u8> {
    let payload = w.buf;
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Validates a frame and returns a reader over the payload.
fn unframe(magic: [u8; 4], bytes: &[u8]) -> Result<ByteReader<'_>, SnapshotError> {
    if bytes.len() < 24 {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..4] != magic {
        return Err(SnapshotError::BadMagic);
    }
    let head = |range: std::ops::Range<usize>| -> Result<&[u8], SnapshotError> {
        bytes.get(range).ok_or(SnapshotError::Truncated)
    };
    let version = u32::from_le_bytes(
        head(4..8)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated)?,
    );
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let len = u64::from_le_bytes(
        head(8..16)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated)?,
    ) as usize;
    let expected = u64::from_le_bytes(
        head(16..24)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated)?,
    );
    let payload = bytes.get(24..).ok_or(SnapshotError::Truncated)?;
    if payload.len() != len {
        return Err(SnapshotError::Truncated);
    }
    let found = fnv64(payload);
    if found != expected {
        return Err(SnapshotError::ChecksumMismatch { expected, found });
    }
    Ok(ByteReader {
        data: payload,
        pos: 0,
    })
}

/// Little-endian byte sink for the fixed field order of the format.
#[derive(Default)]
struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }

    fn key(&mut self, key: GroupKey) {
        let vals = key.values();
        debug_assert!(vals.len() <= usize::from(u8::MAX));
        self.u8(u8::try_from(vals.len()).unwrap_or(u8::MAX));
        for &v in vals {
            self.u32(v);
        }
    }

    fn agg(&mut self, agg: AggState) {
        self.u64(agg.count);
        self.u64(agg.sum);
        self.u32(agg.min);
        self.u32(agg.max);
    }

    fn keyed_counts(&mut self, counts: &[(AttrSet, u64)]) {
        self.u64(counts.len() as u64);
        for &(q, n) in counts {
            self.u16(q.bits());
            self.u64(n);
        }
    }

    fn degradation(&mut self, policy: DegradationPolicy) {
        match policy {
            DegradationPolicy::ExactOrStall => self.u8(0),
            DegradationPolicy::BoundedApprox { max_width } => {
                self.u8(1);
                self.u64(max_width);
            }
            DegradationPolicy::BestEffort => self.u8(2),
        }
    }
}

/// Little-endian byte source; every read is bounds-checked.
struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl ByteReader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let slice = self
            .data
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        let bytes = self
            .take(2)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated)?;
        Ok(u16::from_le_bytes(bytes))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let bytes = self
            .take(4)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated)?;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let bytes = self
            .take(8)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated)?;
        Ok(u64::from_le_bytes(bytes))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("boolean tag")),
        }
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(SnapshotError::Malformed("option tag")),
        }
    }

    fn key(&mut self) -> Result<GroupKey, SnapshotError> {
        let len = self.u8()? as usize;
        if len > MAX_ATTRS {
            return Err(SnapshotError::Malformed("group-key arity"));
        }
        let mut vals = [0u32; MAX_ATTRS];
        for v in vals.iter_mut().take(len) {
            *v = self.u32()?;
        }
        Ok(GroupKey::from_values(&vals[..len]))
    }

    fn agg(&mut self) -> Result<AggState, SnapshotError> {
        Ok(AggState {
            count: self.u64()?,
            sum: self.u64()?,
            min: self.u32()?,
            max: self.u32()?,
        })
    }

    fn attr_set(&mut self) -> Result<AttrSet, SnapshotError> {
        AttrSet::from_bits(self.u16()?).ok_or(SnapshotError::Malformed("attribute set"))
    }

    fn guard_level(&mut self) -> Result<GuardLevel, SnapshotError> {
        GuardLevel::from_index(self.u8()?).ok_or(SnapshotError::Malformed("guard level"))
    }

    fn degradation(&mut self) -> Result<DegradationPolicy, SnapshotError> {
        match self.u8()? {
            0 => Ok(DegradationPolicy::ExactOrStall),
            1 => Ok(DegradationPolicy::BoundedApprox {
                max_width: self.u64()?,
            }),
            2 => Ok(DegradationPolicy::BestEffort),
            _ => Err(SnapshotError::Malformed("degradation policy tag")),
        }
    }

    fn keyed_counts(&mut self) -> Result<Vec<(AttrSet, u64)>, SnapshotError> {
        let n = self.u64()?;
        let mut out = Vec::with_capacity(n.min(1 << 16) as usize);
        for _ in 0..n {
            let q = self.attr_set()?;
            out.push((q, self.u64()?));
        }
        Ok(out)
    }

    fn done(&self) -> Result<(), SnapshotError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(SnapshotError::Malformed("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let a = AttrSet::parse("A").unwrap();
        let mut aggregates = CombineTable::default();
        aggregates.combine(
            GroupKey::from_values(&[7]),
            AggState {
                count: 4,
                sum: 40,
                min: 5,
                max: 15,
            },
        );
        Snapshot {
            plan_fingerprint: 0xDEAD_BEEF,
            epoch: 3,
            records_hwm: 1234,
            channel: EvictionChannel {
                faults: ChannelFaults {
                    loss_rate: 0.1,
                    duplicate_rate: 0.05,
                },
                capacity: Some(64),
                epoch_sent: 0,
                rng: SplitMix64::from_state(0x1234_5678_9ABC_DEF0),
                stats: ChannelStats {
                    delivered: 20,
                    dropped: 2,
                    duplicated: 1,
                    overflowed: 0,
                    shutdown_lost: 3,
                },
            },
            guard: Some(OverloadGuard {
                policy: GuardPolicy::new(500.0)
                    .with_degradation(DegradationPolicy::BoundedApprox { max_width: 40 }),
                level: GuardLevel::Shedding,
                calm_epochs: 1,
                shed_counter: 9,
                last_cost: 612.5,
                repair_requested: false,
                records_lost: 11,
                bound_breached: true,
            }),
            tables: vec![
                TableStats {
                    probes: 100,
                    collisions: 10,
                    absorbed_before_eviction: 55,
                },
                TableStats::default(),
            ],
            hfta: HftaState {
                epoch: 3,
                received: 19,
                retain_results: true,
                results: vec![EpochResult {
                    query: a,
                    epoch: 2,
                    aggregates,
                }],
            },
            report: RunReport {
                records: 1234,
                intra_probes: 2000,
                intra_evictions: 15,
                flush_probes: 60,
                flush_evictions: 30,
                epochs: 3,
                filtered_out: 12,
                records_shed: 7,
                evictions_dropped: 2,
                evictions_duplicated: 1,
                dropped_records: vec![(a, 9)],
                duplicated_records: vec![(a, 4)],
                epochs_degraded: 1,
                guard_transitions: vec![GuardTransition {
                    epoch: 2,
                    from: GuardLevel::Normal,
                    to: GuardLevel::Shedding,
                    observed_cost: 612.5,
                }],
                epoch_costs: vec![(0, 100.0, 50.0), (1, 110.0, 60.0)],
                epoch_faults: vec![(1, 2, 1)],
                shard_restarts: 2,
                records_poisoned: 1,
                records_unreplayed: 5,
                records_shutdown_lost: 3,
                records_stale_lost: 2,
                records_shed_denied: 6,
                replans_committed: 2,
                replans_rolled_back: 1,
                abandoned_records: vec![(a, 2)],
                bound_breached: true,
                costs: CostParams::paper(),
            },
            intra_cost_mark: 210.0,
            flush_cost_mark: 110.0,
            dropped_mark: 2,
            duplicated_mark: 1,
        }
    }

    #[test]
    fn snapshot_roundtrip_is_lossless() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);
        // Round-tripping the decoded value produces identical content.
        assert_eq!(Snapshot::decode(&back.encode()).unwrap(), snap);
    }

    #[test]
    fn corrupted_bytes_are_rejected_with_typed_errors() {
        let snap = sample_snapshot();
        let good = snap.encode();

        // Any single flipped payload byte must be caught by the checksum.
        for pos in [24, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            assert!(
                matches!(
                    Snapshot::decode(&bad),
                    Err(SnapshotError::ChecksumMismatch { .. })
                ),
                "flip at {pos}"
            );
        }
        // Torn writes (truncation) and foreign buffers are typed too.
        assert_eq!(
            Snapshot::decode(&good[..good.len() - 3]),
            Err(SnapshotError::Truncated)
        );
        assert_eq!(Snapshot::decode(&good[..10]), Err(SnapshotError::Truncated));
        assert_eq!(Snapshot::decode(b"oops"), Err(SnapshotError::Truncated));
        let mut wrong_magic = good.clone();
        wrong_magic[0] = b'X';
        assert_eq!(Snapshot::decode(&wrong_magic), Err(SnapshotError::BadMagic));
        let mut wrong_version = good.clone();
        wrong_version[4] = 99;
        assert_eq!(
            Snapshot::decode(&wrong_version),
            Err(SnapshotError::UnsupportedVersion(99))
        );
        // A pre-chain (version 5) payload has no link in front; the
        // version gate refuses it before a payload byte is read.
        let mut pre_chain = good.clone();
        pre_chain[4..8].copy_from_slice(&5u32.to_le_bytes());
        assert_eq!(
            Snapshot::decode_link(&pre_chain),
            Err(SnapshotError::UnsupportedVersion(5))
        );
        // A foreign buffer long enough to hold a frame is not a snapshot.
        let foreign = b"plain text, not a checkpoint frame";
        assert_eq!(Snapshot::decode(foreign), Err(SnapshotError::BadMagic));
    }

    /// A result names each group once; a buffer that repeats one, under
    /// a checksum that matches, is refused rather than read as one group.
    #[test]
    fn a_group_repeated_within_a_result_is_malformed() {
        let mut snap = sample_snapshot();
        let [first, second] = [0x5EED_0001u32, 0x5EED_0002].map(|v| GroupKey::from_values(&[v]));
        let aggregates = &mut snap.hfta.results[0].aggregates;
        aggregates.combine(first, AggState::from_value(1));
        aggregates.combine(second, AggState::from_value(2));
        let mut bytes = snap.encode();
        assert!(Snapshot::decode(&bytes).is_ok());
        let at = bytes
            .windows(4)
            .position(|w| w == 0x5EED_0002u32.to_le_bytes())
            .unwrap();
        bytes[at..at + 4].copy_from_slice(&0x5EED_0001u32.to_le_bytes());
        let sum = fnv64(&bytes[24..]);
        bytes[16..24].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            Snapshot::decode(&bytes),
            Err(SnapshotError::Malformed("group repeated in a result"))
        );
    }

    #[test]
    fn delta_generations_hold_only_their_results_behind_a_checksummed_link() {
        let mut snap = sample_snapshot();
        let mut later = snap.hfta.results[0].clone();
        later.epoch = 3;
        snap.hfta.results.push(later);
        let link = ChainLink {
            parent: 4,
            results_before: 1,
        };
        let delta = snap.encode_generation(&snap.hfta.results, Some(link));
        let (part, got) = Snapshot::decode_link(&delta).unwrap();
        assert_eq!(got, Some(link));
        assert_eq!(part.hfta.results, snap.hfta.results[1..]);
        // Everything but the results is the full boundary state.
        let mut stitched = part;
        stitched.hfta.results = snap.hfta.results.clone();
        assert_eq!(stitched, snap);
        assert!(
            delta.len() < snap.encode().len(),
            "a delta skips older results"
        );
        // The standalone encoding is a base.
        assert_eq!(
            Snapshot::decode_link(&snap.encode()).unwrap(),
            (snap.clone(), None)
        );
        // Outside its chain a delta is refused, never read as a snapshot
        // that lost its older results.
        assert_eq!(
            Snapshot::decode(&delta),
            Err(SnapshotError::Malformed(
                "delta generation outside its chain"
            ))
        );
        // The link fields are inside the checksum: rot in the parent or
        // in `results_before` is caught like rot in the results.
        for pos in [25, 33] {
            let mut bad = delta.clone();
            bad[pos] ^= 0x01;
            assert!(
                matches!(
                    Snapshot::decode_link(&bad),
                    Err(SnapshotError::ChecksumMismatch { .. })
                ),
                "link flip at {pos}"
            );
        }
    }

    /// `snap` through the codec: encoded, then decoded.
    fn through_codec(snap: &Snapshot) -> Snapshot {
        Snapshot::decode(&snap.encode()).unwrap()
    }

    #[test]
    fn state_roundtrip_resumes_fault_stream_exactly() {
        use crate::channel::Delivery;
        let faults = ChannelFaults {
            loss_rate: 0.2,
            duplicate_rate: 0.1,
        };
        let mut ch = EvictionChannel::new(faults, 3).with_capacity(400);
        for _ in 0..300 {
            ch.offer();
        }
        ch.account_shutdown_loss(9);
        let mut snap = sample_snapshot();
        snap.channel = ch.clone();
        let mut resumed = through_codec(&snap).channel;
        assert_eq!(resumed, ch);
        assert_eq!(resumed.stats().shutdown_lost, 9, "the shutdown ledger");
        // The decoded channel makes the same decisions the original
        // would have made from here on, across capacity windows.
        let offers = |c: &mut EvictionChannel| -> Vec<Delivery> {
            (1..=1000)
                .map(|i| {
                    let fate = c.offer();
                    if i % 250 == 0 {
                        c.end_epoch();
                    }
                    fate
                })
                .collect()
        };
        let a = offers(&mut ch);
        assert!(a.contains(&Delivery::Duplicated) && ch.stats().overflowed > 0);
        assert_eq!(a, offers(&mut resumed));
        assert_eq!(ch.stats(), resumed.stats());
    }

    #[test]
    fn state_roundtrip_resumes_shedding_exactly() {
        use crate::guard::ShedDecision;
        let mut g = OverloadGuard::new(GuardPolicy::new(100.0));
        g.observe_epoch(1, 150.0);
        for _ in 0..5 {
            g.shed_decision();
        }
        let mut snap = sample_snapshot();
        snap.guard = Some(g.clone());
        let mut restored = through_codec(&snap).guard.unwrap();
        assert_eq!(restored, g);
        // Mid-cycle shed cursor resumes exactly.
        let a: Vec<ShedDecision> = (0..12).map(|_| g.shed_decision()).collect();
        let b: Vec<ShedDecision> = (0..12).map(|_| restored.shed_decision()).collect();
        assert_eq!(a, b);
        for level in 0..=3u8 {
            assert_eq!(GuardLevel::from_index(level).unwrap().index(), level);
        }
        assert_eq!(GuardLevel::from_index(4), None);
    }

    #[test]
    fn degradation_state_roundtrips() {
        let policy = GuardPolicy::new(100.0)
            .with_degradation(DegradationPolicy::BoundedApprox { max_width: 3 });
        let mut g = OverloadGuard::new(policy);
        g.observe_epoch(1, 200.0);
        g.account_loss(2);
        let mut snap = sample_snapshot();
        snap.guard = Some(g.clone());
        let restored = through_codec(&snap).guard.unwrap();
        assert_eq!(restored, g);
        assert_eq!(restored.records_lost(), 2);
        g.account_loss(2);
        assert!(g.bound_breached());
        snap.guard = Some(g);
        let restored = through_codec(&snap).guard.unwrap();
        assert!(restored.bound_breached(), "the latch survives a roundtrip");
    }

    /// Length and FNV-64 of an encoding: its bytes, pinned.
    fn pin(bytes: &[u8]) -> (usize, u64) {
        (bytes.len(), fnv64(bytes))
    }

    /// A live executor's configuration and input: channel faults, a
    /// guard that sheds within a bounded budget, and a value source, over
    /// 300 records in three epochs whose results hold up to 35 groups.
    fn live_input() -> (crate::executor::ExecutorConfig, Vec<msa_stream::Record>) {
        use crate::executor::ExecutorConfig;
        use crate::faults::FaultPlan;
        use crate::plan::{PhysicalPlan, PlanNode};
        use msa_stream::Record;

        let node = |attrs, parent, buckets, is_query| PlanNode {
            attrs: AttrSet::parse(attrs).unwrap(),
            parent,
            buckets,
            is_query,
        };
        let plan = PhysicalPlan::new(vec![
            node("ABC", None, 8, false),
            node("AB", Some(0), 4, true),
            node("C", Some(0), 4, true),
        ])
        .unwrap();
        let mut cfg = ExecutorConfig::new(plan, CostParams::paper(), 1_000, 7);
        cfg.faults = Some(
            FaultPlan::new(11)
                .with_eviction_loss(0.1)
                .with_eviction_duplication(0.05),
        );
        cfg.guard = Some(
            GuardPolicy::new(150.0)
                .with_degradation(DegradationPolicy::BoundedApprox { max_width: 40 }),
        );
        cfg.value_source = ValueSource::Attr(3);
        let recs: Vec<Record> = (0..300u32)
            .map(|i| Record::new(&[i % 7, i % 5, i % 11, i], u64::from(i) * 10))
            .collect();
        (cfg, recs)
    }

    /// Every byte the codec writes stays where it is: a refactor of the
    /// codec, or of a component it reads, must leave these three
    /// encodings identical. Recorded at format version 6.
    ///
    /// A result's groups are written in first-delivery order, so the
    /// live pin, whose results hold many groups each, also fixes the
    /// order in which the channel delivers evictions, and nothing else:
    /// no hash map's layout enters a byte. The sample pins hold one
    /// group per result.
    #[test]
    fn encodings_are_pinned_byte_for_byte() {
        let mut snap = sample_snapshot();
        assert_eq!(
            pin(&snap.encode()),
            (712, 0x0439_94bf_01f1_bf81),
            "sample base"
        );
        let mut later = snap.hfta.results[0].clone();
        later.epoch = 3;
        snap.hfta.results.push(later);
        let link = ChainLink {
            parent: 4,
            results_before: 1,
        };
        let delta = snap.encode_generation(&snap.hfta.results, Some(link));
        assert_eq!(pin(&delta), (720, 0x27ce_aff9_3878_0401), "sample delta");

        // A live capture, three epochs in.
        let (cfg, recs) = live_input();
        let mut ex = cfg.build();
        ex.run(&recs);
        ex.align_to_epoch(3);
        let live = ex.snapshot().unwrap();
        assert!(
            live.guard.is_some()
                && live.report.records_shed > 0
                && live.report.evictions_dropped > 0
                && live.report.evictions_duplicated > 0,
            "the capture exercises the guard and the faulty channel"
        );
        assert_eq!(
            pin(&live.encode()),
            (5329, 0x2d41_d218_a62c_d823),
            "live capture"
        );
    }

    /// A decoded generation re-encodes to its own bytes: the base of a
    /// live capture whose results hold many groups, and a delta of it
    /// over the epoch closed since an earlier boundary.
    #[test]
    fn live_generations_reencode_byte_for_byte() {
        let (cfg, recs) = live_input();
        let mut ex = cfg.build();
        ex.run(&recs[..200]);
        ex.align_to_epoch(2);
        let before = ex.snapshot().unwrap().hfta.results.len();
        ex.run(&recs[200..]);
        ex.align_to_epoch(3);
        let live = ex.snapshot().unwrap();
        assert!(
            live.hfta.results[before..]
                .iter()
                .any(|r| r.aggregates.len() > 20),
            "the delta holds results with many groups"
        );

        let base = live.encode();
        assert_eq!(Snapshot::decode(&base).unwrap().encode(), base, "base");

        let link = ChainLink {
            parent: 2,
            results_before: before as u64,
        };
        let delta = live.encode_generation(&live.hfta.results, Some(link));
        let (part, got) = Snapshot::decode_link(&delta).unwrap();
        assert_eq!(got, Some(link));
        let stitched: Vec<EpochResult> = live.hfta.results[..before]
            .iter()
            .chain(&part.hfta.results)
            .cloned()
            .collect();
        assert_eq!(
            part.encode_generation(&stitched, Some(link)),
            delta,
            "delta"
        );
    }

    #[test]
    fn fingerprint_separates_configurations() {
        use crate::plan::{PhysicalPlan, PlanNode};
        let plan = |buckets| {
            PhysicalPlan::new(vec![PlanNode {
                attrs: AttrSet::parse("AB").unwrap(),
                parent: None,
                buckets,
                is_query: true,
            }])
            .unwrap()
        };
        let base = plan_fingerprint(
            &plan(8),
            1,
            1_000_000,
            CostParams::paper(),
            ValueSource::None,
        );
        assert_eq!(
            base,
            plan_fingerprint(
                &plan(8),
                1,
                1_000_000,
                CostParams::paper(),
                ValueSource::None
            ),
            "fingerprint is deterministic"
        );
        for (other, what) in [
            (
                plan_fingerprint(
                    &plan(16),
                    1,
                    1_000_000,
                    CostParams::paper(),
                    ValueSource::None,
                ),
                "buckets",
            ),
            (
                plan_fingerprint(
                    &plan(8),
                    2,
                    1_000_000,
                    CostParams::paper(),
                    ValueSource::None,
                ),
                "seed",
            ),
            (
                plan_fingerprint(&plan(8), 1, 500_000, CostParams::paper(), ValueSource::None),
                "epoch length",
            ),
            (
                plan_fingerprint(
                    &plan(8),
                    1,
                    1_000_000,
                    CostParams { c1: 1.0, c2: 60.0 },
                    ValueSource::None,
                ),
                "costs",
            ),
            (
                plan_fingerprint(
                    &plan(8),
                    1,
                    1_000_000,
                    CostParams::paper(),
                    ValueSource::Attr(3),
                ),
                "value source",
            ),
        ] {
            assert_ne!(base, other, "fingerprint must react to {what}");
        }
    }
}
