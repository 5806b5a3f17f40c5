//! Self-healing shard supervision: panic isolation, stuck-shard
//! detection, and live restart from epoch-aligned checkpoints.
//!
//! The sharded runtime used to propagate any shard panic straight
//! through `resume_unwind`, killing the whole deployment. This module
//! gives every shard a [`ShardDriver`] — the supervision loop its
//! worker thread runs instead of calling `Executor::run` directly:
//!
//! * **panic isolation** — the records between two decision points go
//!   to the executor as one [`RecordChunk`] inside one `catch_unwind`
//!   boundary (this file is the only place the engine is allowed to
//!   erect one; msa-lint rule R005 enforces the containment). A caught
//!   panic marks the shard *dead* and triggers a restart instead of an
//!   abort; a panic that escaped a multi-record range is first pinned
//!   to its record by replaying that range one record per chunk. When
//!   the feed closes, the commit the shard's last boundary handed to
//!   its store's writer is joined inside a boundary too, so a backend
//!   panic in it is absorbed here, not in `finish` or a hot swap.
//! * **restart from checkpoint** — a dead or stuck shard is rebuilt
//!   from its last epoch-aligned checkpoint ([`Executor::restart`]:
//!   its store's newest usable generation when one is attached, else
//!   its boundary mark) and its feed is replayed from a bounded replay
//!   buffer, so the resumed run is bit-identical to a fault-free one
//!   whenever the buffer still covers the checkpoint's record
//!   high-water mark. Replay is the only source of open-epoch state:
//!   the snapshot holds nothing past its boundary, so a buffer that
//!   cannot reach back loses whole records, never parts of them.
//! * **poison quarantine** — a record that deterministically kills its
//!   shard [`SupervisorPolicy::poison_threshold`] consecutive times is
//!   quarantined into a typed [`PoisonRecord`] report and counted in
//!   `RunReport::records_poisoned`; it is never silently dropped, and
//!   `count_bias` carries the exact per-query correction.
//! * **explicit degradation** — when the replay buffer no longer
//!   reaches back to the checkpoint (overrun), the unreplayable gap
//!   degrades through the overload-guard ledger
//!   (`records_shed`/`records_unreplayed`) with exact per-query bias
//!   bounds rather than aborting.
//! * **stuck detection** — a shard that stops making progress
//!   (an injected [`ShardFault::stall_at`], or anything that wedges the
//!   epoch loop between records) is declared *stuck* once
//!   [`SupervisorPolicy::stall_deadline`] further records arrive
//!   without progress, and restarted. The deadline is counted in
//!   **records received**, never wall-clock time — supervision
//!   decisions must be pure functions of the input stream (msa-lint
//!   rule D001 bans clocks from the engine), so two runs of the same
//!   stream take identical decisions at identical points. A thread
//!   wedged *inside* a single `offer_chunk` call cannot be observed
//!   from within; that residual case is what the CI hard timeout
//!   covers.
//!
//! Every decision point (panic index, stall onset, deadline expiry,
//! quarantine, buffer pruning) is keyed to record indices into the
//! shard's whole partition, counted across `run` calls,
//! which makes the whole state machine — healthy → dead/stuck →
//! restarting → quarantine/degraded — deterministic and therefore
//! testable bit-for-bit (see `tests/supervision.rs`).

use std::collections::VecDeque;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::executor::{Executor, ExecutorConfig};
use crate::faults::ShardFault;
use msa_stream::{AttrSet, Record, RecordChunk};

/// Supervision knobs. Everything is counted in shard-local records —
/// never wall-clock time — so supervised runs stay deterministic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SupervisorPolicy {
    /// Records that may arrive without the shard making progress before
    /// it is declared stuck and restarted.
    pub stall_deadline: u64,
    /// Consecutive times one record may kill the shard before it is
    /// quarantined as poison.
    pub poison_threshold: u32,
    /// Processed records kept in the replay buffer behind the
    /// consumption point. Restarts replay from the latest checkpoint;
    /// if the checkpoint has fallen more than this far behind, the
    /// uncovered gap degrades explicitly instead of aborting.
    pub replay_capacity: u64,
}

impl Default for SupervisorPolicy {
    fn default() -> SupervisorPolicy {
        SupervisorPolicy {
            stall_deadline: 1024,
            poison_threshold: 3,
            replay_capacity: 65_536,
        }
    }
}

impl SupervisorPolicy {
    /// Sets the stuck deadline (in records received without progress).
    pub fn with_stall_deadline(mut self, records: u64) -> SupervisorPolicy {
        self.stall_deadline = records;
        self
    }

    /// Sets how many consecutive kills quarantine a record.
    pub fn with_poison_threshold(mut self, times: u32) -> SupervisorPolicy {
        self.poison_threshold = times.max(1);
        self
    }

    /// Sets the replay-buffer bound (in processed records retained).
    pub fn with_replay_capacity(mut self, records: u64) -> SupervisorPolicy {
        self.replay_capacity = records;
        self
    }
}

/// Where a shard is in the supervision state machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum ShardState {
    /// Making progress.
    #[default]
    Healthy = 0,
    /// Stopped making progress; the stuck deadline is counting down.
    Stuck = 1,
    /// A panic boundary caught this shard dying.
    Dead = 2,
    /// Being rebuilt from its checkpoint and replayed.
    Restarting = 3,
    /// Feed closed; the shard's outputs are final.
    Done = 4,
}

impl ShardState {
    fn from_u8(v: u8) -> ShardState {
        match v {
            1 => ShardState::Stuck,
            2 => ShardState::Dead,
            3 => ShardState::Restarting,
            4 => ShardState::Done,
            _ => ShardState::Healthy,
        }
    }
}

/// The externally observable pulse of one shard: a progress counter and
/// the supervision state, published with relaxed atomics so the routing
/// thread (or an operator) can watch a live deployment without touching
/// determinism — heartbeats are observational; every supervision
/// *decision* is taken inside the shard's own deterministic loop.
#[derive(Debug, Default)]
pub struct ShardHeartbeat {
    processed: AtomicU64,
    state: AtomicU8,
}

impl ShardHeartbeat {
    /// Records processed so far (monotone within a run segment).
    pub fn processed(&self) -> u64 {
        self.processed.load(Ordering::Relaxed)
    }

    /// Last published supervision state.
    pub fn state(&self) -> ShardState {
        ShardState::from_u8(self.state.load(Ordering::Relaxed))
    }

    fn beat(&self, processed: u64) {
        self.processed.store(processed, Ordering::Relaxed);
    }

    /// Publishes a state change. `pub(crate)` so the hot-swap
    /// transaction ([`crate::shard::ShardedExecutor::hot_swap`]) can
    /// surface its quiesce/commit window on the same observable pulse
    /// supervision uses — heartbeats stay observational; every swap
    /// *decision* is record-counted inside the transaction itself.
    pub(crate) fn publish(&self, state: ShardState) {
        self.state.store(state as u8, Ordering::Relaxed);
    }
}

/// A quarantined poison record: it killed its shard
/// [`SupervisorPolicy::poison_threshold`] consecutive times and was
/// skipped. The report names exactly what was lost — the record, where
/// it sat in the shard's partition, and every query it would have fed —
/// and `RunReport::records_poisoned` carries the count into the bias
/// ledger, so quarantine is never a silent drop.
#[derive(Clone, Debug, PartialEq)]
pub struct PoisonRecord {
    /// Shard that quarantined it.
    pub shard: usize,
    /// Shard-local index in the partition.
    pub index: u64,
    /// The record itself.
    pub record: Record,
    /// Consecutive kills observed before quarantine.
    pub attempts: u32,
    /// The queries this record would have contributed one count to.
    pub queries: Vec<AttrSet>,
}

/// Per-shard supervision outcome, collected when the feed closes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardHealth {
    /// Final supervision state.
    pub state: ShardState,
    /// Restarts performed (panic- or stall-triggered).
    pub restarts: u64,
    /// Panics the boundary caught.
    pub panics_caught: u64,
    /// Times the stuck deadline fired.
    pub stalls_detected: u64,
    /// Records re-processed from the replay buffer across all restarts
    /// (the records-to-recover MTTR proxy the recovery bench reports).
    pub records_replayed: u64,
    /// Records lost to replay-buffer overruns (degraded explicitly
    /// through the shed ledger).
    pub records_unreplayed: u64,
    /// Quarantined poison records, in quarantine order.
    pub poisoned: Vec<PoisonRecord>,
}

impl ShardHealth {
    /// Folds a later run segment's outcome into this one.
    ///
    /// Exhaustive destructure on purpose: a new health counter that is
    /// not folded here would silently vanish from merged reports — and
    /// from the loss accounting the bounds subsystem derives intervals
    /// from — so it must be a compile error instead.
    pub fn absorb(&mut self, other: &ShardHealth) {
        let ShardHealth {
            state,
            restarts,
            panics_caught,
            stalls_detected,
            records_replayed,
            records_unreplayed,
            poisoned,
        } = other;
        self.state = *state;
        self.restarts += restarts;
        self.panics_caught += panics_caught;
        self.stalls_detected += stalls_detected;
        self.records_replayed += records_replayed;
        self.records_unreplayed += records_unreplayed;
        self.poisoned.extend(poisoned.iter().cloned());
    }
}

/// Typed payload of an injected shard panic, so the quiet panic hook
/// can tell drills from real bugs: injected deaths unwind silently,
/// anything else still prints through the previous hook.
struct InjectedShardPanic;

static QUIET_HOOK: std::sync::Once = std::sync::Once::new();

fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info
                .payload()
                .downcast_ref::<InjectedShardPanic>()
                .is_none()
            {
                prev(info);
            }
        }));
    });
}

/// The supervision loop one shard worker runs: a panic boundary, a
/// bounded replay buffer, the stall/poison state machine, and restart
/// from checkpoint. Single-threaded per shard; all inputs arrive via
/// [`ShardDriver::offer_chunk`] in partition order, so every decision
/// is a pure function of the shard's record stream.
pub(crate) struct ShardDriver {
    shard: usize,
    cfg: ExecutorConfig,
    ex: Executor,
    fault: ShardFault,
    policy: SupervisorPolicy,
    heartbeat: std::sync::Arc<ShardHeartbeat>,
    queries: Vec<AttrSet>,
    /// Replay buffer: the chunks received, whole, in partition order.
    /// The front chunk starts at record `chunk_start`.
    buf: VecDeque<RecordChunk>,
    chunk_start: u64,
    /// Replay floor: records below it are never replayed again. A
    /// record index, so it may fall inside the front chunk.
    buf_start: u64,
    /// Partition records fed so far, counted across `run` calls.
    received: u64,
    /// Partition index of the next record to process. Invariant for a
    /// healthy shard: equals `ex.report().records` (poison and gap
    /// absorption keep it in step).
    consumed: u64,
    /// Injected-panic fuse: firings left.
    panic_fires_left: u32,
    /// Consecutive-kill tracking for the poison verdict.
    last_panic_index: Option<u64>,
    panic_attempts: u32,
    /// Stall state: currently stalled, and whether the armed stall has
    /// already been handled (stalls fire once).
    stalled: bool,
    stall_handled: bool,
    /// A panic escaped a multi-record range ending here: records below
    /// it are offered one per chunk, so the replay pins the death to
    /// its exact index before the poison verdict counts it.
    pinned_until: u64,
    /// The executor's `records_unreplayed` when this driver took over,
    /// so `close` reports only this segment's gaps.
    unreplayed_base: u64,
    health: ShardHealth,
}

impl ShardDriver {
    /// Takes over `ex` mid-partition: every index continues from the
    /// records the executor has already seen, so fault fuses and
    /// quarantine indices count the shard's whole partition across
    /// `run` calls, as crash fuses do.
    pub(crate) fn new(
        shard: usize,
        cfg: ExecutorConfig,
        ex: Executor,
        fault: ShardFault,
        policy: SupervisorPolicy,
        heartbeat: std::sync::Arc<ShardHeartbeat>,
    ) -> ShardDriver {
        install_quiet_hook();
        heartbeat.publish(ShardState::Healthy);
        let queries = cfg.plan.query_attrs();
        let seen = ex.report().records;
        let unreplayed_base = ex.report().records_unreplayed;
        ShardDriver {
            shard,
            cfg,
            ex,
            fault,
            policy,
            heartbeat,
            queries,
            buf: VecDeque::new(),
            chunk_start: seen,
            buf_start: seen,
            received: seen,
            consumed: seen,
            panic_fires_left: if fault.panic_at_record.is_some() {
                fault.panic_times.max(1)
            } else {
                0
            },
            last_panic_index: None,
            panic_attempts: 0,
            stalled: false,
            stall_handled: false,
            pinned_until: 0,
            unreplayed_base,
            health: ShardHealth::default(),
        }
    }

    /// Feeds the next columnar chunk of the shard's partition, then
    /// pumps the supervision loop as far as it can go.
    pub(crate) fn offer_chunk(&mut self, chunk: RecordChunk) {
        self.received += chunk.len() as u64;
        if !self.ex.has_crashed() && !chunk.is_empty() {
            // A crash-fuse "dead process" never consumes its feed;
            // counting (not storing) its backlog keeps memory flat and
            // lets `close` account the in-flight loss exactly.
            self.buf.push_back(chunk);
        }
        self.check_stall();
        self.pump();
    }

    /// Feed closed: resolve any open stall (the deadline authority —
    /// end of stream means no further records can un-stick the shard),
    /// drain what remains, account shutdown loss for a crash-fuse dead
    /// process, and hand back the executor with the health ledger.
    pub(crate) fn close(mut self) -> (Executor, ShardHealth) {
        if self.stalled {
            self.declare_stuck();
        }
        self.pump();
        self.land_commit();
        if self.ex.has_crashed() {
            let lost = self.received.saturating_sub(self.ex.report().records);
            self.ex.absorb_shutdown_loss(lost);
        }
        self.heartbeat.publish(ShardState::Done);
        self.health.state = ShardState::Done;
        self.health.records_unreplayed = self
            .ex
            .report()
            .records_unreplayed
            .saturating_sub(self.unreplayed_base);
        (self.ex, self.health)
    }

    /// Processes everything available, stopping at a stall or a
    /// crash-fuse death (which supervision deliberately leaves for
    /// manual recovery — `CrashPlan` models a dead *process*, not a
    /// dead thread). The records up to the next decision point go to
    /// the executor as one chunk inside one panic boundary; decisions
    /// (quarantine, stall onset, injected panic) are taken at their
    /// exact record index between ranges.
    fn pump(&mut self) {
        while !self.stalled && !self.ex.has_crashed() && self.consumed < self.received {
            let i = self.consumed;
            if self.is_poisoned(i) {
                // Quarantined: skip, but account — replay after a later
                // restart re-applies this deterministically.
                self.ex.absorb_poisoned();
                self.consumed += 1;
                self.prune();
                continue;
            }
            if !self.stall_handled && self.fault.stall_at_record == Some(i) {
                self.stalled = true;
                self.heartbeat.publish(ShardState::Stuck);
                self.check_stall();
                continue;
            }
            let injected = self.panic_fires_left > 0 && self.fault.panic_at_record == Some(i);
            let Some((chunk, from)) = locate(&self.buf, self.chunk_start, i) else {
                return;
            };
            let whole = chunk_end(chunk, from);
            let end = if injected {
                i + 1
            } else {
                whole.min(self.next_decision(i))
            };
            // Offer the received chunk itself unless a decision point or
            // a replay point cuts it.
            let cut: RecordChunk;
            let range = if i == from && end == whole {
                chunk
            } else {
                let lanes = lane(i - from)..lane(end - from);
                cut = lanes.filter_map(|l| chunk.get(l)).collect();
                &cut
            };
            let before = self.ex.report().records;
            let ex = &mut self.ex;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if injected {
                    // Raise the injected death inside the same boundary
                    // a real one would hit.
                    panic_any(InjectedShardPanic);
                }
                ex.offer_chunk(range);
            }));
            match outcome {
                Ok(()) => {
                    let processed = self.ex.report().records.saturating_sub(before);
                    self.consumed += processed;
                    self.heartbeat.beat(self.consumed);
                    self.prune();
                }
                Err(_) => match range.get(0) {
                    Some(record) if end == i + 1 => self.on_panic(i, record),
                    _ => {
                        // A real panic escaped a multi-record range:
                        // restart, then replay up to its end one record
                        // per chunk, so the death lands on its exact
                        // index before the poison verdict counts it.
                        self.heartbeat.publish(ShardState::Dead);
                        self.health.panics_caught += 1;
                        self.pinned_until = end;
                        self.restart();
                    }
                },
            }
        }
    }

    /// Joins the commit the shard's last boundary handed to its store's
    /// writer inside a panic boundary, so no executor leaves supervision
    /// with a commit in flight. A backend panic raised at this join is
    /// charged to the record whose offer crossed that boundary: the
    /// shard restarts from its checkpoint, replays, and joins again, and
    /// a record that keeps killing it is quarantined like any other.
    /// Once that record has left the replay buffer a restart could only
    /// lose records, so the commit is given up instead: the panic struck
    /// the writer's thread, the executor is whole, and its next commit
    /// covers the lost one's results.
    fn land_commit(&mut self) {
        while let Some(at) = self.ex.in_flight_records() {
            let ex = &mut self.ex;
            if catch_unwind(AssertUnwindSafe(|| ex.join_commit())).is_ok() {
                continue;
            }
            let record = locate(&self.buf, self.chunk_start, at)
                .filter(|_| at >= self.buf_start)
                .and_then(|(chunk, from)| chunk.get(lane(at - from)));
            let Some(record) = record else {
                self.health.panics_caught += 1;
                return;
            };
            self.on_panic(at, record);
            self.pump();
        }
    }

    /// The first index after `i` where supervision must decide
    /// something: a quarantined record, the armed stall, the armed
    /// panic, or — while pinned — the very next record.
    fn next_decision(&self, i: u64) -> u64 {
        if i < self.pinned_until {
            return i + 1;
        }
        let armed = [
            self.fault.stall_at_record.filter(|_| !self.stall_handled),
            self.fault
                .panic_at_record
                .filter(|_| self.panic_fires_left > 0),
        ];
        self.health
            .poisoned
            .iter()
            .map(|p| Some(p.index))
            .chain(armed)
            .flatten()
            .filter(|&at| at > i)
            .min()
            .unwrap_or(u64::MAX)
    }

    fn is_poisoned(&self, i: u64) -> bool {
        self.health.poisoned.iter().any(|p| p.index == i)
    }

    /// A panic escaped the one-record range at partition index `i` (or
    /// the injected fuse fired there): track consecutive kills,
    /// quarantine `record` at the threshold, and restart from the
    /// checkpoint either way.
    fn on_panic(&mut self, i: u64, record: Record) {
        self.heartbeat.publish(ShardState::Dead);
        self.health.panics_caught += 1;
        if self.fault.panic_at_record == Some(i) && self.panic_fires_left > 0 {
            self.panic_fires_left -= 1;
        }
        if self.last_panic_index == Some(i) {
            self.panic_attempts += 1;
        } else {
            self.last_panic_index = Some(i);
            self.panic_attempts = 1;
        }
        if self.panic_attempts >= self.policy.poison_threshold {
            self.health.poisoned.push(PoisonRecord {
                shard: self.shard,
                index: i,
                record,
                attempts: self.panic_attempts,
                queries: self.queries.clone(),
            });
            self.last_panic_index = None;
            self.panic_attempts = 0;
        }
        self.restart();
    }

    /// The stall arbiter. Both thresholds are anchored at the stalled
    /// record's own index — a pure stream position — never at queue
    /// depth or arrival timing, so the verdict (self-resume vs. stuck)
    /// and its firing point are identical across runs.
    fn check_stall(&mut self) {
        if !self.stalled {
            return;
        }
        let s = self.fault.stall_at_record.unwrap_or(0);
        if self.fault.stall_records <= self.policy.stall_deadline {
            // The stall clears on its own before the deadline.
            if self.received >= s.saturating_add(self.fault.stall_records) {
                self.stalled = false;
                self.stall_handled = true;
                self.heartbeat.publish(ShardState::Healthy);
            }
        } else if self.received >= s.saturating_add(self.policy.stall_deadline) {
            self.declare_stuck();
        }
    }

    /// Deadline expired (or the feed closed mid-stall): the shard is
    /// stuck; restart it from its checkpoint.
    fn declare_stuck(&mut self) {
        self.health.stalls_detected += 1;
        self.stalled = false;
        self.stall_handled = true;
        self.restart();
    }

    /// Rebuilds the shard from its latest epoch-aligned checkpoint
    /// ([`Executor::restart`]) and rewinds consumption to replay the
    /// tail from the buffer. Where the buffer no longer reaches the
    /// checkpoint, the gap is absorbed as explicit degradation instead
    /// of aborting.
    fn restart(&mut self) {
        self.heartbeat.publish(ShardState::Restarting);
        self.health.restarts += 1;
        let (mut ex, hwm, fallbacks) = self.ex.restart(&self.cfg);
        ex.note_restart();
        let resume = hwm.max(self.buf_start);
        let gap = self.buf_start.saturating_sub(hwm);
        if fallbacks > 0 {
            // The gap exists because the restart had to fall back past
            // an unusable newer checkpoint: the records are lost to
            // staleness, not buffer overrun, and the bounds ledger
            // accounts them under the distinct stale-fallback class.
            ex.absorb_stale_loss(gap);
        } else {
            ex.absorb_replay_gap(gap);
        }
        self.health.records_replayed += self.consumed.saturating_sub(resume);
        self.consumed = resume;
        self.ex = ex;
        self.heartbeat.publish(ShardState::Healthy);
    }

    /// Advances the replay buffer's floor: nothing below the high-water
    /// mark a restart resumes from ([`Executor::checkpoint_position`])
    /// is ever replayed again, and the processed prefix behind the
    /// consumption point is bounded by
    /// [`SupervisorPolicy::replay_capacity`]. The floor is exact in
    /// records; only whole chunks below it leave the buffer.
    fn prune(&mut self) {
        let hwm = self.ex.checkpoint_position().map_or(0, |(_, hwm)| hwm);
        let floor = hwm
            .max(self.consumed.saturating_sub(self.policy.replay_capacity))
            .min(self.consumed);
        self.buf_start = self.buf_start.max(floor);
        while let Some(front) = self.buf.front() {
            let end = chunk_end(front, self.chunk_start);
            if end > self.buf_start {
                break;
            }
            self.chunk_start = end;
            self.buf.pop_front();
        }
    }
}

/// The chunk of `buf` (whose front chunk starts at record `from`)
/// holding record `i`, and the index of its first record.
fn locate(buf: &VecDeque<RecordChunk>, mut from: u64, i: u64) -> Option<(&RecordChunk, u64)> {
    for chunk in buf {
        let end = chunk_end(chunk, from);
        if i < end {
            return Some((chunk, from));
        }
        from = end;
    }
    None
}

/// Index one past the last record of `chunk`, which starts at `from`.
fn chunk_end(chunk: &RecordChunk, from: u64) -> u64 {
    from + chunk.len() as u64
}

/// A within-chunk offset as a lane index (chunks hold far fewer than
/// `usize::MAX` lanes).
fn lane(offset: u64) -> usize {
    usize::try_from(offset).unwrap_or(usize::MAX)
}
