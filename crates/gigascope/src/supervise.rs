//! Self-healing shard supervision: panic isolation, stuck-shard
//! detection, and live restart from epoch-aligned checkpoints.
//!
//! The sharded runtime used to propagate any shard panic straight
//! through `resume_unwind`, killing the whole deployment. This module
//! gives every shard a [`ShardDriver`] — the supervision loop its
//! worker thread runs instead of calling `Executor::run` directly:
//!
//! * **panic isolation** — each record is processed inside a
//!   `catch_unwind` boundary (this file is the only place the engine
//!   is allowed to erect one; msa-lint rule R005 enforces the
//!   containment). A caught panic marks the shard *dead* and triggers
//!   a restart instead of an abort.
//! * **restart from checkpoint** — a dead or stuck shard is rebuilt
//!   from its last epoch-aligned snapshot ([`Executor::recover`]) and
//!   its feed is replayed from a bounded replay buffer, so the resumed
//!   run is bit-identical to a fault-free one whenever the buffer still
//!   covers the checkpoint's record high-water mark. Replay is the only
//!   source of open-epoch state: the snapshot holds nothing past its
//!   boundary, so a buffer that cannot reach back loses whole records,
//!   never parts of them.
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
//!   wedged *inside* a single `process` call cannot be observed from
//!   within; that residual case is what the CI hard timeout covers.
//!
//! Every decision point (panic index, stall onset, deadline expiry,
//! quarantine, buffer pruning) is keyed to shard-local record indices,
//! which makes the whole state machine — healthy → dead/stuck →
//! restarting → quarantine/degraded — deterministic and therefore
//! testable bit-for-bit (see `tests/supervision.rs`).

use std::collections::VecDeque;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::executor::{Executor, ExecutorConfig};
use crate::faults::ShardFault;
use crate::store::StoreHandle;
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
/// [`ShardDriver::offer`] in partition order, so every decision is a
/// pure function of the shard's record stream.
pub(crate) struct ShardDriver {
    shard: usize,
    cfg: ExecutorConfig,
    ex: Executor,
    fault: ShardFault,
    policy: SupervisorPolicy,
    heartbeat: std::sync::Arc<ShardHeartbeat>,
    /// The shard's durable store, when one is attached: restarts then
    /// recover from persisted generations (with fallback) instead of
    /// the executor's in-memory checkpoint.
    store: Option<StoreHandle>,
    queries: Vec<AttrSet>,
    /// Replay buffer holding shard-local records `[buf_start, received)`.
    buf: VecDeque<Record>,
    buf_start: u64,
    /// Shard-local records fed so far.
    received: u64,
    /// Shard-local index of the next record to process. Invariant for a
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
    /// A real panic escaped the vectorized probe: stay on the
    /// per-record pump from here on, so the replay re-hits the death
    /// at its exact record index.
    scalar_fallback: bool,
    health: ShardHealth,
}

impl ShardDriver {
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
        let store = ex.store_handle();
        ShardDriver {
            shard,
            cfg,
            ex,
            fault,
            policy,
            heartbeat,
            store,
            queries,
            buf: VecDeque::new(),
            buf_start: 0,
            received: 0,
            consumed: 0,
            panic_fires_left: if fault.panic_at_record.is_some() {
                fault.panic_times.max(1)
            } else {
                0
            },
            last_panic_index: None,
            panic_attempts: 0,
            stalled: false,
            stall_handled: false,
            scalar_fallback: false,
            health: ShardHealth::default(),
        }
    }

    /// Feeds one batch of the shard's partition, in order, then pumps
    /// the supervision loop as far as it can go.
    pub(crate) fn offer(&mut self, batch: &[Record]) {
        for &r in batch {
            self.received += 1;
            if !self.ex.has_crashed() {
                // A crash-fuse "dead process" never consumes its feed;
                // counting (not storing) its backlog keeps memory flat
                // and lets `close` account the in-flight loss exactly.
                self.buf.push_back(r);
            }
        }
        self.check_stall();
        self.pump();
    }

    /// Feeds one columnar chunk of the shard's partition, in order,
    /// then pumps. When no supervision drill is armed and nothing has
    /// ever been quarantined, the backlog drains through the
    /// executor's vectorized probe in one pass; any complication — an
    /// armed [`ShardFault`], a prior quarantine, an open stall, a
    /// panic that escaped the chunked boundary — falls back to the
    /// per-record pump, whose every decision is keyed to an exact
    /// record index and therefore bit-identical to scalar supervision.
    pub(crate) fn offer_chunk(&mut self, chunk: &RecordChunk) {
        for i in 0..chunk.len() {
            self.received += 1;
            if !self.ex.has_crashed() {
                if let Some(r) = chunk.get(i) {
                    self.buf.push_back(r);
                }
            }
        }
        self.check_stall();
        if self.chunked_eligible() {
            self.pump_chunked();
        } else {
            self.pump();
        }
    }

    /// The vectorized pump is only sound while supervision has nothing
    /// to attribute per record: no armed drill, no quarantine history,
    /// no open stall, no prior escaped panic.
    fn chunked_eligible(&self) -> bool {
        self.fault.is_none()
            && !self.scalar_fallback
            && !self.stalled
            && self.health.poisoned.is_empty()
    }

    /// Drains the backlog through [`Executor::offer_chunk`], one panic
    /// boundary per pending range.
    fn pump_chunked(&mut self) {
        while !self.ex.has_crashed() && self.consumed < self.received {
            let start =
                usize::try_from(self.consumed.saturating_sub(self.buf_start)).unwrap_or(usize::MAX);
            let pending: RecordChunk = self.buf.iter().skip(start).copied().collect();
            if pending.is_empty() {
                return;
            }
            let before = self.ex.report().records;
            let ex = &mut self.ex;
            let outcome = catch_unwind(AssertUnwindSafe(|| ex.offer_chunk(&pending)));
            match outcome {
                Ok(()) => {
                    let processed = self.ex.report().records.saturating_sub(before);
                    self.consumed += processed;
                    self.heartbeat.beat(self.consumed);
                    self.prune();
                    if processed == 0 {
                        // A crash fuse fired before the first lane (the
                        // `has_crashed` guard exits the loop), or the
                        // chunk was consumed without progress — never
                        // spin either way.
                        return;
                    }
                }
                Err(_) => {
                    // A real panic escaped the vectorized probe: restart
                    // from the checkpoint and replay per record, which
                    // re-hits the death at its exact index and runs the
                    // normal poison state machine from there.
                    self.heartbeat.publish(ShardState::Dead);
                    self.health.panics_caught += 1;
                    self.scalar_fallback = true;
                    self.restart();
                    self.pump();
                    return;
                }
            }
        }
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
        if self.ex.has_crashed() {
            let lost = self.received.saturating_sub(self.ex.report().records);
            self.ex.absorb_shutdown_loss(lost);
        }
        self.heartbeat.publish(ShardState::Done);
        self.health.state = ShardState::Done;
        self.health.records_unreplayed = self.ex.report().records_unreplayed;
        (self.ex, self.health)
    }

    /// Processes everything available, stopping at a stall or a
    /// crash-fuse death (which supervision deliberately leaves for
    /// manual recovery — `CrashPlan` models a dead *process*, not a
    /// dead thread).
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
            let outcome = if self.panic_fires_left > 0 && self.fault.panic_at_record == Some(i) {
                // Raise the injected death inside the same boundary a
                // real one would hit.
                catch_unwind(|| panic_any(InjectedShardPanic))
            } else {
                let rec = self.buf[(i - self.buf_start) as usize];
                let ex = &mut self.ex;
                catch_unwind(AssertUnwindSafe(|| ex.process(&rec)))
            };
            match outcome {
                Ok(()) => {
                    self.consumed += 1;
                    self.heartbeat.beat(self.consumed);
                    self.prune();
                }
                Err(_) => self.on_panic(i),
            }
        }
    }

    fn is_poisoned(&self, i: u64) -> bool {
        self.health.poisoned.iter().any(|p| p.index == i)
    }

    /// A panic escaped `process` (or the injected fuse fired) at
    /// shard-local index `i`: track consecutive kills, quarantine at
    /// the threshold, and restart from the checkpoint either way.
    fn on_panic(&mut self, i: u64) {
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
            let record = self.buf[(i - self.buf_start) as usize];
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

    /// Rebuilds the shard from its latest epoch-aligned snapshot and
    /// rewinds consumption to replay the tail from the buffer. Where the
    /// buffer no longer reaches the checkpoint, the gap is absorbed as
    /// explicit degradation instead of aborting.
    fn restart(&mut self) {
        self.heartbeat.publish(ShardState::Restarting);
        self.health.restarts += 1;
        let (mut ex, hwm, stale) = match &self.store {
            Some(store) => self.restart_from_store(store.clone()),
            None => {
                let (ex, hwm) = self.restart_in_memory();
                (ex, hwm, false)
            }
        };
        ex.note_restart();
        let resume = hwm.max(self.buf_start);
        let gap = self.buf_start.saturating_sub(hwm);
        if stale {
            // The gap exists because recovery had to fall back past an
            // unreadable newer generation: the records are lost to
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

    /// Store-first restart: recover from the newest readable durable
    /// generation, degrading to older ones (quarantining corrupt
    /// candidates) as [`StoreHandle::recover_executor`] dictates.
    /// Returns `(executor, hwm, stale)` where `stale` reports whether
    /// any fallback happened — it decides which loss class an
    /// uncovered replay gap lands in.
    fn restart_from_store(&self, store: StoreHandle) -> (Executor, u64, bool) {
        let recovery = store.recover_executor(&self.cfg);
        let stale = recovery.fallbacks > 0;
        match recovery.executor {
            Some(ex) => (ex, recovery.records_hwm, stale),
            // Nothing durable was readable: start fresh with the store
            // re-attached so a genesis checkpoint re-seeds durability.
            None => (self.cfg.build().with_store(store), 0, stale),
        }
    }

    /// In-memory restart from the dead executor's last checkpoint.
    fn restart_in_memory(&self) -> (Executor, u64) {
        match self.ex.latest_snapshot() {
            Some(snap) => match self.cfg.build().recover(snap) {
                Ok(ex) => (ex, snap.records_hwm),
                // A mismatched checkpoint never aborts a supervised
                // shard: fall back to a fresh build and replay what the
                // buffer still holds.
                Err(_) => (self.cfg.build(), 0),
            },
            None => (self.cfg.build(), 0),
        }
    }

    /// Advances the replay buffer's floor: nothing below the latest
    /// checkpoint's high-water mark is ever replayed again, and the
    /// processed prefix behind the consumption point is bounded by
    /// [`SupervisorPolicy::replay_capacity`].
    fn prune(&mut self) {
        let hwm = self.ex.latest_snapshot().map_or(0, |snap| snap.records_hwm);
        let floor = hwm
            .max(self.consumed.saturating_sub(self.policy.replay_capacity))
            .min(self.consumed);
        while self.buf_start < floor {
            self.buf.pop_front();
            self.buf_start += 1;
        }
    }
}
