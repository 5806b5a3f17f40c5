//! Deterministic fault-injection plans for chaos testing the pipeline.
//!
//! A [`FaultPlan`] bundles every disturbance the test harness can
//! inject, all derived from one seed so a failing run replays exactly:
//!
//! * **eviction loss / duplication** — applied inside the
//!   [`EvictionChannel`](crate::channel::EvictionChannel) on the
//!   LFTA → HFTA hop;
//! * **record bursts** — a window of epochs in which every record is
//!   replicated `amplification`×, modelling a traffic spike at the
//!   planned group distribution;
//! * **epoch-clock skew** — a constant shift of every record timestamp,
//!   modelling a NIC clock that disagrees with the host clock;
//! * **crashes** — a [`CrashPlan`] kills the executor at a precise
//!   record index or after a precise number of eviction offers (which
//!   can land mid-flush), so the checkpoint/recovery path
//!   ([`Executor::recover`](crate::Executor::recover)) can be exercised
//!   at any point of the pipeline.
//!
//! Channel faults are wired into an executor with
//! [`Executor::with_faults`](crate::Executor::with_faults); stream
//! faults are applied up front with [`FaultPlan::apply_to_stream`];
//! crashes are armed with
//! [`Executor::with_crash`](crate::Executor::with_crash).

use crate::channel::ChannelFaults;
use msa_stream::Record;

/// A burst window: epochs `[start_epoch, start_epoch + epochs)` see
/// every record `amplification` times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Burst {
    /// First amplified epoch (by record timestamp / epoch length).
    pub start_epoch: u64,
    /// Number of amplified epochs.
    pub epochs: u64,
    /// Replication factor (1 = no burst).
    pub amplification: u32,
    /// When false, extra copies are exact replicas — a pure *rate*
    /// burst that stresses intra-epoch maintenance but leaves table
    /// occupancy (and therefore flush cost) unchanged. When true, each
    /// extra copy gets deterministically perturbed attributes — new
    /// groups, modelling a DoS-style flood of fresh flows that blows up
    /// occupancy and the end-of-epoch flush as well.
    pub fresh_groups: bool,
}

/// A declarative crash point: the executor halts *as if the process
/// died* — no flush, no epoch close, no farewell snapshot — leaving
/// only the last boundary snapshot for
/// [`Executor::recover`](crate::Executor::recover).
///
/// Both fuses count *absolute* positions (record index since run start,
/// eviction offers since run start), so a crash point measured on a
/// fault-free baseline run lands at the identical pipeline state when
/// replayed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrashPlan {
    /// Crash before processing the record with this 0-based index
    /// (`Some(0)` dies before the first record).
    pub at_record: Option<u64>,
    /// Crash after this many LFTA → HFTA eviction offers, i.e. right
    /// before offer `n + 1`. Offers happen both intra-epoch and inside
    /// the end-of-epoch scan, so a fuse between two boundary counts
    /// lands **mid-flush**.
    pub after_offers: Option<u64>,
}

impl CrashPlan {
    /// No crash.
    pub fn none() -> CrashPlan {
        CrashPlan::default()
    }

    /// Crash before processing record `index` (0-based).
    pub fn at_record(index: u64) -> CrashPlan {
        CrashPlan {
            at_record: Some(index),
            after_offers: None,
        }
    }

    /// Crash after `offers` eviction offers (before offer `offers + 1`).
    pub fn after_offers(offers: u64) -> CrashPlan {
        CrashPlan {
            at_record: None,
            after_offers: Some(offers),
        }
    }

    /// True if no fuse is armed.
    pub fn is_none(&self) -> bool {
        self.at_record.is_none() && self.after_offers.is_none()
    }
}

/// A declarative shard-level fault: the disturbances the shard
/// supervisor ([`crate::supervise`]) must absorb without aborting the
/// deployment. Both fuses count **shard-local** record indices (the
/// position in the shard's own partition), so a fault measured on a
/// baseline run lands at the identical pipeline state when replayed.
///
/// * **panic** — the shard thread panics right before processing the
///   record at `panic_at_record`, `panic_times` consecutive times. One
///   firing models a transient fault (the supervisor restarts the shard
///   from its checkpoint and replay makes the run bit-identical to a
///   fault-free one); firings at or above the supervisor's poison
///   threshold model a poison record, which gets quarantined.
/// * **stall** — upon reaching `stall_at_record` the shard stops making
///   progress while input keeps arriving. It resumes on its own after
///   `stall_records` further records have been fed, unless the
///   supervisor's stuck deadline expires first and restarts it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardFault {
    /// Panic before processing the shard-local record with this index.
    pub panic_at_record: Option<u64>,
    /// Consecutive times the panic fires before clearing (0 is
    /// normalized to 1 when a panic fuse is armed).
    pub panic_times: u32,
    /// Stop making progress upon reaching this shard-local record index.
    pub stall_at_record: Option<u64>,
    /// Records that must arrive while stalled before the shard resumes
    /// on its own.
    pub stall_records: u64,
}

impl ShardFault {
    /// No shard fault.
    pub fn none() -> ShardFault {
        ShardFault::default()
    }

    /// A transient panic: the shard dies once, right before processing
    /// shard-local record `index`.
    pub fn panic_at(index: u64) -> ShardFault {
        ShardFault {
            panic_at_record: Some(index),
            panic_times: 1,
            ..ShardFault::default()
        }
    }

    /// A deterministic killer: the panic at `index` re-fires `times`
    /// consecutive times — at or above the supervisor's poison
    /// threshold this models a poison record.
    pub fn panic_repeating(index: u64, times: u32) -> ShardFault {
        ShardFault {
            panic_at_record: Some(index),
            panic_times: times.max(1),
            ..ShardFault::default()
        }
    }

    /// A stall: the shard stops at shard-local record `index` and
    /// resumes only after `records` further records have arrived (or
    /// the supervisor restarts it, whichever the deadline decides).
    pub fn stall_at(index: u64, records: u64) -> ShardFault {
        ShardFault {
            stall_at_record: Some(index),
            stall_records: records,
            ..ShardFault::default()
        }
    }

    /// True if no fault is armed.
    pub fn is_none(&self) -> bool {
        self.panic_at_record.is_none() && self.stall_at_record.is_none()
    }
}

/// A seeded, declarative fault-injection plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for every random decision the plan induces.
    pub seed: u64,
    /// Probability an LFTA → HFTA eviction is lost.
    pub eviction_loss: f64,
    /// Probability an eviction is delivered twice.
    pub eviction_duplication: f64,
    /// Optional record burst.
    pub burst: Option<Burst>,
    /// Constant timestamp shift in microseconds (negative = clock
    /// behind; timestamps saturate at 0).
    pub clock_skew_micros: i64,
}

impl FaultPlan {
    /// A no-op plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            eviction_loss: 0.0,
            eviction_duplication: 0.0,
            burst: None,
            clock_skew_micros: 0,
        }
    }

    /// Sets the eviction loss probability.
    pub fn with_eviction_loss(mut self, p: f64) -> FaultPlan {
        self.eviction_loss = p;
        self
    }

    /// Sets the eviction duplication probability.
    pub fn with_eviction_duplication(mut self, p: f64) -> FaultPlan {
        self.eviction_duplication = p;
        self
    }

    /// Adds a record burst.
    pub fn with_burst(mut self, burst: Burst) -> FaultPlan {
        self.burst = Some(burst);
        self
    }

    /// Adds a constant epoch-clock skew.
    pub fn with_clock_skew(mut self, micros: i64) -> FaultPlan {
        self.clock_skew_micros = micros;
        self
    }

    /// The channel-level faults of this plan.
    pub fn channel_faults(&self) -> ChannelFaults {
        ChannelFaults {
            loss_rate: self.eviction_loss,
            duplicate_rate: self.eviction_duplication,
        }
    }

    /// Applies the stream-level faults (clock skew, then burst windows
    /// judged on the skewed timestamps) to `records`, producing the
    /// disturbed stream an executor should actually see.
    pub fn apply_to_stream(&self, records: &[Record], epoch_micros: u64) -> Vec<Record> {
        let epoch_micros = epoch_micros.max(1);
        let mut out = Vec::with_capacity(records.len());
        for r in records {
            let ts = if self.clock_skew_micros >= 0 {
                r.ts_micros.saturating_add(self.clock_skew_micros as u64)
            } else {
                r.ts_micros
                    .saturating_sub(self.clock_skew_micros.unsigned_abs())
            };
            let rec = Record {
                attrs: r.attrs,
                ts_micros: ts,
            };
            let (copies, fresh) = match self.burst {
                Some(b) => {
                    let epoch = ts / epoch_micros;
                    if epoch >= b.start_epoch && epoch < b.start_epoch + b.epochs {
                        (b.amplification.max(1), b.fresh_groups)
                    } else {
                        (1, false)
                    }
                }
                None => (1, false),
            };
            out.push(rec);
            for j in 1..copies {
                let mut copy = rec;
                if fresh {
                    // Deterministic per-copy perturbation: each extra
                    // copy lands in a group no organic record occupies,
                    // seeded from the plan so a failing run replays.
                    let salt = self
                        .seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(u64::from(j)) as u32;
                    for a in &mut copy.attrs {
                        *a = a
                            .wrapping_mul(2_654_435_761)
                            .wrapping_add(salt)
                            .wrapping_add(j)
                            | 0x8000_0000;
                    }
                }
                out.push(copy);
            }
        }
        out
    }
}

/// Which nonstationarity a [`DriftPlan`] injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriftKind {
    /// A share of the traffic concentrates on a small hot set of
    /// groups whose identity migrates every `period_epochs` — group
    /// popularity skew that moves. Concentration shrinks the effective
    /// cardinality (and collision rates) the plan was sized for; every
    /// migration shifts *which* groups are hot.
    HotspotMigration {
        /// Percent of records redirected to the hot set (0–100).
        share_pct: u32,
        /// Epochs between hot-set migrations.
        period_epochs: u64,
    },
    /// Attribute `attr`'s value space multiplies progressively across
    /// the window, reaching ≈ `factor`× its organic cardinality by the
    /// window's end — the group-count blowup that invalidates a plan's
    /// space allocation.
    CardinalityRamp {
        /// 0-based attribute column to inflate.
        attr: usize,
        /// Cardinality multiplier at the end of the window.
        factor: u32,
    },
    /// Attribute columns rotate left by `rotation` positions inside the
    /// window: the value distribution each grouping attribute sees is
    /// suddenly another attribute's — the query-mix shift where the
    /// *per-query* load changes while the total stream does not.
    QueryMixShift {
        /// Left-rotation distance (mod the record's attribute count).
        rotation: u32,
    },
}

/// A seeded, declarative nonstationary-drift injector: rewrites the
/// records of epochs `[start_epoch, start_epoch + epochs)` per its
/// [`DriftKind`], leaving everything outside the window untouched.
/// Purely a stream transform — apply before feeding the runtime — and
/// deterministic in `(seed, kind, window, input)`, so drifting runs
/// keep the repo's two-run bit-identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DriftPlan {
    /// Seed for every synthetic value the injector fabricates.
    pub seed: u64,
    /// The nonstationarity to inject.
    pub kind: DriftKind,
    /// First drifted epoch (by record timestamp / epoch length).
    pub start_epoch: u64,
    /// Number of drifted epochs.
    pub epochs: u64,
}

impl DriftPlan {
    /// Creates a plan drifting epochs `[start_epoch, start_epoch + epochs)`.
    pub fn new(seed: u64, kind: DriftKind, start_epoch: u64, epochs: u64) -> DriftPlan {
        DriftPlan {
            seed,
            kind,
            start_epoch,
            epochs,
        }
    }

    /// A cheap seeded mixer for per-record decisions.
    fn mix(&self, i: u64, salt: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z ^= z >> 30;
        z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Applies the drift to `records`, producing the nonstationary
    /// stream a runtime should actually see. Record count is preserved
    /// exactly (drift changes *what* the records say, never how many).
    pub fn apply_to_stream(&self, records: &[Record], epoch_micros: u64) -> Vec<Record> {
        let epoch_micros = epoch_micros.max(1);
        let end_epoch = self.start_epoch.saturating_add(self.epochs);
        records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let epoch = r.ts_micros / epoch_micros;
                if epoch < self.start_epoch || epoch >= end_epoch {
                    return *r;
                }
                let mut rec = *r;
                let i = i as u64;
                match self.kind {
                    DriftKind::HotspotMigration {
                        share_pct,
                        period_epochs,
                    } => {
                        if self.mix(i, 1) % 100 < u64::from(share_pct.min(100)) {
                            // The hot set: 4 groups per phase, all
                            // attributes pinned so every projection
                            // concentrates. High bit forced on keeps
                            // hot groups disjoint from organic ones.
                            let phase = (epoch - self.start_epoch) / period_epochs.max(1);
                            let hot = self.mix(self.mix(i, 2) % 4, phase.wrapping_add(3));
                            for a in &mut rec.attrs {
                                *a = (hot as u32) | 0x8000_0000;
                            }
                        }
                    }
                    DriftKind::CardinalityRamp { attr, factor } => {
                        if let Some(a) = rec.attrs.get_mut(attr) {
                            // Ramp level grows 1 → factor across the
                            // window; each record lands in one of
                            // `level` disjoint value planes.
                            let progress = epoch - self.start_epoch + 1;
                            let level =
                                (u64::from(factor.max(1)) * progress).div_ceil(self.epochs.max(1));
                            let plane = self.mix(i, 4) % level.max(1);
                            *a = a.wrapping_add((plane as u32).wrapping_mul(0x4000_0000 | 7));
                        }
                    }
                    DriftKind::QueryMixShift { rotation } => {
                        let n = rec.attrs.len();
                        if n > 0 {
                            rec.attrs.rotate_left(rotation as usize % n);
                        }
                    }
                }
                rec
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: u32, step: u64) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(&[i, 0, 0, 0], u64::from(i) * step))
            .collect()
    }

    #[test]
    fn noop_plan_returns_identical_stream() {
        let recs = records(100, 1000);
        let out = FaultPlan::new(1).apply_to_stream(&recs, 1_000_000);
        assert_eq!(out, recs);
    }

    #[test]
    fn burst_amplifies_only_its_window() {
        // 10 records per epoch (epoch = 10 ms, 1 ms apart).
        let recs = records(50, 1000);
        let plan = FaultPlan::new(1).with_burst(Burst {
            start_epoch: 1,
            epochs: 2,
            amplification: 4,
            fresh_groups: false,
        });
        let out = plan.apply_to_stream(&recs, 10_000);
        // Epochs 0, 3, 4 stay at 10 records; epochs 1 and 2 become 40.
        assert_eq!(out.len(), 30 + 2 * 40);
        let in_window = out
            .iter()
            .filter(|r| (1..3).contains(&(r.ts_micros / 10_000)))
            .count();
        assert_eq!(in_window, 80);
    }

    #[test]
    fn fresh_group_burst_creates_disjoint_groups() {
        let recs = records(50, 1000);
        let plan = FaultPlan::new(7).with_burst(Burst {
            start_epoch: 1,
            epochs: 2,
            amplification: 3,
            fresh_groups: true,
        });
        let out = plan.apply_to_stream(&recs, 10_000);
        assert_eq!(out.len(), 30 + 2 * 30);
        // Every original record survives untouched...
        for r in &recs {
            assert!(out.contains(r));
        }
        // ...and the synthetic copies occupy groups no organic record
        // uses (high bit forced on).
        let synthetic = out.iter().filter(|r| r.attrs[0] & 0x8000_0000 != 0).count();
        assert_eq!(synthetic, 2 * 20);
        // Deterministic: same plan, same stream.
        assert_eq!(out, plan.apply_to_stream(&recs, 10_000));
    }

    #[test]
    fn clock_skew_shifts_and_saturates() {
        let recs = records(3, 1000);
        let fwd = FaultPlan::new(1)
            .with_clock_skew(500)
            .apply_to_stream(&recs, 1_000_000);
        assert_eq!(fwd[1].ts_micros, 1500);
        let back = FaultPlan::new(1)
            .with_clock_skew(-1500)
            .apply_to_stream(&recs, 1_000_000);
        assert_eq!(back[0].ts_micros, 0, "saturates at zero");
        assert_eq!(back[2].ts_micros, 500);
    }

    #[test]
    fn hotspot_migration_concentrates_and_migrates() {
        // 10 records per epoch (epoch = 10 ms, 1 ms apart), window
        // epochs 1..5, migrating every 2 epochs.
        let recs = records(100, 1000);
        let plan = DriftPlan::new(
            42,
            DriftKind::HotspotMigration {
                share_pct: 60,
                period_epochs: 2,
            },
            1,
            4,
        );
        let out = plan.apply_to_stream(&recs, 10_000);
        assert_eq!(out.len(), recs.len(), "drift never changes the count");
        // Outside the window: untouched.
        assert_eq!(&out[..10], &recs[..10]);
        assert_eq!(&out[50..], &recs[50..]);
        // Inside: a majority share pinned to the hot set.
        let hot: Vec<&Record> = out[10..50]
            .iter()
            .filter(|r| r.attrs[0] & 0x8000_0000 != 0)
            .collect();
        assert!(hot.len() > 10, "hot share too small: {}", hot.len());
        // The hot set migrates between periods: phase 0 (epochs 1-2)
        // and phase 1 (epochs 3-4) share no group.
        let phase_groups = |lo: u64, hi: u64| -> std::collections::BTreeSet<[u32; 8]> {
            hot.iter()
                .filter(|r| (lo..hi).contains(&(r.ts_micros / 10_000)))
                .map(|r| r.attrs)
                .collect()
        };
        let p0 = phase_groups(1, 3);
        let p1 = phase_groups(3, 5);
        assert!(!p0.is_empty() && !p1.is_empty());
        assert!(p0.is_disjoint(&p1), "hot set failed to migrate");
        // Few groups per phase: that's what makes it a hotspot.
        assert!(p0.len() <= 4 && p1.len() <= 4);
        // Deterministic.
        assert_eq!(out, plan.apply_to_stream(&recs, 10_000));
    }

    #[test]
    fn cardinality_ramp_grows_the_value_space() {
        let recs: Vec<Record> = (0..400u32)
            .map(|i| Record::new(&[i % 5, 0, 0, 0], u64::from(i) * 250))
            .collect();
        // Epoch = 10 ms → 40 records per epoch; ramp attribute 0 to 8×
        // across epochs 2..10.
        let plan = DriftPlan::new(7, DriftKind::CardinalityRamp { attr: 0, factor: 8 }, 2, 8);
        let out = plan.apply_to_stream(&recs, 10_000);
        assert_eq!(out.len(), recs.len());
        let distinct = |lo: u64, hi: u64| -> usize {
            out.iter()
                .filter(|r| (lo..hi).contains(&(r.ts_micros / 10_000)))
                .map(|r| r.attrs[0])
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        };
        let before = distinct(0, 2);
        let late = distinct(8, 10);
        assert_eq!(before, 5, "pre-window cardinality untouched");
        assert!(
            late >= 3 * before,
            "ramp failed to inflate: {before} → {late}"
        );
        assert_eq!(out, plan.apply_to_stream(&recs, 10_000));
    }

    #[test]
    fn query_mix_shift_rotates_columns_in_window_only() {
        let recs: Vec<Record> = (0..30u32)
            .map(|i| Record::new(&[i, i + 100, i + 200, i + 300], u64::from(i) * 1000))
            .collect();
        let plan = DriftPlan::new(1, DriftKind::QueryMixShift { rotation: 1 }, 1, 1);
        let out = plan.apply_to_stream(&recs, 10_000);
        // Epoch 0 untouched.
        assert_eq!(out[5], recs[5]);
        // Epoch 1 rotated left by one.
        let mut expected = recs[15].attrs;
        expected.rotate_left(1);
        assert_eq!(out[15].attrs, expected);
        // Epoch 2 untouched.
        assert_eq!(out[25], recs[25]);
    }

    #[test]
    fn channel_faults_carry_the_rates() {
        let plan = FaultPlan::new(9)
            .with_eviction_loss(0.1)
            .with_eviction_duplication(0.05);
        let f = plan.channel_faults();
        assert_eq!(f.loss_rate, 0.1);
        assert_eq!(f.duplicate_rate, 0.05);
    }
}
