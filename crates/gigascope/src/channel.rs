//! The LFTA → HFTA eviction channel.
//!
//! In Gigascope the LFTA hands evicted partial aggregates to the HFTA
//! over a bounded transfer ring; under pressure that hand-off can drop
//! entries, and retransmission can deliver an entry twice. The executor
//! used to model the hand-off as an implicit, lossless function call.
//! [`EvictionChannel`] makes the hop explicit: every eviction is
//! *offered* to the channel, which decides — deterministically, from a
//! seeded PRNG — whether it is delivered once, dropped, or duplicated,
//! and accounts each outcome. A per-epoch capacity bound models the
//! finite drain budget between epochs; offers beyond it are dropped as
//! overflow.
//!
//! The channel never silently loses information: callers learn each
//! offer's fate from the returned [`Delivery`], and cumulative
//! [`ChannelStats`] let a run reconcile exactly how many entries (and,
//! via the executor's per-query record sums, how many *records*) were
//! lost or double-counted.

use msa_stream::SplitMix64;

/// Fault rates injected into the channel (both in `[0, 1]`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChannelFaults {
    /// Probability an offered eviction is dropped.
    pub loss_rate: f64,
    /// Probability a delivered eviction is delivered twice.
    pub duplicate_rate: f64,
}

impl ChannelFaults {
    /// No faults.
    pub fn none() -> ChannelFaults {
        ChannelFaults::default()
    }

    /// True if both rates are zero.
    pub fn is_none(&self) -> bool {
        self.loss_rate <= 0.0 && self.duplicate_rate <= 0.0
    }
}

/// Fate of one offered eviction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// Lost: the HFTA never sees it.
    Dropped,
    /// Delivered exactly once.
    Delivered,
    /// Delivered twice (retransmission fault).
    Duplicated,
}

/// Cumulative channel accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Copies actually handed to the HFTA (a duplicated offer counts 2).
    pub delivered: u64,
    /// Offers dropped (fault losses plus capacity overflow).
    pub dropped: u64,
    /// Offers delivered twice.
    pub duplicated: u64,
    /// The subset of `dropped` caused by the per-epoch capacity bound.
    pub overflowed: u64,
    /// Record mass stranded by shutdown rather than a channel fault:
    /// feed records still in flight when a crashed shard's feed closed,
    /// replay-buffer overruns, and per-query mass left in an abandoned
    /// shard's tables or open epoch. Kept out of `dropped` (those are
    /// eviction-level fault counts); the per-query record corrections
    /// live in the run report's drop/shed ledgers.
    pub shutdown_lost: u64,
}

impl ChannelStats {
    /// Folds another channel's accounting into this one (a sharded run
    /// reporting the merged totals of its per-shard channels). Pure
    /// sums, so the fold commutes.
    ///
    /// `other` is destructured exhaustively — no `..` — so adding a
    /// counter field without deciding how it merges is a compile error,
    /// not a silently-unsound bound.
    pub fn merge(&mut self, other: &ChannelStats) {
        let ChannelStats {
            delivered,
            dropped,
            duplicated,
            overflowed,
            shutdown_lost,
        } = *other;
        self.delivered += delivered;
        self.dropped += dropped;
        self.duplicated += duplicated;
        self.overflowed += overflowed;
        self.shutdown_lost += shutdown_lost;
    }
}

/// The bounded, fault-injectable LFTA → HFTA hand-off.
///
/// A checkpoint carries the channel itself (see [`crate::snapshot`]),
/// whose codec reads these fields: the PRNG cursor makes every fault
/// decision after a restore identical to the one the original channel
/// would have taken, which is what lets a replayed run reproduce a
/// faulty run bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct EvictionChannel {
    pub(crate) faults: ChannelFaults,
    /// Max offers accepted per epoch (`None` = unbounded).
    pub(crate) capacity: Option<u64>,
    /// Offers accepted so far in the current epoch window.
    pub(crate) epoch_sent: u64,
    pub(crate) rng: SplitMix64,
    pub(crate) stats: ChannelStats,
}

impl EvictionChannel {
    /// An unbounded, fault-free channel (the classic implicit hand-off).
    pub fn lossless() -> EvictionChannel {
        EvictionChannel::new(ChannelFaults::none(), 0)
    }

    /// A channel injecting `faults`, drawing decisions from a PRNG
    /// seeded with `seed`.
    pub fn new(faults: ChannelFaults, seed: u64) -> EvictionChannel {
        EvictionChannel {
            faults,
            capacity: None,
            epoch_sent: 0,
            rng: SplitMix64::new(seed),
            stats: ChannelStats::default(),
        }
    }

    /// Bounds the channel to `capacity` accepted offers per epoch;
    /// offers beyond it are dropped as overflow.
    pub fn with_capacity(mut self, capacity: u64) -> EvictionChannel {
        self.capacity = Some(capacity);
        self
    }

    /// Offers one eviction; returns its fate.
    pub fn offer(&mut self) -> Delivery {
        if let Some(cap) = self.capacity {
            if self.epoch_sent >= cap {
                self.stats.dropped += 1;
                self.stats.overflowed += 1;
                return Delivery::Dropped;
            }
        }
        if self.faults.loss_rate > 0.0 && self.rng.gen_bool(self.faults.loss_rate) {
            self.stats.dropped += 1;
            return Delivery::Dropped;
        }
        self.epoch_sent += 1;
        if self.faults.duplicate_rate > 0.0 && self.rng.gen_bool(self.faults.duplicate_rate) {
            self.stats.delivered += 2;
            self.stats.duplicated += 1;
            return Delivery::Duplicated;
        }
        self.stats.delivered += 1;
        Delivery::Delivered
    }

    /// Closes the epoch window: resets the per-epoch capacity budget.
    pub fn end_epoch(&mut self) {
        self.epoch_sent = 0;
    }

    /// Accounts `n` units of record mass lost to shutdown (a feed
    /// closing on a dead shard, a replay-buffer overrun, or an
    /// abandoned shard's stranded tables) — the drop ledger's answer to
    /// "where did the in-flight records go".
    pub fn account_shutdown_loss(&mut self, n: u64) {
        self.stats.shutdown_lost += n;
    }

    /// Cumulative accounting.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }
}

impl Default for EvictionChannel {
    fn default() -> EvictionChannel {
        EvictionChannel::lossless()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_channel_delivers_everything_once() {
        let mut ch = EvictionChannel::lossless();
        for _ in 0..1000 {
            assert_eq!(ch.offer(), Delivery::Delivered);
        }
        assert_eq!(ch.stats().delivered, 1000);
        assert_eq!(ch.stats().dropped, 0);
        assert_eq!(ch.stats().duplicated, 0);
    }

    #[test]
    fn fault_rates_are_respected_and_deterministic() {
        let faults = ChannelFaults {
            loss_rate: 0.1,
            duplicate_rate: 0.05,
        };
        let run = |seed| {
            let mut ch = EvictionChannel::new(faults, seed);
            let fates: Vec<Delivery> = (0..20_000).map(|_| ch.offer()).collect();
            (fates, *ch.stats())
        };
        let (fates_a, stats_a) = run(7);
        let (fates_b, _) = run(7);
        assert_eq!(fates_a, fates_b, "same seed, same fates");
        let dropped = stats_a.dropped as f64 / 20_000.0;
        assert!((dropped - 0.1).abs() < 0.01, "loss rate {dropped}");
        // Duplicates happen among non-dropped offers.
        let dup = stats_a.duplicated as f64 / (20_000.0 - stats_a.dropped as f64);
        assert!((dup - 0.05).abs() < 0.01, "dup rate {dup}");
        // Conservation: every offer is dropped or delivered ≥ once.
        assert_eq!(
            stats_a.delivered,
            20_000 - stats_a.dropped + stats_a.duplicated
        );
        let (fates_c, _) = run(8);
        assert_ne!(fates_a, fates_c, "different seed, different fates");
    }

    #[test]
    fn stats_merge_sums_and_commutes() {
        let a = ChannelStats {
            delivered: 10,
            dropped: 3,
            duplicated: 2,
            overflowed: 1,
            shutdown_lost: 4,
        };
        let b = ChannelStats {
            delivered: 7,
            dropped: 0,
            duplicated: 5,
            overflowed: 0,
            shutdown_lost: 2,
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.delivered, 17);
        assert_eq!(ab.dropped, 3);
        assert_eq!(ab.duplicated, 7);
        assert_eq!(ab.overflowed, 1);
        assert_eq!(ab.shutdown_lost, 6);
    }

    #[test]
    fn shutdown_loss_rides_its_own_ledger() {
        let mut ch = EvictionChannel::lossless();
        ch.offer();
        ch.account_shutdown_loss(9);
        assert_eq!(ch.stats().shutdown_lost, 9);
        assert_eq!(ch.stats().dropped, 0, "not conflated with fault drops");
    }

    #[test]
    fn capacity_bound_drops_overflow_and_resets_per_epoch() {
        let mut ch = EvictionChannel::lossless().with_capacity(3);
        for _ in 0..5 {
            ch.offer();
        }
        assert_eq!(ch.stats().delivered, 3);
        assert_eq!(ch.stats().overflowed, 2);
        ch.end_epoch();
        assert_eq!(ch.offer(), Delivery::Delivered, "budget refilled");
    }
}
