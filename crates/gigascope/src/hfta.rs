//! The host-side combiner (HFTA).
//!
//! The HFTA receives partial `{group, count}` pairs evicted by the LFTA
//! — multiple partials per group per epoch are possible — and combines
//! them into exact per-epoch aggregates (paper §2.2: "multiple tuples for
//! the same group in the same epoch may be seen because of evictions,
//! and these are combined").

use crate::table::AggState;
use msa_stream::hash::FastMap;
use msa_stream::{AttrSet, GroupKey};

/// Exact aggregation results of one query for one epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochResult {
    /// The query's grouping attributes.
    pub query: AttrSet,
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Combined `group → aggregate` results (count plus, when the plan
    /// designates a metric attribute, sum/min/max of the metric).
    pub aggregates: FastMap<GroupKey, AggState>,
}

impl EpochResult {
    /// Per-group record counts.
    pub fn counts(&self) -> FastMap<GroupKey, u64> {
        self.aggregates.iter().map(|(k, a)| (*k, a.count)).collect()
    }

    /// Total records combined into this result.
    pub fn total_count(&self) -> u64 {
        self.aggregates.values().map(|a| a.count).sum()
    }

    /// Groups whose count exceeds `threshold` — the paper's example
    /// "report ... provided this number of packets is more than 100"
    /// (a HAVING clause evaluated at the HFTA).
    pub fn having_count_over(
        &self,
        threshold: u64,
    ) -> impl Iterator<Item = (&GroupKey, &AggState)> {
        self.aggregates
            .iter()
            .filter(move |(_, a)| a.count > threshold)
    }
}

/// The complete serializable state of an [`Hfta`] at an epoch boundary.
///
/// At a boundary the per-epoch combining maps are empty (the epoch was
/// just closed), so the state is exactly the finished results plus the
/// counters — which is why checkpoints are epoch-aligned.
#[derive(Clone, Debug, PartialEq)]
pub struct HftaState {
    /// Label of the epoch that will accumulate next.
    pub epoch: u64,
    /// Total partial tuples received so far.
    pub received: u64,
    /// Whether per-epoch results are retained.
    pub retain_results: bool,
    /// All finished per-epoch results at capture time.
    pub results: Vec<EpochResult>,
}

/// The HFTA: one combiner per user query.
#[derive(Clone, Debug, Default)]
pub struct Hfta {
    queries: Vec<AttrSet>,
    current: Vec<FastMap<GroupKey, AggState>>,
    /// Total partial tuples received (each costs `c2` at the LFTA).
    received: u64,
    finished: Vec<EpochResult>,
    epoch: u64,
    retain_results: bool,
}

impl Hfta {
    /// Creates an HFTA combining the given queries.
    pub fn new(queries: Vec<AttrSet>) -> Hfta {
        let current = queries.iter().map(|_| FastMap::default()).collect();
        Hfta {
            queries,
            current,
            received: 0,
            finished: Vec::new(),
            epoch: 0,
            retain_results: true,
        }
    }

    /// Disables per-epoch result retention (long measurement runs where
    /// only the cost counters matter). Results are still combined within
    /// the running epoch and dropped at epoch close.
    pub fn discard_results(mut self) -> Hfta {
        self.retain_results = false;
        self
    }

    /// The queries this HFTA combines, in slot order.
    pub fn queries(&self) -> &[AttrSet] {
        &self.queries
    }

    /// Receives one evicted partial for query slot `qi`.
    #[inline]
    pub fn receive(&mut self, qi: usize, key: GroupKey, agg: AggState) {
        self.received += 1;
        match self.current[qi].entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().merge(&agg),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(agg);
            }
        }
    }

    /// Total partial tuples received across all epochs so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Sets the label of the epoch currently accumulating (executor
    /// swaps mid-stream keep absolute epoch numbering).
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Closes the current epoch: moves combined maps to the finished
    /// list and starts fresh ones.
    pub fn close_epoch(&mut self) {
        for (query, map) in self.queries.iter().zip(self.current.iter_mut()) {
            let aggregates = std::mem::take(map);
            if self.retain_results && !aggregates.is_empty() {
                self.finished.push(EpochResult {
                    query: *query,
                    epoch: self.epoch,
                    aggregates,
                });
            }
        }
        self.epoch += 1;
    }

    /// All finished per-epoch results.
    pub fn results(&self) -> &[EpochResult] {
        &self.finished
    }

    /// True when finished per-epoch results are retained (the default;
    /// see [`Hfta::discard_results`]). Abandonment accounting needs the
    /// finished totals, so it only runs in this mode.
    pub fn retains_results(&self) -> bool {
        self.retain_results
    }

    /// Number of partials sitting in the still-open epoch's combining
    /// maps — zero exactly at an epoch boundary, which is the alignment
    /// condition checkpoints require.
    pub fn in_flight(&self) -> usize {
        self.current.iter().map(|m| m.len()).sum()
    }

    /// Exports the boundary counters for a checkpoint, with `results`
    /// left empty: finished results only ever grow at
    /// [`Hfta::close_epoch`], so a checkpoint reads them in place as a
    /// prefix of [`Hfta::results`] instead of copying them. Partials of
    /// a still-open epoch (see [`Hfta::in_flight`]) are *not* captured;
    /// callers must checkpoint at an epoch boundary.
    pub(crate) fn boundary_state(&self) -> HftaState {
        HftaState {
            epoch: self.epoch,
            received: self.received,
            retain_results: self.retain_results,
            results: Vec::new(),
        }
    }

    /// Rebuilds an HFTA for `queries` from a boundary state, taking its
    /// results over without copying them.
    pub fn restore(queries: Vec<AttrSet>, state: HftaState) -> Hfta {
        let current = queries.iter().map(|_| FastMap::default()).collect();
        Hfta {
            queries,
            current,
            received: state.received,
            finished: state.results,
            epoch: state.epoch,
            retain_results: state.retain_results,
        }
    }

    /// Combines per-shard HFTAs into one, in deterministic
    /// epoch-then-slot order — the order a serial executor would have
    /// produced. For every epoch (ascending) and every query slot (in
    /// `queries` order), the shards' partial results are merged in
    /// source (shard) order; empty combinations are skipped, exactly as
    /// [`Hfta::close_epoch`] skips empty maps. Queries are matched by
    /// attribute set, so `queries` must be distinct (plan validation
    /// already guarantees the executors agree on the slot order).
    ///
    /// Counters merge too: `received` sums, the next-epoch label takes
    /// the maximum, and results are retained only if every source
    /// retained them (a discarding source would make the merge
    /// incomplete).
    pub fn merge_ordered(queries: Vec<AttrSet>, sources: &[Hfta]) -> Hfta {
        let mut epochs: Vec<u64> = sources
            .iter()
            .flat_map(|s| s.finished.iter().map(|r| r.epoch))
            .collect();
        epochs.sort_unstable();
        epochs.dedup();
        let mut finished = Vec::new();
        for &epoch in &epochs {
            for &query in &queries {
                let mut aggregates: FastMap<GroupKey, AggState> = FastMap::default();
                for s in sources {
                    for r in s
                        .finished
                        .iter()
                        .filter(|r| r.epoch == epoch && r.query == query)
                    {
                        for (k, a) in &r.aggregates {
                            match aggregates.entry(*k) {
                                std::collections::hash_map::Entry::Occupied(mut e) => {
                                    e.get_mut().merge(a)
                                }
                                std::collections::hash_map::Entry::Vacant(v) => {
                                    v.insert(*a);
                                }
                            }
                        }
                    }
                }
                if !aggregates.is_empty() {
                    finished.push(EpochResult {
                        query,
                        epoch,
                        aggregates,
                    });
                }
            }
        }
        let current = queries.iter().map(|_| FastMap::default()).collect();
        Hfta {
            current,
            received: sources.iter().map(|s| s.received).sum(),
            finished,
            epoch: sources.iter().map(|s| s.epoch).max().unwrap_or(0),
            retain_results: sources.iter().all(|s| s.retain_results),
            queries,
        }
    }

    /// Sums a query's counts across all finished epochs — the total
    /// per-group record counts, used to verify end-to-end correctness.
    pub fn totals(&self, query: AttrSet) -> FastMap<GroupKey, u64> {
        self.aggregate_totals(query)
            .into_iter()
            .map(|(k, a)| (k, a.count))
            .collect()
    }

    /// Combines a query's full aggregate states across all epochs.
    pub fn aggregate_totals(&self, query: AttrSet) -> FastMap<GroupKey, AggState> {
        let mut out: FastMap<GroupKey, AggState> = FastMap::default();
        for r in &self.finished {
            if r.query == query {
                for (k, a) in &r.aggregates {
                    match out.entry(*k) {
                        std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().merge(a),
                        std::collections::hash_map::Entry::Vacant(v) => {
                            v.insert(*a);
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(vals: &[u32]) -> GroupKey {
        GroupKey::from_values(vals)
    }

    /// A partial state of `count` records summing to `sum`.
    fn counted(count: u64, sum: u64) -> AggState {
        AggState {
            count,
            sum,
            min: sum.min(u64::from(u32::MAX)) as u32,
            max: sum.min(u64::from(u32::MAX)) as u32,
        }
    }

    #[test]
    fn having_filter_and_epoch_helpers() {
        let a = AttrSet::parse("A").unwrap();
        let mut h = Hfta::new(vec![a]);
        h.receive(0, key(&[1]), counted(150, 150));
        h.receive(0, key(&[2]), counted(50, 50));
        h.close_epoch();
        let res = &h.results()[0];
        assert_eq!(res.total_count(), 200);
        assert_eq!(res.counts()[&key(&[2])], 50);
        let heavy: Vec<_> = res.having_count_over(100).collect();
        assert_eq!(heavy.len(), 1);
        assert_eq!(*heavy[0].0, key(&[1]));
    }

    #[test]
    fn combines_partials_within_epoch() {
        let a = AttrSet::parse("A").unwrap();
        let mut h = Hfta::new(vec![a]);
        h.receive(0, key(&[1]), counted(3, 30));
        h.receive(0, key(&[1]), counted(4, 4));
        h.receive(0, key(&[2]), counted(1, 9));
        h.close_epoch();
        let totals = h.totals(a);
        assert_eq!(totals[&key(&[1])], 7);
        assert_eq!(totals[&key(&[2])], 1);
        assert_eq!(h.received(), 3);
        // Value aggregates combine too.
        let aggs = h.aggregate_totals(a);
        assert_eq!(aggs[&key(&[1])].sum, 34);
        assert_eq!(aggs[&key(&[1])].min, 4);
    }

    #[test]
    fn epochs_are_separated() {
        let a = AttrSet::parse("A").unwrap();
        let mut h = Hfta::new(vec![a]);
        h.receive(0, key(&[1]), counted(1, 1));
        h.close_epoch();
        h.receive(0, key(&[1]), counted(2, 2));
        h.close_epoch();
        assert_eq!(h.results().len(), 2);
        assert_eq!(h.results()[0].epoch, 0);
        assert_eq!(h.results()[1].epoch, 1);
        assert_eq!(h.totals(a)[&key(&[1])], 3);
    }

    #[test]
    fn multiple_queries_are_independent() {
        let a = AttrSet::parse("A").unwrap();
        let b = AttrSet::parse("B").unwrap();
        let mut h = Hfta::new(vec![a, b]);
        h.receive(0, key(&[1]), counted(5, 5));
        h.receive(1, key(&[9]), counted(2, 2));
        h.close_epoch();
        assert_eq!(h.totals(a).len(), 1);
        assert_eq!(h.totals(b)[&key(&[9])], 2);
    }

    #[test]
    fn discard_results_keeps_counters_only() {
        let a = AttrSet::parse("A").unwrap();
        let mut h = Hfta::new(vec![a]).discard_results();
        h.receive(0, key(&[1]), counted(1, 1));
        h.close_epoch();
        assert!(h.results().is_empty());
        assert_eq!(h.received(), 1);
    }

    /// The documented resilience bounds: a partial delivered twice
    /// over-counts its group by exactly its record mass, a lost partial
    /// under-counts by the same, and combining never panics — so for
    /// any mix, `true − lost ≤ observed ≤ true + duplicated` per group.
    #[test]
    fn duplicate_and_lost_partials_combine_to_documented_bounds() {
        let a = AttrSet::parse("A").unwrap();
        let mut h = Hfta::new(vec![a]);
        // True stream for group 1: partials of 10 + 5 + 2 = 17 records.
        // The 10-partial is duplicated by the channel; the 2-partial is
        // lost and never arrives.
        h.receive(0, key(&[1]), counted(10, 10));
        h.receive(0, key(&[1]), counted(10, 10)); // duplicate
        h.receive(0, key(&[1]), counted(5, 5));
        // Group 2 is delivered faithfully.
        h.receive(0, key(&[2]), counted(4, 4));
        h.close_epoch();

        let totals = h.totals(a);
        let (truth, duplicated, lost) = (17i64, 10i64, 2i64);
        let observed = totals[&key(&[1])] as i64;
        assert_eq!(observed, truth + duplicated - lost);
        assert!((truth - lost..=truth + duplicated).contains(&observed));
        assert_eq!(totals[&key(&[2])], 4, "faithful groups stay exact");
        // Value aggregates degrade the same way: the duplicated sum is
        // added once more, never corrupted.
        assert_eq!(h.aggregate_totals(a)[&key(&[1])].sum, 25);
    }

    #[test]
    fn state_roundtrip_preserves_results_and_counters() {
        let a = AttrSet::parse("A").unwrap();
        let b = AttrSet::parse("B").unwrap();
        let mut h = Hfta::new(vec![a, b]);
        h.receive(0, key(&[1]), counted(3, 3));
        h.receive(1, key(&[2]), counted(5, 5));
        assert_eq!(h.in_flight(), 2);
        h.close_epoch();
        assert_eq!(h.in_flight(), 0);
        let state = HftaState {
            results: h.results().to_vec(),
            ..h.boundary_state()
        };
        let restored = Hfta::restore(vec![a, b], state.clone());
        assert_eq!(
            HftaState {
                results: restored.results().to_vec(),
                ..restored.boundary_state()
            },
            state
        );
        assert_eq!(restored.results(), h.results());
        assert_eq!(restored.received(), h.received());
        assert_eq!(restored.totals(a), h.totals(a));
    }

    #[test]
    fn merge_ordered_matches_serial_order() {
        let a = AttrSet::parse("A").unwrap();
        let b = AttrSet::parse("B").unwrap();
        // Serial reference: all partials through one HFTA.
        let mut serial = Hfta::new(vec![a, b]);
        serial.receive(0, key(&[1]), counted(3, 3));
        serial.receive(0, key(&[2]), counted(2, 2));
        serial.receive(1, key(&[7]), counted(5, 5));
        serial.close_epoch();
        serial.receive(0, key(&[1]), counted(4, 4));
        serial.close_epoch();
        // Sharded: the same partials split across two HFTAs by group.
        let mut s0 = Hfta::new(vec![a, b]);
        s0.receive(0, key(&[1]), counted(3, 3));
        s0.close_epoch();
        s0.receive(0, key(&[1]), counted(4, 4));
        s0.close_epoch();
        let mut s1 = Hfta::new(vec![a, b]);
        s1.receive(0, key(&[2]), counted(2, 2));
        s1.receive(1, key(&[7]), counted(5, 5));
        s1.close_epoch();
        s1.close_epoch();
        let merged = Hfta::merge_ordered(vec![a, b], &[s0, s1]);
        // Bit-for-bit the serial result list: same (query, epoch)
        // sequence, same combined aggregates, no empty entries.
        assert_eq!(merged.results(), serial.results());
        assert_eq!(merged.received(), serial.received());
        assert_eq!(merged.totals(a), serial.totals(a));
        assert_eq!(merged.totals(b), serial.totals(b));
        // Shard order is part of the contract, not the result: groups
        // are disjoint across shards so either order combines equally.
        let merged_rev = Hfta::merge_ordered(vec![a, b], std::slice::from_ref(&merged));
        assert_eq!(merged_rev.results(), serial.results());
    }

    #[test]
    fn merge_ordered_combines_same_group_partials_in_shard_order() {
        // Two shards holding partials of the SAME group (possible after
        // a rebalance): they must combine, not duplicate.
        let a = AttrSet::parse("A").unwrap();
        let mut s0 = Hfta::new(vec![a]);
        s0.receive(0, key(&[1]), counted(3, 30));
        s0.close_epoch();
        let mut s1 = Hfta::new(vec![a]);
        s1.receive(0, key(&[1]), counted(4, 4));
        s1.close_epoch();
        let merged = Hfta::merge_ordered(vec![a], &[s0, s1]);
        assert_eq!(merged.results().len(), 1);
        let aggs = &merged.results()[0].aggregates;
        assert_eq!(aggs[&key(&[1])].count, 7);
        assert_eq!(aggs[&key(&[1])].sum, 34);
        assert_eq!(aggs[&key(&[1])].min, 4);
    }

    #[test]
    fn empty_epochs_produce_no_results() {
        let a = AttrSet::parse("A").unwrap();
        let mut h = Hfta::new(vec![a]);
        h.close_epoch();
        h.close_epoch();
        assert!(h.results().is_empty());
    }
}
