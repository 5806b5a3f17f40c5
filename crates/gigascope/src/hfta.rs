//! The host-side combiner (HFTA).
//!
//! The HFTA receives partial `{group, count}` pairs evicted by the LFTA
//! — multiple partials per group per epoch are possible — and combines
//! them into exact per-epoch aggregates (paper §2.2: "multiple tuples for
//! the same group in the same epoch may be seen because of evictions,
//! and these are combined").
//!
//! Each query combines into one [`CombineTable`]. At the epoch close the
//! table moves whole into the query's [`EpochResult`], and an empty table
//! sized for the epoch just closed takes its place, so no result is
//! copied or rehashed on its way out.

use crate::table::{AggState, Entry};
use msa_stream::hash::FastMap;
use msa_stream::{AttrSet, GroupKey};

/// Seed of the [`CombineTable`] index hash, apart from every LFTA
/// table's.
const INDEX_SEED: u64 = 0xC0B1_7AB1_E5EE_D000;

/// Fewest index slots a table that holds any group has.
const MIN_SLOTS: usize = 16;

/// Fewest groups a table's vector grows by at a time.
const MIN_GROWTH: usize = 64;

/// One query-epoch's groups, combined: every group once, with the merge
/// of all its partials, in the order of the group's first delivery.
///
/// The groups sit in a vector of [`Entry`] pairs. Beside it, a compact
/// open-addressing index (linear probing, at most half full) holds each
/// group's position plus one (0 marks an empty slot) at the slot its
/// hash picks. Iteration walks the vector, so the order — and every
/// byte a snapshot writes from it — depends only on the delivery
/// sequence, never on the index's layout or size. `==` compares
/// contents and ignores that order.
///
/// Positions are `u32`, so a table holds fewer than 2^32 groups: 256 GiB
/// of entries, far past any host this runs on.
#[derive(Clone, Default)]
pub struct CombineTable {
    entries: Vec<Entry>,
    /// Zero or a power of two slots.
    index: Vec<u32>,
}

impl CombineTable {
    /// An empty table with room for `groups` groups before it allocates.
    pub fn with_capacity(groups: usize) -> CombineTable {
        CombineTable {
            entries: Vec::with_capacity(groups),
            index: vec![0; slots_for(groups)],
        }
    }

    /// Number of groups.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table holds no group.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges `agg` into `key`'s group, which joins the table at the end
    /// if this is its first delivery.
    #[inline]
    pub fn combine(&mut self, key: GroupKey, agg: AggState) {
        let hash = key.hash_with_seed(INDEX_SEED);
        let mut vacant = match self.find(hash, &key) {
            Ok(at) => {
                if let Some(entry) = self.entries.get_mut(at) {
                    entry.agg.merge(&agg);
                }
                return;
            }
            Err(vacant) => vacant,
        };
        let len = self.len();
        let Ok(position) = u32::try_from(len + 1) else {
            // Unreachable: 2^32 groups would take 256 GiB of entries.
            return;
        };
        if len >= self.index.len() / 2 {
            self.grow_index();
            vacant = vacant_slot(&self.index, hash);
        }
        if len == self.entries.capacity() {
            // Past the size the table was made with: grow by an eighth,
            // not double, so a result that outgrew its epoch keeps
            // little spare room.
            self.entries.reserve_exact((len / 8).max(MIN_GROWTH));
        }
        if let Some(slot) = self.index.get_mut(vacant) {
            *slot = position;
            self.entries.push(Entry { key, agg });
        }
    }

    /// The combined state of `key`'s group, if it was delivered.
    pub fn get(&self, key: &GroupKey) -> Option<&AggState> {
        let at = self.find(key.hash_with_seed(INDEX_SEED), key).ok()?;
        self.entries.get(at).map(|e| &e.agg)
    }

    /// True when `key`'s group was delivered.
    pub fn contains_key(&self, key: &GroupKey) -> bool {
        self.find(key.hash_with_seed(INDEX_SEED), key).is_ok()
    }

    /// `(group, state)` pairs in first-delivery order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.entries.iter())
    }

    /// The groups in first-delivery order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &GroupKey> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// The combined states in first-delivery order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &AggState> + '_ {
        self.iter().map(|(_, a)| a)
    }

    /// Moves the groups out as a finished table and leaves this one
    /// empty, sized for as many groups as it held.
    pub(crate) fn hand_over(&mut self) -> CombineTable {
        let next = CombineTable::with_capacity(self.len());
        std::mem::replace(self, next)
    }

    /// Empties the table and keeps its capacity.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.index.fill(0);
    }

    /// `Ok` with the position of `key`'s group in the delivery order, or
    /// `Err` with the empty index slot its probe walk ended on.
    #[inline]
    fn find(&self, hash: u64, key: &GroupKey) -> Result<usize, usize> {
        let mask = self.index.len().wrapping_sub(1);
        let mut i = hash as usize & mask;
        // At most half the slots are taken, so the walk ends on an
        // empty one within `len` steps.
        while let Some(&slot) = self.index.get(i) {
            if slot == 0 {
                return Err(i);
            }
            let at = (slot as usize).wrapping_sub(1);
            if self.entries.get(at).is_some_and(|e| e.key == *key) {
                return Ok(at);
            }
            i = (i + 1) & mask;
        }
        Err(i)
    }

    /// Doubles the index (to [`MIN_SLOTS`] from empty) and re-enters
    /// every group at its position.
    #[cold]
    fn grow_index(&mut self) {
        let mut index = vec![0; (self.index.len() * 2).max(MIN_SLOTS)];
        for (key, position) in self.keys().zip(1u32..) {
            let i = vacant_slot(&index, key.hash_with_seed(INDEX_SEED));
            if let Some(slot) = index.get_mut(i) {
                *slot = position;
            }
        }
        self.index = index;
    }
}

/// The empty slot of `index` a new group of hash `hash` takes.
fn vacant_slot(index: &[u32], hash: u64) -> usize {
    let mask = index.len().wrapping_sub(1);
    let mut i = hash as usize & mask;
    while index.get(i).is_some_and(|&slot| slot != 0) {
        i = (i + 1) & mask;
    }
    i
}

/// Index slots for `groups` groups at most half full: zero for none.
fn slots_for(groups: usize) -> usize {
    if groups == 0 {
        0
    } else {
        (groups * 2).next_power_of_two().max(MIN_SLOTS)
    }
}

impl PartialEq for CombineTable {
    /// The same groups with the same states, in any order.
    fn eq(&self, other: &CombineTable) -> bool {
        self.len() == other.len() && self.iter().all(|(k, a)| other.get(k) == Some(a))
    }
}

impl std::fmt::Debug for CombineTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Iterator over a [`CombineTable`]'s `(group, state)` pairs, in
/// first-delivery order.
#[derive(Clone, Debug)]
pub struct Iter<'a>(std::slice::Iter<'a, Entry>);

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a GroupKey, &'a AggState);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|e| (&e.key, &e.agg))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a CombineTable {
    type Item = (&'a GroupKey, &'a AggState);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Exact aggregation results of one query for one epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochResult {
    /// The query's grouping attributes.
    pub query: AttrSet,
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Combined `group → aggregate` results (count plus, when the plan
    /// designates a metric attribute, sum/min/max of the metric), in
    /// first-delivery order.
    pub aggregates: CombineTable,
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
/// At a boundary the per-epoch combining tables are empty (the epoch was
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
    current: Vec<CombineTable>,
    /// Total partial tuples received (each costs `c2` at the LFTA).
    received: u64,
    finished: Vec<EpochResult>,
    epoch: u64,
    retain_results: bool,
}

impl Hfta {
    /// Creates an HFTA combining the given queries.
    pub fn new(queries: Vec<AttrSet>) -> Hfta {
        let current = queries.iter().map(|_| CombineTable::default()).collect();
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
    /// the running epoch, and each close empties the tables for reuse.
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
        if let Some(table) = self.current.get_mut(qi) {
            table.combine(key, agg);
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

    /// Closes the current epoch. Each non-empty table moves into the
    /// finished list, and an empty one sized for it takes its place
    /// ([`CombineTable::hand_over`]); without retention each table is
    /// emptied in place.
    pub fn close_epoch(&mut self) {
        for (query, table) in self.queries.iter().zip(self.current.iter_mut()) {
            if !self.retain_results {
                table.clear();
            } else if !table.is_empty() {
                self.finished.push(EpochResult {
                    query: *query,
                    epoch: self.epoch,
                    aggregates: table.hand_over(),
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

    /// Number of groups sitting in the still-open epoch's combining
    /// tables — zero exactly at an epoch boundary, which is the
    /// alignment condition checkpoints require.
    pub fn in_flight(&self) -> usize {
        self.current.iter().map(CombineTable::len).sum()
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
    /// results over without copying them. Each query's table starts
    /// sized for that query's latest result.
    pub fn restore(queries: Vec<AttrSet>, state: HftaState) -> Hfta {
        let current = queries
            .iter()
            .map(|&q| {
                let last = state.results.iter().rev().find(|r| r.query == q);
                CombineTable::with_capacity(last.map_or(0, |r| r.aggregates.len()))
            })
            .collect();
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
    /// [`Hfta::close_epoch`] skips empty tables. Queries are matched by
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
                let parts: Vec<&CombineTable> = sources
                    .iter()
                    .flat_map(|s| &s.finished)
                    .filter(|r| r.epoch == epoch && r.query == query)
                    .map(|r| &r.aggregates)
                    .collect();
                let mut aggregates =
                    CombineTable::with_capacity(parts.iter().map(|p| p.len()).sum());
                for (k, a) in parts.into_iter().flatten() {
                    aggregates.combine(*k, *a);
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
        let current = queries.iter().map(|_| CombineTable::default()).collect();
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
        for r in self.finished.iter().filter(|r| r.query == query) {
            for (k, a) in &r.aggregates {
                out.entry(*k).and_modify(|s| s.merge(a)).or_insert(*a);
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

    /// Groups `table` holds before its next allocation.
    fn capacity(table: &CombineTable) -> usize {
        table.entries.capacity().min(table.index.len() / 2)
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
        assert_eq!(h.in_flight(), 0, "the close empties the table");
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
        assert_eq!(aggs.len(), 1);
        let one = aggs.get(&key(&[1])).copied();
        assert_eq!(one.map(|s| (s.count, s.sum, s.min)), Some((7, 34, 4)));
    }

    /// A delivery stream: `n` partials over keys of `arity` values,
    /// uniform over about `n / 3` groups or clustered (runs of one key,
    /// drawn from a few hundred active groups).
    fn deliveries(n: usize, arity: usize, clustered: bool, seed: u64) -> Vec<(GroupKey, AggState)> {
        let mut rng = msa_stream::SplitMix64::new(seed);
        let groups = (n / 3).max(1) as u32;
        let key_of = |rng: &mut msa_stream::SplitMix64| {
            let g = if clustered {
                rng.gen_u32_below(groups.min(300))
            } else {
                rng.gen_u32_below(groups)
            };
            let vals: Vec<u32> = (0..arity as u32)
                .map(|a| g.rotate_left(5 * a) ^ a)
                .collect();
            key(&vals)
        };
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let k = key_of(&mut rng);
            let run = if clustered { 1 + rng.gen_index(8) } else { 1 };
            for _ in 0..run.min(n - out.len()) {
                out.push((k, AggState::from_value(rng.gen_u32_below(1_000))));
            }
        }
        out
    }

    /// The reference: a `FastMap` of the combined states, plus the
    /// first-delivery order of its keys.
    fn reference(stream: &[(GroupKey, AggState)]) -> (FastMap<GroupKey, AggState>, Vec<GroupKey>) {
        let mut map: FastMap<GroupKey, AggState> = FastMap::default();
        let mut order = Vec::new();
        for (k, a) in stream {
            map.entry(*k).and_modify(|s| s.merge(a)).or_insert_with(|| {
                order.push(*k);
                *a
            });
        }
        (map, order)
    }

    /// `table` holds exactly `map`, in `order`, and answers lookups of
    /// present and absent keys as the map does.
    fn assert_matches(
        table: &CombineTable,
        map: &FastMap<GroupKey, AggState>,
        order: &[GroupKey],
        what: &str,
    ) {
        assert_eq!(table.len(), map.len(), "{what}: len");
        assert_eq!(table.is_empty(), map.is_empty(), "{what}: is_empty");
        assert!(
            table.keys().eq(order.iter()),
            "{what}: first-delivery order"
        );
        for (k, a) in table {
            assert_eq!(map.get(k), Some(a), "{what}: contents");
        }
        for k in order {
            assert_eq!(table.get(k), map.get(k), "{what}: get");
            assert!(table.contains_key(k), "{what}: contains_key");
        }
        // Keys of no group: one past every value drawn, and every arity
        // the stream does not use.
        for arity in 0..=msa_stream::MAX_ATTRS {
            let absent = key(&vec![u32::MAX; arity]);
            assert_eq!(table.get(&absent), map.get(&absent), "{what}: get absent");
            assert_eq!(
                table.contains_key(&absent),
                map.contains_key(&absent),
                "{what}: absent"
            );
        }
    }

    /// The combining table against a `FastMap` reference: uniform and
    /// clustered streams, arities 1/2/4/8, from empty to 50k
    /// deliveries; from an empty table (through every index growth) and
    /// from a pre-sized one.
    #[test]
    fn combine_table_matches_a_fastmap_reference() {
        for clustered in [false, true] {
            for arity in [1, 2, 4, 8] {
                for n in [0, 1, 2, 1_000, 50_000] {
                    let what = format!("clustered={clustered} arity={arity} n={n}");
                    let stream = deliveries(n, arity, clustered, (n * 10 + arity) as u64);
                    let (map, order) = reference(&stream);
                    let mut grown = CombineTable::default();
                    let mut sized = CombineTable::with_capacity(map.len());
                    let room = capacity(&sized);
                    assert!(room >= map.len(), "{what}: pre-sized");
                    for &(k, a) in &stream {
                        grown.combine(k, a);
                        sized.combine(k, a);
                    }
                    assert_matches(&grown, &map, &order, &format!("{what} grown"));
                    assert_matches(&sized, &map, &order, &format!("{what} sized"));
                    assert_eq!(
                        capacity(&sized),
                        room,
                        "{what}: a pre-sized table never grows"
                    );
                    assert_eq!(grown, sized, "{what}");
                }
            }
        }
    }

    /// `==` compares contents, not delivery order.
    #[test]
    fn combine_table_equality_ignores_order() {
        let stream = deliveries(5_000, 2, false, 3);
        let mut forward = CombineTable::default();
        let mut backward = CombineTable::default();
        for &(k, a) in &stream {
            forward.combine(k, a);
        }
        for &(k, a) in stream.iter().rev() {
            backward.combine(k, a);
        }
        assert!(!forward.keys().eq(backward.keys()), "the orders differ");
        assert_eq!(forward, backward);
        // One more record in one group, or one more group, is a difference.
        let (k, a) = stream[17];
        let mut heavier = forward.clone();
        heavier.combine(k, a);
        assert_ne!(forward, heavier);
        let mut wider = forward.clone();
        wider.combine(key(&[u32::MAX, u32::MAX]), a);
        assert_ne!(forward, wider);
        assert_ne!(wider, forward);
    }

    /// Epochs through the HFTA: each close hands the table to its result
    /// and leaves an empty one sized for it; without retention the close
    /// empties the table in place and keeps its capacity. Results stay
    /// right in both modes, epoch after epoch.
    #[test]
    fn the_close_hands_the_table_over_and_reuses_it_without_retention() {
        let a = AttrSet::parse("AB").unwrap();
        for clustered in [false, true] {
            let stream = deliveries(30_000, 2, clustered, 11);
            // Epochs that shrink, then outgrow the one before.
            let epochs: Vec<&[(GroupKey, AggState)]> = [9_000, 3_000, 12_000, 6_000]
                .iter()
                .scan(0, |at, &n| {
                    let part = &stream[*at..*at + n];
                    *at += n;
                    Some(part)
                })
                .collect();
            let mut kept = Hfta::new(vec![a]);
            let mut discarding = Hfta::new(vec![a]).discard_results();
            for (e, part) in epochs.iter().enumerate() {
                let (map, order) = reference(part);
                for &(k, g) in *part {
                    kept.receive(0, k, g);
                    discarding.receive(0, k, g);
                }
                let what = format!("clustered={clustered} epoch {e}");
                assert_matches(
                    &discarding.current[0],
                    &map,
                    &order,
                    &format!("{what} reused"),
                );
                let reused = capacity(&discarding.current[0]);
                kept.close_epoch();
                discarding.close_epoch();
                let result = &kept.results()[e];
                assert_eq!(result.epoch, e as u64);
                assert_matches(&result.aggregates, &map, &order, &what);
                let next = &kept.current[0];
                assert!(
                    next.is_empty() && capacity(next) >= map.len(),
                    "{what}: pre-sized"
                );
                let emptied = &discarding.current[0];
                assert!(emptied.is_empty(), "{what}: cleared");
                assert_eq!(capacity(emptied), reused, "{what}: capacity kept");
                assert!(emptied.keys().next().is_none() && !emptied.contains_key(&order[0]));
            }
            assert!(discarding.results().is_empty());
        }
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
