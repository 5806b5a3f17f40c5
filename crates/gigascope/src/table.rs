//! The LFTA single-slot hash table (paper §2.2, Fig. 1).
//!
//! Each bucket holds at most one `{group, count}` pair. A probe by a
//! record whose group matches the occupant increments the count; a probe
//! into an empty bucket installs the group; a probe by a *different*
//! group is a **collision**: the occupant is evicted (to be combined
//! downstream) and the new group takes the bucket with count 1.

use msa_stream::{AttrSet, GroupKey, PrefixIndex};

/// Partial aggregate state carried by one bucket entry.
///
/// The paper's queries are `count(*)` plus value aggregates such as
/// "the average packet length" (§1). Each entry therefore tracks a
/// record count and — when the plan designates a metric attribute — the
/// sum/min/max of that metric, from which AVG is derived at the HFTA.
/// States merge associatively, so partial aggregates combine correctly
/// along the phantom → query → HFTA cascade.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AggState {
    /// Number of records absorbed.
    pub count: u64,
    /// Sum of the metric attribute over those records.
    pub sum: u64,
    /// Minimum metric value seen.
    pub min: u32,
    /// Maximum metric value seen.
    pub max: u32,
}

impl AggState {
    /// State of a single record with metric value `v`.
    #[inline]
    pub fn from_value(v: u32) -> AggState {
        AggState {
            count: 1,
            sum: u64::from(v),
            min: v,
            max: v,
        }
    }

    /// State of a single record with no metric (count-only plans).
    #[inline]
    pub fn unit() -> AggState {
        AggState::from_value(0)
    }

    /// Merges another partial state into this one.
    #[inline]
    pub fn merge(&mut self, other: &AggState) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Average metric value (`sum / count`), 0 when empty.
    pub fn avg(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One occupied bucket: a group and its partial aggregate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Entry {
    /// The group occupying the bucket.
    pub key: GroupKey,
    /// Partial aggregate absorbed since the group last took the bucket.
    pub agg: AggState,
}

impl Entry {
    /// Records absorbed since the group last took the bucket.
    #[inline]
    pub fn count(&self) -> u64 {
        self.agg.count
    }
}

/// Outcome of a probe.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Probe {
    /// The bucket already held this group; count incremented.
    Hit,
    /// The bucket was empty; group installed.
    Inserted,
    /// The bucket held a different group, which was evicted.
    Evicted(Entry),
}

/// Cumulative statistics of one table.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TableStats {
    /// Number of probes (records or parent evictions fed to the table).
    pub probes: u64,
    /// Number of collisions (probes that evicted an occupant).
    pub collisions: u64,
    /// Records absorbed by occupants before their eviction, summed over
    /// evictions — `absorbed / collisions` estimates the average flow
    /// length the paper derives temporally (§4.3).
    pub absorbed_before_eviction: u64,
}

impl TableStats {
    /// Observed collision rate (`collisions / probes`), 0 when idle.
    pub fn collision_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.collisions as f64 / self.probes as f64
        }
    }

    /// Observed average run length of evicted occupants: the paper's
    /// temporally-derived flow length.
    pub fn avg_run_length(&self) -> f64 {
        if self.collisions == 0 {
            1.0
        } else {
            self.absorbed_before_eviction as f64 / self.collisions as f64
        }
    }
}

/// One bucket: an [`Entry`] padded to exactly one 64-byte cache line.
///
/// Occupancy lives in the table's bitmap, not in the slot, so the slot
/// carries no tag: the 36-byte key and the 24-byte aggregate fill one
/// line, and a probe that compares the key and merges the aggregate
/// touches that line alone.
#[derive(Clone, Copy, Debug)]
#[repr(align(64))]
struct Slot(Entry);

// A probe touches one line only while a slot is exactly one line.
const _: () = assert!(std::mem::size_of::<Slot>() == 64 && std::mem::align_of::<Slot>() == 64);

impl Slot {
    /// The content of a bucket whose occupancy bit is clear. Its value
    /// is never used: a probe overwrites it before setting the bit, and
    /// a drain skips it.
    fn vacant() -> Slot {
        Slot(Entry {
            key: GroupKey::from_values(&[]),
            agg: AggState {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
            },
        })
    }
}

/// A single-slot hash table over the groups of one relation.
///
/// Bucket `i` is occupied exactly when bit `i % 64` of occupancy word
/// `i / 64` is set; the bitmap is the only occupancy record. It lets
/// [`Self::drain`] visit only occupied buckets, in ascending order, at
/// a cost of one bit per bucket.
#[derive(Clone, Debug)]
pub struct LftaTable {
    attrs: AttrSet,
    seed: u64,
    slots: Vec<Slot>,
    occupancy: Vec<u64>,
    occupied: usize,
    stats: TableStats,
}

impl LftaTable {
    /// Creates a table for relation `attrs` with `buckets` slots.
    ///
    /// `seed` decorrelates the hash functions of different tables (the
    /// model assumes tables hash independently).
    ///
    /// # Panics
    /// Panics if `buckets == 0`.
    pub fn new(attrs: AttrSet, buckets: usize, seed: u64) -> LftaTable {
        assert!(buckets > 0, "table needs at least one bucket");
        LftaTable {
            attrs,
            seed,
            slots: vec![Slot::vacant(); buckets],
            occupancy: vec![0; buckets.div_ceil(64)],
            occupied: 0,
            stats: TableStats::default(),
        }
    }

    /// The relation this table aggregates.
    #[inline]
    pub fn attrs(&self) -> AttrSet {
        self.attrs
    }

    /// Number of buckets.
    #[inline]
    pub fn buckets(&self) -> usize {
        self.slots.len()
    }

    /// Number of occupied buckets.
    #[inline]
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Space consumed in 4-byte words (`buckets · (|attrs| + 1)`).
    pub fn space_words(&self) -> usize {
        self.buckets() * self.attrs.entry_words()
    }

    /// Cumulative statistics.
    #[inline]
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// The bucket index `key` hashes to. Pure: the chunked probe
    /// precomputes slots for a whole batch of keys before touching
    /// the table, so the loads of the slot array overlap.
    #[inline]
    pub fn slot_of(&self, key: &GroupKey) -> usize {
        let len = self.slots.len() as u64;
        (key.hash_with_seed(self.seed) % len.max(1)) as usize
    }

    /// Touches bucket `idx` so its cache line is resident before the
    /// apply loop probes it. `black_box` forces the load to happen;
    /// the reads of a batch of independent slots issue back-to-back,
    /// which is the whole point — memory-level parallelism without an
    /// architecture-specific prefetch intrinsic (the workspace denies
    /// `unsafe`). A slot is one line, so one read brings in both the
    /// key the probe compares and the aggregate it writes.
    #[inline]
    pub fn warm_slot(&self, idx: usize) {
        if let Some(Slot(entry)) = self.slots.get(idx) {
            std::hint::black_box(entry.agg.count);
        }
    }

    /// Probes the table with `key`, merging `agg` into the occupant
    /// (a unit state for a raw record; the evicted partial when fed
    /// from a parent table).
    #[inline]
    pub fn probe(&mut self, key: GroupKey, agg: AggState) -> Probe {
        let idx = self.slot_of(&key);
        self.probe_at(idx, key, agg)
    }

    /// Probes bucket `idx` with `key` — the chunked path, where `idx`
    /// was precomputed by [`Self::slot_of`]. Bit-identical to
    /// [`Self::probe`] when `idx == self.slot_of(&key)`.
    #[inline]
    pub fn probe_at(&mut self, idx: usize, key: GroupKey, agg: AggState) -> Probe {
        debug_assert_eq!(key.arity(), self.attrs.len());
        debug_assert_eq!(idx, self.slot_of(&key));
        self.stats.probes += 1;
        let (Some(word), Some(Slot(entry))) =
            (self.occupancy.get_mut(idx / 64), self.slots.get_mut(idx))
        else {
            // Unreachable: plans validate buckets > 0, so idx < len.
            return Probe::Hit;
        };
        let bit = 1u64 << (idx % 64);
        if *word & bit == 0 {
            *word |= bit;
            *entry = Entry { key, agg };
            self.occupied += 1;
            Probe::Inserted
        } else if entry.key == key {
            entry.agg.merge(&agg);
            Probe::Hit
        } else {
            let evicted = std::mem::replace(entry, Entry { key, agg });
            self.stats.collisions += 1;
            self.stats.absorbed_before_eviction += evicted.agg.count;
            Probe::Evicted(evicted)
        }
    }

    /// Removes and returns all occupied entries in ascending bucket
    /// order (end-of-epoch flush). Walks the set bits of the occupancy
    /// bitmap, so it reads only occupied slots and writes only the
    /// bitmap words that had bits set.
    pub fn drain(&mut self) -> Vec<Entry> {
        let mut out = Vec::with_capacity(self.occupied);
        for (word, block) in self.occupancy.iter_mut().zip(self.slots.chunks(64)) {
            if *word == 0 {
                continue;
            }
            let mut bits = std::mem::take(word);
            while bits != 0 {
                if let Some(Slot(entry)) = block.get(bits.trailing_zeros() as usize) {
                    out.push(*entry);
                }
                bits &= bits - 1;
            }
        }
        self.occupied = 0;
        out
    }

    /// Resets statistics (tables keep their contents).
    pub fn reset_stats(&mut self) {
        self.stats = TableStats::default();
    }

    /// Restores checkpointed statistics (recovery rebuilds tables empty
    /// — epoch-aligned checkpoints find them drained — and re-installs
    /// the cumulative counters so stats stay continuous across a crash).
    pub fn restore_stats(&mut self, stats: TableStats) {
        self.stats = stats;
    }
}

/// Streams `keys` through a fresh `buckets`-slot table and returns the
/// observed collision rate — the measurement behind the paper's Fig. 5.
pub fn measure_collision_rate<I: IntoIterator<Item = GroupKey>>(
    keys: I,
    attrs: AttrSet,
    buckets: usize,
    seed: u64,
) -> f64 {
    let mut table = LftaTable::new(attrs, buckets, seed);
    for key in keys {
        table.probe(key, AggState::unit());
    }
    table.stats().collision_rate()
}

/// Derives average flow lengths the paper's way (§4.3: "the average flow
/// length can be computed by maintaining the number of times hash table
/// bucket entries are updated before being evicted"): stream the records
/// through one probe table per relation and read each table's average
/// occupant run length.
///
/// Unlike the consecutive-run statistic in `msa_stream::DatasetStats`,
/// this captures clusteredness that survives flow interleaving — packets
/// of concurrently active flows still revisit their own buckets without
/// eviction, so the bucket-level run length approaches the true flow
/// length while the record-level run length collapses towards 1.
///
/// The records are interned once over the union of `sets`
/// ([`PrefixIndex`]). The tables then run one at a time: for each set,
/// every interned key is projected and slotted once, and the records'
/// key ids are fed through the set's table in record order. Each table
/// therefore sees exactly the probe sequence a record-at-a-time pass
/// over all tables would give it, while only one table needs to stay in
/// cache.
pub fn temporal_flow_lengths(
    records: &[msa_stream::Record],
    sets: &[AttrSet],
    buckets_per_table: usize,
    seed: u64,
) -> Vec<(AttrSet, f64)> {
    let universe = sets.iter().fold(AttrSet::EMPTY, |u, &s| u.union(s));
    let index = PrefixIndex::build(records, universe);
    let mut slotted: Vec<(usize, GroupKey)> = Vec::new();
    sets.iter()
        .map(|&set| {
            let mut table = LftaTable::new(
                set,
                buckets_per_table.max(1),
                seed ^ u64::from(set.bits()) << 32,
            );
            slotted.clear();
            slotted.extend(
                index
                    .projected_keys(set)
                    .map(|key| (table.slot_of(&key), key)),
            );
            for &id in index.ids() {
                if let Some(&(idx, key)) = slotted.get(id) {
                    table.probe_at(idx, key, AggState::unit());
                }
            }
            (set, table.stats().avg_run_length().max(1.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msa_stream::Record;

    fn key(vals: &[u32]) -> GroupKey {
        GroupKey::from_values(vals)
    }

    #[test]
    fn paper_walkthrough_example() {
        // §2.2: stream prefix 2, 24, 2, 2, 3, 17, 3, 4 with hash = mod 10.
        // Our hash is not mod 10, so reproduce the *semantics*: force
        // collisions by using a 1-bucket table for two alternating groups.
        let a = AttrSet::parse("A").unwrap();
        let mut t = LftaTable::new(a, 1, 0);
        assert_eq!(t.probe(key(&[2]), AggState::unit()), Probe::Inserted);
        assert_eq!(t.probe(key(&[2]), AggState::unit()), Probe::Hit);
        assert_eq!(t.probe(key(&[2]), AggState::unit()), Probe::Hit);
        match t.probe(key(&[24]), AggState::unit()) {
            Probe::Evicted(e) => {
                assert_eq!(e.key, key(&[2]));
                assert_eq!(e.count(), 3);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(t.stats().collisions, 1);
        assert_eq!(t.stats().probes, 4);
    }

    #[test]
    fn distinct_groups_in_distinct_buckets_do_not_collide() {
        let a = AttrSet::parse("A").unwrap();
        let mut t = LftaTable::new(a, 1 << 16, 7);
        // 100 groups in 65536 buckets: collisions are overwhelmingly
        // unlikely (expected ≈ 0.07 pairs).
        for round in 0..10 {
            for g in 0..100u32 {
                let _ = t.probe(key(&[g]), AggState::unit());
            }
            let _ = round;
        }
        assert_eq!(t.stats().probes, 1000);
        assert!(t.stats().collisions <= 200, "{}", t.stats().collisions);
        assert!(t.occupied() >= 98);
    }

    #[test]
    fn drain_returns_all_and_empties() {
        let a = AttrSet::parse("AB").unwrap();
        let mut t = LftaTable::new(a, 64, 3);
        let two = {
            let mut s = AggState::unit();
            s.merge(&AggState::unit());
            s
        };
        for g in 0..20u32 {
            t.probe(key(&[g, g + 1]), two);
        }
        let drained = t.drain();
        let total: u64 = drained.iter().map(|e| e.count()).sum();
        assert!(total >= 40 - 2 * t.stats().collisions * 2);
        assert_eq!(t.occupied(), 0);
        assert!(t.drain().is_empty());
    }

    #[test]
    fn counts_accumulate_with_weights() {
        let a = AttrSet::parse("A").unwrap();
        let mut t = LftaTable::new(a, 8, 1);
        let mut three = AggState::from_value(10);
        three.merge(&AggState::from_value(20));
        three.merge(&AggState::from_value(3));
        let mut four = AggState::from_value(7);
        four.merge(&AggState::from_value(7));
        four.merge(&AggState::from_value(7));
        four.merge(&AggState::from_value(40));
        t.probe(key(&[5]), three);
        t.probe(key(&[5]), four);
        let drained = t.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].count(), 7);
        // Value aggregates merged across partials.
        assert_eq!(drained[0].agg.sum, 10 + 20 + 3 + 7 * 3 + 40);
        assert_eq!(drained[0].agg.min, 3);
        assert_eq!(drained[0].agg.max, 40);
    }

    #[test]
    fn stats_track_run_lengths() {
        let a = AttrSet::parse("A").unwrap();
        let mut t = LftaTable::new(a, 1, 0);
        // Runs of 5 and 3 before evictions.
        for _ in 0..5 {
            t.probe(key(&[1]), AggState::unit());
        }
        for _ in 0..3 {
            t.probe(key(&[2]), AggState::unit());
        }
        t.probe(key(&[3]), AggState::unit());
        let s = t.stats();
        assert_eq!(s.collisions, 2);
        assert_eq!(s.absorbed_before_eviction, 8);
        assert!((s.avg_run_length() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn measured_rate_matches_model_on_random_keys() {
        // g = 3000 random groups visited uniformly over 100k probes into
        // b = 1000 buckets: the measured rate must sit near the precise
        // model x = 1 − (1 − e^{−3})/3 ≈ 0.6833 at g/b = 3 (see
        // msa-collision). Statistical check with generous tolerance.
        let mut rng = msa_stream::SplitMix64::new(5);
        let groups: Vec<GroupKey> = (0..3000)
            .map(|_| {
                let r = Record::new(&[rng.next_u32(), rng.next_u32()], 0);
                r.project(AttrSet::parse("AB").unwrap())
            })
            .collect();
        let mut key_rng = rng.clone();
        let keys = (0..100_000).map(move |_| groups[key_rng.gen_index(groups.len())]);
        let x = measure_collision_rate(keys, AttrSet::parse("AB").unwrap(), 1000, 11);
        assert!((x - 0.6833).abs() < 0.03, "measured {x}");
    }

    #[test]
    fn temporal_flow_lengths_see_through_interleaving() {
        use msa_stream::{ClusteredStreamBuilder, FlowLengthDistribution};
        let stream = ClusteredStreamBuilder::new(2, 64)
            .records(40_000)
            .flow_lengths(FlowLengthDistribution::Constant { len: 25 })
            .active_flows(16)
            .seed(2)
            .build();
        let ab = AttrSet::parse("AB").unwrap();
        // Record-level runs are short because 16 flows interleave...
        let run_based = msa_stream::DatasetStats::compute(&stream.records, ab).flow_length(ab);
        // ...but bucket-level flow lengths recover (much more of) the
        // true per-flow value of 25.
        let derived = temporal_flow_lengths(&stream.records, &[ab], 1024, 7);
        let l = derived[0].1;
        assert!(l > 10.0, "bucket-level flow length {l}");
        assert!(
            l > 2.0 * run_based,
            "bucket-level {l} should far exceed run-based {run_based}"
        );
    }

    #[test]
    fn temporal_flow_lengths_near_one_for_random_data() {
        let mut rng = msa_stream::SplitMix64::new(9);
        let records: Vec<msa_stream::Record> = (0..20_000)
            .map(|i| msa_stream::Record::new(&[rng.gen_u32_below(2000)], i))
            .collect();
        let a = AttrSet::parse("A").unwrap();
        let derived = temporal_flow_lengths(&records, &[a], 512, 3);
        let l = derived[0].1;
        assert!(l < 2.5, "random data flow length {l}");
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let _ = LftaTable::new(AttrSet::parse("A").unwrap(), 0, 0);
    }

    #[test]
    fn agg_state_merge_algebra() {
        let mut a = AggState::from_value(10);
        a.merge(&AggState::from_value(2));
        a.merge(&AggState::from_value(30));
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 42);
        assert_eq!(a.min, 2);
        assert_eq!(a.max, 30);
        assert!((a.avg() - 14.0).abs() < 1e-12);
        // Merge is order-insensitive.
        let mut b = AggState::from_value(30);
        b.merge(&AggState::from_value(10));
        b.merge(&AggState::from_value(2));
        assert_eq!(a, b);
    }

    /// The table as it was before the occupancy bitmap: an `Option`
    /// tag per slot and a drain that scans every bucket. It hashes on
    /// its own (`hash % buckets`), so it pins [`LftaTable::slot_of`] too.
    struct ModelTable {
        seed: u64,
        slots: Vec<Option<Entry>>,
        occupied: usize,
        stats: TableStats,
    }

    impl ModelTable {
        fn new(buckets: usize, seed: u64) -> ModelTable {
            ModelTable {
                seed,
                slots: vec![None; buckets],
                occupied: 0,
                stats: TableStats::default(),
            }
        }

        fn probe(&mut self, key: GroupKey, agg: AggState) -> Probe {
            let idx = (key.hash_with_seed(self.seed) % self.slots.len() as u64) as usize;
            self.stats.probes += 1;
            match &mut self.slots[idx] {
                Some(entry) if entry.key == key => {
                    entry.agg.merge(&agg);
                    Probe::Hit
                }
                Some(entry) => {
                    let evicted = std::mem::replace(entry, Entry { key, agg });
                    self.stats.collisions += 1;
                    self.stats.absorbed_before_eviction += evicted.agg.count;
                    Probe::Evicted(evicted)
                }
                slot @ None => {
                    *slot = Some(Entry { key, agg });
                    self.occupied += 1;
                    Probe::Inserted
                }
            }
        }

        fn drain(&mut self) -> Vec<Entry> {
            self.occupied = 0;
            self.slots.iter_mut().filter_map(Option::take).collect()
        }
    }

    #[test]
    fn bitmap_table_matches_option_slot_model() {
        let ab = AttrSet::parse("AB").unwrap();
        // Bucket counts straddle the 64-bucket occupancy word: a single
        // bucket, one short of a word, exactly one, one over, and a
        // partial last word on a larger table.
        for buckets in [1usize, 63, 64, 65, 4097] {
            let seed = 0x7AB1E ^ buckets as u64;
            let mut table = LftaTable::new(ab, buckets, seed);
            let mut model = ModelTable::new(buckets, seed);
            let mut rng = msa_stream::SplitMix64::new(buckets as u64);
            let groups = (2 * buckets) as u32;
            // Sparse, dense and overfull epochs, so drains see isolated
            // bits, partly full words and full words.
            for probes in [buckets / 3 + 1, 4 * buckets, 2, 10 * buckets + 7] {
                for _ in 0..probes {
                    let k = key(&[rng.gen_u32_below(groups), rng.gen_u32_below(2)]);
                    let agg = AggState::from_value(rng.gen_u32_below(1_000));
                    assert_eq!(
                        table.probe(k, agg),
                        model.probe(k, agg),
                        "{buckets} buckets"
                    );
                    assert_eq!(table.occupied(), model.occupied, "{buckets} buckets");
                }
                assert_eq!(table.stats(), model.stats, "{buckets} buckets");
                let drained = table.drain();
                assert_eq!(drained, model.drain(), "{buckets} buckets: drain order");
                assert!(!drained.is_empty());
                assert_eq!(table.occupied(), 0);
                assert!(table.drain().is_empty(), "{buckets} buckets: second drain");
            }
        }
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let a = AttrSet::parse("A").unwrap();
        let mut t = LftaTable::new(a, 4, 0);
        t.probe(key(&[1]), AggState::unit());
        t.reset_stats();
        assert_eq!(t.stats().probes, 0);
        assert_eq!(t.occupied(), 1);
    }
}
