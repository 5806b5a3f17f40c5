//! Dataset statistics: group counts and average flow lengths.
//!
//! The paper's cost model consumes, for every relation `R` it might
//! instantiate, the number of groups `g_R` and — for clustered data — the
//! average flow length `l_R` (§4.3/§5.3: space ∝ `√(g·h/l)`). The paper
//! derives flow lengths "temporally": here a flow of relation `R` is a
//! maximal run of consecutive records with the same `R`-group key, so
//! `l_R = records / runs_R`.
//!
//! Every statistic over the subsets of a universe `U` reads one
//! [`PrefixIndex`], built in a single pass over the records: the paper's
//! own sharing (§3), where a phantom aggregates once at the finest
//! grouping and its children derive the coarser ones from it.

use crate::attr::{subsets_of, AttrSet, MAX_ATTRS};
use crate::hash::{fast_set_with_capacity, FastMap};
use crate::record::{GroupKey, KeyProjection, Record};
use std::collections::BTreeMap;

/// A record prefix interned over a universe of attributes, in one pass.
///
/// Each distinct universe key gets a dense id in first-seen order, and
/// each record keeps its key's id. Each record after the first also has
/// a change mask: the universe attributes whose value differs from the
/// previous record's. The index keeps how many records carry each mask.
/// Every subset `S` of the universe then reads its statistics off the
/// index without touching the records again:
///
/// * its groups are the distinct projections of the interned keys onto
///   `S` ([`Self::groups`], `O(distinct)`);
/// * its runs are the records whose change mask meets `S`, plus the
///   first record, which always starts a run ([`Self::runs`],
///   `O(2^|U|)`);
/// * a consumer that replays the prefix per set, such as a probe table,
///   takes each interned key's projection once ([`Self::projected_keys`])
///   and walks the records' ids ([`Self::ids`]).
#[derive(Debug)]
pub struct PrefixIndex {
    universe: AttrSet,
    /// The distinct universe keys; id `k` names `keys[k]`.
    keys: Vec<GroupKey>,
    /// Each record's key id, in record order.
    ids: Vec<usize>,
    /// `change_counts[m]` is the number of records after the first
    /// whose change mask is `m`.
    change_counts: [usize; 1 << MAX_ATTRS],
}

impl PrefixIndex {
    /// Interns `records` over `universe`: one key projection, one change
    /// mask and at most one hash-map lookup per record. A record whose
    /// universe attributes all equal the previous record's reuses its id
    /// without a lookup.
    pub fn build(records: &[Record], universe: AttrSet) -> PrefixIndex {
        let mut interned: FastMap<GroupKey, usize> = FastMap::default();
        let mut keys = Vec::new();
        let mut ids = Vec::with_capacity(records.len());
        let mut change_counts = [0usize; 1 << MAX_ATTRS];
        let mut prev: Option<(&Record, usize)> = None;
        for r in records {
            let id = match prev {
                Some((p, id)) => {
                    let mask = change_mask(p, r, universe);
                    if let Some(count) = change_counts.get_mut(usize::from(mask)) {
                        *count += 1;
                    }
                    if mask == 0 {
                        id
                    } else {
                        intern(&mut interned, &mut keys, r.project(universe))
                    }
                }
                None => intern(&mut interned, &mut keys, r.project(universe)),
            };
            ids.push(id);
            prev = Some((r, id));
        }
        PrefixIndex {
            universe,
            keys,
            ids,
            change_counts,
        }
    }

    /// Each record's key id, in record order.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// The interned keys projected onto `set`, in id order: the `k`-th
    /// item is the `set`-group of every record with id `k`.
    ///
    /// `set` must be a subset of the universe; the keys are projected
    /// onto the part of `set` the universe holds.
    pub fn projected_keys(&self, set: AttrSet) -> impl Iterator<Item = GroupKey> + '_ {
        debug_assert!(set.is_subset_of(self.universe));
        let projection = KeyProjection::new(self.universe, set);
        self.keys.iter().map(move |k| projection.apply(k))
    }

    /// Number of distinct groups of `set` over the prefix.
    pub fn groups(&self, set: AttrSet) -> usize {
        let mut distinct = fast_set_with_capacity(1024);
        distinct.extend(self.projected_keys(set));
        distinct.len()
    }

    /// Number of maximal runs of consecutive records with the same
    /// `set`-group key: the first record, plus every later record whose
    /// change mask meets `set`.
    pub fn runs(&self, set: AttrSet) -> usize {
        if self.ids.is_empty() {
            return 0;
        }
        let later: usize = self
            .change_counts
            .iter()
            .enumerate()
            .filter(|&(mask, _)| mask & usize::from(set.bits()) != 0)
            .map(|(_, &count)| count)
            .sum();
        1 + later
    }
}

/// The universe attributes whose value differs between `prev` and `r`,
/// as `AttrSet` bits.
#[inline]
fn change_mask(prev: &Record, r: &Record, universe: AttrSet) -> u16 {
    let mut mask = 0u16;
    for (a, (x, y)) in prev.attrs.iter().zip(&r.attrs).enumerate() {
        mask |= u16::from(x != y) << a;
    }
    mask & universe.bits()
}

/// The id of `key`, giving it the next id if it is new.
#[inline]
fn intern(
    interned: &mut FastMap<GroupKey, usize>,
    keys: &mut Vec<GroupKey>,
    key: GroupKey,
) -> usize {
    *interned.entry(key).or_insert_with(|| {
        keys.push(key);
        keys.len() - 1
    })
}

/// Per-attribute-set statistics of a concrete dataset.
#[derive(Clone, Debug, Default)]
pub struct DatasetStats {
    // BTreeMaps so `known_sets()` iterates in a deterministic order —
    // planners walk these when sizing relations (msa-lint D002).
    groups: BTreeMap<AttrSet, usize>,
    flow_lengths: BTreeMap<AttrSet, f64>,
    records: usize,
}

impl DatasetStats {
    /// Computes statistics for every non-empty subset of `universe`.
    ///
    /// For the paper's 4 attributes that is 15 subsets, all read off one
    /// [`PrefixIndex`] built in a single traversal here. Cost is
    /// `O(n + 2^|universe| · distinct)`, `distinct` being the number of
    /// distinct `universe` keys among the `n` records.
    pub fn compute(records: &[Record], universe: AttrSet) -> DatasetStats {
        let sets: Vec<AttrSet> = subsets_of(universe).collect();
        DatasetStats::compute_for(records, &sets)
    }

    /// Computes statistics only for the given attribute sets, from one
    /// [`PrefixIndex`] over their union.
    pub fn compute_for(records: &[Record], sets: &[AttrSet]) -> DatasetStats {
        let universe = sets.iter().fold(AttrSet::EMPTY, |u, &s| u.union(s));
        let index = PrefixIndex::build(records, universe);
        let mut groups = BTreeMap::new();
        let mut flow_lengths = BTreeMap::new();
        for &set in sets {
            groups.insert(set, index.groups(set));
            let runs = index.runs(set);
            let fl = if runs == 0 {
                1.0
            } else {
                records.len() as f64 / runs as f64
            };
            flow_lengths.insert(set, fl);
        }
        DatasetStats {
            groups,
            flow_lengths,
            records: records.len(),
        }
    }

    /// Builds synthetic statistics from explicit `(relation, groups)`
    /// pairs with flow length 1 everywhere. Useful for planning with
    /// estimated cardinalities before any data has been seen.
    pub fn from_group_counts<I: IntoIterator<Item = (AttrSet, usize)>>(
        counts: I,
        records: usize,
    ) -> DatasetStats {
        let groups: BTreeMap<AttrSet, usize> = counts.into_iter().collect();
        let flow_lengths: BTreeMap<AttrSet, f64> = groups.keys().map(|&s| (s, 1.0)).collect();
        DatasetStats {
            groups,
            flow_lengths,
            records,
        }
    }

    /// Overrides (or inserts) the flow length of one relation.
    pub fn set_flow_length(&mut self, set: AttrSet, l: f64) {
        assert!(l >= 1.0, "flow length must be ≥ 1");
        self.flow_lengths.insert(set, l);
    }

    /// Overrides (or inserts) the group count of one relation.
    pub fn set_groups(&mut self, set: AttrSet, g: usize) {
        self.groups.insert(set, g);
    }

    /// Number of groups of relation `set`.
    ///
    /// # Panics
    /// Panics if the set was not part of the computation — group counts
    /// feed hard sizing decisions, so a silent default would be a bug.
    pub fn groups(&self, set: AttrSet) -> usize {
        *self
            .groups
            .get(&set)
            .unwrap_or_else(|| panic!("no group count computed for {set}"))
    }

    /// Group count if known.
    pub fn groups_opt(&self, set: AttrSet) -> Option<usize> {
        self.groups.get(&set).copied()
    }

    /// Average (temporal) flow length of relation `set`; 1.0 means no
    /// clusteredness.
    pub fn flow_length(&self, set: AttrSet) -> f64 {
        self.flow_lengths.get(&set).copied().unwrap_or(1.0)
    }

    /// Number of records the statistics were computed over.
    pub fn records(&self) -> usize {
        self.records
    }

    /// All relations with known statistics.
    pub fn known_sets(&self) -> impl Iterator<Item = AttrSet> + '_ {
        self.groups.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(vals: &[u32]) -> Record {
        Record::new(vals, 0)
    }

    #[test]
    fn group_counts_per_projection() {
        let records = vec![rec(&[1, 10]), rec(&[1, 11]), rec(&[2, 10]), rec(&[2, 10])];
        let s = DatasetStats::compute(&records, AttrSet::parse("AB").unwrap());
        assert_eq!(s.groups(AttrSet::parse("A").unwrap()), 2);
        assert_eq!(s.groups(AttrSet::parse("B").unwrap()), 2);
        assert_eq!(s.groups(AttrSet::parse("AB").unwrap()), 3);
        assert_eq!(s.records(), 4);
    }

    #[test]
    fn flow_length_counts_maximal_runs() {
        // Runs on A: [1 1] [2] [1] → 3 runs over 4 records.
        let records = vec![rec(&[1]), rec(&[1]), rec(&[2]), rec(&[1])];
        let s = DatasetStats::compute(&records, AttrSet::parse("A").unwrap());
        let fl = s.flow_length(AttrSet::parse("A").unwrap());
        assert!((fl - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn coarser_projection_has_longer_runs() {
        // B alternates within constant A: A-runs longer than AB-runs.
        let records = vec![
            rec(&[1, 5]),
            rec(&[1, 6]),
            rec(&[1, 5]),
            rec(&[2, 5]),
            rec(&[2, 6]),
        ];
        let s = DatasetStats::compute(&records, AttrSet::parse("AB").unwrap());
        assert!(
            s.flow_length(AttrSet::parse("A").unwrap())
                > s.flow_length(AttrSet::parse("AB").unwrap())
        );
    }

    #[test]
    fn empty_dataset_is_safe() {
        let s = DatasetStats::compute(&[], AttrSet::parse("AB").unwrap());
        assert_eq!(s.groups(AttrSet::parse("A").unwrap()), 0);
        assert_eq!(s.flow_length(AttrSet::parse("A").unwrap()), 1.0);
    }

    #[test]
    #[should_panic(expected = "no group count")]
    fn unknown_set_panics() {
        let s = DatasetStats::compute(&[], AttrSet::parse("A").unwrap());
        let _ = s.groups(AttrSet::parse("B").unwrap());
    }

    #[test]
    fn synthetic_stats_roundtrip() {
        let ab = AttrSet::parse("AB").unwrap();
        let mut s = DatasetStats::from_group_counts([(ab, 100)], 1000);
        assert_eq!(s.groups(ab), 100);
        assert_eq!(s.flow_length(ab), 1.0);
        s.set_flow_length(ab, 3.5);
        assert_eq!(s.flow_length(ab), 3.5);
        s.set_groups(ab, 120);
        assert_eq!(s.groups(ab), 120);
    }
}
