//! Records, schemas and group keys.
//!
//! A [`Record`] models one IP packet header: up to [`MAX_ATTRS`] 4-byte
//! attribute values (source IP, source port, ...) plus a timestamp used
//! for epoch assignment. A [`GroupKey`] is the projection of a record onto
//! an [`AttrSet`] — the unit stored in LFTA hash-table buckets.

use crate::attr::{AttrSet, MAX_ATTRS};
use crate::hash::FastHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Stream schema: names the attributes of the stream relation.
///
/// Purely descriptive — the execution path works with positional
/// attribute ids — but examples and reports use it to print meaningful
/// labels ("srcIP" instead of "A").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    names: Vec<String>,
}

impl Schema {
    /// Creates a schema from attribute names, positionally mapped to
    /// `A, B, C, ...`.
    ///
    /// # Panics
    /// Panics if more than [`MAX_ATTRS`] names are given.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(names: I) -> Schema {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        assert!(
            names.len() <= MAX_ATTRS,
            "at most {MAX_ATTRS} attributes supported"
        );
        Schema { names }
    }

    /// The canonical four-attribute packet-header schema from the paper.
    pub fn packet_headers() -> Schema {
        Schema::new(["srcIP", "srcPort", "dstIP", "dstPort"])
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.names.len()
    }

    /// Name of attribute `id`, if present.
    pub fn name(&self, id: u8) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// The full attribute set of this schema.
    pub fn all_attrs(&self) -> AttrSet {
        AttrSet::from_attrs(0..self.arity() as u8)
    }

    /// Renders an attribute set with schema names: `AB` → `srcIP,srcPort`.
    pub fn describe(&self, set: AttrSet) -> String {
        let mut out = String::new();
        for (i, a) in set.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match self.name(a) {
                Some(n) => out.push_str(n),
                None => out.push((b'A' + a) as char),
            }
        }
        out
    }
}

/// One stream tuple: attribute values plus a timestamp in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Record {
    /// Attribute values, positionally `A, B, C, ...`. Unused positions
    /// are zero.
    pub attrs: [u32; MAX_ATTRS],
    /// Arrival timestamp in microseconds since stream start.
    pub ts_micros: u64,
}

impl Record {
    /// Creates a record from a value slice (remaining attributes zeroed).
    ///
    /// # Panics
    /// Panics if more than [`MAX_ATTRS`] values are given.
    pub fn new(values: &[u32], ts_micros: u64) -> Record {
        assert!(values.len() <= MAX_ATTRS);
        let mut attrs = [0u32; MAX_ATTRS];
        attrs[..values.len()].copy_from_slice(values);
        Record { attrs, ts_micros }
    }

    /// Projects the record onto `set`, yielding the group key.
    #[inline]
    pub fn project(&self, set: AttrSet) -> GroupKey {
        let mut vals = [0u32; MAX_ATTRS];
        let mut len = 0u8;
        for a in set.iter() {
            if let (Some(dst), Some(&src)) =
                (vals.get_mut(len as usize), self.attrs.get(a as usize))
            {
                *dst = src;
                len += 1;
            }
        }
        GroupKey { vals, len }
    }
}

/// The projection of a record onto an attribute set: the paper's *group*.
///
/// Values are stored in ascending attribute-id order, so two records in
/// the same group always produce identical keys. The type is `Copy` and
/// allocation-free. Every constructor zeroes the words past the arity,
/// so equality compares the arity and the whole fixed-width array
/// (which equals comparing the live prefixes), while hashing reads only
/// the live prefix.
#[derive(Clone, Copy)]
pub struct GroupKey {
    vals: [u32; MAX_ATTRS],
    len: u8,
}

impl GroupKey {
    /// Builds a key directly from values (ascending attribute order).
    pub fn from_values(values: &[u32]) -> GroupKey {
        assert!(values.len() <= MAX_ATTRS);
        let mut vals = [0u32; MAX_ATTRS];
        vals[..values.len()].copy_from_slice(values);
        GroupKey {
            vals,
            len: values.len() as u8,
        }
    }

    /// A key of `len` zeroed values, to be filled in place by the
    /// columnar projection in [`crate::chunk`].
    #[inline]
    pub(crate) fn zeroed(len: u8) -> GroupKey {
        GroupKey {
            vals: [0u32; MAX_ATTRS],
            len: len.min(MAX_ATTRS as u8),
        }
    }

    /// Writes value position `pos`; a no-op at or past the arity, so
    /// the words there stay zero as `==` requires.
    #[inline]
    pub(crate) fn set_val(&mut self, pos: usize, v: u32) {
        if pos < self.len as usize {
            if let Some(dst) = self.vals.get_mut(pos) {
                *dst = v;
            }
        }
    }

    /// The live attribute values. Every constructor caps the arity at
    /// [`MAX_ATTRS`], so the empty fallback is never taken.
    #[inline]
    pub fn values(&self) -> &[u32] {
        self.vals.get(..usize::from(self.len)).unwrap_or(&[])
    }

    /// Number of attributes in the key.
    #[inline]
    pub fn arity(&self) -> usize {
        self.len as usize
    }

    /// Re-projects this key onto a *subset* of the attributes of the
    /// relation it was built for.
    ///
    /// `own` must be the attribute set this key was projected on and
    /// `target ⊆ own`; this is the feed path from a phantom table entry to
    /// a child table. A caller that re-projects many keys along the same
    /// edge builds the [`KeyProjection`] once instead.
    #[inline]
    pub fn reproject(&self, own: AttrSet, target: AttrSet) -> GroupKey {
        debug_assert!(target.is_subset_of(own));
        debug_assert_eq!(own.len(), self.arity());
        KeyProjection::new(own, target).apply(self)
    }

    /// Hashes the key with an explicit seed (used by LFTA tables so that
    /// different tables use independent hash functions).
    #[inline]
    pub fn hash_with_seed(&self, seed: u64) -> u64 {
        FastHasher::hash_words(seed, self.values())
    }
}

impl PartialEq for GroupKey {
    /// Arity plus all [`MAX_ATTRS`] words: a fixed-width compare with no
    /// length-dependent loop, equal to comparing [`GroupKey::values`]
    /// because every constructor zeroes the words past the arity.
    #[inline]
    fn eq(&self, other: &GroupKey) -> bool {
        self.len == other.len && self.vals == other.vals
    }
}

impl Eq for GroupKey {}

impl Hash for GroupKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.len);
        for &v in self.values() {
            state.write_u32(v);
        }
    }
}

/// The re-projection of one relation's keys onto a subset of its
/// attributes, resolved to value positions once.
///
/// Child position `j` of a projected key takes the parent's value at
/// position `from[j]`; positions past the child's arity are masked to
/// zero. An executor builds one per plan edge, so a cascade gathers each
/// child key from fixed positions instead of walking two attribute sets
/// per entry. [`GroupKey::reproject`] is this projection built on the
/// spot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyProjection {
    /// Parent value position feeding each child position (0 when dead).
    from: [u8; MAX_ATTRS],
    /// All ones at the child's live positions, zero past its arity.
    mask: [u32; MAX_ATTRS],
    /// Arity of the projected keys.
    len: u8,
}

// `apply` wraps a position into range with `& (MAX_ATTRS - 1)`.
const _: () = assert!(MAX_ATTRS.is_power_of_two());

impl KeyProjection {
    /// The projection from keys over `own` onto `target`: the attributes
    /// of `target` that `own` holds, in ascending attribute order.
    pub fn new(own: AttrSet, target: AttrSet) -> KeyProjection {
        let mut from = [0u8; MAX_ATTRS];
        let mut mask = [0u32; MAX_ATTRS];
        let mut len = 0u8;
        for (slot, a) in own.iter().enumerate() {
            if target.contains(a) {
                if let (Some(src), Some(live)) =
                    (from.get_mut(len as usize), mask.get_mut(len as usize))
                {
                    *src = slot as u8;
                    *live = u32::MAX;
                    len += 1;
                }
            }
        }
        KeyProjection { from, mask, len }
    }

    /// Projects `key`: a branch-free gather over all [`MAX_ATTRS`]
    /// positions, leaving the words past the arity zero.
    #[inline]
    pub fn apply(&self, key: &GroupKey) -> GroupKey {
        let mut vals = [0u32; MAX_ATTRS];
        for ((dst, &src), &live) in vals.iter_mut().zip(&self.from).zip(&self.mask) {
            let v = key
                .vals
                .get(usize::from(src) & (MAX_ATTRS - 1))
                .copied()
                .unwrap_or(0);
            *dst = v & live;
        }
        GroupKey {
            vals,
            len: self.len,
        }
    }
}

impl fmt::Debug for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GroupKey{:?}", self.values())
    }
}

impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(vals: &[u32]) -> Record {
        Record::new(vals, 0)
    }

    #[test]
    fn projection_orders_by_attr_id() {
        let r = rec(&[10, 20, 30, 40]);
        let bd = AttrSet::parse("BD").unwrap();
        assert_eq!(r.project(bd).values(), &[20, 40]);
        let da = AttrSet::parse("AD").unwrap();
        assert_eq!(r.project(da).values(), &[10, 40]);
    }

    #[test]
    fn equal_groups_have_equal_keys() {
        let a = rec(&[1, 2, 3, 4]).project(AttrSet::parse("AC").unwrap());
        let b = rec(&[1, 9, 3, 7]).project(AttrSet::parse("AC").unwrap());
        assert_eq!(a, b);
        assert_eq!(a.hash_with_seed(5), b.hash_with_seed(5));
    }

    #[test]
    fn different_groups_differ() {
        let a = rec(&[1, 2, 3, 4]).project(AttrSet::parse("AB").unwrap());
        let b = rec(&[1, 3, 3, 4]).project(AttrSet::parse("AB").unwrap());
        assert_ne!(a, b);
    }

    #[test]
    fn reproject_matches_direct_projection() {
        let r = rec(&[11, 22, 33, 44]);
        let abcd = AttrSet::parse("ABCD").unwrap();
        let full = r.project(abcd);
        for target in ["A", "B", "BD", "ACD", "ABCD"] {
            let t = AttrSet::parse(target).unwrap();
            assert_eq!(full.reproject(abcd, t), r.project(t), "target {target}");
        }
    }

    #[test]
    fn reproject_from_partial_parent() {
        let r = rec(&[11, 22, 33, 44]);
        let bcd = AttrSet::parse("BCD").unwrap();
        let k = r.project(bcd);
        let bd = AttrSet::parse("BD").unwrap();
        assert_eq!(k.reproject(bcd, bd), r.project(bd));
    }

    #[test]
    fn projection_matches_direct_projection_for_every_pair() {
        let r = rec(&[11, 22, 33, 44, 55, 66, 77, 88]);
        for own_bits in 1u16..256 {
            let own = AttrSet::from_bits(own_bits).unwrap();
            let key = r.project(own);
            for target in crate::attr::subsets_of(own) {
                let proj = KeyProjection::new(own, target);
                assert_eq!(proj.apply(&key), r.project(target), "{own} -> {target}");
                assert_eq!(key.reproject(own, target), r.project(target));
            }
        }
    }

    #[test]
    fn constructors_zero_the_words_past_the_arity() {
        let zero_tail = |k: &GroupKey| k.vals.iter().skip(k.arity()).all(|&w| w == 0);
        let mut filled = GroupKey::zeroed(2);
        for pos in 0..MAX_ATTRS {
            filled.set_val(pos, 9);
        }
        assert_eq!(
            filled.vals,
            [9, 9, 0, 0, 0, 0, 0, 0],
            "set_val past the arity"
        );
        let r = rec(&[u32::MAX, 1, u32::MAX, 3, u32::MAX, 5, u32::MAX, 7]);
        let chunk = crate::chunk::RecordChunk::from_records(&[r, r, r]);
        for bits in 1u16..256 {
            let set = AttrSet::from_bits(bits).unwrap();
            let key = r.project(set);
            assert!(zero_tail(&key), "project {set}");
            assert!(
                zero_tail(&GroupKey::from_values(key.values())),
                "from_values {set}"
            );
            let mut packed = Vec::new();
            chunk.project_range(set, 0, 3, &mut packed);
            assert!(packed.iter().all(zero_tail), "project_range {set}");
            for target in crate::attr::subsets_of(set) {
                assert!(zero_tail(&KeyProjection::new(set, target).apply(&key)));
                assert!(zero_tail(&key.reproject(set, target)));
            }
        }
    }

    #[test]
    fn equality_is_arity_and_values() {
        let keys = [
            GroupKey::from_values(&[]),
            GroupKey::from_values(&[0]),
            GroupKey::from_values(&[0, 0]),
            GroupKey::from_values(&[7]),
            GroupKey::from_values(&[7, 0]),
            GroupKey::from_values(&[7, 8]),
            rec(&[7, 8, 9]).project(AttrSet::parse("AB").unwrap()),
        ];
        for a in &keys {
            for b in &keys {
                assert_eq!(a == b, a.values() == b.values(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn arity_zero_key_is_consistent() {
        let k = GroupKey::from_values(&[]);
        assert_eq!(k.arity(), 0);
        assert_eq!(k, GroupKey::from_values(&[]));
    }

    #[test]
    fn schema_describe() {
        let s = Schema::packet_headers();
        assert_eq!(s.arity(), 4);
        assert_eq!(
            s.describe(AttrSet::parse("AC").unwrap()),
            "srcIP,dstIP".to_string()
        );
        assert_eq!(s.all_attrs(), AttrSet::parse("ABCD").unwrap());
    }

    #[test]
    fn display_forms() {
        let k = GroupKey::from_values(&[7, 8]);
        assert_eq!(k.to_string(), "(7,8)");
    }
}
