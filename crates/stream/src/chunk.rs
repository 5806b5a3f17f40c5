//! Columnar record chunks: the unit of vectorized ingestion.
//!
//! A [`RecordChunk`] stores up to a few thousand records in
//! structure-of-arrays layout — one `Vec<u32>` column per attribute
//! position plus a timestamp column — so the LFTA probe can project
//! group keys and precompute hash slots in tight per-column loops
//! instead of striding across row-major [`Record`]s.
//!
//! Chunking is purely a batching concern: a chunk carries no epoch or
//! ordering semantics of its own. The executor re-derives epoch
//! boundaries from the timestamp column, so splitting a record
//! sequence into chunks at *any* boundary — including mid-epoch — must
//! be observationally identical to per-record ingestion. The
//! differential battery in `tests/vectorized.rs` holds that line.

use crate::attr::{AttrSet, MAX_ATTRS};
use crate::record::{GroupKey, Record};

/// Default number of records per chunk.
///
/// 1024 rows × (8 attribute columns + 1 timestamp column) ≈ 40 KiB —
/// comfortably inside L2, large enough to amortize per-chunk
/// bookkeeping, and matching the processing-window idiom of columnar
/// stream engines.
pub const PROCESSING_WINDOW_SIZE: usize = 1024;

/// A fixed-arity batch of records in columnar (SoA) layout.
///
/// Column `a` holds attribute `a` of every record in order; unused
/// attribute positions are zero, exactly as in [`Record::attrs`]. All
/// accessors are panic-free: out-of-range lane or column indices yield
/// `None` or empty slices.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecordChunk {
    cols: [Vec<u32>; MAX_ATTRS],
    ts: Vec<u64>,
}

impl RecordChunk {
    /// Creates an empty chunk.
    pub fn new() -> RecordChunk {
        RecordChunk::default()
    }

    /// Creates an empty chunk with room for `capacity` records.
    pub fn with_capacity(capacity: usize) -> RecordChunk {
        RecordChunk {
            cols: std::array::from_fn(|_| Vec::with_capacity(capacity)),
            ts: Vec::with_capacity(capacity),
        }
    }

    /// Number of records in the chunk.
    #[inline]
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when the chunk holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Appends one record.
    pub fn push(&mut self, record: &Record) {
        for (col, &v) in self.cols.iter_mut().zip(record.attrs.iter()) {
            col.push(v);
        }
        self.ts.push(record.ts_micros);
    }

    /// Clears the chunk, keeping allocations.
    pub fn clear(&mut self) {
        for col in self.cols.iter_mut() {
            col.clear();
        }
        self.ts.clear();
    }

    /// Builds a chunk from a record slice, one column at a time: each
    /// column is a single pass over the records into an exact-size
    /// vector, where pushing lane by lane would grow nine vectors at
    /// once.
    pub fn from_records(records: &[Record]) -> RecordChunk {
        RecordChunk {
            cols: std::array::from_fn(|a| {
                records
                    .iter()
                    .map(|r| r.attrs.get(a).copied().unwrap_or(0))
                    .collect()
            }),
            ts: records.iter().map(|r| r.ts_micros).collect(),
        }
    }

    /// Materializes the chunk back into row-major records.
    pub fn to_records(&self) -> Vec<Record> {
        (0..self.len()).filter_map(|i| self.get(i)).collect()
    }

    /// The record at lane `i`, if in range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Record> {
        let &ts_micros = self.ts.get(i)?;
        let mut attrs = [0u32; MAX_ATTRS];
        for (dst, col) in attrs.iter_mut().zip(self.cols.iter()) {
            *dst = col.get(i).copied().unwrap_or(0);
        }
        Some(Record { attrs, ts_micros })
    }

    /// The values of attribute column `a` (empty when out of range).
    #[inline]
    pub fn column(&self, a: usize) -> &[u32] {
        self.cols.get(a).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The timestamp column.
    #[inline]
    pub fn timestamps(&self) -> &[u64] {
        &self.ts
    }

    /// Iterates the chunk's records in lane order.
    pub fn iter(&self) -> impl Iterator<Item = Record> + '_ {
        (0..self.len()).filter_map(|i| self.get(i))
    }

    /// Projects lanes `[from, to)` onto `set` in columnar order,
    /// appending one [`GroupKey`] per lane to `out`. Each key is
    /// bit-identical to `self.get(lane).project(set)`, but values are
    /// gathered column-by-column — a tight loop per attribute over a
    /// contiguous slice — instead of striding across rows.
    pub fn project_range(&self, set: AttrSet, from: usize, to: usize, out: &mut Vec<GroupKey>) {
        let from = from.min(self.len());
        let to = to.clamp(from, self.len());
        let start = out.len();
        out.resize(start + (to - from), GroupKey::zeroed(set.len() as u8));
        let Some(dst) = out.get_mut(start..) else {
            return;
        };
        for (pos, a) in set.iter().enumerate() {
            let col = self.column(a as usize);
            let lanes = col.get(from..to).unwrap_or(&[]);
            for (key, &v) in dst.iter_mut().zip(lanes.iter()) {
                key.set_val(pos, v);
            }
        }
    }

    /// Splits the chunk at lane `mid`: `self` keeps `[0, mid)` and the
    /// returned chunk holds `[mid, len)`. A `mid` past the end yields
    /// an empty tail.
    pub fn split_off(&mut self, mid: usize) -> RecordChunk {
        let mid = mid.min(self.len());
        RecordChunk {
            cols: std::array::from_fn(|a| {
                self.cols
                    .get_mut(a)
                    .map(|c| c.split_off(mid))
                    .unwrap_or_default()
            }),
            ts: self.ts.split_off(mid),
        }
    }

    /// Appends every record of `other` to `self` (columnar
    /// concatenation; `other` is left empty).
    pub fn append(&mut self, other: &mut RecordChunk) {
        for (dst, src) in self.cols.iter_mut().zip(other.cols.iter_mut()) {
            dst.append(src);
        }
        self.ts.append(&mut other.ts);
    }
}

impl FromIterator<Record> for RecordChunk {
    fn from_iter<I: IntoIterator<Item = Record>>(iter: I) -> RecordChunk {
        let mut chunk = RecordChunk::new();
        for r in iter {
            chunk.push(&r);
        }
        chunk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(vals: &[u32], ts: u64) -> Record {
        Record::new(vals, ts)
    }

    fn sample(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| rec(&[i as u32, (i * 7) as u32 & 0xff, 3, 4], i as u64 * 100))
            .collect()
    }

    #[test]
    fn round_trips_records() {
        let records = sample(37);
        let chunk = RecordChunk::from_records(&records);
        assert_eq!(chunk.len(), 37);
        assert_eq!(chunk.to_records(), records);
        assert_eq!(chunk.iter().collect::<Vec<_>>(), records);
    }

    #[test]
    fn columns_are_soa_views() {
        let records = sample(5);
        let chunk = RecordChunk::from_records(&records);
        for a in 0..MAX_ATTRS {
            let want: Vec<u32> = records.iter().map(|r| r.attrs[a]).collect();
            assert_eq!(chunk.column(a), &want[..], "column {a}");
        }
        let want_ts: Vec<u64> = records.iter().map(|r| r.ts_micros).collect();
        assert_eq!(chunk.timestamps(), &want_ts[..]);
        assert!(chunk.column(MAX_ATTRS).is_empty());
    }

    #[test]
    fn get_out_of_range_is_none() {
        let chunk = RecordChunk::from_records(&sample(3));
        assert!(chunk.get(3).is_none());
        assert!(chunk.get(usize::MAX).is_none());
    }

    #[test]
    fn split_and_append_round_trip() {
        let records = sample(23);
        for mid in [0, 1, 11, 22, 23, 99] {
            let mut head = RecordChunk::from_records(&records);
            let mut tail = head.split_off(mid);
            let cut = mid.min(records.len());
            assert_eq!(head.to_records(), &records[..cut]);
            assert_eq!(tail.to_records(), &records[cut..]);
            head.append(&mut tail);
            assert!(tail.is_empty());
            assert_eq!(head.to_records(), records, "mid {mid}");
        }
    }

    #[test]
    fn clear_keeps_nothing() {
        let mut chunk = RecordChunk::from_records(&sample(8));
        chunk.clear();
        assert!(chunk.is_empty());
        assert_eq!(chunk.len(), 0);
        assert!(chunk.to_records().is_empty());
    }

    #[test]
    fn from_iterator_collects() {
        let records = sample(12);
        let chunk: RecordChunk = records.iter().copied().collect();
        assert_eq!(chunk.to_records(), records);
    }
}
