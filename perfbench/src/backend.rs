//! A counting [`StorageBackend`] around [`DiskBackend`].
//!
//! Every backend call is counted, its bytes summed and its duration
//! timed. Each call also opens a span, so in a traced run store I/O
//! nests under the executor call that issued it and the executor's self
//! time excludes it. The ledger is shared through an `Arc` because the
//! checkpoint store owns the backend as a `Box<dyn StorageBackend>`.

use crate::spans;
use msa_stream::{DiskBackend, StorageBackend, StoreError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Backend operations, in ledger order. `truncate` only runs when
/// recovery repairs a torn WAL tail, which no workload leaves behind.
pub const OPS: [&str; 6] = ["write_atomic", "append", "sync", "read", "list", "remove"];

const SPAN_NAMES: [&str; 7] = [
    "store.write_atomic",
    "store.append",
    "store.sync",
    "store.read",
    "store.list",
    "store.remove",
    "store.truncate",
];

/// Indices into the ledger of the calls that change stored state.
const MUTATING: [usize; 5] = [0, 1, 2, 5, 6];

#[derive(Clone, Copy, Debug, Default)]
pub struct OpStat {
    pub count: u64,
    pub ns: u64,
    pub bytes: u64,
}

/// What the wrapper has seen since the ledger was created.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    pub ops: [OpStat; 7],
    /// Mutating calls that returned an error.
    pub errors: u64,
    /// Size of every snapshot written, in commit order.
    pub snapshot_bytes: Vec<u64>,
}

impl Ledger {
    pub fn op(&self, name: &str) -> OpStat {
        OPS.iter()
            .position(|&o| o == name)
            .and_then(|i| self.ops.get(i).copied())
            .unwrap_or_default()
    }

    pub fn total_ns(&self) -> u64 {
        self.ops.iter().map(|o| o.ns).sum()
    }

    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &Ledger) {
        for (a, b) in self.ops.iter_mut().zip(other.ops.iter()) {
            a.count += b.count;
            a.ns += b.ns;
            a.bytes += b.bytes;
        }
        self.errors += other.errors;
        self.snapshot_bytes.extend(other.snapshot_bytes.iter().copied());
    }

    /// What happened after `earlier`, a copy of this ledger taken before.
    pub fn since(&self, earlier: &Ledger) -> Ledger {
        let mut out = Ledger::default();
        for ((o, a), b) in out.ops.iter_mut().zip(&self.ops).zip(&earlier.ops) {
            o.count = a.count - b.count;
            o.ns = a.ns - b.ns;
            o.bytes = a.bytes - b.bytes;
        }
        out.errors = self.errors - earlier.errors;
        out.snapshot_bytes = self.snapshot_bytes[earlier.snapshot_bytes.len()..].to_vec();
        out
    }
}

/// A shared handle on one ledger.
#[derive(Clone, Debug, Default)]
pub struct SharedLedger(Arc<Mutex<Ledger>>);

impl SharedLedger {
    pub fn lock(&self) -> MutexGuard<'_, Ledger> {
        self.0.lock().expect("ledger lock is never held across a panic")
    }
}

#[derive(Debug)]
pub struct CountingBackend {
    inner: DiskBackend,
    ledger: SharedLedger,
}

impl CountingBackend {
    pub fn new(inner: DiskBackend, ledger: SharedLedger) -> CountingBackend {
        CountingBackend { inner, ledger }
    }

    fn timed<T>(
        &mut self,
        op: usize,
        bytes: u64,
        f: impl FnOnce(&mut DiskBackend) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let name = SPAN_NAMES.get(op).copied().unwrap_or("store.other");
        let t = Instant::now();
        let out = spans::span(name, || f(&mut self.inner));
        let ns = t.elapsed().as_nanos() as u64;
        let mut l = self.ledger.lock();
        if let Some(s) = l.ops.get_mut(op) {
            s.count += 1;
            s.ns += ns;
            s.bytes += bytes;
        }
        // Reads and listings of absent objects are part of a normal
        // open; only a failed mutation means the store gave up.
        if out.is_err() && MUTATING.contains(&op) {
            l.errors += 1;
        }
        out
    }
}

impl StorageBackend for CountingBackend {
    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let out = self.timed(0, bytes.len() as u64, |b| b.write_atomic(path, bytes));
        if out.is_ok() && path.ends_with("snapshot.bin") {
            self.ledger.lock().snapshot_bytes.push(bytes.len() as u64);
        }
        out
    }

    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.timed(1, bytes.len() as u64, |b| b.append(path, bytes))
    }

    fn sync(&mut self, path: &str) -> Result<(), StoreError> {
        self.timed(2, 0, |b| b.sync(path))
    }

    fn read(&mut self, path: &str) -> Result<Vec<u8>, StoreError> {
        let out = self.timed(3, 0, |b| b.read(path));
        if let Ok(bytes) = &out {
            self.ledger.lock().ops[3].bytes += bytes.len() as u64;
        }
        out
    }

    fn list(&mut self, dir: &str) -> Result<Vec<String>, StoreError> {
        self.timed(4, 0, |b| b.list(dir))
    }

    fn remove(&mut self, path: &str) -> Result<(), StoreError> {
        self.timed(5, 0, |b| b.remove(path))
    }

    fn truncate(&mut self, path: &str, len: usize) -> Result<(), StoreError> {
        self.timed(6, 0, |b| b.truncate(path, len))
    }

    fn corrupt(&mut self, path: &str, index: usize) -> Result<(), StoreError> {
        self.inner.corrupt(path, index)
    }

    fn power_cut(&mut self) {
        self.inner.power_cut();
    }
}
