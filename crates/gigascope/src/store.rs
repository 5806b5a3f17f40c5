//! The generational checkpoint store: crash-safe durability for the
//! recovery artifact.
//!
//! The one thing `executor` treats as durable — the epoch-boundary
//! [`Snapshot`] — lands here as real bytes behind a
//! [`StorageBackend`](msa_stream::store::StorageBackend). Generations
//! form a chain, so a boundary commit costs O(epoch), not O(run):
//!
//! ```text
//! manifest.a            A/B manifest slots ("MSMF" + fnv64 trailer):
//! manifest.b            the *commit point*; highest valid seq wins
//! gen-1/snapshot.bin    base: boundary state + every finished result
//! gen-2/snapshot.bin    delta: boundary state + results [k..] + link → gen-1
//! gen-3/snapshot.bin    delta: boundary state + results [m..] + link → gen-2
//! ```
//!
//! A **generation** is one framed snapshot (format version 6, see
//! [`crate::snapshot`]): the complete boundary state — counters,
//! cursors, the run report — plus the finished results closed since its
//! parent and a checksummed link naming that parent and the cumulative
//! result count it holds. A *base* has no parent and holds every result.
//!
//! A **commit** writes the next generation atomically, then flips the
//! *older* manifest slot to name it. The last good generation is never
//! overwritten, so a crash at any byte leaves a readable store. The new
//! generation is a delta only on top of a head whose results are known
//! to be a prefix of the snapshot's: the head the committing executor's
//! last successful commit wrote, or the one it was recovered from
//! (its `ChainHead` cursor), and only while this store still holds that
//! head on an intact chain. Anything else — the genesis commit, a store attached
//! to an executor it did not recover — writes a base. The manifest pins
//! the head's length and its frame checksum, so a commit encodes,
//! hashes and writes one epoch's results once. Nothing is written
//! between commits: a crash mid-epoch loses only the open epoch, and
//! recovery regenerates it by replaying the (replayable) source from
//! the snapshot's record high-water mark.
//!
//! **Recovery** walks candidates newest-first: manifest-committed
//! generations by descending manifest seq, then any orphaned on-disk
//! generation (covers a corrupt manifest pair whose snapshot survived).
//! Each candidate is walked from its head down to its base. Every link
//! must pass its frame checksum (and the manifest checksum, when a
//! manifest names it), and every parent's cumulative result count must
//! equal its child's `results_before`. The links are then stitched into
//! one full [`Snapshot`] for
//! [`Executor::recover`](crate::executor::Executor::recover). A candidate
//! with an unreadable link is unusable: the rotten link is quarantined
//! and the ladder continues with older candidates, with the
//! re-replayed/lost records accounted through `bounds.rs` as the
//! explicit `stale-fallback` loss class, never silent staleness.
//!
//! **GC** keeps every generation on the intact chain of either manifest
//! slot and removes the rest: orphans of failed commits, quarantined
//! links and branches abandoned by a fallback. A steady-state commit
//! only extends the chain, so it removes nothing.
//!
//! Transient EIO is retried with an attempt-counted budget (never
//! clocked — the repo's determinism spine); ENOSPC and crashes are not.
//! The **scrub** pass verifies every generation once, offline, and
//! quarantines corrupt ones without touching good ones.

use crate::executor::{Executor, ExecutorConfig};
use crate::snapshot::{fnv64, frame_checksum, ChainLink, Snapshot};
use msa_stream::store::{
    DiskBackend, SimBackend, StorageBackend, StorageFaultPlan, StoreError, StoreErrorKind,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

const MANIFEST_A: &str = "manifest.a";
const MANIFEST_B: &str = "manifest.b";
const MANIFEST_MAGIC: [u8; 4] = *b"MSMF";
/// Version 2: `snapshot_fnv` is the head's frame checksum, no longer a
/// hash of the whole file.
const MANIFEST_VERSION: u32 = 2;
/// payload = magic + version + 4 × u64; trailer = fnv64(payload).
const MANIFEST_LEN: usize = 4 + 4 + 8 * 4 + 8;

/// Transient-EIO retries per store operation before giving up.
const DEFAULT_RETRY_BUDGET: u32 = 8;

/// The checksummed commit pointer. Two copies live in the A/B slots;
/// the one with the highest valid `manifest_seq` names the current
/// generation, and a commit always overwrites the *other* slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Manifest {
    /// Monotone commit counter (1-based); also selects the slot.
    manifest_seq: u64,
    /// The committed generation.
    generation: u64,
    /// Length of the generation's snapshot file.
    snapshot_len: u64,
    /// The checksum the generation's frame records. With the length it
    /// pins every byte: the frame check covers the payload, this covers
    /// the recorded checksum itself, and magic, version and length fail
    /// the decode.
    snapshot_fnv: u64,
}

impl Manifest {
    /// The slot a commit with this sequence number writes: odd → A
    /// (index 0), even → B (index 1), so consecutive commits alternate
    /// and the previous manifest survives any torn write.
    fn slot(seq: u64) -> usize {
        usize::from(seq.is_multiple_of(2))
    }

    fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(MANIFEST_LEN);
        payload.extend_from_slice(&MANIFEST_MAGIC);
        payload.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        payload.extend_from_slice(&self.manifest_seq.to_le_bytes());
        payload.extend_from_slice(&self.generation.to_le_bytes());
        payload.extend_from_slice(&self.snapshot_len.to_le_bytes());
        payload.extend_from_slice(&self.snapshot_fnv.to_le_bytes());
        let sum = fnv64(&payload);
        payload.extend_from_slice(&sum.to_le_bytes());
        payload
    }

    fn decode(bytes: &[u8]) -> Option<Manifest> {
        if bytes.len() != MANIFEST_LEN {
            return None;
        }
        let (payload, trailer) = bytes.split_at(MANIFEST_LEN - 8);
        if trailer != fnv64(payload).to_le_bytes() {
            return None;
        }
        if payload[..4] != MANIFEST_MAGIC {
            return None;
        }
        let u64_at = |i: usize| -> Option<u64> {
            Some(u64::from_le_bytes(payload[i..i + 8].try_into().ok()?))
        };
        let version = u32::from_le_bytes(payload[4..8].try_into().ok()?);
        if version != MANIFEST_VERSION {
            return None;
        }
        Some(Manifest {
            manifest_seq: u64_at(8)?,
            generation: u64_at(16)?,
            snapshot_len: u64_at(24)?,
            snapshot_fnv: u64_at(32)?,
        })
    }
}

/// Cumulative store observability counters (all attempt/record counts,
/// never clocks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Generations committed (manifest flips).
    pub commits: u64,
    /// Transient-EIO retries that were attempted.
    pub io_retries: u64,
    /// Operations abandoned after the retry budget ran dry.
    pub io_gave_up: u64,
    /// Recovery fallbacks: candidates skipped because they were
    /// unreadable, chained through an unreadable link, or failed
    /// executor validation.
    pub fallbacks: u64,
    /// Generations quarantined (by recovery or scrub).
    pub generations_quarantined: u64,
    /// Off-chain generations garbage-collected after commits.
    pub generations_removed: u64,
}

/// What [`CheckpointStore::recover_artifacts`] hands back: the newest
/// usable chain stitched into one snapshot, ready for
/// [`Executor::recover`](crate::executor::Executor::recover).
#[derive(Clone, Debug)]
pub struct RecoveredArtifacts {
    /// The head's boundary state with every finished result of its
    /// chain, each link checksum-verified.
    pub snapshot: Snapshot,
    /// Which generation (the chain's head) was recovered.
    pub generation: u64,
    /// Newer candidates skipped (their rotten generation quarantined)
    /// to reach this one.
    pub fallbacks: u64,
}

/// Result of the offline integrity scrub.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Validity of the A and B manifest slots.
    pub manifests_valid: [bool; 2],
    /// Generations examined.
    pub generations_checked: u64,
    /// Generations whose snapshot failed verification (now quarantined).
    pub generations_quarantined: Vec<u64>,
}

/// A generation an executor may chain its next commit onto — the one
/// its last successful commit wrote, or the one it was recovered from —
/// and the cumulative finished-result count both sides agree it holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ChainHead {
    pub(crate) generation: u64,
    pub(crate) results: u64,
}

/// What this process has verified (or written) about one generation.
#[derive(Clone, Copy, Debug)]
struct Verified {
    /// Its parent, `None` for a base.
    parent: Option<u64>,
    /// Finished results its chain holds, base through this generation.
    results: u64,
}

/// The chain below a generation, as far as the store can tell.
enum Chain {
    /// Every link is verified and none is quarantined (head first).
    Intact(Vec<u64>),
    /// A link is quarantined: the chain cannot serve recovery.
    Broken,
    /// A link was never verified by this process.
    Unknown,
}

/// Why a recovery candidate could not be loaded.
enum LoadFail {
    /// The artifact is unreadable or fails verification: quarantine the
    /// generation and fall back.
    Corrupt,
    /// The backend itself is dead — no candidate can do better, so the
    /// error propagates instead of quarantining the world.
    Dead(StoreError),
}

/// The generational checkpoint store over one [`StorageBackend`].
///
/// Commits never overwrite the last good generation; see the module
/// docs for the on-disk layout and crash discipline. Most callers hold
/// a [`StoreHandle`] rather than the store itself.
#[derive(Debug)]
pub struct CheckpointStore {
    backend: Box<dyn StorageBackend>,
    retry_budget: u32,
    /// Highest valid manifest sequence seen (0 = no commit yet).
    manifest_seq: u64,
    /// The newest committed or recovered generation (0 = none).
    generation: u64,
    /// The generation the next commit creates: strictly above every
    /// generation ever seen, so fallback never re-enters a quarantined
    /// directory and every link points strictly downward.
    next_generation: u64,
    /// The generation each manifest slot (A, B) names, as last read or
    /// written (0 = none or unreadable): GC keeps their chains.
    named: [u64; 2],
    /// Generations whose frame this process verified or wrote. In-memory
    /// like the quarantine list and re-learned after a restart; a commit
    /// chains only onto a generation listed here.
    verified: BTreeMap<u64, Verified>,
    /// Generations proven corrupt this process lifetime. In-memory by
    /// design: quarantine is re-derived after a restart, exactly like a
    /// real fsck.
    quarantined: Vec<u64>,
    stats: StoreStats,
}

impl CheckpointStore {
    /// Opens a store over `backend`, scanning manifests and generation
    /// directories to find the commit cursor.
    pub fn open(backend: Box<dyn StorageBackend>) -> Result<CheckpointStore, StoreError> {
        let mut store = CheckpointStore {
            backend,
            retry_budget: DEFAULT_RETRY_BUDGET,
            manifest_seq: 0,
            generation: 0,
            next_generation: 1,
            named: [0; 2],
            verified: BTreeMap::new(),
            quarantined: Vec::new(),
            stats: StoreStats::default(),
        };
        store.rescan()?;
        Ok(store)
    }

    /// Replaces the transient-EIO retry budget (attempt-counted).
    pub fn with_retry_budget(mut self, budget: u32) -> CheckpointStore {
        self.retry_budget = budget;
        self
    }

    /// Re-derives the commit cursor from the backend: best valid
    /// manifest plus a generation-directory scan (shared by `open` and
    /// post-power-cut reopen).
    fn rescan(&mut self) -> Result<(), StoreError> {
        self.manifest_seq = 0;
        self.generation = 0;
        self.quarantined.clear();
        self.verified.clear();
        if let Some(m) = self.read_manifests().first() {
            self.manifest_seq = m.manifest_seq;
            self.generation = m.generation;
        }
        let max_gen = self
            .scan_generations()?
            .into_iter()
            .max()
            .unwrap_or(0)
            .max(self.generation);
        self.next_generation = max_gen + 1;
        Ok(())
    }

    /// All valid manifests, best (highest seq) first. Refreshes which
    /// generation each slot names.
    fn read_manifests(&mut self) -> Vec<Manifest> {
        let mut out = Vec::with_capacity(2);
        for (slot, path) in [MANIFEST_A, MANIFEST_B].into_iter().enumerate() {
            let m = self
                .backend
                .read(path)
                .ok()
                .and_then(|bytes| Manifest::decode(&bytes));
            if let Some(named) = self.named.get_mut(slot) {
                *named = m.map_or(0, |m| m.generation);
            }
            out.extend(m);
        }
        out.sort_by_key(|m| std::cmp::Reverse(m.manifest_seq));
        out
    }

    /// Generation numbers present on the backend.
    fn scan_generations(&mut self) -> Result<Vec<u64>, StoreError> {
        let names = self.backend.list("")?;
        Ok(names.iter().filter_map(|n| parse_gen(n)).collect())
    }

    /// Runs `op` with the attempt-counted transient-EIO retry loop.
    fn retrying<T>(
        &mut self,
        mut op: impl FnMut(&mut dyn StorageBackend) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut attempts = 0u32;
        loop {
            match op(self.backend.as_mut()) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempts < self.retry_budget => {
                    attempts += 1;
                    self.stats.io_retries += 1;
                }
                Err(e) => {
                    if e.is_transient() {
                        self.stats.io_gave_up += 1;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Commits `snapshot` as a new generation: one atomic generation
    /// write, then the manifest flip (the commit point), then GC of
    /// off-chain generations. The generation is a delta over `parent`
    /// when this store still holds it, on an intact chain, with exactly
    /// `parent.results` results; otherwise it is a base. The caller
    /// vouches that those results are a prefix of the snapshot's, and
    /// moves its cursor to the returned head only on success — after a
    /// failure the next commit is still a correct delta over `parent`.
    pub(crate) fn commit(
        &mut self,
        snapshot: &Snapshot,
        parent: Option<ChainHead>,
    ) -> Result<ChainHead, StoreError> {
        let results = snapshot.hfta.results.len() as u64;
        let link = parent
            .filter(|p| p.results <= results && self.holds(*p))
            .map(|p| ChainLink {
                parent: p.generation,
                results_before: p.results,
            });
        let bytes = snapshot.encode_link(link);
        let gen = self.next_generation;
        let snap_path = format!("gen-{gen}/snapshot.bin");
        self.retrying(|b| b.write_atomic(&snap_path, &bytes))?;
        let manifest = Manifest {
            manifest_seq: self.manifest_seq + 1,
            generation: gen,
            snapshot_len: bytes.len() as u64,
            snapshot_fnv: frame_checksum(&bytes).unwrap_or_default(),
        };
        let slot = Manifest::slot(manifest.manifest_seq);
        let slot_path = if slot == 0 { MANIFEST_A } else { MANIFEST_B };
        let encoded = manifest.encode();
        self.retrying(|b| b.write_atomic(slot_path, &encoded))?;
        if let Some(named) = self.named.get_mut(slot) {
            *named = gen;
        }
        self.verified.insert(
            gen,
            Verified {
                parent: link.map(|l| l.parent),
                results,
            },
        );
        self.manifest_seq = manifest.manifest_seq;
        self.generation = gen;
        self.next_generation = gen + 1;
        self.stats.commits += 1;
        self.gc();
        Ok(ChainHead {
            generation: gen,
            results,
        })
    }

    /// True when `head` is a generation this process verified or wrote,
    /// holding exactly `head.results` results on an intact chain — a
    /// delta linked onto it is recoverable.
    fn holds(&self, head: ChainHead) -> bool {
        self.verified
            .get(&head.generation)
            .is_some_and(|v| v.results == head.results)
            && matches!(self.chain(head.generation), Chain::Intact(_))
    }

    /// Follows verified links from `head` down to its base.
    fn chain(&self, head: u64) -> Chain {
        let mut gens = Vec::new();
        let mut gen = head;
        loop {
            if self.quarantined.contains(&gen) {
                return Chain::Broken;
            }
            let Some(v) = self.verified.get(&gen) else {
                return Chain::Unknown;
            };
            gens.push(gen);
            // Links point strictly downward (checked on load), so the
            // walk terminates.
            match v.parent {
                Some(parent) => gen = parent,
                None => return Chain::Intact(gens),
            }
        }
    }

    /// Best-effort removal of every generation off the intact chains of
    /// the two manifest slots: orphans of failed commits, quarantined
    /// links and branches a fallback abandoned. A chain this process
    /// never verified keeps everything until the slot naming it is
    /// overwritten — GC removes only what it can prove unreachable.
    /// Failures are ignored; GC retries implicitly at the next commit.
    fn gc(&mut self) {
        let mut keep = BTreeSet::new();
        for head in self.named.into_iter().filter(|&g| g != 0) {
            match self.chain(head) {
                Chain::Intact(gens) => keep.extend(gens),
                Chain::Broken => {}
                Chain::Unknown => return,
            }
        }
        let Ok(gens) = self.scan_generations() else {
            return;
        };
        for g in gens {
            if keep.contains(&g) {
                continue;
            }
            let dir = format!("gen-{g}");
            let Ok(files) = self.backend.list(&dir) else {
                continue;
            };
            for f in files {
                let path = format!("{dir}/{f}");
                let _ = self.retrying(|b| b.remove(&path));
            }
            self.verified.remove(&g);
            self.quarantined.retain(|&q| q != g);
            self.stats.generations_removed += 1;
        }
    }

    /// Marks `generation` corrupt: recovery and scrub skip it, commits
    /// stop chaining onto it, and GC removes it. Idempotent.
    pub fn quarantine(&mut self, generation: u64) {
        if !self.quarantined.contains(&generation) {
            self.quarantined.push(generation);
            self.stats.generations_quarantined += 1;
        }
    }

    /// The newest committed or recovered generation (0 before the
    /// first commit).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Cumulative counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Loads the newest usable chain, stitched into one snapshot,
    /// quarantining rotten links and falling back to older candidates.
    /// `None` when no chain is usable (fresh start).
    pub fn recover_artifacts(&mut self) -> Result<Option<RecoveredArtifacts>, StoreError> {
        let manifests = self.read_manifests();
        let mut candidates: Vec<u64> = manifests.iter().map(|m| m.generation).collect();
        let mut scanned = self.scan_generations()?;
        scanned.sort_unstable_by(|a, b| b.cmp(a));
        scanned.retain(|g| manifests.iter().all(|m| m.generation != *g));
        candidates.extend(scanned);
        // Generations this pass already found chained through a rotten
        // link: skipped as candidates without re-reading them.
        let mut broken = BTreeSet::new();
        let mut fallbacks = 0u64;
        for gen in candidates {
            if self.quarantined.contains(&gen) {
                continue;
            }
            match self.load_chain(gen, &manifests, &mut broken) {
                Ok(snapshot) => {
                    self.generation = gen;
                    return Ok(Some(RecoveredArtifacts {
                        snapshot,
                        generation: gen,
                        fallbacks,
                    }));
                }
                Err(LoadFail::Dead(e)) => return Err(e),
                Err(LoadFail::Corrupt) => {
                    self.stats.fallbacks += 1;
                    fallbacks += 1;
                }
            }
        }
        Ok(None)
    }

    /// Walks `head`'s chain down to its base and stitches one full
    /// snapshot: the head's boundary state, every link's results in
    /// chain order. Each link is verified on the way ([`Self::load`]),
    /// and each parent's cumulative result count must equal its child's
    /// `results_before`. On a rotten link the link is quarantined (a
    /// wrong count convicts the child that recorded it) and every
    /// generation walked above it joins `broken`.
    fn load_chain(
        &mut self,
        head: u64,
        manifests: &[Manifest],
        broken: &mut BTreeSet<u64>,
    ) -> Result<Snapshot, LoadFail> {
        let mut top: Option<Snapshot> = None;
        // Each link's own results, head first.
        let mut parts = Vec::new();
        let mut walked: Vec<u64> = Vec::new();
        let mut gen = head;
        // The count the child just walked expects this generation's
        // chain to hold.
        let mut expected: Option<u64> = None;
        loop {
            if self.quarantined.contains(&gen) || broken.contains(&gen) {
                broken.extend(walked);
                return Err(LoadFail::Corrupt);
            }
            let (mut part, link) = match self.load(gen, manifests) {
                Ok(loaded) => loaded,
                Err(LoadFail::Corrupt) => {
                    self.quarantine(gen);
                    broken.extend(walked);
                    return Err(LoadFail::Corrupt);
                }
                Err(dead) => return Err(dead),
            };
            let own = std::mem::take(&mut part.hfta.results);
            let results = link
                .map_or(0, |l| l.results_before)
                .saturating_add(own.len() as u64);
            if expected.is_some_and(|want| want != results) {
                if let Some(&child) = walked.last() {
                    self.quarantine(child);
                }
                broken.extend(walked);
                return Err(LoadFail::Corrupt);
            }
            self.verified.insert(
                gen,
                Verified {
                    parent: link.map(|l| l.parent),
                    results,
                },
            );
            walked.push(gen);
            parts.push(own);
            top.get_or_insert(part);
            match link {
                Some(l) => {
                    expected = Some(l.results_before);
                    gen = l.parent;
                }
                None => break,
            }
        }
        let Some(mut snapshot) = top else {
            return Err(LoadFail::Corrupt);
        };
        snapshot.hfta.results = parts.into_iter().rev().flatten().collect();
        Ok(snapshot)
    }

    /// Reads and verifies one generation: its bytes against the manifest
    /// naming it (if any), then the frame's own checksum and a parent
    /// strictly below it. Returns the snapshot with only the
    /// generation's own results, and its link.
    fn load(
        &mut self,
        gen: u64,
        manifests: &[Manifest],
    ) -> Result<(Snapshot, Option<ChainLink>), LoadFail> {
        let snap_path = format!("gen-{gen}/snapshot.bin");
        let bytes = match self.retrying(|b| b.read(&snap_path)) {
            Ok(bytes) => bytes,
            // A dead backend is not a corrupt generation: propagate.
            Err(e) if e.kind == StoreErrorKind::Crashed => return Err(LoadFail::Dead(e)),
            Err(_) => return Err(LoadFail::Corrupt),
        };
        if let Some(m) = manifests.iter().find(|m| m.generation == gen) {
            if bytes.len() as u64 != m.snapshot_len
                || frame_checksum(&bytes) != Some(m.snapshot_fnv)
            {
                return Err(LoadFail::Corrupt);
            }
        }
        match Snapshot::decode_link(&bytes) {
            Ok((_, Some(link))) if link.parent >= gen => Err(LoadFail::Corrupt),
            Ok(loaded) => Ok(loaded),
            Err(_) => Err(LoadFail::Corrupt),
        }
    }

    /// Offline integrity pass: re-verifies both manifests and every
    /// generation once (manifest checksum where one names it, frame
    /// checksum, decode), quarantining generations that fail. Read-only
    /// apart from the quarantine list.
    pub fn scrub(&mut self) -> Result<ScrubReport, StoreError> {
        let mut report = ScrubReport::default();
        for (i, slot) in [MANIFEST_A, MANIFEST_B].into_iter().enumerate() {
            report.manifests_valid[i] = match self.backend.read(slot) {
                Ok(bytes) => Manifest::decode(&bytes).is_some(),
                Err(_) => false,
            };
        }
        let manifests = self.read_manifests();
        let mut gens = self.scan_generations()?;
        gens.sort_unstable();
        for g in gens {
            report.generations_checked += 1;
            match self.load(g, &manifests) {
                Ok(_) => {}
                Err(LoadFail::Dead(e)) => return Err(e),
                Err(LoadFail::Corrupt) => {
                    self.quarantine(g);
                    report.generations_quarantined.push(g);
                }
            }
        }
        Ok(report)
    }
}

/// Parses `gen-N` directory names.
fn parse_gen(name: &str) -> Option<u64> {
    name.strip_prefix("gen-")?.parse().ok()
}

/// Result of a store-backed executor recovery (see
/// [`StoreHandle::recover_executor`]).
#[derive(Debug)]
pub struct StoreRecovery {
    /// The recovered executor with the store re-attached; `None` when
    /// no generation was usable (the caller starts fresh and replays
    /// the stream from record zero).
    pub executor: Option<Executor>,
    /// The recovered generation (0 on fresh start).
    pub generation: u64,
    /// Record high-water mark of the recovered snapshot: the stream
    /// position replay must resume from (0 on fresh start).
    pub records_hwm: u64,
    /// Candidates skipped to get here — when nonzero the recovery fell
    /// back past the newest generation, and any replay shortfall must
    /// be accounted as stale-fallback loss.
    pub fallbacks: u64,
}

/// A cloneable, thread-safe handle to one [`CheckpointStore`] — what
/// executors, shard drivers and supervisors actually hold. The mutex is
/// poison-proof: a panicking thread elsewhere never takes durability
/// down with it.
#[derive(Clone, Debug)]
pub struct StoreHandle {
    inner: Arc<Mutex<CheckpointStore>>,
}

impl StoreHandle {
    /// Wraps an already-open store.
    pub fn new(store: CheckpointStore) -> StoreHandle {
        StoreHandle {
            inner: Arc::new(Mutex::new(store)),
        }
    }

    /// An empty deterministic in-memory store (simulation backend, no
    /// faults).
    pub fn in_memory() -> Result<StoreHandle, StoreError> {
        CheckpointStore::open(Box::new(SimBackend::new())).map(StoreHandle::new)
    }

    /// An in-memory store with a seeded fault plan armed.
    pub fn in_memory_with_faults(plan: StorageFaultPlan) -> Result<StoreHandle, StoreError> {
        CheckpointStore::open(Box::new(SimBackend::with_faults(plan))).map(StoreHandle::new)
    }

    /// A store over real files rooted at `root`.
    pub fn on_disk<P: Into<PathBuf>>(root: P) -> Result<StoreHandle, StoreError> {
        let backend = DiskBackend::new(root)?;
        CheckpointStore::open(Box::new(backend)).map(StoreHandle::new)
    }

    fn lock(&self) -> MutexGuard<'_, CheckpointStore> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// See [`CheckpointStore::commit`].
    pub(crate) fn commit(
        &self,
        snapshot: &Snapshot,
        parent: Option<ChainHead>,
    ) -> Result<ChainHead, StoreError> {
        self.lock().commit(snapshot, parent)
    }

    /// See [`CheckpointStore::recover_artifacts`].
    pub fn recover_artifacts(&self) -> Result<Option<RecoveredArtifacts>, StoreError> {
        self.lock().recover_artifacts()
    }

    /// See [`CheckpointStore::scrub`].
    pub fn scrub(&self) -> Result<ScrubReport, StoreError> {
        self.lock().scrub()
    }

    /// See [`CheckpointStore::quarantine`].
    pub fn quarantine(&self, generation: u64) {
        self.lock().quarantine(generation)
    }

    /// See [`CheckpointStore::stats`].
    pub fn stats(&self) -> StoreStats {
        self.lock().stats()
    }

    /// See [`CheckpointStore::generation`].
    pub fn generation(&self) -> u64 {
        self.lock().generation()
    }

    /// Models a machine restart: the backend's volatile state resolves
    /// (see [`msa_stream::store::StorageBackend::power_cut`]) and the
    /// store re-derives its commit cursor from what survived — the
    /// in-memory quarantine list is lost, exactly like a real process.
    pub fn power_cut(&self) -> Result<(), StoreError> {
        let mut store = self.lock();
        store.backend.power_cut();
        store.rescan()
    }

    /// Drill/test escape hatch: direct access to the backend for fault
    /// injection (`corrupt`, `truncate`) and forensic reads. Production
    /// code has no business here.
    pub fn with_backend<R>(&self, f: impl FnOnce(&mut dyn StorageBackend) -> R) -> R {
        f(self.lock().backend.as_mut())
    }

    /// Recovers an executor from the newest usable generation.
    ///
    /// Drives the full degradation ladder: load the newest usable chain
    /// (falling back past rotten links), validate the stitched snapshot
    /// against `cfg` via [`Executor::recover`], and quarantine-and-retry
    /// when validation rejects a candidate (a snapshot taken under a
    /// different configuration). The returned executor has this store
    /// re-attached, its next commit chained onto the recovered head;
    /// `executor: None` means nothing was recoverable and the caller
    /// starts fresh. Either way the outcome is one of the two permitted
    /// ends: bit-identical recovery (given replay from `records_hwm`)
    /// or explicit, accounted fallback — never silent corruption.
    pub fn recover_executor(&self, cfg: &ExecutorConfig) -> StoreRecovery {
        let start_fallbacks = self.stats().fallbacks;
        loop {
            // Bind before matching: a guard living in the scrutinee
            // would still be held when the arms re-lock the handle.
            let loaded = self.lock().recover_artifacts();
            match loaded {
                Ok(Some(artifacts)) => match cfg.build().recover(&artifacts.snapshot) {
                    Ok(ex) => {
                        let head = ChainHead {
                            generation: artifacts.generation,
                            results: artifacts.snapshot.hfta.results.len() as u64,
                        };
                        return StoreRecovery {
                            records_hwm: artifacts.snapshot.records_hwm,
                            generation: artifacts.generation,
                            executor: Some(ex.with_store_head(self.clone(), head)),
                            fallbacks: self.stats().fallbacks - start_fallbacks,
                        };
                    }
                    Err(_) => {
                        let mut store = self.lock();
                        store.quarantine(artifacts.generation);
                        store.stats.fallbacks += 1;
                    }
                },
                Ok(None) | Err(_) => {
                    return StoreRecovery {
                        executor: None,
                        generation: 0,
                        records_hwm: 0,
                        fallbacks: self.stats().fallbacks - start_fallbacks,
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PhysicalPlan, PlanNode};
    use crate::CostParams;
    use msa_stream::{AttrSet, Record};

    fn plan() -> PhysicalPlan {
        PhysicalPlan::new(vec![
            PlanNode {
                attrs: AttrSet::parse("AB").unwrap(),
                parent: None,
                buckets: 4,
                is_query: false,
            },
            PlanNode {
                attrs: AttrSet::parse("A").unwrap(),
                parent: Some(0),
                buckets: 2,
                is_query: true,
            },
            PlanNode {
                attrs: AttrSet::parse("B").unwrap(),
                parent: Some(0),
                buckets: 2,
                is_query: true,
            },
        ])
        .unwrap()
    }

    fn config() -> ExecutorConfig {
        let mut cfg = ExecutorConfig::new(plan(), CostParams::paper(), 1_000, 7);
        cfg.durable = true;
        cfg
    }

    fn records(n: u32) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(&[i % 5, i % 3, 0, 0], (i as u64) * 100))
            .collect()
    }

    /// Runs `recs` through a store-attached executor and returns its
    /// finished per-query totals for comparison.
    fn run_with_store(handle: &StoreHandle, recs: &[Record]) {
        let mut ex = config().build().with_store(handle.clone());
        ex.run(recs);
    }

    /// Size of generation `g`'s snapshot file.
    fn gen_len(handle: &StoreHandle, g: u64) -> usize {
        handle.with_backend(|b| b.read(&format!("gen-{g}/snapshot.bin")).unwrap().len())
    }

    /// Generation `g`'s chain link (`None` for a base).
    fn gen_link(handle: &StoreHandle, g: u64) -> Option<ChainLink> {
        let bytes = handle.with_backend(|b| b.read(&format!("gen-{g}/snapshot.bin")).unwrap());
        Snapshot::decode_link(&bytes).unwrap().1
    }

    /// The boundary checkpoint after each of the first `n` epochs of
    /// `records(10 * n)` (ten records per epoch).
    fn boundary_snapshots(n: usize) -> Vec<Snapshot> {
        let recs = records(10 * n as u32);
        let mut ex = config().build().with_snapshots();
        let mut out = Vec::new();
        for (e, epoch) in recs.chunks(10).enumerate() {
            ex.run(epoch);
            ex.align_to_epoch(e as u64 + 1);
            out.push(ex.latest_snapshot().unwrap().clone());
        }
        out
    }

    #[test]
    fn commits_chain_one_generation_per_commit_each_holding_its_epoch() {
        let handle = StoreHandle::in_memory().unwrap();
        run_with_store(&handle, &records(200));
        let stats = handle.stats();
        assert!(stats.commits >= 3, "expected several boundary commits");
        let gens = handle.with_backend(|b| b.list("").unwrap());
        let gen_dirs: Vec<&String> = gens.iter().filter(|n| n.starts_with("gen-")).collect();
        // The chain keeps every generation it links and a steady-state
        // commit removes nothing: one directory per commit.
        assert_eq!(gen_dirs.len() as u64, stats.commits, "{gen_dirs:?}");
        assert_eq!(stats.generations_removed, 0);
        assert_eq!(handle.generation(), stats.commits);
        // A generation is its snapshot and nothing else: no log or
        // other per-delivery artifact lands between commits.
        for dir in gen_dirs {
            let files = handle.with_backend(|b| b.list(dir).unwrap());
            assert_eq!(files, vec!["snapshot.bin".to_string()], "{dir}");
        }
        // Genesis is the base; every later commit is a delta over the
        // generation before it.
        assert_eq!(gen_link(&handle, 1), None);
        for g in 2..=stats.commits {
            assert_eq!(gen_link(&handle, g).map(|l| l.parent), Some(g - 1));
        }
        // Every epoch of this stream closes the same groups, so a delta
        // costs one epoch whatever the run length; a full re-encode
        // would grow linearly past twice the first delta.
        let first = gen_len(&handle, 2);
        for g in 3..=stats.commits {
            let len = gen_len(&handle, g);
            assert!(
                len <= 2 * first,
                "gen-{g} is {len} B, first delta {first} B"
            );
        }
    }

    #[test]
    fn a_failed_commit_leaves_the_next_one_a_delta_over_the_old_head() {
        let snaps = boundary_snapshots(3);
        // Ops 0..4 are the first two commits; op 4 is the third
        // commit's generation write, op 5 its manifest flip.
        for failing_op in [4, 5] {
            let plan = StorageFaultPlan {
                fail_op: Some((failing_op, StoreErrorKind::NoSpace)),
                ..StorageFaultPlan::none()
            };
            let mut store = CheckpointStore::open(Box::new(SimBackend::with_faults(plan))).unwrap();
            let h1 = store.commit(&snaps[0], None).unwrap();
            let h2 = store.commit(&snaps[1], Some(h1)).unwrap();
            assert!(store.commit(&snaps[2], Some(h2)).is_err());
            let h3 = store.commit(&snaps[2], Some(h2)).unwrap();
            let bytes = store
                .backend
                .read(&format!("gen-{}/snapshot.bin", h3.generation))
                .unwrap();
            let (_, link) = Snapshot::decode_link(&bytes).unwrap();
            assert_eq!(
                link,
                Some(ChainLink {
                    parent: h2.generation,
                    results_before: h2.results,
                }),
                "op {failing_op}"
            );
            store.rescan().unwrap();
            let got = store.recover_artifacts().unwrap().unwrap();
            assert_eq!(got.generation, h3.generation);
            assert_eq!(got.snapshot, snaps[2], "op {failing_op}: stitched chain");
        }
    }

    #[test]
    fn only_a_known_intact_head_gets_a_delta() {
        let snaps = boundary_snapshots(3);
        let mut store = CheckpointStore::open(Box::new(SimBackend::new())).unwrap();
        let h1 = store.commit(&snaps[0], None).unwrap();
        let h2 = store.commit(&snaps[1], Some(h1)).unwrap();
        // A head claiming a different result count is not extended.
        let liar = ChainHead {
            results: h2.results + 1,
            ..h2
        };
        let h3 = store.commit(&snaps[2], Some(liar)).unwrap();
        let base = |store: &mut CheckpointStore, g: u64| {
            let bytes = store
                .backend
                .read(&format!("gen-{g}/snapshot.bin"))
                .unwrap();
            Snapshot::decode_link(&bytes).unwrap().1.is_none()
        };
        assert!(base(&mut store, h3.generation));
        // A quarantined link breaks the chain below a head: base again.
        store.quarantine(h1.generation);
        let h4 = store.commit(&snaps[2], Some(h2)).unwrap();
        assert!(base(&mut store, h4.generation));
        // After a restart the store has verified nothing yet: base.
        store.rescan().unwrap();
        let h5 = store.commit(&snaps[2], Some(h4)).unwrap();
        assert!(base(&mut store, h5.generation));
    }

    #[test]
    fn attaching_a_store_to_a_fresh_executor_writes_a_base_and_recovery_chains_on() {
        let handle = StoreHandle::in_memory().unwrap();
        let recs = records(200);
        run_with_store(&handle, &recs[..100]);
        // A fresh executor's results are no prefix of the store's head.
        let before = handle.generation();
        let mut fresh = config().build().with_store(handle.clone());
        fresh.run(&recs[..1]);
        assert_eq!(handle.generation(), before + 1);
        assert_eq!(
            gen_link(&handle, before + 1),
            None,
            "genesis of a new chain"
        );
        drop(fresh);
        // A recovered executor extends the head it was recovered from.
        handle.power_cut().unwrap();
        let recovery = handle.recover_executor(&config());
        let mut ex = recovery.executor.unwrap();
        assert_eq!(recovery.generation, before + 1);
        ex.run(&recs[..20]);
        let next = handle.generation();
        assert!(next > before + 1);
        assert_eq!(gen_link(&handle, next).map(|l| l.parent), Some(before + 1));
    }

    #[test]
    fn rotten_link_falls_back_below_it_and_gc_drops_the_abandoned_branch() {
        let handle = StoreHandle::in_memory().unwrap();
        let recs = records(200);
        run_with_store(&handle, &recs);
        let newest = handle.generation();
        let rotten = newest - 3;
        let len = gen_len(&handle, rotten);
        handle
            .with_backend(|b| b.corrupt(&format!("gen-{rotten}/snapshot.bin"), len / 2))
            .unwrap();
        handle.power_cut().unwrap();
        let recovery = handle.recover_executor(&config());
        assert_eq!(recovery.generation, rotten - 1, "just below the rot");
        // Both manifest heads and the orphans above the rot chain
        // through it: each is one accounted fallback.
        assert_eq!(recovery.fallbacks, 3);
        assert_eq!(handle.stats().generations_quarantined, 1);
        let mut ex = recovery.executor.unwrap();
        ex.run(&recs[usize::try_from(recovery.records_hwm).unwrap()..]);
        let (_, hfta) = ex.finish();
        let mut oracle = config().build();
        oracle.run(&recs);
        assert_eq!(hfta.results(), oracle.finish().1.results());
        // The next commits chained onto the recovered head; GC removed
        // the rotten link and the branch above it, nothing else.
        assert_eq!(handle.stats().generations_removed, 4);
        let gens = handle.with_backend(|b| b.list("").unwrap());
        for g in rotten..=newest {
            assert!(!gens.contains(&format!("gen-{g}")), "gen-{g} survived GC");
        }
        assert!(gens.contains(&format!("gen-{}", rotten - 1)));
    }

    #[test]
    fn version_5_generations_are_never_misread() {
        let handle = StoreHandle::in_memory().unwrap();
        run_with_store(&handle, &records(60));
        let gens = handle.generation();
        // Stamp every generation with the pre-chain format version.
        for g in 1..=gens {
            let path = format!("gen-{g}/snapshot.bin");
            handle.with_backend(|b| {
                let mut bytes = b.read(&path).unwrap();
                bytes[4..8].copy_from_slice(&5u32.to_le_bytes());
                b.write_atomic(&path, &bytes).unwrap();
            });
        }
        handle.power_cut().unwrap();
        let scrub = handle.scrub().unwrap();
        assert_eq!(
            scrub.generations_quarantined,
            (1..=gens).collect::<Vec<_>>()
        );
        handle.power_cut().unwrap();
        let recovery = handle.recover_executor(&config());
        assert!(
            recovery.executor.is_none(),
            "a v5 store is refused, not read"
        );
        assert_eq!(recovery.records_hwm, 0);
    }

    #[test]
    fn power_cut_recovery_resumes_from_newest_generation() {
        let handle = StoreHandle::in_memory().unwrap();
        let recs = records(200);
        run_with_store(&handle, &recs);
        let committed_gen = handle.generation();
        handle.power_cut().unwrap();
        let recovery = handle.recover_executor(&config());
        let mut ex = recovery.executor.expect("a generation must be readable");
        assert_eq!(recovery.generation, committed_gen);
        assert_eq!(recovery.fallbacks, 0);
        // Replay the tail and compare against an uninterrupted run.
        ex.run(&recs[recovery.records_hwm as usize..]);
        let (report, hfta) = ex.finish();
        let mut oracle = config().build();
        oracle.run(&recs);
        let (oracle_report, oracle_hfta) = oracle.finish();
        assert_eq!(report.records, oracle_report.records);
        for q in [AttrSet::parse("A").unwrap(), AttrSet::parse("B").unwrap()] {
            assert_eq!(hfta.totals(q), oracle_hfta.totals(q));
        }
    }

    #[test]
    fn corrupt_newest_generation_falls_back_to_older() {
        let handle = StoreHandle::in_memory().unwrap();
        run_with_store(&handle, &records(200));
        let newest = handle.generation();
        handle
            .with_backend(|b| b.corrupt(&format!("gen-{newest}/snapshot.bin"), 12))
            .unwrap();
        let recovery = handle.recover_executor(&config());
        let ex = recovery.executor.expect("older generation must be usable");
        assert!(recovery.generation < newest);
        assert!(recovery.fallbacks >= 1);
        assert!(recovery.records_hwm < 200);
        drop(ex);
        assert!(handle.stats().generations_quarantined >= 1);
    }

    #[test]
    fn scrub_quarantines_bit_rot() {
        let handle = StoreHandle::in_memory().unwrap();
        run_with_store(&handle, &records(120));
        let clean = handle.scrub().unwrap();
        assert!(clean.manifests_valid.iter().any(|&v| v));
        assert!(clean.generations_quarantined.is_empty());
        let gen = handle.generation();
        handle
            .with_backend(|b| b.corrupt(&format!("gen-{gen}/snapshot.bin"), 20))
            .unwrap();
        let dirty = handle.scrub().unwrap();
        assert_eq!(dirty.generations_quarantined, vec![gen]);
    }

    #[test]
    fn transient_eio_is_retried_and_enospc_is_not() {
        let eio = StorageFaultPlan {
            transient_eio: Some((4, 3)),
            ..StorageFaultPlan::none()
        };
        let handle = StoreHandle::in_memory_with_faults(eio).unwrap();
        run_with_store(&handle, &records(60));
        let stats = handle.stats();
        assert!(stats.io_retries >= 3, "retry loop must absorb the window");
        assert_eq!(stats.io_gave_up, 0);

        let enospc = StorageFaultPlan {
            fail_op: Some((2, StoreErrorKind::NoSpace)),
            ..StorageFaultPlan::none()
        };
        let handle = StoreHandle::in_memory_with_faults(enospc).unwrap();
        let mut ex = config().build().with_store(handle.clone());
        ex.run(&records(60));
        // ENOSPC is terminal for the store, not the pipeline: the
        // executor degrades to in-memory artifacts and keeps running.
        assert!(ex.store_degraded());
        assert_eq!(ex.report().records, 60);
    }

    #[test]
    fn manifest_slot_corruption_falls_back_to_other_slot() {
        let handle = StoreHandle::in_memory().unwrap();
        run_with_store(&handle, &records(200));
        // Kill the *winning* manifest slot; the other still names the
        // previous generation.
        let seq_slot = if handle.lock_seq() % 2 == 1 {
            MANIFEST_A
        } else {
            MANIFEST_B
        };
        handle.with_backend(|b| b.corrupt(seq_slot, 5)).unwrap();
        let recovery = handle.recover_executor(&config());
        assert!(recovery.executor.is_some());
        assert!(recovery.generation >= 1);
    }

    impl StoreHandle {
        /// Test-only peek at the manifest sequence.
        fn lock_seq(&self) -> u64 {
            self.lock().manifest_seq
        }
    }
}
