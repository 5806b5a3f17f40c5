//! The generational checkpoint store: crash-safe durability for the
//! recovery artifact.
//!
//! The one thing `executor` treats as durable — the epoch-boundary
//! [`Snapshot`] — lands here as real bytes behind a
//! [`StorageBackend`](msa_stream::store::StorageBackend). Generations
//! form a chain, so a boundary commit costs O(epoch), not O(run). Each
//! generation is one file in the store root:
//!
//! ```text
//! gen-1.snapshot.bin    base: boundary state + every finished result
//! gen-2.snapshot.bin    delta: boundary state + results [k..] + link → gen-1
//! gen-3.snapshot.bin    delta: boundary state + results [m..] + link → gen-2
//! ```
//!
//! A **generation** is one framed snapshot (format version 6, see
//! [`crate::snapshot`]): the complete boundary state — counters,
//! cursors, the run report — plus the finished results closed since its
//! parent and a checksummed link naming that parent and the cumulative
//! result count it holds. A *base* has no parent and holds every result.
//!
//! A **commit** is one atomic write of the next generation, and that
//! write's rename is the commit point: once it returns, recovery finds
//! the generation. The layout is flat because
//! [`DiskBackend`](msa_stream::store::DiskBackend) fsyncs only the
//! written file's parent directory; a generation in a directory of its
//! own would leave its entry in the root undurable, and a power loss
//! could undo a commit that had returned. Every commit takes a number
//! above every generation on disk and every one tried since, so the
//! last good generation is never overwritten and a crash at any byte
//! leaves a readable store. A commit reads from borrowed parts: the
//! executor's boundary state and its finished results, by reference,
//! of which it encodes only the tail its link needs. Nothing moves out
//! of the executor across the backend call, so a backend write that
//! panics leaves the executor whole. The new generation is a delta only
//! on top of a head whose results are known to be a prefix of the
//! executor's: the head the committing executor's last successful
//! commit wrote, or the one it was recovered from (its `ChainHead`
//! cursor), and only while this store still holds that head on an
//! intact chain. Anything else — the genesis commit, a store attached
//! to an executor it did not recover — writes a base. Nothing is written
//! between commits: a crash mid-epoch loses only the open epoch, and
//! recovery regenerates it by replaying the (replayable) source from
//! the snapshot's record high-water mark.
//!
//! **Recovery** walks the generations on disk highest number first;
//! numbers only grow, so that is newest first. Each candidate is walked
//! from its head down to its base. Every link must pass its frame
//! checksum and point strictly downward, and every parent's cumulative
//! result count must equal its child's `results_before`. The links are
//! then stitched into one full [`Snapshot`], which moves by value into
//! [`Executor::recover`](crate::executor::Executor::recover): the
//! results are never copied on the way. A candidate
//! with an unreadable link is unusable: the rotten link is quarantined
//! and the ladder continues with older candidates, with the
//! re-replayed/lost records accounted through `bounds.rs` as the
//! explicit `stale-fallback` loss class, never silent staleness.
//!
//! **GC** keeps the intact chains of the two newest heads this store
//! committed or recovered — at open, the two newest generations on disk
//! — and removes every other generation it knows may be on disk:
//! orphans of failed commits, quarantined links and branches abandoned
//! by a fallback. That set is the listing taken at open or power cut
//! plus every generation a commit tried to write, so no commit lists
//! the root, and a commit that extends the chain removes nothing.
//!
//! Transient EIO is retried with an attempt-counted budget (never
//! clocked — the repo's determinism spine); ENOSPC and crashes are not.
//! The **scrub** pass verifies every generation once, offline, and
//! quarantines corrupt ones without touching good ones.
//!
//! There is no reader for the older layout (a `gen-N/` directory per
//! generation behind A/B manifest slots): such a store opens empty.

use crate::executor::{Executor, ExecutorConfig};
use crate::hfta::EpochResult;
use crate::snapshot::{ChainLink, Snapshot};
use msa_stream::store::{
    DiskBackend, SimBackend, StorageBackend, StorageFaultPlan, StoreError, StoreErrorKind,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// Transient-EIO retries per store operation before giving up.
const DEFAULT_RETRY_BUDGET: u32 = 8;

/// A generation's file name is `gen-N.snapshot.bin`. The suffix keeps
/// the name every snapshot file has carried, which perfbench's counting
/// backend keys its commit ledger on.
const GEN_PREFIX: &str = "gen-";
const GEN_SUFFIX: &str = ".snapshot.bin";

/// Cumulative store observability counters (all attempt/record counts,
/// never clocks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Generations committed (one atomic write each).
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
    /// Generations examined.
    pub generations_checked: u64,
    /// Generations whose snapshot failed verification (now quarantined).
    pub generations_quarantined: Vec<u64>,
}

/// A generation an executor may chain its next commit onto — the one
/// its last successful commit wrote, or the one it was recovered from —
/// the cumulative finished-result count both sides agree it holds, and
/// the boundary it holds: the position a restart from the store resumes
/// at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ChainHead {
    pub(crate) generation: u64,
    pub(crate) results: u64,
    pub(crate) epoch: u64,
    pub(crate) records_hwm: u64,
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

/// Why a generation could not be loaded.
enum LoadFail {
    /// Its file is not there: a write that never landed when the
    /// generation is a head, a lost link when it is a parent.
    Absent,
    /// The artifact is unreadable or fails verification: quarantine the
    /// generation and fall back.
    Corrupt,
    /// The backend itself is dead — no candidate can do better, so the
    /// error propagates instead of quarantining the world.
    Dead(StoreError),
}

/// The generational checkpoint store over one [`StorageBackend`].
///
/// Commits never overwrite a generation; see the module docs for the
/// on-disk layout and crash discipline. Most callers hold a
/// [`StoreHandle`] rather than the store itself.
#[derive(Debug)]
pub struct CheckpointStore {
    backend: Box<dyn StorageBackend>,
    /// The generation the next commit creates: above every generation
    /// listed at open or power cut and every one tried since, so
    /// fallback never re-enters a quarantined generation and every link
    /// points strictly downward.
    next_generation: u64,
    /// The two newest heads this store committed or recovered, newest
    /// first (0 = none); at open, the two newest generations on disk.
    /// GC keeps their intact chains.
    heads: [u64; 2],
    /// Every generation that may be on the backend: the listing taken
    /// at open or power cut plus every generation a commit tried to
    /// write. Recovery, scrub and GC work from it instead of listing.
    on_disk: BTreeSet<u64>,
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
    /// Opens a store over `backend`, listing its root once to find the
    /// generations it holds.
    pub fn open(backend: Box<dyn StorageBackend>) -> Result<CheckpointStore, StoreError> {
        let mut store = CheckpointStore {
            backend,
            next_generation: 1,
            heads: [0; 2],
            on_disk: BTreeSet::new(),
            verified: BTreeMap::new(),
            quarantined: Vec::new(),
            stats: StoreStats::default(),
        };
        store.rescan()?;
        Ok(store)
    }

    /// The store-relative path of generation `generation`: one file in
    /// the store root.
    pub fn generation_path(generation: u64) -> String {
        format!("{GEN_PREFIX}{generation}{GEN_SUFFIX}")
    }

    /// Re-derives what the store holds from one listing of its root
    /// (shared by `open` and post-power-cut reopen). A generation on
    /// disk is a committed one, so the two newest listed are the two
    /// newest heads.
    fn rescan(&mut self) -> Result<(), StoreError> {
        let names = self.backend.list("")?;
        self.on_disk = names.iter().filter_map(|n| parse_gen(n)).collect();
        let mut newest_first = self.on_disk.iter().rev().copied();
        let newest = newest_first.next().unwrap_or(0);
        self.heads = [newest, newest_first.next().unwrap_or(0)];
        self.next_generation = newest + 1;
        self.quarantined.clear();
        self.verified.clear();
        Ok(())
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
                Err(e) if e.is_transient() && attempts < DEFAULT_RETRY_BUDGET => {
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

    /// Commits a boundary as a new generation: one atomic write, whose
    /// rename is the commit point, then GC of off-chain generations.
    /// Both parts are borrowed: `state` is the boundary state (its own
    /// `hfta.results` is not read) and `results` every finished result
    /// at the boundary, of which the generation encodes only those its
    /// parent's chain lacks. The generation is a delta over `parent`
    /// when this store still holds it, on an intact chain, with exactly
    /// `parent.results` results; otherwise it is a base. The caller
    /// vouches that those results are a prefix of `results`, and moves
    /// its cursor to the returned head only on success — after a
    /// failure the next commit is still a correct delta over `parent`.
    pub(crate) fn commit(
        &mut self,
        state: &Snapshot,
        results: &[EpochResult],
        parent: Option<ChainHead>,
    ) -> Result<ChainHead, StoreError> {
        let count = results.len() as u64;
        let link = parent
            .filter(|p| p.results <= count && self.holds(*p))
            .map(|p| ChainLink {
                parent: p.generation,
                results_before: p.results,
            });
        let bytes = state.encode_generation(results, link);
        // Claimed before the write: a write that fails may still have
        // landed, so GC must know of it and no later commit reuses it.
        let gen = self.next_generation;
        self.next_generation += 1;
        self.on_disk.insert(gen);
        let path = CheckpointStore::generation_path(gen);
        self.retrying(|b| b.write_atomic(&path, &bytes))?;
        self.verified.insert(
            gen,
            Verified {
                parent: link.map(|l| l.parent),
                results: count,
            },
        );
        self.push_head(gen);
        self.stats.commits += 1;
        self.gc();
        Ok(ChainHead {
            generation: gen,
            results: count,
            epoch: state.epoch,
            records_hwm: state.records_hwm,
        })
    }

    /// Makes `gen` the newest head; the previous newest becomes the
    /// other one GC keeps.
    fn push_head(&mut self, gen: u64) {
        let [newest, _] = self.heads;
        if newest != gen {
            self.heads = [gen, newest];
        }
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

    /// Best-effort removal of every generation the store may hold off
    /// the intact chains of its two newest heads: orphans of failed
    /// commits, quarantined links and branches a fallback abandoned. A
    /// head whose chain this process never verified keeps everything
    /// until a commit or recovery displaces it — GC removes only what it
    /// can prove unreachable. A failed removal keeps its generation in
    /// the set, so the next commit retries it.
    fn gc(&mut self) {
        let mut keep = BTreeSet::new();
        for head in self.heads.into_iter().filter(|&g| g != 0) {
            match self.chain(head) {
                Chain::Intact(gens) => keep.extend(gens),
                Chain::Broken => {}
                Chain::Unknown => return,
            }
        }
        let doomed: Vec<u64> = self.on_disk.difference(&keep).copied().collect();
        for g in doomed {
            let path = CheckpointStore::generation_path(g);
            if self.retrying(|b| b.remove(&path)).is_ok() {
                self.on_disk.remove(&g);
                self.verified.remove(&g);
                self.quarantined.retain(|&q| q != g);
                self.stats.generations_removed += 1;
            }
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
        let [newest, _] = self.heads;
        newest
    }

    /// Cumulative counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Loads the newest usable chain, stitched into one snapshot,
    /// quarantining rotten links and falling back to older candidates.
    /// `None` when no chain is usable (fresh start).
    pub fn recover_artifacts(&mut self) -> Result<Option<RecoveredArtifacts>, StoreError> {
        let candidates: Vec<u64> = self.on_disk.iter().rev().copied().collect();
        // Generations this pass already found chained through a rotten
        // link: skipped as candidates without re-reading them.
        let mut broken = BTreeSet::new();
        let mut fallbacks = 0u64;
        for gen in candidates {
            if self.quarantined.contains(&gen) {
                continue;
            }
            match self.load_chain(gen, &mut broken) {
                Ok(snapshot) => {
                    self.push_head(gen);
                    return Ok(Some(RecoveredArtifacts {
                        snapshot,
                        generation: gen,
                        fallbacks,
                    }));
                }
                // A write that never landed: no commit was skipped.
                Err(LoadFail::Absent) => {
                    self.on_disk.remove(&gen);
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
    /// `results_before`. On a rotten or missing link the link is
    /// quarantined (a wrong count convicts the child that recorded it)
    /// and every generation walked above it joins `broken`.
    fn load_chain(&mut self, head: u64, broken: &mut BTreeSet<u64>) -> Result<Snapshot, LoadFail> {
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
            let (mut part, link) = match self.load(gen) {
                Ok(loaded) => loaded,
                Err(LoadFail::Absent) if walked.is_empty() => return Err(LoadFail::Absent),
                Err(LoadFail::Dead(e)) => return Err(LoadFail::Dead(e)),
                Err(_) => {
                    self.quarantine(gen);
                    broken.extend(walked);
                    return Err(LoadFail::Corrupt);
                }
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

    /// Reads and verifies one generation: the frame's checksum, the
    /// decode, and a parent strictly below it. Returns the snapshot with
    /// only the generation's own results, and its link.
    fn load(&mut self, gen: u64) -> Result<(Snapshot, Option<ChainLink>), LoadFail> {
        let path = CheckpointStore::generation_path(gen);
        let bytes = match self.retrying(|b| b.read(&path)) {
            Ok(bytes) => bytes,
            // A dead backend is not a corrupt generation: propagate.
            Err(e) if e.kind == StoreErrorKind::Crashed => return Err(LoadFail::Dead(e)),
            Err(e) if e.kind == StoreErrorKind::NotFound => return Err(LoadFail::Absent),
            Err(_) => return Err(LoadFail::Corrupt),
        };
        match Snapshot::decode_link(&bytes) {
            Ok((_, Some(link))) if link.parent >= gen => Err(LoadFail::Corrupt),
            Ok(loaded) => Ok(loaded),
            Err(_) => Err(LoadFail::Corrupt),
        }
    }

    /// Offline integrity pass: verifies every generation once (frame
    /// checksum, then decode), quarantining generations that fail.
    /// Read-only apart from the quarantine list.
    pub fn scrub(&mut self) -> Result<ScrubReport, StoreError> {
        let mut report = ScrubReport::default();
        let gens: Vec<u64> = self.on_disk.iter().copied().collect();
        for g in gens {
            match self.load(g) {
                Ok(_) => {}
                Err(LoadFail::Absent) => {
                    self.on_disk.remove(&g);
                    continue;
                }
                Err(LoadFail::Dead(e)) => return Err(e),
                Err(LoadFail::Corrupt) => {
                    self.quarantine(g);
                    report.generations_quarantined.push(g);
                }
            }
            report.generations_checked += 1;
        }
        Ok(report)
    }
}

/// The generation a root entry holds, if it is one.
fn parse_gen(name: &str) -> Option<u64> {
    name.strip_prefix(GEN_PREFIX)?
        .strip_suffix(GEN_SUFFIX)?
        .parse()
        .ok()
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
        state: &Snapshot,
        results: &[EpochResult],
        parent: Option<ChainHead>,
    ) -> Result<ChainHead, StoreError> {
        self.lock().commit(state, results, parent)
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
                Ok(Some(RecoveredArtifacts {
                    snapshot,
                    generation,
                    ..
                })) => {
                    let head = ChainHead {
                        generation,
                        results: snapshot.hfta.results.len() as u64,
                        epoch: snapshot.epoch,
                        records_hwm: snapshot.records_hwm,
                    };
                    match cfg.build().recover(snapshot) {
                        Ok(ex) => {
                            return StoreRecovery {
                                records_hwm: head.records_hwm,
                                generation,
                                executor: Some(ex.with_store_head(self.clone(), head)),
                                fallbacks: self.stats().fallbacks - start_fallbacks,
                            };
                        }
                        Err(_) => {
                            let mut store = self.lock();
                            store.quarantine(generation);
                            store.stats.fallbacks += 1;
                        }
                    }
                }
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

    fn path(g: u64) -> String {
        CheckpointStore::generation_path(g)
    }

    /// Size of generation `g`'s snapshot file.
    fn gen_len(handle: &StoreHandle, g: u64) -> usize {
        handle.with_backend(|b| b.read(&path(g)).unwrap().len())
    }

    /// Generation `g`'s chain link (`None` for a base).
    fn gen_link(handle: &StoreHandle, g: u64) -> Option<ChainLink> {
        let bytes = handle.with_backend(|b| b.read(&path(g)).unwrap());
        Snapshot::decode_link(&bytes).unwrap().1
    }

    /// The store root's listing.
    fn listing(handle: &StoreHandle) -> Vec<String> {
        handle.with_backend(|b| b.list("").unwrap())
    }

    /// The listing a store holding exactly `gens` has.
    fn files(gens: impl IntoIterator<Item = u64>) -> Vec<String> {
        let mut names: Vec<String> = gens.into_iter().map(path).collect();
        names.sort();
        names
    }

    /// Commits a whole snapshot: its boundary state and its results.
    fn commit(
        store: &mut CheckpointStore,
        snap: &Snapshot,
        parent: Option<ChainHead>,
    ) -> Result<ChainHead, StoreError> {
        store.commit(snap, &snap.hfta.results, parent)
    }

    /// The boundary checkpoint after each of the first `n` epochs of
    /// `records(10 * n)` (ten records per epoch).
    fn boundary_snapshots(n: usize) -> Vec<Snapshot> {
        let recs = records(10 * n as u32);
        let mut ex = config().build();
        let mut out = Vec::new();
        for (e, epoch) in recs.chunks(10).enumerate() {
            ex.run(epoch);
            ex.align_to_epoch(e as u64 + 1);
            out.push(ex.latest_snapshot().unwrap());
        }
        out
    }

    #[test]
    fn commits_chain_one_generation_per_commit_each_holding_its_epoch() {
        let handle = StoreHandle::in_memory().unwrap();
        run_with_store(&handle, &records(200));
        let stats = handle.stats();
        assert!(stats.commits >= 3, "expected several boundary commits");
        // The chain keeps every generation it links and a steady-state
        // commit removes nothing. A generation is one file in the root
        // and nothing else lands there: no log or other per-delivery
        // artifact between commits.
        assert_eq!(listing(&handle), files(1..=stats.commits));
        assert_eq!(stats.generations_removed, 0);
        assert_eq!(handle.generation(), stats.commits);
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
    fn every_generation_is_its_eager_boundary_snapshot_encoded_with_its_link() {
        let handle = StoreHandle::in_memory().unwrap();
        let mut ex = config().build().with_store(handle.clone());
        // The genesis commit captures the state before the first record.
        let mut eager = vec![ex.snapshot().unwrap()];
        for (e, epoch) in records(50).chunks(10).enumerate() {
            ex.run(epoch);
            ex.align_to_epoch(e as u64 + 1);
            eager.push(ex.snapshot().unwrap());
        }
        assert_eq!(handle.stats().commits, 6);
        let mut parent: Option<(u64, &Snapshot)> = None;
        for (g, snap) in (1..).zip(&eager) {
            let bytes = handle.with_backend(|b| b.read(&path(g)).unwrap());
            let link = Snapshot::decode_link(&bytes).unwrap().1;
            assert_eq!(
                link,
                parent.map(|(p, prev)| ChainLink {
                    parent: p,
                    results_before: prev.hfta.results.len() as u64,
                }),
                "gen-{g}: link"
            );
            assert!(bytes == snap.encode_link(link), "gen-{g}: bytes");
            parent = Some((g, snap));
        }
    }

    #[test]
    fn a_failed_commit_leaves_the_next_one_a_delta_over_the_old_head() {
        let snaps = boundary_snapshots(3);
        // Ops 0 and 1 are the first two commits; op 2 is the third
        // commit's only write.
        let plan = StorageFaultPlan {
            fail_op: Some((2, StoreErrorKind::NoSpace)),
            ..StorageFaultPlan::none()
        };
        let mut store = CheckpointStore::open(Box::new(SimBackend::with_faults(plan))).unwrap();
        let h1 = commit(&mut store, &snaps[0], None).unwrap();
        let h2 = commit(&mut store, &snaps[1], Some(h1)).unwrap();
        assert!(commit(&mut store, &snaps[2], Some(h2)).is_err());
        // The failed write claimed a number but left no file: recovery
        // and scrub in the same process skip it without a fallback or a
        // quarantine.
        let got = store.recover_artifacts().unwrap().unwrap();
        assert_eq!((got.generation, got.fallbacks), (h2.generation, 0));
        assert_eq!(store.scrub().unwrap().generations_checked, 2);
        assert_eq!(store.stats().generations_quarantined, 0);
        let h3 = commit(&mut store, &snaps[2], Some(h2)).unwrap();
        let bytes = store.backend.read(&path(h3.generation)).unwrap();
        let (_, link) = Snapshot::decode_link(&bytes).unwrap();
        assert_eq!(
            link,
            Some(ChainLink {
                parent: h2.generation,
                results_before: h2.results,
            })
        );
        // The failed write's number is never reused.
        assert!(h3.generation > h2.generation + 1);
        store.rescan().unwrap();
        let got = store.recover_artifacts().unwrap().unwrap();
        assert_eq!(got.generation, h3.generation);
        assert_eq!(got.fallbacks, 0);
        assert_eq!(got.snapshot, snaps[2], "stitched chain");
    }

    #[test]
    fn only_a_known_intact_head_gets_a_delta() {
        let snaps = boundary_snapshots(3);
        let mut store = CheckpointStore::open(Box::new(SimBackend::new())).unwrap();
        let h1 = commit(&mut store, &snaps[0], None).unwrap();
        let h2 = commit(&mut store, &snaps[1], Some(h1)).unwrap();
        // A head claiming a different result count is not extended.
        let liar = ChainHead {
            results: h2.results + 1,
            ..h2
        };
        let h3 = commit(&mut store, &snaps[2], Some(liar)).unwrap();
        let base = |store: &mut CheckpointStore, g: u64| {
            let bytes = store.backend.read(&path(g)).unwrap();
            Snapshot::decode_link(&bytes).unwrap().1.is_none()
        };
        assert!(base(&mut store, h3.generation));
        // A quarantined link breaks the chain below a head: base again.
        store.quarantine(h1.generation);
        let h4 = commit(&mut store, &snaps[2], Some(h2)).unwrap();
        assert!(base(&mut store, h4.generation));
        // After a restart the store has verified nothing yet: base.
        store.rescan().unwrap();
        let h5 = commit(&mut store, &snaps[2], Some(h4)).unwrap();
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
            .with_backend(|b| b.corrupt(&path(rotten), len / 2))
            .unwrap();
        handle.power_cut().unwrap();
        let recovery = handle.recover_executor(&config());
        assert_eq!(recovery.generation, rotten - 1, "just below the rot");
        // The three generations above the rot chain through it: each
        // is one accounted fallback.
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
        let gens = listing(&handle);
        for g in rotten..=newest {
            assert!(!gens.contains(&path(g)), "gen-{g} survived GC");
        }
        assert!(gens.contains(&path(rotten - 1)));
    }

    #[test]
    fn version_5_generations_are_never_misread() {
        let handle = StoreHandle::in_memory().unwrap();
        run_with_store(&handle, &records(60));
        let gens = handle.generation();
        // Stamp every generation with the pre-chain format version.
        for g in 1..=gens {
            handle.with_backend(|b| {
                let mut bytes = b.read(&path(g)).unwrap();
                bytes[4..8].copy_from_slice(&5u32.to_le_bytes());
                b.write_atomic(&path(g), &bytes).unwrap();
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
            .with_backend(|b| b.corrupt(&path(newest), 12))
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
        assert!(clean.generations_quarantined.is_empty());
        let gen = handle.generation();
        handle.with_backend(|b| b.corrupt(&path(gen), 20)).unwrap();
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
    fn a_base_commit_keeps_the_previous_chain_for_one_more_commit() {
        let handle = StoreHandle::in_memory().unwrap();
        let recs = records(200);
        run_with_store(&handle, &recs[..100]);
        let old_head = handle.generation();
        // A fresh executor's genesis commit is a base; the old head is
        // still one of the two newest, so its chain stays recoverable.
        let mut fresh = config().build().with_store(handle.clone());
        fresh.run(&recs[..1]);
        let base = handle.generation();
        assert_eq!(base, old_head + 1);
        assert_eq!(gen_link(&handle, base), None);
        assert_eq!(handle.stats().generations_removed, 0);
        assert_eq!(listing(&handle), files(1..=base));
        // The next commit extends the base and displaces the old head:
        // GC drops the whole previous chain.
        fresh.run(&recs[1..20]);
        let head = handle.generation();
        assert_eq!(gen_link(&handle, head).map(|l| l.parent), Some(base));
        assert_eq!(handle.stats().generations_removed, old_head);
        assert_eq!(listing(&handle), files(base..=head));
        // After a restart the two newest generations on disk are the
        // heads, not yet verified: another fresh base removes nothing.
        handle.power_cut().unwrap();
        let mut restarted = config().build().with_store(handle.clone());
        restarted.run(&recs[..1]);
        assert_eq!(handle.stats().generations_removed, old_head);
        assert_eq!(listing(&handle), files(base..=head + 1));
    }
}
