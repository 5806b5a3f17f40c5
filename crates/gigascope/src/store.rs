//! The generational checkpoint store: crash-safe durability for the
//! recovery artifact.
//!
//! The one thing `executor` treats as durable — the epoch-boundary
//! [`Snapshot`] — lands here as real bytes behind a
//! [`StorageBackend`](msa_stream::store::StorageBackend). The layout:
//!
//! ```text
//! manifest.a            A/B manifest slots ("MSMF" + fnv64 trailer):
//! manifest.b            the *commit point*; highest valid seq wins
//! gen-3/snapshot.bin    one framed snapshot per generation
//! gen-4/snapshot.bin
//! ```
//!
//! A **commit** writes the next generation's snapshot atomically, then
//! flips the *older* manifest slot to point at it — the last good
//! generation is never overwritten, so a crash at any byte leaves a
//! readable store. Nothing is written between commits: a crash
//! mid-epoch loses only the open epoch, and recovery regenerates it by
//! replaying the (replayable) source from the snapshot's record
//! high-water mark.
//!
//! **Recovery** walks candidates newest-first: manifest-committed
//! generations by descending manifest seq, then any orphaned on-disk
//! generation (covers a corrupt manifest pair whose snapshot survived).
//! An unreadable candidate is quarantined and the next older one is
//! tried — graceful degradation, with the re-replayed/lost records
//! accounted through `bounds.rs` as the explicit `stale-fallback` loss
//! class, never silent staleness.
//!
//! Transient EIO is retried with an attempt-counted budget (never
//! clocked — the repo's determinism spine); ENOSPC and crashes are not.
//! The **scrub** pass re-verifies every manifest and snapshot checksum
//! offline and quarantines corrupt generations without touching good
//! ones.

use crate::executor::{Executor, ExecutorConfig};
use crate::snapshot::{fnv64, Snapshot};
use msa_stream::store::{
    DiskBackend, SimBackend, StorageBackend, StorageFaultPlan, StoreError, StoreErrorKind,
};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

const MANIFEST_A: &str = "manifest.a";
const MANIFEST_B: &str = "manifest.b";
const MANIFEST_MAGIC: [u8; 4] = *b"MSMF";
const MANIFEST_VERSION: u32 = 1;
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
    /// fnv64 of the snapshot file's bytes (frame included) — catches
    /// truncation and bit rot before the snapshot codec even runs.
    snapshot_fnv: u64,
}

impl Manifest {
    /// The slot a commit with this sequence number writes: odd → A,
    /// even → B, so consecutive commits alternate and the previous
    /// manifest survives any torn write.
    fn slot(seq: u64) -> &'static str {
        if seq % 2 == 1 {
            MANIFEST_A
        } else {
            MANIFEST_B
        }
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
    /// unreadable or failed executor validation.
    pub fallbacks: u64,
    /// Generations quarantined (by recovery or scrub).
    pub generations_quarantined: u64,
    /// Old generations garbage-collected after commits.
    pub generations_removed: u64,
}

/// What [`CheckpointStore::recover_artifacts`] hands back: the newest
/// readable generation's snapshot, ready for
/// [`Executor::recover`](crate::executor::Executor::recover).
#[derive(Clone, Debug)]
pub struct RecoveredArtifacts {
    /// The decoded, checksum-verified snapshot.
    pub snapshot: Snapshot,
    /// Which generation was recovered.
    pub generation: u64,
    /// Newer generations skipped (and quarantined) to reach this one.
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
    /// directory.
    next_generation: u64,
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
        if let Some(m) = self.best_manifest() {
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

    /// All valid manifests, best (highest seq) first.
    fn read_manifests(&mut self) -> Vec<Manifest> {
        let mut out = Vec::with_capacity(2);
        for slot in [MANIFEST_A, MANIFEST_B] {
            if let Ok(bytes) = self.backend.read(slot) {
                if let Some(m) = Manifest::decode(&bytes) {
                    out.push(m);
                }
            }
        }
        out.sort_by_key(|m| std::cmp::Reverse(m.manifest_seq));
        out
    }

    fn best_manifest(&mut self) -> Option<Manifest> {
        self.read_manifests().into_iter().next()
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

    /// Commits `snapshot` as a new generation: atomic snapshot write,
    /// then the manifest flip (the commit point), then GC of everything
    /// older than the previous generation.
    pub fn commit(&mut self, snapshot: &Snapshot) -> Result<(), StoreError> {
        let bytes = snapshot.encode();
        let gen = self.next_generation;
        let snap_path = format!("gen-{gen}/snapshot.bin");
        self.retrying(|b| b.write_atomic(&snap_path, &bytes))?;
        let manifest = Manifest {
            manifest_seq: self.manifest_seq + 1,
            generation: gen,
            snapshot_len: bytes.len() as u64,
            snapshot_fnv: fnv64(&bytes),
        };
        let slot = Manifest::slot(manifest.manifest_seq);
        let encoded = manifest.encode();
        self.retrying(|b| b.write_atomic(slot, &encoded))?;
        let prev = self.generation;
        self.manifest_seq = manifest.manifest_seq;
        self.generation = gen;
        self.next_generation = gen + 1;
        self.stats.commits += 1;
        self.gc(prev, gen);
        Ok(())
    }

    /// Best-effort removal of every generation other than the two the
    /// A/B manifests can still name. Failures are ignored — GC retries
    /// implicitly at the next commit.
    fn gc(&mut self, keep_a: u64, keep_b: u64) {
        let Ok(gens) = self.scan_generations() else {
            return;
        };
        for g in gens {
            if g == keep_a || g == keep_b {
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
            self.quarantined.retain(|&q| q != g);
            self.stats.generations_removed += 1;
        }
    }

    /// Marks `generation` corrupt: recovery and scrub skip it until it
    /// is garbage-collected. Idempotent.
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

    /// Loads the newest readable generation's snapshot, quarantining
    /// unreadable candidates and falling back to older ones. `None`
    /// when no generation is readable (fresh start).
    pub fn recover_artifacts(&mut self) -> Result<Option<RecoveredArtifacts>, StoreError> {
        let manifests = self.read_manifests();
        let mut candidates: Vec<(u64, Option<Manifest>)> =
            manifests.iter().map(|m| (m.generation, Some(*m))).collect();
        let mut scanned = self.scan_generations()?;
        scanned.sort_unstable_by(|a, b| b.cmp(a));
        for g in scanned {
            if !candidates.iter().any(|&(c, _)| c == g) {
                candidates.push((g, None));
            }
        }
        let mut fallbacks = 0u64;
        for (gen, manifest) in candidates {
            if self.quarantined.contains(&gen) {
                continue;
            }
            match self.try_load(gen, manifest.as_ref()) {
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
                    self.quarantine(gen);
                    self.stats.fallbacks += 1;
                    fallbacks += 1;
                }
            }
        }
        Ok(None)
    }

    /// Loads and verifies one generation: snapshot bytes against the
    /// manifest checksum (when a manifest names it), then the codec's
    /// own frame.
    fn try_load(&mut self, gen: u64, manifest: Option<&Manifest>) -> Result<Snapshot, LoadFail> {
        let snap_path = format!("gen-{gen}/snapshot.bin");
        let bytes = match self.retrying(|b| b.read(&snap_path)) {
            Ok(bytes) => bytes,
            // A dead backend is not a corrupt generation: propagate.
            Err(e) if e.kind == StoreErrorKind::Crashed => return Err(LoadFail::Dead(e)),
            Err(_) => return Err(LoadFail::Corrupt),
        };
        if let Some(m) = manifest {
            if bytes.len() as u64 != m.snapshot_len || fnv64(&bytes) != m.snapshot_fnv {
                return Err(LoadFail::Corrupt);
            }
        }
        Snapshot::decode(&bytes).map_err(|_| LoadFail::Corrupt)
    }

    /// Offline integrity pass: re-verifies every manifest and snapshot
    /// checksum, quarantining generations whose snapshot fails.
    /// Read-only apart from the quarantine list.
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
            let snap_path = format!("gen-{g}/snapshot.bin");
            let manifest = manifests.iter().find(|m| m.generation == g);
            let snap_ok = match self.backend.read(&snap_path) {
                Ok(bytes) => {
                    manifest.is_none_or(|m| {
                        m.snapshot_len == bytes.len() as u64 && m.snapshot_fnv == fnv64(&bytes)
                    }) && Snapshot::decode(&bytes).is_ok()
                }
                Err(_) => false,
            };
            if !snap_ok {
                self.quarantine(g);
                report.generations_quarantined.push(g);
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
    pub fn commit(&self, snapshot: &Snapshot) -> Result<(), StoreError> {
        self.lock().commit(snapshot)
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
    /// Drives the full degradation ladder: load the newest readable
    /// snapshot (falling back past unreadable generations), validate it
    /// against `cfg` via [`Executor::recover`], and quarantine-and-retry
    /// when validation rejects a candidate (a snapshot taken under a
    /// different configuration). The returned executor has this store
    /// re-attached; `executor: None` means nothing was recoverable and
    /// the caller starts fresh. Either way the outcome is one of the two
    /// permitted ends: bit-identical recovery (given replay from
    /// `records_hwm`) or explicit, accounted fallback — never silent
    /// corruption.
    pub fn recover_executor(&self, cfg: &ExecutorConfig) -> StoreRecovery {
        let start_fallbacks = self.stats().fallbacks;
        loop {
            // Bind before matching: a guard living in the scrutinee
            // would still be held when the arms re-lock the handle.
            let loaded = self.lock().recover_artifacts();
            match loaded {
                Ok(Some(artifacts)) => match cfg.build().recover(&artifacts.snapshot) {
                    Ok(ex) => {
                        return StoreRecovery {
                            records_hwm: artifacts.snapshot.records_hwm,
                            generation: artifacts.generation,
                            executor: Some(ex.with_store(self.clone())),
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

    #[test]
    fn commit_creates_generations_and_gc_keeps_two() {
        let handle = StoreHandle::in_memory().unwrap();
        run_with_store(&handle, &records(200));
        let stats = handle.stats();
        assert!(stats.commits >= 3, "expected several boundary commits");
        let gens = handle.with_backend(|b| b.list("").unwrap());
        let gen_dirs: Vec<&String> = gens.iter().filter(|n| n.starts_with("gen-")).collect();
        assert!(
            gen_dirs.len() <= 2,
            "GC must keep at most two generations, found {gen_dirs:?}"
        );
        assert!(handle.generation() >= 3);
        // A generation is its snapshot and nothing else: no log or
        // other per-delivery artifact lands between commits.
        for dir in gen_dirs {
            let files = handle.with_backend(|b| b.list(dir).unwrap());
            assert_eq!(files, vec!["snapshot.bin".to_string()], "{dir}");
        }
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
