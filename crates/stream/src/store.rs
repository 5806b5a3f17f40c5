//! Durable storage primitives: the atomic-write discipline and the
//! fault-injecting simulation backend beneath every real file the
//! workspace writes.
//!
//! Everything above this module treats durability as a *value*: bytes
//! handed to a [`StorageBackend`] either become durable atomically or
//! fail with a typed [`StoreError`] — there is no third state. Two
//! implementations back the trait:
//!
//! * [`DiskBackend`] — real files under a root directory, every
//!   replacement routed through the classic crash-safe discipline
//!   (write a temp sibling → `fsync` the file → atomic `rename` →
//!   `fsync` the directory). A deterministic *kill fuse*
//!   ([`DiskBackend::with_kill_after`]) aborts the backend between any
//!   two syscall steps, so tests can sweep every crash interleaving a
//!   real process kill could produce and prove recovery handles each
//!   one.
//! * [`SimBackend`] — a deterministic in-memory filesystem with a
//!   seeded [`StorageFaultPlan`]: EIO, ENOSPC, torn writes at byte
//!   *k*, crash-between-temp-and-rename, and lying `fsync`s whose data
//!   evaporates at the next power cut ([`SimBackend::crash`]). Faults
//!   are op-indexed and PRNG-seeded — never clocked — so every drill
//!   replays bit-identically, which is the repo's spine invariant.
//!
//! The generational checkpoint store in `msa-gigascope` builds on this
//! trait; the lint rule R009 keeps every other file write in the
//! workspace routed through here.

use crate::prng::SplitMix64;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// What went wrong, independent of which backend failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreErrorKind {
    /// A (possibly transient) I/O error — the one kind worth retrying.
    Eio,
    /// The device is out of space; retrying cannot help.
    NoSpace,
    /// The object does not exist.
    NotFound,
    /// The backend is dead: a kill fuse or injected crash fired. Every
    /// later operation fails the same way until recovery reopens it.
    Crashed,
    /// The path escapes the store root (absolute or `..` segments).
    InvalidPath,
}

impl StoreErrorKind {
    /// True for faults a bounded, attempt-counted retry may clear.
    pub fn is_transient(self) -> bool {
        matches!(self, StoreErrorKind::Eio)
    }
}

/// A typed storage failure: which primitive failed, on which object,
/// and how.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreError {
    /// The primitive that failed (`"write_atomic"`, `"append"`, ...).
    pub op: &'static str,
    /// Store-relative path of the object involved.
    pub path: String,
    /// Failure class.
    pub kind: StoreErrorKind,
}

impl StoreError {
    /// Builds an error for `op` on `path`.
    pub fn new(op: &'static str, path: &str, kind: StoreErrorKind) -> StoreError {
        StoreError {
            op,
            path: path.to_string(),
            kind,
        }
    }

    /// True for faults a bounded, attempt-counted retry may clear.
    pub fn is_transient(&self) -> bool {
        self.kind.is_transient()
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            StoreErrorKind::Eio => "i/o error",
            StoreErrorKind::NoSpace => "no space left",
            StoreErrorKind::NotFound => "not found",
            StoreErrorKind::Crashed => "backend crashed",
            StoreErrorKind::InvalidPath => "path escapes the store root",
        };
        write!(f, "storage {} during {} on `{}`", kind, self.op, self.path)
    }
}

impl std::error::Error for StoreError {}

/// The primitive contract every durable write in the workspace runs
/// through.
///
/// Paths are store-relative, `/`-separated, with no absolute or `..`
/// segments. [`StorageBackend::write_atomic`] is all-or-nothing: after
/// a crash at any point the object holds either its old bytes or the
/// new ones, never a mixture. [`StorageBackend::append`] extends an
/// object (creating it empty first if needed) and only becomes durable
/// at the next [`StorageBackend::sync`] — a crash in between may leave
/// a *torn tail*, so an appended format must frame and checksum its
/// records. The checkpoint store writes only through `write_atomic`.
pub trait StorageBackend: std::fmt::Debug + Send {
    /// Atomically replaces `path` with `bytes` (temp + fsync + rename +
    /// dir fsync). On success the bytes are durable.
    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError>;

    /// Appends `bytes` to `path`, creating it if absent. Durable only
    /// after [`StorageBackend::sync`].
    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError>;

    /// Makes every prior append to `path` durable.
    fn sync(&mut self, path: &str) -> Result<(), StoreError>;

    /// Reads the current (visible, possibly not yet durable) bytes.
    fn read(&mut self, path: &str) -> Result<Vec<u8>, StoreError>;

    /// Immediate children of `dir` (`""` for the root), sorted, without
    /// in-flight `.tmp` siblings. Missing directories list as empty.
    fn list(&mut self, dir: &str) -> Result<Vec<String>, StoreError>;

    /// Removes `path` if present (absence is not an error).
    fn remove(&mut self, path: &str) -> Result<(), StoreError>;

    /// Truncates `path` to its first `len` bytes — the torn-write drill
    /// for tests, and the repair primitive for an appended tail.
    fn truncate(&mut self, path: &str, len: usize) -> Result<(), StoreError>;

    /// Flips one bit of byte `index` in `path` — the bit-rot drill.
    /// Tests and examples inject corruption through this instead of
    /// writing files bare (which rule R009 forbids).
    fn corrupt(&mut self, path: &str, index: usize) -> Result<(), StoreError>;

    /// Models a machine restart: volatile (unsynced) state resolves and
    /// the backend is usable again. [`SimBackend`] rolls every file
    /// back to its durable bytes and clears its dead latch;
    /// [`DiskBackend`] clears its kill fuse (its on-disk state *is* the
    /// durable state once the process is gone).
    fn power_cut(&mut self);
}

/// Rejects absolute paths and `..` segments.
fn check_path(op: &'static str, path: &str) -> Result<(), StoreError> {
    if path.starts_with('/') || path.split('/').any(|seg| seg == "..") {
        return Err(StoreError::new(op, path, StoreErrorKind::InvalidPath));
    }
    Ok(())
}

fn io_kind(e: &std::io::Error) -> StoreErrorKind {
    match e.kind() {
        std::io::ErrorKind::NotFound => StoreErrorKind::NotFound,
        std::io::ErrorKind::StorageFull => StoreErrorKind::NoSpace,
        _ => StoreErrorKind::Eio,
    }
}

/// Writes `bytes` to `path` with the full crash-safe discipline:
/// write a `.tmp` sibling, `fsync` it, atomically `rename` it over
/// `path`, then `fsync` the parent directory so the rename itself is
/// durable. After a crash at any point `path` holds either its old
/// contents or `bytes`, never a mixture.
///
/// This is the free-function form for callers that persist one file
/// outside a store (trace saves, bench artifacts); everything
/// generational goes through [`DiskBackend`], which runs the same four
/// steps behind its kill fuse.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let rel = path.to_string_lossy().into_owned();
    let err = |op: &'static str, e: &std::io::Error| StoreError {
        op,
        path: rel.clone(),
        kind: io_kind(e),
    };
    let tmp = temp_sibling(path);
    {
        let mut f = fs::File::create(&tmp).map_err(|e| err("create-temp", &e))?;
        f.write_all(bytes).map_err(|e| err("write-temp", &e))?;
        f.sync_all().map_err(|e| err("fsync-temp", &e))?;
    }
    fs::rename(&tmp, path).map_err(|e| err("rename", &e))?;
    sync_parent_dir(path).map_err(|e| err("fsync-dir", &e))?;
    Ok(())
}

/// The temp sibling `name.tmp` next to `path` (same directory, so the
/// rename is within one filesystem and therefore atomic).
fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Fsyncs the directory containing `path`, making a completed rename
/// durable. Treated as best-effort-with-error: platforms that cannot
/// open directories surface the failure to the caller.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    match dir {
        Some(d) => fs::File::open(d)?.sync_all(),
        None => Ok(()),
    }
}

/// Real files under a root directory, with every mutation split into
/// countable syscall steps so a kill fuse can abort between any two of
/// them.
///
/// Step accounting (the indices a kill sweep iterates over):
/// `write_atomic` is four steps — write-temp, fsync-temp, rename,
/// fsync-dir; `append`, `sync`, `remove` and `truncate` are one step
/// each. When the fuse fires on a *write* step the backend writes a
/// torn prefix (half the bytes) before latching dead, so sweeps
/// exercise genuinely partial data, not just clean cuts.
#[derive(Debug)]
pub struct DiskBackend {
    root: PathBuf,
    kill_after: Option<u64>,
    steps: u64,
    dead: bool,
}

/// What a fused step should do.
enum StepFate {
    /// Run the syscall normally.
    Run,
    /// The fuse fired: perform the torn variant (writes) or nothing,
    /// then fail as crashed.
    Kill,
}

impl DiskBackend {
    /// Opens (creating if needed) a backend rooted at `root`.
    pub fn new<P: Into<PathBuf>>(root: P) -> Result<DiskBackend, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| StoreError {
            op: "open",
            path: root.to_string_lossy().into_owned(),
            kind: io_kind(&e),
        })?;
        Ok(DiskBackend {
            root,
            kill_after: None,
            steps: 0,
            dead: false,
        })
    }

    /// Arms the kill fuse: the first `steps` syscall steps run, the
    /// next one aborts (torn for writes), and the backend is dead from
    /// then on — exactly what `kill -9` between two syscalls leaves.
    pub fn with_kill_after<P: Into<PathBuf>>(
        root: P,
        steps: u64,
    ) -> Result<DiskBackend, StoreError> {
        let mut b = DiskBackend::new(root)?;
        b.kill_after = Some(steps);
        Ok(b)
    }

    /// Syscall steps performed so far (the sweep bound: re-run an
    /// unfused workload and read this to learn how many kill points
    /// exist).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// True once the kill fuse has fired.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    fn abs(&self, path: &str) -> PathBuf {
        self.root.join(path)
    }

    /// Counts one syscall step against the fuse.
    fn step(&mut self, op: &'static str, path: &str) -> Result<StepFate, StoreError> {
        if self.dead {
            return Err(StoreError::new(op, path, StoreErrorKind::Crashed));
        }
        if self.kill_after == Some(self.steps) {
            self.steps += 1;
            self.dead = true;
            return Ok(StepFate::Kill);
        }
        self.steps += 1;
        Ok(StepFate::Run)
    }

    fn io_err(op: &'static str, path: &str, e: &std::io::Error) -> StoreError {
        StoreError::new(op, path, io_kind(e))
    }
}

impl StorageBackend for DiskBackend {
    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        check_path("write_atomic", path)?;
        let abs = self.abs(path);
        if let Some(parent) = abs.parent() {
            fs::create_dir_all(parent).map_err(|e| Self::io_err("write_atomic", path, &e))?;
        }
        let tmp = temp_sibling(&abs);
        // Step 1: create + write the temp sibling.
        match self.step("write-temp", path)? {
            StepFate::Run => {
                let mut f =
                    fs::File::create(&tmp).map_err(|e| Self::io_err("write-temp", path, &e))?;
                f.write_all(bytes)
                    .map_err(|e| Self::io_err("write-temp", path, &e))?;
                // Step 2: fsync the temp file.
                match self.step("fsync-temp", path)? {
                    StepFate::Run => {
                        f.sync_all()
                            .map_err(|e| Self::io_err("fsync-temp", path, &e))?;
                    }
                    StepFate::Kill => {
                        return Err(StoreError::new("fsync-temp", path, StoreErrorKind::Crashed));
                    }
                }
            }
            StepFate::Kill => {
                // Torn temp: half the bytes land, then the process dies.
                // Harmless by construction — recovery ignores `.tmp`.
                let torn = bytes.get(..bytes.len() / 2).unwrap_or(&[]);
                if let Ok(mut f) = fs::File::create(&tmp) {
                    let _ = f.write_all(torn);
                }
                return Err(StoreError::new("write-temp", path, StoreErrorKind::Crashed));
            }
        }
        // Step 3: atomic rename over the destination.
        match self.step("rename", path)? {
            StepFate::Run => {
                fs::rename(&tmp, &abs).map_err(|e| Self::io_err("rename", path, &e))?;
            }
            StepFate::Kill => {
                return Err(StoreError::new("rename", path, StoreErrorKind::Crashed));
            }
        }
        // Step 4: fsync the directory so the rename is durable.
        match self.step("fsync-dir", path)? {
            StepFate::Run => {
                sync_parent_dir(&abs).map_err(|e| Self::io_err("fsync-dir", path, &e))?;
            }
            StepFate::Kill => {
                return Err(StoreError::new("fsync-dir", path, StoreErrorKind::Crashed));
            }
        }
        Ok(())
    }

    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        check_path("append", path)?;
        let abs = self.abs(path);
        if let Some(parent) = abs.parent() {
            fs::create_dir_all(parent).map_err(|e| Self::io_err("append", path, &e))?;
        }
        let open = || fs::OpenOptions::new().create(true).append(true).open(&abs);
        match self.step("append", path)? {
            StepFate::Run => {
                let mut f = open().map_err(|e| Self::io_err("append", path, &e))?;
                f.write_all(bytes)
                    .map_err(|e| Self::io_err("append", path, &e))?;
                Ok(())
            }
            StepFate::Kill => {
                // Torn append: a prefix lands, then the process dies —
                // the tail shape a reader of appended data must detect.
                if let Ok(mut f) = open() {
                    let _ = f.write_all(&bytes[..bytes.len() / 2]);
                }
                Err(StoreError::new("append", path, StoreErrorKind::Crashed))
            }
        }
    }

    fn sync(&mut self, path: &str) -> Result<(), StoreError> {
        check_path("sync", path)?;
        let abs = self.abs(path);
        match self.step("fsync", path)? {
            StepFate::Run => fs::OpenOptions::new()
                .append(true)
                .open(&abs)
                .and_then(|f| f.sync_all())
                .map_err(|e| Self::io_err("fsync", path, &e)),
            StepFate::Kill => Err(StoreError::new("fsync", path, StoreErrorKind::Crashed)),
        }
    }

    fn read(&mut self, path: &str) -> Result<Vec<u8>, StoreError> {
        check_path("read", path)?;
        if self.dead {
            return Err(StoreError::new("read", path, StoreErrorKind::Crashed));
        }
        fs::read(self.abs(path)).map_err(|e| Self::io_err("read", path, &e))
    }

    fn list(&mut self, dir: &str) -> Result<Vec<String>, StoreError> {
        check_path("list", dir)?;
        if self.dead {
            return Err(StoreError::new("list", dir, StoreErrorKind::Crashed));
        }
        let abs = self.abs(dir);
        let mut names = Vec::new();
        match fs::read_dir(&abs) {
            Ok(entries) => {
                for entry in entries {
                    let entry = entry.map_err(|e| Self::io_err("list", dir, &e))?;
                    let name = entry.file_name().to_string_lossy().into_owned();
                    if !name.ends_with(".tmp") {
                        names.push(name);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(Self::io_err("list", dir, &e)),
        }
        names.sort();
        Ok(names)
    }

    fn remove(&mut self, path: &str) -> Result<(), StoreError> {
        check_path("remove", path)?;
        let abs = self.abs(path);
        match self.step("remove", path)? {
            StepFate::Run => {
                match fs::remove_file(&abs) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(Self::io_err("remove", path, &e)),
                }
                // Match the flat-key [`SimBackend`] semantics: a
                // directory vanishes with its last file, so it does not
                // linger as an empty husk for `list` to report.
                if let Some(parent) = abs.parent() {
                    if parent != self.root
                        && fs::read_dir(parent).is_ok_and(|mut d| d.next().is_none())
                    {
                        let _ = fs::remove_dir(parent);
                    }
                }
                Ok(())
            }
            StepFate::Kill => Err(StoreError::new("remove", path, StoreErrorKind::Crashed)),
        }
    }

    fn truncate(&mut self, path: &str, len: usize) -> Result<(), StoreError> {
        check_path("truncate", path)?;
        let abs = self.abs(path);
        match self.step("truncate", path)? {
            StepFate::Run => {
                let f = fs::OpenOptions::new()
                    .write(true)
                    .open(&abs)
                    .map_err(|e| Self::io_err("truncate", path, &e))?;
                f.set_len(len as u64)
                    .map_err(|e| Self::io_err("truncate", path, &e))?;
                f.sync_all().map_err(|e| Self::io_err("truncate", path, &e))
            }
            StepFate::Kill => Err(StoreError::new("truncate", path, StoreErrorKind::Crashed)),
        }
    }

    fn corrupt(&mut self, path: &str, index: usize) -> Result<(), StoreError> {
        check_path("corrupt", path)?;
        if self.dead {
            return Err(StoreError::new("corrupt", path, StoreErrorKind::Crashed));
        }
        let abs = self.abs(path);
        let mut bytes = fs::read(&abs).map_err(|e| Self::io_err("corrupt", path, &e))?;
        if index >= bytes.len() {
            return Err(StoreError::new("corrupt", path, StoreErrorKind::NotFound));
        }
        bytes[index] ^= 0x01;
        // Deliberate bit-rot bypasses the atomic discipline: media
        // corruption does not politely go through rename.
        let mut f = fs::OpenOptions::new()
            .write(true)
            .open(&abs)
            .map_err(|e| Self::io_err("corrupt", path, &e))?;
        f.write_all(&bytes)
            .map_err(|e| Self::io_err("corrupt", path, &e))?;
        f.sync_all().map_err(|e| Self::io_err("corrupt", path, &e))
    }

    fn power_cut(&mut self) {
        // Real files survive the restart; only the process state resets.
        self.dead = false;
        self.kill_after = None;
    }
}

/// Declarative, seeded storage-fault injection for [`SimBackend`].
///
/// Like every fault plan in this workspace the injection is purely
/// declarative and op-indexed (never clocked): the `n`-th mutating
/// backend call misbehaves the same way on every run. `none()` injects
/// nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StorageFaultPlan {
    /// Mutating op `n` fails with `kind`; no state changes.
    pub fail_op: Option<(u64, StoreErrorKind)>,
    /// Mutating ops `[start, start + count)` fail with transient EIO —
    /// the window an attempt-counted retry loop must outlast.
    pub transient_eio: Option<(u64, u64)>,
    /// At mutating op `n` (a write), only the first `k` bytes land and
    /// the backend latches dead: a torn write at byte *k*. For
    /// `write_atomic` this models crash-between-temp-and-rename — the
    /// old contents survive untouched.
    pub torn_write: Option<(u64, usize)>,
    /// The backend latches dead right after op `n` completes.
    pub crash_after_op: Option<u64>,
    /// Syncs report success but persist nothing: the classic lying
    /// fsync. Data written under it evaporates at the next power cut.
    pub lying_fsync: bool,
    /// Seed for the probabilistic EIO stream (used when `eio_num > 0`).
    pub eio_seed: u64,
    /// Each mutating op fails with transient EIO with probability
    /// `eio_num / eio_den` (a seeded draw; 0 disables).
    pub eio_num: u32,
    /// Denominator of the EIO probability (0 treated as disabled).
    pub eio_den: u32,
}

impl StorageFaultPlan {
    /// No injected faults.
    pub fn none() -> StorageFaultPlan {
        StorageFaultPlan::default()
    }

    /// True when nothing is injected.
    pub fn is_none(&self) -> bool {
        *self == StorageFaultPlan::default()
    }
}

/// One simulated file: the bytes visible now and the bytes a power cut
/// would leave (everything synced so far).
#[derive(Clone, Debug, Default)]
struct SimFile {
    bytes: Vec<u8>,
    durable: Vec<u8>,
}

/// A deterministic in-memory filesystem with seeded fault injection.
///
/// `append`ed bytes are *visible* immediately but *durable* only after
/// `sync`; [`SimBackend::crash`] models a power cut by rolling every
/// file back to its durable bytes (and clearing the dead latch so
/// recovery can reopen the store). A process kill without power loss
/// keeps visible bytes — that distinction is exactly what lying-fsync
/// drills need.
#[derive(Debug)]
pub struct SimBackend {
    files: BTreeMap<String, SimFile>,
    plan: StorageFaultPlan,
    prng: SplitMix64,
    ops: u64,
    dead: bool,
}

impl Default for SimBackend {
    fn default() -> SimBackend {
        SimBackend::new()
    }
}

impl SimBackend {
    /// A fault-free simulated store.
    pub fn new() -> SimBackend {
        SimBackend::with_faults(StorageFaultPlan::none())
    }

    /// A simulated store with `plan` armed.
    pub fn with_faults(plan: StorageFaultPlan) -> SimBackend {
        let prng = SplitMix64::new(plan.eio_seed);
        SimBackend {
            files: BTreeMap::new(),
            plan,
            prng,
            ops: 0,
            dead: false,
        }
    }

    /// Mutating ops performed (or faulted) so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// True once an injected crash has latched.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The power cut: every file rolls back to its durable bytes and
    /// never-synced files vanish. The dead latch clears — recovery
    /// reopens the store against exactly what real hardware would hold.
    pub fn crash(&mut self) {
        self.files.retain(|_, f| {
            f.bytes = f.durable.clone();
            !f.durable.is_empty()
        });
        self.dead = false;
    }

    /// Runs the fault gate for one mutating op. Returns the torn length
    /// when the torn-write fault fires on this op.
    fn gate(&mut self, op: &'static str, path: &str) -> Result<Option<usize>, StoreError> {
        if self.dead {
            return Err(StoreError::new(op, path, StoreErrorKind::Crashed));
        }
        let n = self.ops;
        self.ops += 1;
        if let Some((at, kind)) = self.plan.fail_op {
            if n == at {
                return Err(StoreError::new(op, path, kind));
            }
        }
        if let Some((start, count)) = self.plan.transient_eio {
            if n >= start && n < start + count {
                return Err(StoreError::new(op, path, StoreErrorKind::Eio));
            }
        }
        if self.plan.eio_num > 0 && self.plan.eio_den > 0 {
            let draw = self.prng.next_u32() % self.plan.eio_den;
            if draw < self.plan.eio_num {
                return Err(StoreError::new(op, path, StoreErrorKind::Eio));
            }
        }
        if let Some((at, k)) = self.plan.torn_write {
            if n == at {
                self.dead = true;
                return Ok(Some(k));
            }
        }
        Ok(None)
    }

    /// Latches dead after op `n` when `crash_after_op` is armed.
    fn after(&mut self, n: u64) {
        if self.plan.crash_after_op == Some(n) {
            self.dead = true;
        }
    }
}

impl StorageBackend for SimBackend {
    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        check_path("write_atomic", path)?;
        let n = self.ops;
        match self.gate("write_atomic", path)? {
            Some(_torn) => {
                // Crash between temp and rename: the torn temp sibling
                // is invisible, the old contents survive untouched.
                Err(StoreError::new(
                    "write_atomic",
                    path,
                    StoreErrorKind::Crashed,
                ))
            }
            None => {
                let f = self.files.entry(path.to_string()).or_default();
                f.bytes = bytes.to_vec();
                if self.plan.lying_fsync {
                    // The rename "fsync" lied: visible now, gone at the
                    // next power cut.
                } else {
                    f.durable = bytes.to_vec();
                }
                self.after(n);
                Ok(())
            }
        }
    }

    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        check_path("append", path)?;
        let n = self.ops;
        match self.gate("append", path)? {
            Some(k) => {
                let f = self.files.entry(path.to_string()).or_default();
                f.bytes.extend_from_slice(&bytes[..k.min(bytes.len())]);
                Err(StoreError::new("append", path, StoreErrorKind::Crashed))
            }
            None => {
                let f = self.files.entry(path.to_string()).or_default();
                f.bytes.extend_from_slice(bytes);
                self.after(n);
                Ok(())
            }
        }
    }

    fn sync(&mut self, path: &str) -> Result<(), StoreError> {
        check_path("sync", path)?;
        let n = self.ops;
        self.gate("sync", path)?;
        if !self.plan.lying_fsync {
            if let Some(f) = self.files.get_mut(path) {
                f.durable = f.bytes.clone();
            }
        }
        self.after(n);
        Ok(())
    }

    fn read(&mut self, path: &str) -> Result<Vec<u8>, StoreError> {
        check_path("read", path)?;
        if self.dead {
            return Err(StoreError::new("read", path, StoreErrorKind::Crashed));
        }
        self.files
            .get(path)
            .map(|f| f.bytes.clone())
            .ok_or_else(|| StoreError::new("read", path, StoreErrorKind::NotFound))
    }

    fn list(&mut self, dir: &str) -> Result<Vec<String>, StoreError> {
        check_path("list", dir)?;
        if self.dead {
            return Err(StoreError::new("list", dir, StoreErrorKind::Crashed));
        }
        let prefix = if dir.is_empty() {
            String::new()
        } else {
            format!("{dir}/")
        };
        let mut names: Vec<String> = self
            .files
            .keys()
            .filter_map(|k| k.strip_prefix(&prefix))
            .map(|rest| match rest.find('/') {
                Some(i) => rest[..i].to_string(),
                None => rest.to_string(),
            })
            .collect();
        names.sort();
        names.dedup();
        Ok(names)
    }

    fn remove(&mut self, path: &str) -> Result<(), StoreError> {
        check_path("remove", path)?;
        let n = self.ops;
        self.gate("remove", path)?;
        self.files.remove(path);
        self.after(n);
        Ok(())
    }

    fn truncate(&mut self, path: &str, len: usize) -> Result<(), StoreError> {
        check_path("truncate", path)?;
        let n = self.ops;
        self.gate("truncate", path)?;
        let f = self
            .files
            .get_mut(path)
            .ok_or_else(|| StoreError::new("truncate", path, StoreErrorKind::NotFound))?;
        f.bytes.truncate(len);
        f.durable.truncate(len);
        self.after(n);
        Ok(())
    }

    fn corrupt(&mut self, path: &str, index: usize) -> Result<(), StoreError> {
        check_path("corrupt", path)?;
        if self.dead {
            return Err(StoreError::new("corrupt", path, StoreErrorKind::Crashed));
        }
        let f = self
            .files
            .get_mut(path)
            .ok_or_else(|| StoreError::new("corrupt", path, StoreErrorKind::NotFound))?;
        if index >= f.bytes.len() {
            return Err(StoreError::new("corrupt", path, StoreErrorKind::NotFound));
        }
        f.bytes[index] ^= 0x01;
        if index < f.durable.len() {
            f.durable[index] ^= 0x01;
        }
        Ok(())
    }

    fn power_cut(&mut self) {
        self.crash();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("msa_store_test_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn disk_atomic_write_round_trips_and_replaces() {
        let root = tempdir("roundtrip");
        let mut b = DiskBackend::new(&root).unwrap();
        b.write_atomic("a/x.bin", b"hello").unwrap();
        assert_eq!(b.read("a/x.bin").unwrap(), b"hello");
        b.write_atomic("a/x.bin", b"world!").unwrap();
        assert_eq!(b.read("a/x.bin").unwrap(), b"world!");
        assert_eq!(b.list("a").unwrap(), vec!["x.bin".to_string()]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn disk_kill_fuse_never_leaves_a_mixture() {
        // Sweep the fuse across every syscall step of one replacement:
        // the visible file must hold either the old or the new bytes.
        let old = b"old-contents".to_vec();
        let new = b"new-contents!!".to_vec();
        for k in 0..8 {
            let root = tempdir(&format!("kill{k}"));
            {
                let mut b = DiskBackend::new(&root).unwrap();
                b.write_atomic("x.bin", &old).unwrap();
            }
            let mut fused = DiskBackend::with_kill_after(&root, 4 + k).unwrap();
            let res = fused
                .write_atomic("x.bin", &old)
                .and_then(|()| fused.write_atomic("x.bin", &new));
            let mut reopened = DiskBackend::new(&root).unwrap();
            let visible = reopened.read("x.bin").unwrap();
            assert!(
                visible == old || visible == new,
                "kill at step {k} left a mixture: {visible:?}"
            );
            if res.is_ok() {
                assert_eq!(visible, new);
            }
            // `.tmp` siblings never surface through list().
            assert!(reopened
                .list("")
                .unwrap()
                .iter()
                .all(|n| !n.ends_with(".tmp")));
            std::fs::remove_dir_all(&root).ok();
        }
    }

    #[test]
    fn disk_torn_append_leaves_a_prefix() {
        let root = tempdir("torn_append");
        {
            let mut b = DiskBackend::new(&root).unwrap();
            b.append("wal.bin", b"0123456789").unwrap();
        }
        let mut fused = DiskBackend::with_kill_after(&root, 0).unwrap();
        let err = fused.append("wal.bin", b"abcdefgh").unwrap_err();
        assert_eq!(err.kind, StoreErrorKind::Crashed);
        assert!(fused.is_dead());
        let mut reopened = DiskBackend::new(&root).unwrap();
        let bytes = reopened.read("wal.bin").unwrap();
        assert_eq!(&bytes[..10], b"0123456789");
        assert!(bytes.len() < 18, "torn append must not complete");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn disk_rejects_escaping_paths() {
        let root = tempdir("escape");
        let mut b = DiskBackend::new(&root).unwrap();
        let err = b.write_atomic("../evil", b"x").unwrap_err();
        assert_eq!(err.kind, StoreErrorKind::InvalidPath);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn sim_power_cut_drops_unsynced_tail() {
        let mut b = SimBackend::new();
        b.append("wal.bin", b"durable").unwrap();
        b.sync("wal.bin").unwrap();
        b.append("wal.bin", b"-volatile").unwrap();
        assert_eq!(b.read("wal.bin").unwrap(), b"durable-volatile");
        b.crash();
        assert_eq!(b.read("wal.bin").unwrap(), b"durable");
    }

    #[test]
    fn sim_lying_fsync_loses_data_only_at_power_cut() {
        let mut b = SimBackend::with_faults(StorageFaultPlan {
            lying_fsync: true,
            ..StorageFaultPlan::none()
        });
        b.append("wal.bin", b"doomed").unwrap();
        b.sync("wal.bin").unwrap();
        // Visible after a plain process kill...
        assert_eq!(b.read("wal.bin").unwrap(), b"doomed");
        // ...gone after the power cut the lying fsync was hiding from.
        b.crash();
        assert!(matches!(
            b.read("wal.bin"),
            Err(StoreError {
                kind: StoreErrorKind::NotFound,
                ..
            })
        ));
    }

    #[test]
    fn sim_torn_write_latches_dead_with_prefix() {
        let mut b = SimBackend::with_faults(StorageFaultPlan {
            torn_write: Some((1, 3)),
            ..StorageFaultPlan::none()
        });
        b.append("wal.bin", b"aaaa").unwrap();
        let err = b.append("wal.bin", b"bbbb").unwrap_err();
        assert_eq!(err.kind, StoreErrorKind::Crashed);
        assert!(b.is_dead());
        b.crash();
        // Power cut: nothing was synced, the file vanishes entirely.
        assert!(b.read("wal.bin").is_err());
    }

    #[test]
    fn sim_atomic_write_survives_crash_between_temp_and_rename() {
        let mut b = SimBackend::with_faults(StorageFaultPlan {
            torn_write: Some((1, 5)),
            ..StorageFaultPlan::none()
        });
        b.write_atomic("m.bin", b"old").unwrap();
        let err = b.write_atomic("m.bin", b"new-longer").unwrap_err();
        assert_eq!(err.kind, StoreErrorKind::Crashed);
        b.crash();
        assert_eq!(b.read("m.bin").unwrap(), b"old");
    }

    #[test]
    fn sim_transient_eio_window_clears() {
        let mut b = SimBackend::with_faults(StorageFaultPlan {
            transient_eio: Some((1, 2)),
            ..StorageFaultPlan::none()
        });
        b.append("x", b"a").unwrap(); // op 0
        assert!(b.append("x", b"b").unwrap_err().is_transient()); // op 1
        assert!(b.append("x", b"b").unwrap_err().is_transient()); // op 2
        b.append("x", b"b").unwrap(); // op 3: window over
        assert_eq!(b.read("x").unwrap(), b"ab");
    }

    #[test]
    fn sim_seeded_eio_stream_is_deterministic() {
        let plan = StorageFaultPlan {
            eio_seed: 7,
            eio_num: 1,
            eio_den: 3,
            ..StorageFaultPlan::none()
        };
        let mut outcomes = Vec::new();
        for _ in 0..2 {
            let mut b = SimBackend::with_faults(plan.clone());
            let run: Vec<bool> = (0..32).map(|_| b.append("x", b"y").is_ok()).collect();
            outcomes.push(run);
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert!(outcomes[0].iter().any(|ok| !ok), "seeded EIO never fired");
        assert!(outcomes[0].iter().any(|ok| *ok), "seeded EIO always fired");
    }

    #[test]
    fn sim_enospc_is_not_transient() {
        let mut b = SimBackend::with_faults(StorageFaultPlan {
            fail_op: Some((0, StoreErrorKind::NoSpace)),
            ..StorageFaultPlan::none()
        });
        let err = b.append("x", b"y").unwrap_err();
        assert_eq!(err.kind, StoreErrorKind::NoSpace);
        assert!(!err.is_transient());
        // The very next op succeeds — the fault was op-indexed.
        b.append("x", b"y").unwrap();
    }

    #[test]
    fn atomic_write_free_function_round_trips() {
        let root = tempdir("free_fn");
        let path = root.join("trace.bin");
        atomic_write(&path, b"payload").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"payload");
        atomic_write(&path, b"replaced").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"replaced");
        std::fs::remove_dir_all(&root).ok();
    }
}
