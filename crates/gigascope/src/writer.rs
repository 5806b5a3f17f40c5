//! The checkpoint store's writer: one long-lived thread, one commit in
//! flight.
//!
//! A durable executor encodes each boundary's generation on its own
//! thread and hands the bytes to its store's [`Writer`], whose thread
//! runs the write and the GC after it. The executor joins commit k at
//! boundary k+1, before it encodes k+1, so the fsync of one boundary
//! overlaps the next epoch's ingest and drain, and at most one commit is
//! ever in flight per store. Everything else that touches the store
//! [settles](Writer::settle) the writer first and holds it settled while
//! it works, so the backend sees the same operations in the same order
//! as if each commit had run to the end where it was handed off.
//!
//! The thread starts at a store's first hand-off and ends when the
//! store's last handle drops. A commit's outcome lands on its
//! [`Landing`] when whoever settles the writer first receives it; the
//! committing executor reads it from there. A backend panic ends the
//! thread: the settle joins it for the payload, which is raised again
//! where the executor reads the outcome, inside the executor's own call,
//! where supervision catches it, and the next hand-off starts a fresh
//! thread.
//!
//! With `shard.rs`, this is the only runtime module that spawns a
//! thread (lint D005), and with `supervise.rs` the only one that
//! re-raises a panic (lint R005).

use crate::store::ChainHead;
use msa_stream::store::StoreError;
use std::any::Any;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// What one commit comes to: the head it wrote, or why it failed.
pub(crate) type Outcome = Result<ChainHead, StoreError>;

/// A settled commit: its outcome, or the payload of the panic it died
/// of.
type Joined = std::thread::Result<Outcome>;

/// The part of a commit that runs on the writer's thread.
type Job = Box<dyn FnOnce() -> Outcome + Send>;

/// Locks `mutex`, poison-proof: a thread that panicked while holding it
/// never takes durability down with it.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One store's writer: at most one commit in flight. Dropping it waits
/// for that commit and ends the thread.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    slot: Mutex<Slot>,
}

#[derive(Debug, Default)]
struct Slot {
    /// `None` until the first hand-off, and again after a panic.
    thread: Option<Thread>,
    /// Where the commit in flight lands; `Some` only while `thread` runs
    /// it.
    in_flight: Option<Landing>,
}

/// The writer's thread: it runs the jobs it is sent one at a time, in
/// order, and sends each outcome back.
#[derive(Debug)]
struct Thread {
    jobs: Sender<Job>,
    outcomes: Receiver<Outcome>,
    handle: JoinHandle<()>,
}

impl Thread {
    /// `None` when the system refuses to start a thread.
    fn start() -> Option<Thread> {
        let (jobs, inbox) = mpsc::channel::<Job>();
        let (outbox, outcomes) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("msa-store-writer".to_owned())
            .spawn(move || {
                for job in inbox {
                    if outbox.send(job()).is_err() {
                        break;
                    }
                }
            })
            .ok()?;
        Some(Thread {
            jobs,
            outcomes,
            handle,
        })
    }
}

/// Where one handed-off commit's outcome lands once the writer is
/// settled.
#[derive(Clone, Debug, Default)]
pub(crate) struct Landing(Arc<Mutex<Option<Joined>>>);

/// A writer with nothing in flight, held: no commit starts until it
/// drops.
pub(crate) struct Settled<'a>(MutexGuard<'a, Slot>);

impl Writer {
    /// Waits for the commit in flight, if any, leaves its outcome on its
    /// landing, and holds the writer with nothing in flight.
    pub(crate) fn settle(&self) -> Settled<'_> {
        let mut slot = lock(&self.slot);
        if let Some(landing) = slot.in_flight.take() {
            let received = slot.thread.as_ref().and_then(|t| t.outcomes.recv().ok());
            let joined = match received {
                Some(outcome) => Ok(outcome),
                // The commit panicked and took the thread with it.
                None => Err(slot
                    .thread
                    .take()
                    .and_then(|t| t.handle.join().err())
                    .unwrap_or_else(|| {
                        Box::new("the store writer stopped") as Box<dyn Any + Send>
                    })),
            };
            *lock(&landing.0) = Some(joined);
        }
        Settled(slot)
    }
}

impl Drop for Writer {
    fn drop(&mut self) {
        let thread = self.settle().0.thread.take();
        if let Some(Thread { jobs, handle, .. }) = thread {
            // A closed inbox ends the thread's loop.
            drop(jobs);
            let _ = handle.join();
        }
    }
}

impl Settled<'_> {
    /// Runs `commit` on the writer's thread and returns where its
    /// outcome will land. When the system refuses to start the thread
    /// the commit fails with `refused()`, as a write the backend refuses
    /// would.
    pub(crate) fn hand_off(
        mut self,
        commit: impl FnOnce() -> Outcome + Send + 'static,
        refused: impl FnOnce() -> StoreError,
    ) -> Landing {
        let landing = Landing::default();
        let slot = &mut *self.0;
        if slot.thread.is_none() {
            slot.thread = Thread::start();
        }
        match slot.thread.as_ref().map(|t| t.jobs.send(Box::new(commit))) {
            Some(Ok(())) => slot.in_flight = Some(landing.clone()),
            _ => *lock(&landing.0) = Some(Ok(Err(refused()))),
        }
        landing
    }
}

impl Landing {
    /// The outcome of a commit that has landed: the caller settled the
    /// writer after handing it off. A panic the commit died of is raised
    /// again here, on the caller's thread, with its own payload and
    /// without running the panic hook a second time.
    pub(crate) fn outcome(&self) -> Outcome {
        let mut joined = lock(&self.0);
        if let Some(Ok(outcome)) = &*joined {
            return outcome.clone();
        }
        match joined.take() {
            Some(Err(payload)) => {
                drop(joined);
                std::panic::resume_unwind(payload)
            }
            // Only a clone of an executor whose twin already raised the
            // commit's panic finds nothing here.
            _ => panic!("the store writer panicked during this commit"),
        }
    }
}
