//! A Gigascope-style two-level stream-aggregation substrate.
//!
//! The paper evaluates its phantom-selection and space-allocation
//! algorithms on Gigascope's LFTA/HFTA split (§2): the **LFTA** runs on a
//! NIC with a few MB of memory and maintains one single-slot hash table
//! per instantiated relation; the **HFTA** runs on the host and combines
//! the partial aggregates the LFTA evicts. This crate implements that
//! substrate faithfully enough to *measure* the costs the paper's model
//! predicts:
//!
//! * [`table::LftaTable`] — the single-entry-per-bucket hash table of
//!   Fig. 1, with probe/evict semantics and per-table statistics;
//! * [`plan::PhysicalPlan`] — a configuration tree (relations, feeding
//!   edges, bucket allocation) in executable form;
//! * [`executor::Executor`] — streams records through the plan,
//!   cascading evictions phantom → child → HFTA, flushing at epoch
//!   boundaries, and accounting every probe (`c1`) and HFTA eviction
//!   (`c2`);
//! * [`hfta::Hfta`] — the host-side combiner producing exact per-epoch
//!   aggregation results (used to verify the LFTA path end-to-end).
//!
//! Beyond the paper's substrate, four modules harden the runtime
//! against overload, transport faults and crashes:
//!
//! * [`channel::EvictionChannel`] — the LFTA → HFTA hop made explicit:
//!   bounded, fault-injectable, exactly accounted;
//! * [`guard::OverloadGuard`] — a degradation ladder (shed → phantoms
//!   off → allocation repair) driven by the measured per-epoch total
//!   cost against a peak budget `E_p`, with hysteretic recovery;
//! * [`faults::FaultPlan`] — seeded, declarative fault injection
//!   (eviction loss/duplication, record bursts, epoch-clock skew,
//!   process crashes) for deterministic chaos tests;
//! * [`snapshot`] — epoch-aligned checkpoints: a crashed executor
//!   restores the last one and replays the source from its record
//!   high-water mark, with bit-identical results (see
//!   [`executor::Executor::recover`]);
//! * [`shard`] — hash-partitioned multi-core execution: `N` shard
//!   executors on OS threads behind bounded feeds, merged into one
//!   deterministic result independent of thread scheduling (see
//!   [`shard::ShardedExecutor`]);
//! * [`supervise`] — self-healing shard supervision: panic isolation
//!   behind a single `catch_unwind` boundary, record-counted
//!   stuck-shard detection, live restart from epoch-aligned
//!   checkpoints with bounded-buffer replay, poison-record quarantine
//!   and explicit degradation accounting;
//! * [`bounds`] — the degraded-answer subsystem: converts the loss
//!   ledgers above into per-query guaranteed count intervals
//!   `[lo, hi]` (and per-group bounds), mergeable across shards and
//!   queryable live at every epoch boundary, with the failure mode
//!   chosen by [`guard::DegradationPolicy`];
//! * [`swap`] — the epoch-boundary hot-swap transaction: quiesce,
//!   snapshot, rehash into a re-planned feeding graph, validate the
//!   handoff (record-count, bias-ledger and degradation-promise
//!   conservation), then commit — or roll back with the old deployment
//!   untouched (see [`shard::ShardedExecutor::hot_swap`]);
//! * [`store`] — the crash-safe durable store: generational
//!   checkpoints, one self-checksummed file each whose atomic rename is
//!   the commit, an offline scrub pass, and graceful fallback to older
//!   generations with the re-replayed or lost records accounted through
//!   [`bounds`] (see [`store::StoreHandle`]).

#![deny(unsafe_code)]

pub mod bounds;
pub mod channel;
pub mod executor;
pub mod faults;
pub mod guard;
pub mod hfta;
pub mod plan;
pub mod shard;
pub mod snapshot;
pub mod store;
pub mod supervise;
pub mod swap;
pub mod table;
mod writer;

pub use bounds::{BoundsReport, LossBreakdown, LossClass, QueryBounds};
pub use channel::{ChannelFaults, ChannelStats, Delivery, EvictionChannel};
pub use executor::{Executor, ExecutorConfig, RunReport, ValueSource};
pub use faults::{Burst, CrashPlan, DriftKind, DriftPlan, FaultPlan, ShardFault};
pub use guard::{
    DegradationPolicy, GuardLevel, GuardPolicy, GuardTransition, OverloadGuard, ShedDecision,
};
pub use hfta::Hfta;
pub use plan::{PhysicalPlan, PlanNode};
pub use shard::{shard_of, shard_seed, ShardError, ShardedExecutor};
pub use snapshot::{RecoveryError, Snapshot, SnapshotError};
pub use store::{CheckpointStore, ScrubReport, StoreHandle, StoreRecovery, StoreStats};
pub use supervise::{PoisonRecord, ShardHealth, ShardHeartbeat, ShardState, SupervisorPolicy};
pub use swap::{
    HandoffViolation, RollbackReason, SwapCrashPoint, SwapError, SwapFault, SwapOutcome, SwapReport,
};
pub use table::{LftaTable, Probe};

/// Cost parameters of the two-level architecture.
///
/// `c1` is the cost of one hash-table probe/update in the LFTA; `c2` the
/// cost of transferring one entry to the HFTA. The paper measures
/// `c2/c1 = 50` in operational systems and uses that ratio throughout
/// its evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostParams {
    /// LFTA probe/update cost.
    pub c1: f64,
    /// LFTA → HFTA eviction cost.
    pub c2: f64,
}

impl CostParams {
    /// The paper's setting: `c1 = 1`, `c2 = 50`.
    pub fn paper() -> CostParams {
        CostParams { c1: 1.0, c2: 50.0 }
    }
}

impl Default for CostParams {
    fn default() -> CostParams {
        CostParams::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cost_ratio() {
        let p = CostParams::paper();
        assert_eq!(p.c2 / p.c1, 50.0);
        assert_eq!(CostParams::default(), p);
    }
}
