//! High-level API for multiple aggregations over data streams.
//!
//! This crate is the entry point a downstream user adopts. It wires the
//! substrates together:
//!
//! 1. declare the aggregation queries (grouping-attribute subsets) and
//!    the LFTA memory budget;
//! 2. the engine bootstraps dataset statistics from a stream prefix (or
//!    accepts precomputed statistics);
//! 3. the optimizer picks a configuration of phantoms and a space
//!    allocation (GCSL by default — the paper's recommendation);
//! 4. the two-level executor streams records, producing exact per-epoch
//!    aggregates and cost accounting;
//! 5. optionally, at epoch boundaries the engine compares observed and
//!    predicted collision rates and **replans** when the stream has
//!    drifted (the adaptivity the paper's §8 sketches).
//!
//! For sharded deployments, [`runtime::AdaptiveRuntime`] closes the
//! same loop transactionally: drift detection from live telemetry,
//! background re-planning, and an epoch-boundary hot-swap with
//! validation, rollback and record-counted backoff — plus runtime query
//! add/remove through the same swap path.
//!
//! ```
//! use msa_core::{MultiAggregator, EngineOptions};
//! use msa_stream::{AttrSet, UniformStreamBuilder};
//!
//! let stream = UniformStreamBuilder::new(4, 500).records(20_000).build();
//! let queries = vec![
//!     AttrSet::parse("AB").unwrap(),
//!     AttrSet::parse("BC").unwrap(),
//! ];
//! let mut engine = MultiAggregator::new(queries, EngineOptions::new(20_000.0));
//! for r in &stream.records {
//!     engine.push(*r);
//! }
//! let output = engine.finish();
//! assert_eq!(output.report.records as usize, 20_000);
//! ```

#![deny(unsafe_code)]

pub mod adaptive;
pub mod engine;
pub mod error;
pub mod runtime;
pub mod sql;

pub use adaptive::AdaptivePolicy;
pub use engine::{AggregationOutput, EngineOptions, MultiAggregator};
pub use error::MsaError;
pub use runtime::{
    AdaptiveRuntime, ReplanEvent, ReplanTrigger, RuntimeOptions, RuntimeOutput, RuntimePolicy,
};
pub use sql::{parse_query, ParsedQuery, QuerySet, SqlError};

// Re-export the vocabulary types so most users need only this crate.
pub use msa_collision::{AsymptoticModel, CollisionModel, LinearModel, PreciseModel};
pub use msa_gigascope::executor::ValueSource;
pub use msa_gigascope::table::AggState;
pub use msa_gigascope::{
    shard_of, shard_seed, BoundsReport, Burst, ChannelFaults, CheckpointStore, CostParams,
    CrashPlan, DegradationPolicy, DriftKind, DriftPlan, EvictionChannel, Executor, ExecutorConfig,
    FaultPlan, GuardLevel, GuardPolicy, GuardTransition, HandoffViolation, Hfta, LossBreakdown,
    LossClass, OverloadGuard, PhysicalPlan, PoisonRecord, QueryBounds, RecoveredArtifacts,
    RecoveryError, RollbackReason, RunReport, ScrubReport, ShardError, ShardFault, ShardHealth,
    ShardHeartbeat, ShardState, ShardedExecutor, ShedDecision, Snapshot, SnapshotError,
    StoreHandle, StoreRecovery, StoreStats, SupervisorPolicy, SwapCrashPoint, SwapError, SwapFault,
    SwapOutcome, SwapReport,
};
pub use msa_optimizer::{
    propose_replan, Algorithm, AllocStrategy, ClusterHandling, Configuration, Plan, Planner,
    PlannerOptions, ReplanProposal,
};
pub use msa_stream::{
    AttrSet, CmpOp, DatasetStats, DiskBackend, Filter, GroupKey, Record, RecordChunk, Schema,
    SimBackend, StorageBackend, StorageFaultPlan, StoreError, StoreErrorKind,
    PROCESSING_WINDOW_SIZE,
};
