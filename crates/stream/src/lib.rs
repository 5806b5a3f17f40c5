//! Stream substrate for the `multi-agg` workspace.
//!
//! This crate provides everything "below" the aggregation machinery of the
//! SIGMOD 2005 paper *Multiple Aggregations Over Data Streams*:
//!
//! * [`Record`]s — fixed-arity tuples of 4-byte attribute values with a
//!   timestamp, modelling IP packet headers;
//! * [`AttrSet`] bitmasks naming grouping-attribute subsets (the paper's
//!   *relations* such as `AB`, `BCD`);
//! * [`GroupKey`]s — allocation-free projections of a record onto an
//!   attribute set;
//! * workload generators ([`gen`]): uniform and Zipf-skewed random tuples,
//!   clustered flow streams, and a packet-trace synthesizer calibrated to
//!   the statistics the paper reports for its real tcpdump dataset;
//! * record selection ([`filter`]) — the "F" of LFTA — and binary trace
//!   persistence ([`io`]);
//! * durable storage primitives ([`store`]): the atomic-write discipline
//!   every real file write routes through, plus a deterministic
//!   fault-injecting simulation backend for crash drills;
//! * dataset statistics ([`stats`]): group counts and average flow lengths
//!   per attribute set, the inputs of the paper's cost model, all read off
//!   one interned pass over the records ([`PrefixIndex`]).

#![deny(unsafe_code)]

pub mod attr;
pub mod chunk;
pub mod filter;
pub mod gen;
pub mod hash;
pub mod io;
pub mod prng;
pub mod record;
pub mod stats;
pub mod store;

pub use attr::{AttrId, AttrParseError, AttrSet, MAX_ATTRS};
pub use chunk::{RecordChunk, PROCESSING_WINDOW_SIZE};
pub use filter::{AttrPredicate, CmpOp, Filter};
pub use gen::{
    clustered::{ClusteredStreamBuilder, FlowLengthDistribution},
    trace::{PacketTraceBuilder, TraceProfile},
    uniform::UniformStreamBuilder,
    zipf::ZipfStreamBuilder,
};
pub use hash::{FastHasher, FastState};
pub use prng::SplitMix64;
pub use record::{GroupKey, KeyProjection, Record, Schema};
pub use stats::{DatasetStats, PrefixIndex};
pub use store::{
    atomic_write, DiskBackend, SimBackend, StorageBackend, StorageFaultPlan, StoreError,
    StoreErrorKind,
};
