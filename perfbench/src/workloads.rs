//! The four workloads: how each input is generated from the seed, and
//! how each is planned and set up.

use crate::backend::{CountingBackend, SharedLedger};
use crate::spans::span;
use msa_collision::LinearModel;
use msa_gigascope::table::temporal_flow_lengths;
use msa_gigascope::{
    CheckpointStore, CostParams, Executor, ExecutorConfig, PhysicalPlan, PlanNode, StoreHandle,
};
use msa_optimizer::cost::{per_record_cost, rates, CostContext};
use msa_optimizer::{Allocation, Configuration, Planner, PlannerOptions};
use msa_stream::{
    AttrSet, DatasetStats, DiskBackend, PacketTraceBuilder, Record, SplitMix64, TraceProfile,
    UniformStreamBuilder, PROCESSING_WINDOW_SIZE,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

pub const NAMES: [&str; 4] = ["trace", "collide", "wide", "durable"];

/// Records the planner's statistics are computed from.
const STATS_PREFIX: usize = 100_000;
/// Seed of the temporal flow-length probe tables.
const FLOW_SEED: u64 = 0xF10;

/// Trace length: three times the paper's 62 s, 860k-packet capture.
const TRACE_RECORDS: usize = 2_580_000;
const TRACE_SECS: f64 = 186.0;
/// Seed of the trace's group hierarchy and flows. The workload seed
/// relabels attribute values instead (see [`trace_records`]).
const TRACE_STRUCTURE_SEED: u64 = 42;
/// The durable workload replays this many leading trace records.
const DURABLE_RECORDS: usize = 100_000;

const COLLIDE_RECORDS: usize = 1_000_000;
const COLLIDE_SECS: f64 = 62.0;

/// About 220k distinct ABCD groups per 250k-record epoch. The phantom's
/// 4 Mi slots take about 300 MB, several times a 100 MB last-level
/// cache, so raw probes miss it; 2^14-value domains keep the four
/// query results at 16k groups each per epoch, so the run stays near
/// 0.5 GB resident.
const WIDE_GROUPS: usize = 1 << 20;
const WIDE_DOMAIN: u32 = 1 << 14;
const WIDE_RECORDS: usize = 2_000_000;
const WIDE_SECS: f64 = 8.0;
const WIDE_PHANTOM_BUCKETS: usize = 1 << 22;
const WIDE_QUERY_BUCKETS: usize = 1 << 16;

/// How a workload gets its plan.
pub enum PlanSource {
    /// GCSL at this LFTA budget (words), from prefix statistics.
    Gcsl(f64),
    /// A fixed physical plan.
    Fixed(PhysicalPlan),
}

pub struct Workload {
    pub name: &'static str,
    pub records: Vec<Record>,
    pub queries: Vec<AttrSet>,
    pub epoch_micros: u64,
    pub plan: PlanSource,
    pub durable: bool,
    /// Chunk ranges `[start, end)`: each inside one epoch and at most
    /// one processing window long, with its epoch.
    pub ranges: Vec<(usize, usize, u64)>,
    pub seed: u64,
}

fn attrs(names: &[&str]) -> Vec<AttrSet> {
    names
        .iter()
        .map(|n| AttrSet::parse_checked(n).expect("workload attribute sets are valid"))
        .collect()
}

/// The calibrated packet trace with its values relabelled by `seed`.
///
/// The hierarchy and flows come from one fixed seed: drawn afresh, the
/// heavy-tailed flows and the value pools move group counts and flow
/// lengths enough to flip the planner's choice, and with it the cost per
/// record by a quarter. XOR with a seeded mask is a bijection on each
/// attribute, so every projection keeps its group count and flow
/// structure while the keys, and so every hash slot, change with the
/// seed.
fn trace_records(seed: u64) -> Vec<Record> {
    let profile =
        TraceProfile { records: TRACE_RECORDS, duration_secs: TRACE_SECS, ..TraceProfile::paper() };
    let mut records = PacketTraceBuilder::new(profile).seed(TRACE_STRUCTURE_SEED).build().records;
    let mut rng = SplitMix64::new(seed);
    let masks: [u32; 4] = std::array::from_fn(|_| rng.next_u32());
    for r in &mut records {
        for (v, m) in r.attrs.iter_mut().zip(masks) {
            *v ^= m;
        }
    }
    records
}

/// Generates the named workload's input from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let (name, records, queries, epoch_micros, plan, durable) = match name {
        "trace" => (
            "trace",
            trace_records(seed),
            attrs(&["AB", "BC", "BD", "CD"]),
            1_000_000,
            PlanSource::Gcsl(40_000.0),
            false,
        ),
        "collide" => (
            "collide",
            UniformStreamBuilder::new(4, 2837)
                .records(COLLIDE_RECORDS)
                .duration_secs(COLLIDE_SECS)
                .seed(seed)
                .build()
                .records,
            attrs(&["A", "B", "C", "D"]),
            1_000_000,
            PlanSource::Gcsl(20_000.0),
            false,
        ),
        "wide" => {
            let q = |name: &str, parent, buckets, is_query| PlanNode {
                attrs: attrs(&[name])[0],
                parent,
                buckets,
                is_query,
            };
            let plan = PhysicalPlan::new(vec![
                q("ABCD", None, WIDE_PHANTOM_BUCKETS, false),
                q("A", Some(0), WIDE_QUERY_BUCKETS, true),
                q("B", Some(0), WIDE_QUERY_BUCKETS, true),
                q("C", Some(0), WIDE_QUERY_BUCKETS, true),
                q("D", Some(0), WIDE_QUERY_BUCKETS, true),
            ])
            .expect("the fixed wide plan is well formed");
            (
                "wide",
                UniformStreamBuilder::new(4, WIDE_GROUPS)
                    .attr_domains(vec![WIDE_DOMAIN; 4])
                    .records(WIDE_RECORDS)
                    .duration_secs(WIDE_SECS)
                    .seed(seed)
                    .build()
                    .records,
                attrs(&["A", "B", "C", "D"]),
                1_000_000,
                PlanSource::Fixed(plan),
                false,
            )
        }
        "durable" => {
            let mut records = trace_records(seed);
            records.truncate(DURABLE_RECORDS);
            (
                "durable",
                records,
                attrs(&["AB", "BC", "BD", "CD"]),
                250_000,
                PlanSource::Gcsl(40_000.0),
                true,
            )
        }
        _ => return None,
    };
    let ranges = chunk_ranges(&records, epoch_micros);
    Some(Workload { name, records, queries, epoch_micros, plan, durable, ranges, seed })
}

/// Splits `records` into processing windows that never cross an epoch
/// boundary, so the benchmark can close each epoch itself.
fn chunk_ranges(records: &[Record], epoch_micros: u64) -> Vec<(usize, usize, u64)> {
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(first) = records.get(i) {
        let epoch = first.ts_micros / epoch_micros;
        let boundary = (epoch + 1).saturating_mul(epoch_micros);
        let mut j = i + 1;
        while j < records.len() && j - i < PROCESSING_WINDOW_SIZE && records[j].ts_micros < boundary
        {
            j += 1;
        }
        out.push((i, j, epoch));
        i = j;
    }
    out
}

/// What the optimizer chose and what its model predicts.
pub struct PlanInfo {
    pub configuration: Configuration,
    pub allocation: Allocation,
    pub stats: DatasetStats,
    pub phantoms: usize,
}

impl PlanInfo {
    /// Eq. 7 per-record intra-epoch cost the model predicts.
    pub fn predicted_cost(&self) -> f64 {
        let model = LinearModel::paper_no_intercept();
        per_record_cost(
            &self.configuration,
            &self.allocation,
            &CostContext::new(&self.stats, &model),
        )
    }

    /// Collision rate the model predicts for each table.
    pub fn predicted_rates(&self) -> BTreeMap<AttrSet, f64> {
        let model = LinearModel::paper_no_intercept();
        rates(&self.configuration, &self.allocation, &CostContext::new(&self.stats, &model))
    }

    /// The model's view of a fixed plan, with statistics from the first
    /// epoch's records.
    pub fn for_fixed(plan: &PhysicalPlan, queries: &[AttrSet], sample: &[Record]) -> PlanInfo {
        let phantoms: Vec<AttrSet> =
            plan.nodes().iter().filter(|n| !n.is_query).map(|n| n.attrs).collect();
        let configuration = Configuration::with_phantoms(queries, &phantoms);
        let mut allocation = Allocation::default();
        for n in plan.nodes() {
            allocation.set(n.attrs, n.buckets as f64);
        }
        let sets: Vec<AttrSet> = plan.nodes().iter().map(|n| n.attrs).collect();
        PlanInfo {
            configuration,
            allocation,
            stats: DatasetStats::compute_for(sample, &sets),
            phantoms: phantoms.len(),
        }
    }
}

/// One set-up: the executor ready for its first chunk, and how long
/// getting it there took.
pub struct Setup {
    pub cfg: ExecutorConfig,
    pub executor: Executor,
    pub store: Option<StoreHandle>,
    pub info: Option<PlanInfo>,
    pub secs: f64,
}

/// Opens a checkpoint store over a counting disk backend rooted at `dir`.
pub fn open_store(dir: &Path, ledger: &SharedLedger) -> StoreHandle {
    span("store.open", || {
        let disk = DiskBackend::new(dir).expect("store directory can be created");
        let backend = CountingBackend::new(disk, ledger.clone());
        let store =
            CheckpointStore::open(Box::new(backend)).expect("a fresh store directory opens");
        StoreHandle::new(store)
    })
}

/// Stats bootstrap → plan → executor build → store open. With `store`
/// set, the executor commits to a store in that (empty) directory.
pub fn setup(w: &Workload, store: Option<(&Path, &SharedLedger)>) -> Setup {
    let t = Instant::now();
    let (plan, info) = match &w.plan {
        PlanSource::Fixed(plan) => (plan.clone(), None),
        PlanSource::Gcsl(m_words) => {
            let prefix = &w.records[..w.records.len().min(STATS_PREFIX)];
            let stats = span("stream.stats", || {
                let mut stats = DatasetStats::compute(prefix, AttrSet::from_attrs(0..4));
                let sets: Vec<AttrSet> = stats.known_sets().collect();
                for (set, l) in temporal_flow_lengths(prefix, &sets, 2048, FLOW_SEED) {
                    stats.set_flow_length(set, l);
                }
                stats
            });
            let (chosen, physical) = span("optimizer.plan", || {
                let model = LinearModel::paper_no_intercept();
                let options = PlannerOptions::new(*m_words);
                let chosen = Planner::new(&w.queries, &stats, &model, &options).plan(&options);
                let physical = chosen.to_physical();
                (chosen, physical)
            });
            let phantoms = chosen.configuration.phantoms().count();
            let info = PlanInfo {
                configuration: chosen.configuration,
                allocation: chosen.allocation,
                stats,
                phantoms,
            };
            (physical, Some(info))
        }
    };
    let cfg = ExecutorConfig::new(plan, CostParams::paper(), w.epoch_micros, w.seed);
    let executor = span("executor.build", || cfg.build());
    let (executor, store) = match store {
        Some((dir, ledger)) => {
            let handle = open_store(dir, ledger);
            (executor.with_store(handle.clone()), Some(handle))
        }
        None => (executor, None),
    };
    Setup { cfg, executor, store, info, secs: t.elapsed().as_secs_f64() }
}
