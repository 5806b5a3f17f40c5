//! Shared infrastructure for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation (Section 6) has a
//! binary in `src/bin/`; this library holds what they share: the
//! calibrated datasets, dataset-statistics helpers, actual-cost
//! measurement through the executor, and plain-text table rendering.
//!
//! Environment knobs (all optional):
//!
//! * `MSA_SCALE` — fraction of the paper-scale datasets to generate
//!   (default 1.0 = the full 860 k-record trace / 1 M-record synthetic
//!   streams). Smaller values make every binary proportionally faster.
//! * `MSA_SEED` — RNG seed (default 42).

#![deny(unsafe_code)]

use msa_optimizer::config::ParseError;
use msa_optimizer::cost::{per_record_cost, CostContext};
use msa_optimizer::{Allocation, Configuration};
use msa_stream::gen::GeneratedStream;
use msa_stream::{
    AttrSet, DatasetStats, PacketTraceBuilder, Record, TraceProfile, UniformStreamBuilder,
};

pub use msa_gigascope::{CostParams, Executor, ExecutorConfig, PhysicalPlan, PlanNode, RunReport};

/// Reads `MSA_SCALE` (default 1.0, clamped to `(0, 1]`).
pub fn scale() -> f64 {
    std::env::var("MSA_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .map(|v| v.clamp(1e-3, 1.0))
        .unwrap_or(1.0)
}

/// Reads `MSA_SEED` (default 42).
pub fn seed() -> u64 {
    std::env::var("MSA_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(42)
}

/// The synthesized "real" packet trace (§6.1), scaled by [`scale`].
pub fn paper_trace() -> GeneratedStream {
    PacketTraceBuilder::new(TraceProfile::paper_scaled(scale()))
        .seed(seed())
        .build()
}

/// The de-clustered variant used to validate the collision model (§4.2).
pub fn paper_trace_declustered() -> GeneratedStream {
    PacketTraceBuilder::new(TraceProfile::paper_scaled(scale()))
        .seed(seed())
        .build_declustered()
}

/// The synthetic uniform dataset (§6.1): `dims`-dimensional tuples with
/// the group count the paper matched to the real data.
pub fn paper_uniform(dims: usize) -> GeneratedStream {
    let groups = ((2837.0 * scale()).round() as usize).max(8);
    let records = ((1_000_000.0 * scale()).round() as usize).max(1000);
    UniformStreamBuilder::new(dims, groups)
        .records(records)
        .seed(seed())
        .build()
}

/// Statistics over all non-empty subsets of `ABCD` for a dataset.
pub fn stats_abcd(records: &[Record]) -> DatasetStats {
    DatasetStats::compute(records, AttrSet::from_attrs(0..4))
}

/// Like [`stats_abcd`], with flow lengths derived the paper's way —
/// bucket-level occupant run lengths (§4.3), which survive flow
/// interleaving — instead of consecutive-record runs.
pub fn stats_abcd_temporal(records: &[Record]) -> DatasetStats {
    let mut stats = stats_abcd(records);
    let sets: Vec<AttrSet> = stats.known_sets().collect();
    for (set, l) in msa_gigascope::table::temporal_flow_lengths(records, &sets, 2048, 0xF10) {
        stats.set_flow_length(set, l);
    }
    stats
}

/// Memory budgets the paper sweeps (words), scaled by [`scale`] so that
/// the `M : groups` ratio — which is what determines collision rates —
/// matches the paper at any scale.
pub fn m_sweep() -> Vec<f64> {
    [20_000.0, 40_000.0, 60_000.0, 80_000.0, 100_000.0]
        .into_iter()
        .map(|m| (m * scale()).max(500.0))
        .collect()
}

/// Streams `records` through a physical plan and returns the measured
/// per-record intra-epoch cost (single epoch — the paper's actual-cost
/// experiments measure maintenance cost).
pub fn measured_cost(plan: PhysicalPlan, records: &[Record], run_seed: u64) -> f64 {
    let mut ex = ExecutorConfig::new(plan, CostParams::paper(), u64::MAX, run_seed)
        .build()
        .discard_results();
    ex.run(records);
    ex.report().per_record_cost()
}

/// Model-predicted per-record cost of `(cfg, alloc)` — convenience
/// wrapper matching the experiment binaries' call shape.
pub fn predicted_cost(cfg: &Configuration, alloc: &Allocation, ctx: &CostContext<'_>) -> f64 {
    per_record_cost(cfg, alloc, ctx)
}

/// Renders rows as an aligned plain-text table with a header.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Parses a configuration notation treating its leaves as the queries
/// (the experiment configurations of Figs. 9–10 define queries
/// implicitly as their leaf relations).
///
/// # Errors
/// Returns the underlying [`ParseError`] when `notation` is malformed.
pub fn parse_config_leaves(notation: &str) -> Result<Configuration, ParseError> {
    let skeleton = Configuration::parse(notation, &[])?;
    let leaves: Vec<AttrSet> = skeleton.leaves().collect();
    Configuration::parse(notation, &leaves)
}

/// One row of a Fig. 9/10-style experiment: for each heuristic, the
/// relative error (%) of its cost against the (numeric) exhaustive
/// optimum, for a fixed configuration and budget.
pub fn alloc_error_row(cfg: &Configuration, m_words: f64, ctx: &CostContext<'_>) -> Vec<f64> {
    let es = msa_optimizer::alloc::allocate_numeric(cfg, m_words, ctx, 400);
    let c_es = per_record_cost(cfg, &es, ctx);
    msa_optimizer::AllocStrategy::HEURISTICS
        .iter()
        .map(|strat| {
            let a = strat.allocate(cfg, m_words, ctx);
            let c = per_record_cost(cfg, &a, ctx);
            ((c - c_es) / c_es).max(0.0)
        })
        .collect()
}

/// Enumerates all valid configurations over `queries` with at most
/// `max_phantoms` phantoms (a configuration is valid when every phantom
/// feeds at least two relations — the paper shows childless/one-child
/// phantoms are never beneficial).
pub fn enumerate_phantom_configs(queries: &[AttrSet], max_phantoms: usize) -> Vec<Configuration> {
    let graph = msa_optimizer::FeedingGraph::new(queries);
    let candidates = graph.phantom_candidates();
    assert!(candidates.len() <= 20, "too many candidates to enumerate");
    let mut out = Vec::new();
    for mask in 0u64..(1 << candidates.len()) {
        if (mask.count_ones() as usize) > max_phantoms {
            continue;
        }
        let phantoms: Vec<AttrSet> = candidates
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &p)| p)
            .collect();
        let cfg = Configuration::with_phantoms(queries, &phantoms);
        if phantoms.iter().all(|&p| cfg.children(p).count() >= 2) {
            out.push(cfg);
        }
    }
    out
}

/// Maximum phantom count per configuration in the Table 2/3 sweeps:
/// 3 by default (232 configurations over {A,B,C,D}), unlimited with
/// `MSA_FULL=1` (the paper's "all possible configurations").
pub fn max_phantoms() -> usize {
    match std::env::var("MSA_FULL").as_deref() {
        Ok("1") => usize::MAX,
        _ => 3,
    }
}

/// The Table 2/3 sweep: per budget M, the SL/SR/PL/PR relative errors
/// (vs numeric ES) of every enumerated configuration.
pub fn alloc_error_sweep(stats: &DatasetStats) -> Vec<(f64, Vec<Vec<f64>>)> {
    let queries: Vec<AttrSet> = (0..4).map(AttrSet::single).collect();
    let configs = enumerate_phantom_configs(&queries, max_phantoms());
    let model = msa_collision::LinearModel::paper_no_intercept();
    let ctx = CostContext::new(stats, &model);
    m_sweep()
        .into_iter()
        .map(|m| {
            let errors: Vec<Vec<f64>> = configs
                .iter()
                .map(|cfg| alloc_error_row(cfg, m, &ctx))
                .collect();
            (m, errors)
        })
        .collect()
}

/// Minimal wall-clock micro-benchmark harness.
///
/// The workspace builds with no external crates, so the `cargo bench`
/// targets use this instead of a benchmarking framework: calibrate an
/// iteration count, take five timed batches, report the median.
pub mod harness {
    use std::time::{Duration, Instant};

    /// Result of one benchmark: median seconds per iteration.
    pub struct Measurement {
        /// Median wall-clock seconds per iteration.
        pub secs_per_iter: f64,
    }

    fn run_batch<R>(f: &mut impl FnMut() -> R, iters: u64) -> Duration {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        t.elapsed()
    }

    /// Times `f` and prints `label: <time>/iter`. Returns the measurement
    /// so callers can derive throughput.
    pub fn bench<R>(label: &str, mut f: impl FnMut() -> R) -> Measurement {
        // Calibrate: grow the batch until it runs at least ~20 ms.
        let mut iters: u64 = 1;
        loop {
            let elapsed = run_batch(&mut f, iters);
            if elapsed >= Duration::from_millis(20) || iters >= 1 << 28 {
                break;
            }
            iters = iters.saturating_mul(4);
        }
        let mut samples: Vec<f64> = (0..5)
            .map(|_| run_batch(&mut f, iters).as_secs_f64() / iters as f64)
            .collect();
        samples.sort_by(f64::total_cmp);
        let secs = samples[2];
        println!("{label:<40} {}", format_time(secs));
        Measurement {
            secs_per_iter: secs,
        }
    }

    /// Like [`bench`] but also prints element throughput, for benchmarks
    /// whose closure processes `elements` items per call.
    pub fn bench_throughput<R>(label: &str, elements: u64, f: impl FnMut() -> R) -> Measurement {
        let m = bench(label, f);
        let rate = elements as f64 / m.secs_per_iter;
        println!("{:<40} {:.2} Melem/s", "", rate / 1e6);
        m
    }

    fn format_time(secs: f64) -> String {
        if secs < 1e-6 {
            format!("{:.1} ns/iter", secs * 1e9)
        } else if secs < 1e-3 {
            format!("{:.2} µs/iter", secs * 1e6)
        } else if secs < 1.0 {
            format!("{:.2} ms/iter", secs * 1e3)
        } else {
            format!("{secs:.2} s/iter")
        }
    }
}

/// Shard-scaling measurement for the multi-core LFTA
/// ([`msa_gigascope::shard`]).
///
/// The headline is the **wall clock** of the real threaded deployment:
/// records per second through [`msa_gigascope::ShardedExecutor`] on
/// this host, the median of three timed runs after a warm-up run. It
/// only shows a speedup when the host has cores to spare, so the
/// emitted JSON records the host's core count with it. The **critical
/// path** stays as a secondary column: partition the stream with the
/// deployment's own hash partitioner, time each shard's executor
/// serially, and take the slowest shard — the completion time the
/// threaded runtime would approach with `N` free cores and no feed or
/// merge overhead.
pub mod sharding {
    use super::{CostParams, ExecutorConfig, PhysicalPlan};
    use msa_gigascope::{shard_of, shard_seed, ShardedExecutor};
    use msa_stream::Record;
    use std::time::Instant;

    /// One measured deployment size.
    pub struct ShardRow {
        /// Shard count `N`.
        pub shards: usize,
        /// Median wall clock of the threaded deployment, seconds.
        pub wall_clock_secs: f64,
        /// `records / wall_clock_secs`.
        pub records_per_sec: f64,
        /// Median serial time of the slowest shard, seconds.
        pub critical_path_secs: f64,
    }

    /// Median of three timed runs after one warm-up run, so page faults
    /// and cold caches don't masquerade as scaling.
    fn median_secs(mut time_once: impl FnMut() -> f64) -> f64 {
        std::hint::black_box(time_once());
        let mut samples = [time_once(), time_once(), time_once()];
        samples.sort_by(f64::total_cmp);
        samples[1]
    }

    /// Times the threaded deployment end to end (the headline), then
    /// partitions `records` exactly as [`ShardedExecutor`] would and
    /// times each shard's executor serially (the critical path).
    pub fn measure(
        plan: &PhysicalPlan,
        records: &[Record],
        epoch_micros: u64,
        seed: u64,
        shards: usize,
    ) -> ShardRow {
        let wall = median_secs(|| {
            match ShardedExecutor::new(
                ExecutorConfig::new(plan.clone(), CostParams::paper(), epoch_micros, seed),
                shards,
            ) {
                Ok(mut sx) => {
                    let t = Instant::now();
                    sx.run(records);
                    std::hint::black_box(sx.finish());
                    t.elapsed().as_secs_f64()
                }
                Err(_) => f64::NAN,
            }
        });
        let mut parts: Vec<Vec<Record>> = vec![Vec::new(); shards];
        for r in records {
            parts[shard_of(seed, r, shards)].push(*r);
        }
        let shard_plan = plan.split_for_shards(shards);
        let mut critical = 0.0f64;
        for (k, part) in parts.iter().enumerate() {
            critical = critical.max(median_secs(|| {
                let mut ex = ExecutorConfig::new(
                    shard_plan.clone(),
                    CostParams::paper(),
                    epoch_micros,
                    shard_seed(seed, k, shards),
                )
                .build();
                let t = Instant::now();
                ex.run(part);
                std::hint::black_box(ex.finish());
                t.elapsed().as_secs_f64()
            }));
        }
        ShardRow {
            shards,
            wall_clock_secs: wall,
            records_per_sec: records.len() as f64 / wall.max(f64::MIN_POSITIVE),
            critical_path_secs: critical,
        }
    }
}

/// Formats a float with 4 significant decimals.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_one() {
        // Tests run without MSA_SCALE set in CI; guard for local runs.
        if std::env::var("MSA_SCALE").is_err() {
            assert_eq!(scale(), 1.0);
        }
    }

    #[test]
    fn m_sweep_has_five_points() {
        assert_eq!(m_sweep().len(), 5);
    }

    #[test]
    fn table_rendering_does_not_panic() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "x".into()]],
        );
    }
}
