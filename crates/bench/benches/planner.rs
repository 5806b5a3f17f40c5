//! Planning-time benchmarks (§6.3.4: "the running time of GCSL in all
//! configurations we tried was sub-millisecond"), and the statistics
//! bootstrap that produces the planner's inputs.

use msa_bench::harness::bench;
use msa_collision::LinearModel;
use msa_gigascope::table::temporal_flow_lengths;
use msa_optimizer::cost::{ClusterHandling, CostContext};
use msa_optimizer::{greedy_collision, greedy_space, AllocStrategy, Configuration, FeedingGraph};
use msa_stream::{AttrSet, DatasetStats};
use std::hint::black_box;

fn s(x: &str) -> AttrSet {
    AttrSet::parse(x).unwrap()
}

fn stats() -> DatasetStats {
    DatasetStats::from_group_counts(
        [
            (s("A"), 552),
            (s("B"), 400),
            (s("C"), 600),
            (s("D"), 120),
            (s("AB"), 1846),
            (s("AC"), 1700),
            (s("AD"), 1500),
            (s("BC"), 1500),
            (s("BD"), 900),
            (s("CD"), 800),
            (s("ABC"), 2117),
            (s("ABD"), 2000),
            (s("ACD"), 1900),
            (s("BCD"), 1800),
            (s("ABCD"), 2837),
        ],
        860_000,
    )
}

fn main() {
    let stats = stats();
    let model = LinearModel::paper_no_intercept();
    let mut ctx = CostContext::new(&stats, &model);
    ctx.clustering = ClusterHandling::None;
    let q1: Vec<AttrSet> = ["A", "B", "C", "D"].iter().map(|q| s(q)).collect();
    let q2: Vec<AttrSet> = ["AB", "BC", "BD", "CD"].iter().map(|q| s(q)).collect();
    let g1 = FeedingGraph::new(&q1);
    let g2 = FeedingGraph::new(&q2);

    // The paper's headline planning measurement.
    bench("gcsl_single_attr_queries_m40k", || {
        black_box(greedy_collision(
            black_box(&g1),
            40_000.0,
            &ctx,
            AllocStrategy::SupernodeLinear,
        ))
    });
    bench("gcsl_pair_queries_m40k", || {
        black_box(greedy_collision(
            black_box(&g2),
            40_000.0,
            &ctx,
            AllocStrategy::SupernodeLinear,
        ))
    });
    bench("gs_phi1_single_attr_queries_m40k", || {
        black_box(greedy_space(black_box(&g1), 40_000.0, 1.0, &ctx))
    });

    let queries: Vec<AttrSet> = ["AB", "BC", "BD", "CD"].iter().map(|q| s(q)).collect();
    let cfg = Configuration::with_phantoms(&queries, &[s("ABCD"), s("BCD")]);

    println!("alloc_strategies");
    for strat in AllocStrategy::HEURISTICS {
        bench(strat.name(), || {
            black_box(strat.allocate(black_box(&cfg), 40_000.0, &ctx))
        });
    }
    bench("ES_numeric_100_iters", || {
        black_box(msa_optimizer::alloc::allocate_numeric(
            black_box(&cfg),
            40_000.0,
            &ctx,
            100,
        ))
    });

    // The planner's inputs, as a GCSL set-up gathers them: group counts
    // and consecutive-run flow lengths for every subset of ABCD, then
    // bucket-level flow lengths, over the first 100k records of the
    // paper trace.
    let trace = msa_bench::paper_trace();
    let prefix = trace.records.get(..100_000).unwrap_or(&trace.records);
    let sets: Vec<AttrSet> = msa_stream::attr::subsets_of(s("ABCD")).collect();
    println!("statistics_bootstrap");
    bench("stats_compute_trace_100k", || {
        black_box(msa_bench::stats_abcd(black_box(prefix)))
    });
    bench("temporal_flow_lengths_trace_100k", || {
        black_box(temporal_flow_lengths(black_box(prefix), &sets, 2048, 0xF10))
    });
    bench("stats_bootstrap_trace_100k", || {
        black_box(msa_bench::stats_abcd_temporal(black_box(prefix)))
    });
}
