//! End-to-end executor throughput: records/second through a flat
//! configuration vs a phantom configuration — the system-level effect
//! the paper's cost model predicts.

use msa_bench::harness::bench_throughput;
use msa_gigascope::{CostParams, ExecutorConfig, PhysicalPlan, PlanNode};
use msa_stream::{AttrSet, UniformStreamBuilder};
use std::hint::black_box;

fn s(x: &str) -> AttrSet {
    AttrSet::parse(x).unwrap()
}

fn main() {
    let stream = UniformStreamBuilder::new(4, 2837)
        .records(100_000)
        .seed(9)
        .build();

    let flat = PhysicalPlan::flat([
        (s("AB"), 2000),
        (s("BC"), 2000),
        (s("BD"), 2000),
        (s("CD"), 2000),
    ]);

    let phantom = PhysicalPlan::new(vec![
        PlanNode {
            attrs: s("ABCD"),
            parent: None,
            buckets: 6000,
            is_query: false,
        },
        PlanNode {
            attrs: s("AB"),
            parent: Some(0),
            buckets: 500,
            is_query: true,
        },
        PlanNode {
            attrs: s("BC"),
            parent: Some(0),
            buckets: 500,
            is_query: true,
        },
        PlanNode {
            attrs: s("BD"),
            parent: Some(0),
            buckets: 500,
            is_query: true,
        },
        PlanNode {
            attrs: s("CD"),
            parent: Some(0),
            buckets: 500,
            is_query: true,
        },
    ])
    .unwrap();

    println!("executor");
    for (label, plan) in [("flat_4_queries", flat), ("phantom_abcd", phantom)] {
        bench_throughput(label, stream.len() as u64, || {
            let mut ex = ExecutorConfig::new(plan.clone(), CostParams::paper(), u64::MAX, 3)
                .build()
                .discard_results();
            ex.run(black_box(&stream.records));
            black_box(ex.report().per_record_cost())
        });
    }
}
