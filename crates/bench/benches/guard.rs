//! Overload-guard and eviction-channel overhead on the hot path.
//!
//! The guard check and the channel hand-off sit on every record and
//! every eviction; this bench quantifies their tax relative to the bare
//! executor in three configurations: no guard (baseline), a guard that
//! never trips (the steady-state cost of being protected), and a lossy
//! channel with a tripping guard (the degraded regime).

use msa_bench::harness::bench_throughput;
use msa_gigascope::{CostParams, ExecutorConfig, FaultPlan, GuardPolicy, PhysicalPlan, PlanNode};
use msa_stream::{AttrSet, UniformStreamBuilder};
use std::hint::black_box;

fn s(x: &str) -> AttrSet {
    AttrSet::parse(x).unwrap()
}

fn plan() -> PhysicalPlan {
    PhysicalPlan::new(vec![
        PlanNode {
            attrs: s("AB"),
            parent: None,
            buckets: 2000,
            is_query: false,
        },
        PlanNode {
            attrs: s("A"),
            parent: Some(0),
            buckets: 500,
            is_query: true,
        },
        PlanNode {
            attrs: s("B"),
            parent: Some(0),
            buckets: 500,
            is_query: true,
        },
    ])
    .unwrap()
}

fn main() {
    let stream = UniformStreamBuilder::new(4, 2837)
        .records(100_000)
        .duration_secs(10.0)
        .seed(9)
        .build();
    let epoch = 1_000_000;

    println!("guard");
    bench_throughput("unguarded_baseline", stream.len() as u64, || {
        let mut ex = ExecutorConfig::new(plan(), CostParams::paper(), epoch, 3)
            .build()
            .discard_results();
        ex.run(black_box(&stream.records));
        black_box(ex.report().records)
    });
    bench_throughput("guard_never_trips", stream.len() as u64, || {
        let mut ex = ExecutorConfig {
            guard: Some(GuardPolicy::new(f64::INFINITY)),
            ..ExecutorConfig::new(plan(), CostParams::paper(), epoch, 3)
        }
        .build()
        .discard_results();
        ex.run(black_box(&stream.records));
        black_box(ex.report().records)
    });
    bench_throughput("guard_tripping_lossy_channel", stream.len() as u64, || {
        let mut ex = ExecutorConfig {
            guard: Some(GuardPolicy::new(0.0)),
            faults: Some(
                FaultPlan::new(7)
                    .with_eviction_loss(0.05)
                    .with_eviction_duplication(0.05),
            ),
            ..ExecutorConfig::new(plan(), CostParams::paper(), epoch, 3)
        }
        .build()
        .discard_results();
        ex.run(black_box(&stream.records));
        black_box(ex.report().records_shed)
    });
}
