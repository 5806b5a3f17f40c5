//! LFTA hash-table probe throughput — the `c1` operation whose cost the
//! whole paper is built around — and the HFTA merge that combines what
//! the LFTA evicts.

use msa_bench::harness::{bench, bench_throughput};
use msa_gigascope::table::AggState;
use msa_gigascope::{Hfta, LftaTable};
use msa_stream::{AttrSet, GroupKey, SplitMix64};
use std::hint::black_box;

fn keys(n: usize, arity: usize) -> Vec<GroupKey> {
    (0..n)
        .map(|i| {
            let vals: Vec<u32> = (0..arity)
                .map(|a| (i as u32).wrapping_mul(2654435761).rotate_left(a as u32))
                .collect();
            GroupKey::from_values(&vals)
        })
        .collect()
}

/// Queries the HFTA merge cases combine, one attribute each.
const QUERIES: usize = 4;

/// Epochs each merge iteration closes; every result is kept until the
/// iteration ends, as a run keeps them.
const EPOCHS: usize = 8;

/// One query-epoch's deliveries: each of `groups` groups once, plus
/// `deliveries − groups` repeats drawn uniformly, shuffled.
fn delivery_stream(groups: usize, deliveries: usize, seed: u64) -> Vec<GroupKey> {
    let mut rng = SplitMix64::new(seed);
    let mut ids: Vec<u32> = (0..groups as u32).collect();
    ids.extend((groups..deliveries).map(|_| rng.gen_u32_below(groups as u32)));
    rng.shuffle(&mut ids);
    ids.iter()
        .map(|&g| GroupKey::from_values(&[g.wrapping_mul(2654435761)]))
        .collect()
}

fn main() {
    println!("lfta_probe");
    for (label, arity, buckets) in [
        ("1attr_low_collision", 1usize, 1 << 15),
        ("4attr_low_collision", 4, 1 << 15),
        ("4attr_high_collision", 4, 512),
    ] {
        let attrs = AttrSet::from_attrs(0..arity as u8);
        let keyset = keys(3000, arity);
        let mut table = LftaTable::new(attrs, buckets, 7);
        let mut i = 0usize;
        bench_throughput(label, 10_000, || {
            // Cycle through the key set; 10k probes per iteration batch
            // keeps the measurement above timer resolution.
            for _ in 0..10_000 {
                let k = keyset[i % keyset.len()];
                black_box(table.probe(black_box(k), AggState::unit()));
                i = i.wrapping_add(1);
            }
        });
    }

    // The shapes of perfbench's workloads per query and epoch: groups,
    // then deliveries (ROADMAP item 2).
    println!("hfta_merge ({QUERIES} queries, {EPOCHS} kept epochs per iteration)");
    for (label, groups, deliveries) in [
        ("collide_like_2.8k_groups_6.2k_deliveries", 2_800, 6_200),
        ("wide_like_16k_groups_39k_deliveries", 16_000, 39_000),
        ("trace_like_0.7k_groups_1.4k_deliveries", 700, 1_400),
    ] {
        let queries: Vec<AttrSet> = (0..QUERIES as u8)
            .map(|a| AttrSet::from_attrs([a]))
            .collect();
        let streams: Vec<Vec<GroupKey>> = (0..QUERIES)
            .map(|q| delivery_stream(groups, deliveries, q as u64 + 1))
            .collect();
        let m = bench(label, || {
            let mut hfta = Hfta::new(queries.clone());
            for _ in 0..EPOCHS {
                for (q, stream) in streams.iter().enumerate() {
                    for &k in stream {
                        hfta.receive(q, k, AggState::unit());
                    }
                }
                hfta.close_epoch();
            }
            hfta.results().len()
        });
        let per_iter = (EPOCHS * QUERIES * deliveries) as f64;
        println!(
            "{:<40} {:.1} ns/delivery",
            "",
            m.secs_per_iter * 1e9 / per_iter
        );
    }
}
