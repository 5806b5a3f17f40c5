//! Randomized property tests over the core data structures and
//! invariants. Cases are drawn from a seeded [`SplitMix64`] so every run
//! explores the same (large) sample deterministically — the workspace
//! builds offline with no property-testing framework.

use msa_core::{AttrSet, Configuration, CostParams, ExecutorConfig, LinearModel, Record};
use msa_gigascope::{PhysicalPlan, PlanNode};
use msa_optimizer::cost::{per_record_cost, CostContext};
use msa_optimizer::{AllocStrategy, FeedingGraph};
use msa_stream::hash::FastMap;
use msa_stream::{DatasetStats, GroupKey, KeyProjection, RecordChunk, SplitMix64};
use std::collections::BTreeSet;

/// A non-empty set of distinct non-empty attribute subsets over 4
/// attributes.
fn query_set(rng: &mut SplitMix64) -> Vec<AttrSet> {
    let n = 1 + rng.gen_index(4);
    let mut bits: BTreeSet<u16> = BTreeSet::new();
    while bits.len() < n {
        bits.insert(1 + rng.gen_u32_below(15) as u16);
    }
    bits.into_iter()
        .map(|b| AttrSet::from_bits(b).expect("within range"))
        .collect()
}

/// A batch of records over small domains (to force collisions).
fn record_batch(rng: &mut SplitMix64) -> Vec<Record> {
    let n = 1 + rng.gen_index(399);
    (0..n)
        .map(|i| {
            let vals = [
                rng.gen_u32_below(7),
                rng.gen_u32_below(5),
                rng.gen_u32_below(4),
                rng.gen_u32_below(3),
            ];
            Record::new(&vals, i as u64)
        })
        .collect()
}

fn exact(records: &[Record], q: AttrSet) -> FastMap<GroupKey, u64> {
    let mut m = FastMap::default();
    for r in records {
        *m.entry(r.project(q)).or_insert(0) += 1;
    }
    m
}

/// The executor produces exact counts for ANY valid plan shape and ANY
/// input batch — the fundamental correctness invariant.
#[test]
fn executor_is_exact_for_any_phantom_tree() {
    let mut rng = SplitMix64::new(0xE0);
    let s = |x: &str| AttrSet::parse(x).unwrap();
    for _ in 0..40 {
        let records = record_batch(&mut rng);
        let buckets = 1 + rng.gen_index(15);
        let plan = PhysicalPlan::new(vec![
            PlanNode {
                attrs: s("ABCD"),
                parent: None,
                buckets,
                is_query: false,
            },
            PlanNode {
                attrs: s("ABC"),
                parent: Some(0),
                buckets,
                is_query: false,
            },
            PlanNode {
                attrs: s("AB"),
                parent: Some(1),
                buckets,
                is_query: true,
            },
            PlanNode {
                attrs: s("C"),
                parent: Some(1),
                buckets,
                is_query: true,
            },
            PlanNode {
                attrs: s("D"),
                parent: Some(0),
                buckets,
                is_query: true,
            },
        ])
        .unwrap();
        let mut ex = ExecutorConfig::new(plan, CostParams::paper(), u64::MAX, 11).build();
        ex.run(&records);
        let (_, hfta) = ex.finish();
        for q in ["AB", "C", "D"] {
            assert_eq!(hfta.totals(s(q)), exact(&records, s(q)), "query {q}");
        }
    }
}

/// Feeding-graph candidates are unions of queries, strict supersets of
/// at least two queries, and never queries themselves.
#[test]
fn feeding_graph_candidates_are_sound() {
    let mut rng = SplitMix64::new(0xF1);
    for _ in 0..200 {
        let queries = query_set(&mut rng);
        let graph = FeedingGraph::new(&queries);
        for &p in graph.phantom_candidates() {
            assert!(!queries.contains(&p));
            let covered = queries.iter().filter(|q| q.is_proper_subset_of(p)).count();
            assert!(covered >= 2, "{p} covers {covered} queries");
            let union = queries
                .iter()
                .filter(|q| q.is_subset_of(p))
                .fold(AttrSet::EMPTY, |u, &q| u.union(q));
            assert_eq!(union, p, "candidate {p} is not a union of covered queries");
        }
    }
}

/// Configurations derived from any phantom subset are forests: every
/// non-raw relation's parent is a strict superset, queries are exactly
/// the declared ones, and notation round-trips.
#[test]
fn configuration_tree_invariants() {
    let mut rng = SplitMix64::new(0xC2);
    for _ in 0..200 {
        let queries = query_set(&mut rng);
        let mask = rng.next_u64() % 64;
        let graph = FeedingGraph::new(&queries);
        let phantoms: Vec<AttrSet> = graph
            .phantom_candidates()
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &p)| p)
            .collect();
        let cfg = Configuration::with_phantoms(&queries, &phantoms);
        assert_eq!(cfg.len(), queries.len() + phantoms.len());
        for r in cfg.relations() {
            if let Some(p) = cfg.parent(r) {
                assert!(r.is_proper_subset_of(p));
                // Parent is minimal: no other instantiated relation
                // strictly between r and p.
                for other in cfg.relations() {
                    assert!(
                        !(r.is_proper_subset_of(other) && other.is_proper_subset_of(p)),
                        "{p} not minimal parent of {r}: {other} between"
                    );
                }
            }
        }
        let round = Configuration::parse(&cfg.notation(), &queries).unwrap();
        assert_eq!(round, cfg);
    }
}

/// Every allocation strategy spends (approximately) the whole budget and
/// gives every table at least one bucket.
#[test]
fn allocations_conserve_budget() {
    let mut rng = SplitMix64::new(0xA3);
    for _ in 0..60 {
        let queries = query_set(&mut rng);
        let mask = rng.next_u64() % 16;
        let m = rng.gen_range_f64(2_000.0, 50_000.0);
        let graph = FeedingGraph::new(&queries);
        let phantoms: Vec<AttrSet> = graph
            .phantom_candidates()
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &p)| p)
            .collect();
        let cfg = Configuration::with_phantoms(&queries, &phantoms);
        // Synthetic statistics: groups grow with arity.
        let stats =
            DatasetStats::from_group_counts(cfg.relations().map(|r| (r, 100 * r.len())), 100_000);
        let model = LinearModel::paper_no_intercept();
        let ctx = CostContext::new(&stats, &model);
        for strat in AllocStrategy::HEURISTICS {
            let alloc = strat.allocate(&cfg, m, &ctx);
            let spent = alloc.space_words();
            assert!(
                (spent - m).abs() / m < 0.05,
                "{}: spent {spent} of {m}",
                strat.name()
            );
            for (r, b) in alloc.iter() {
                assert!(b >= 1.0, "{}: {r} has {b} buckets", strat.name());
            }
        }
    }
}

/// The numeric optimum never loses to any heuristic (convexity of the
/// posynomial cost in log-space).
#[test]
fn numeric_allocation_dominates_heuristics() {
    let mut rng = SplitMix64::new(0xB4);
    let s = |x: &str| AttrSet::parse(x).unwrap();
    let queries = vec![s("AB"), s("BC"), s("BD"), s("CD")];
    for _ in 0..12 {
        let mask = rng.next_u64() % 16;
        let m = rng.gen_range_f64(4_000.0, 40_000.0);
        let graph = FeedingGraph::new(&queries);
        let phantoms: Vec<AttrSet> = graph
            .phantom_candidates()
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &p)| p)
            .collect();
        let cfg = Configuration::with_phantoms(&queries, &phantoms);
        let stats = DatasetStats::from_group_counts(
            cfg.relations().map(|r| (r, 300 * r.len() * r.len())),
            100_000,
        );
        let model = LinearModel::paper_no_intercept();
        let ctx = CostContext::new(&stats, &model);
        let numeric = msa_optimizer::alloc::allocate_numeric(&cfg, m, &ctx, 150);
        let c_numeric = per_record_cost(&cfg, &numeric, &ctx);
        for strat in AllocStrategy::HEURISTICS {
            let a = strat.allocate(&cfg, m, &ctx);
            let c = per_record_cost(&cfg, &a, &ctx);
            assert!(
                c_numeric <= c * 1.02,
                "{}: numeric {c_numeric} vs heuristic {c}",
                strat.name()
            );
        }
    }
}

/// Collision models stay within [0, 1], increase with g, decrease with
/// b, and the closed form equals the literal sum.
#[test]
fn collision_model_invariants() {
    use msa_collision::models;
    let mut rng = SplitMix64::new(0xD5);
    for _ in 0..300 {
        let g = 1 + rng.next_u64() % 4999;
        let b = 1 + rng.next_u64() % 4999;
        let x = models::precise(g, b);
        assert!((0.0..=1.0).contains(&x));
        assert!(models::precise(g + 100, b) >= x - 1e-12);
        assert!(models::precise(g, b + 100) <= x + 1e-12);
        if b >= 2 {
            let sum = models::precise_sum(g, b);
            assert!((x - sum).abs() < 1e-8, "g={g} b={b}: {x} vs {sum}");
        }
    }
}

/// GroupKey projection/reprojection consistency for arbitrary records
/// and attribute-set pairs.
#[test]
fn reprojection_commutes() {
    let mut rng = SplitMix64::new(0xE6);
    for _ in 0..500 {
        let mut attrs = [0u32; 8];
        for slot in &mut attrs {
            *slot = rng.next_u32();
        }
        let own_bits = 1 + rng.gen_u32_below(255) as u16;
        let sub_bits = rng.gen_u32_below(256) as u16;
        let own = AttrSet::from_bits(own_bits).unwrap();
        let target = AttrSet::from_bits(sub_bits & own_bits).unwrap();
        if target.is_empty() {
            continue;
        }
        let r = Record {
            attrs,
            ts_micros: 0,
        };
        assert_eq!(r.project(own).reproject(own, target), r.project(target));
    }
}

/// Every `GroupKey` constructor — `from_values`, `Record::project`,
/// `RecordChunk::project_range`, the edge projection and snapshot
/// decode — leaves the words past the arity zero, so the fixed-width
/// `==` (arity plus all eight words) agrees with comparing the live
/// values. A key with a nonzero word past its arity would differ from
/// its own `from_values` rebuild, which zeroes them.
#[test]
fn group_keys_zero_their_dead_words_and_compare_by_value() {
    let mut rng = SplitMix64::new(0xE9);
    let mut keys: Vec<GroupKey> = Vec::new();
    for _ in 0..150 {
        // A three-value domain, so equal values at different arities
        // ([0] vs [0, 0]) and equal keys from different paths both occur.
        let mut attrs = [0u32; 8];
        for slot in &mut attrs {
            *slot = rng.gen_u32_below(3);
        }
        let r = Record {
            attrs,
            ts_micros: 0,
        };
        let own = AttrSet::from_bits(1 + rng.gen_u32_below(255) as u16).unwrap();
        let target = AttrSet::from_bits(rng.gen_u32_below(256) as u16 & own.bits()).unwrap();
        let key = r.project(own);
        keys.push(key);
        keys.push(GroupKey::from_values(&attrs[..rng.gen_index(9)]));
        keys.push(KeyProjection::new(own, target).apply(&key));
        RecordChunk::from_records(&[r, r]).project_range(own, 0, 2, &mut keys);
    }
    // Snapshot decode: results of queries of arity 1 to 4.
    let s = |x: &str| AttrSet::parse(x).unwrap();
    let node = |attrs: &str, parent: Option<usize>, is_query: bool| PlanNode {
        attrs: s(attrs),
        parent,
        buckets: 5,
        is_query,
    };
    let plan = PhysicalPlan::new(vec![
        node("ABCD", None, true),
        node("ABC", Some(0), true),
        node("AC", Some(1), true),
        node("D", Some(0), true),
    ])
    .unwrap();
    let mut ex = ExecutorConfig {
        durable: true,
        ..ExecutorConfig::new(plan, CostParams::paper(), 100, 3)
    }
    .build();
    ex.run(&record_batch(&mut rng));
    ex.flush_epoch();
    let snap = ex.snapshot().expect("aligned after a close");
    let decoded = msa_gigascope::Snapshot::decode(&snap.encode()).expect("round trip");
    let before = keys.len();
    for result in &decoded.hfta.results {
        keys.extend(result.aggregates.keys().copied());
    }
    assert!(keys.len() > before + 20, "decode must contribute keys");
    for k in &keys {
        assert_eq!(*k, GroupKey::from_values(k.values()), "dead words of {k:?}");
    }
    for a in &keys {
        for b in keys.iter().step_by(7) {
            assert_eq!(a == b, a.values() == b.values(), "{a:?} vs {b:?}");
        }
    }
}

/// AggState merging is associative and commutative — the invariant that
/// makes partial aggregates combine correctly no matter how evictions
/// interleave along the cascade.
#[test]
fn agg_state_merge_is_order_insensitive() {
    use msa_gigascope::table::AggState;
    let mut rng = SplitMix64::new(0xF7);
    for _ in 0..200 {
        let n = 1 + rng.gen_index(39);
        let values: Vec<u32> = (0..n).map(|_| rng.next_u32()).collect();
        let fold = |order: &[u32]| {
            let mut acc = AggState::from_value(order[0]);
            for &v in &order[1..] {
                acc.merge(&AggState::from_value(v));
            }
            acc
        };
        let forward = fold(&values);
        let mut reversed = values.clone();
        reversed.reverse();
        assert_eq!(forward, fold(&reversed));
        // Tree-shaped combination equals linear combination.
        if values.len() >= 2 {
            let mid = values.len() / 2;
            let mut left = fold(&values[..mid]);
            let right = fold(&values[mid..]);
            left.merge(&right);
            assert_eq!(forward, left);
        }
        assert_eq!(forward.count as usize, values.len());
        assert_eq!(
            forward.sum,
            values.iter().map(|&v| u64::from(v)).sum::<u64>()
        );
        assert_eq!(forward.min, *values.iter().min().unwrap());
        assert_eq!(forward.max, *values.iter().max().unwrap());
    }
}

/// Filters partition the stream: a filtered run plus the
/// complement-filtered run account for every record.
#[test]
fn filter_partitions_records() {
    use msa_core::{CmpOp, Filter};
    let mut rng = SplitMix64::new(0xA8);
    for _ in 0..60 {
        let records = record_batch(&mut rng);
        let threshold = rng.gen_u32_below(7);
        let keep = Filter::all().and(0, CmpOp::Lt, threshold);
        let drop = Filter::all().and(0, CmpOp::Ge, threshold);
        let kept = records.iter().filter(|r| keep.matches(r)).count();
        let dropped = records.iter().filter(|r| drop.matches(r)).count();
        assert_eq!(kept + dropped, records.len());
        // And the executor's filter metering agrees.
        let plan = PhysicalPlan::flat([(AttrSet::parse("A").unwrap(), 16)]);
        let mut ex = ExecutorConfig {
            filter: keep.clone(),
            ..ExecutorConfig::new(plan, CostParams::paper(), u64::MAX, 5)
        }
        .build();
        ex.run(&records);
        assert_eq!(ex.report().filtered_out as usize, dropped);
    }
}

/// Trace encoding round-trips arbitrary records bit-exactly.
#[test]
fn trace_io_roundtrips() {
    use msa_stream::io::{decode_records, encode_records};
    let mut rng = SplitMix64::new(0xB9);
    for _ in 0..60 {
        let records = record_batch(&mut rng);
        let arity = 1 + rng.gen_index(4);
        // Zero out attributes beyond the declared arity (the format only
        // stores `arity` values per record).
        let narrowed: Vec<Record> = records
            .iter()
            .map(|r| {
                let mut attrs = [0u32; 8];
                attrs[..arity].copy_from_slice(&r.attrs[..arity]);
                Record {
                    attrs,
                    ts_micros: r.ts_micros,
                }
            })
            .collect();
        let mut buf = Vec::new();
        encode_records(&narrowed, arity, &mut buf);
        let (decoded, got_arity) = decode_records(&mut &buf[..]).unwrap();
        assert_eq!(got_arity, arity);
        assert_eq!(decoded, narrowed);
    }
}

/// The shard partitioner is a pure function of the root seed and the
/// record's grouping attributes: timestamps never influence placement,
/// equal attribute vectors always co-locate, and every assignment is
/// stable across calls and within range.
#[test]
fn partitioner_is_pure_in_seed_and_key() {
    use msa_core::shard_of;
    let mut rng = SplitMix64::new(0xC4A);
    for _ in 0..80 {
        let records = record_batch(&mut rng);
        let seed = rng.next_u64();
        let shards = 1 + rng.gen_index(8);
        let mut by_attrs: FastMap<[u32; 8], usize> = FastMap::default();
        for r in &records {
            let k = shard_of(seed, r, shards);
            assert!(k < shards, "assignment within range");
            // Stable across calls.
            assert_eq!(k, shard_of(seed, r, shards));
            // Timestamps are ignored.
            let shifted = Record {
                ts_micros: r.ts_micros.wrapping_add(rng.next_u64()),
                ..*r
            };
            assert_eq!(k, shard_of(seed, &shifted, shards));
            // Equal keys co-locate.
            match by_attrs.entry(r.attrs) {
                std::collections::hash_map::Entry::Occupied(e) => assert_eq!(*e.get(), k),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(k);
                }
            }
        }
        // A single shard degenerates to the identity placement.
        for r in &records {
            assert_eq!(shard_of(seed, r, 1), 0);
        }
    }
}

/// Chunked ingestion is pure batching: cutting a stream into chunks at
/// ANY set of boundaries — including cuts that straddle epoch flushes,
/// size-1 chunks and one giant chunk — produces outputs bit-identical
/// to offering every record individually.
#[test]
fn chunking_at_any_boundary_equals_per_record_offers() {
    use msa_core::{GuardPolicy, RecordChunk};
    let mut rng = SplitMix64::new(0xC47);
    let s = |x: &str| AttrSet::parse(x).unwrap();
    let plan = || {
        PhysicalPlan::new(vec![
            PlanNode {
                attrs: s("AB"),
                parent: None,
                buckets: 8,
                is_query: false,
            },
            PlanNode {
                attrs: s("A"),
                parent: Some(0),
                buckets: 4,
                is_query: true,
            },
            PlanNode {
                attrs: s("B"),
                parent: Some(0),
                buckets: 4,
                is_query: true,
            },
        ])
        .unwrap()
    };
    for case in 0..40 {
        let records = record_batch(&mut rng);
        // Short epochs (timestamps are 0..n micros) so flushes land
        // inside chunks; sometimes arm the guard.
        let epoch = 1 + rng.next_u64() % 120;
        let guard_on = rng.next_u64().is_multiple_of(2);
        let build = || {
            ExecutorConfig {
                guard: guard_on.then(|| GuardPolicy::new(50.0)),
                ..ExecutorConfig::new(plan(), CostParams::paper(), epoch, 11)
            }
            .build()
        };
        let mut oracle = build();
        for r in &records {
            oracle.process(r);
        }
        let (want_report, want_hfta) = oracle.finish();
        // Random cut points: each record independently ends a chunk.
        let mut chunked = build();
        let mut chunk = RecordChunk::new();
        for r in &records {
            chunk.push(r);
            if rng.next_u64().is_multiple_of(4) {
                chunked.offer_chunk(&chunk);
                chunk.clear();
            }
        }
        chunked.offer_chunk(&chunk);
        let (got_report, got_hfta) = chunked.finish();
        assert_eq!(got_report, want_report, "case {case}: report");
        assert_eq!(got_hfta.results(), want_hfta.results(), "case {case}");
        // Size-1 chunks agree too.
        let mut unit = build();
        for r in &records {
            unit.offer_chunk(&RecordChunk::from_records(std::slice::from_ref(r)));
        }
        let (unit_report, unit_hfta) = unit.finish();
        assert_eq!(unit_report, want_report, "case {case}: size-1 chunks");
        assert_eq!(unit_hfta.results(), want_hfta.results(), "case {case}");
    }
}

/// RecordChunk is a lossless columnar container: record round-trips,
/// split/append reconstruction at any midpoint, and the columnar
/// projection equals per-record projection for every lane and subset.
#[test]
fn record_chunk_split_concat_and_projection_roundtrip() {
    use msa_core::RecordChunk;
    let mut rng = SplitMix64::new(0xB3C);
    for _ in 0..80 {
        let records = record_batch(&mut rng);
        let chunk = RecordChunk::from_records(&records);
        assert_eq!(chunk.to_records(), records);
        // Split at a random midpoint, then append back: identity.
        let mid = rng.gen_index(chunk.len() + 1);
        let mut left = chunk.clone();
        let right = left.split_off(mid);
        assert_eq!(left.len(), mid);
        assert_eq!(right.len(), records.len() - mid);
        let mut rejoined = left;
        let mut tail = right;
        rejoined.append(&mut tail);
        assert!(tail.is_empty());
        assert_eq!(rejoined.to_records(), records);
        // Columnar projection over a random sub-range matches the
        // scalar per-record projection for a random attribute subset.
        let q = AttrSet::from_bits(1 + rng.gen_u32_below(15) as u16).unwrap();
        let from = rng.gen_index(records.len());
        let to = from + rng.gen_index(records.len() - from + 1);
        let mut keys = Vec::new();
        chunk.project_range(q, from, to, &mut keys);
        let want: Vec<GroupKey> = records[from..to].iter().map(|r| r.project(q)).collect();
        assert_eq!(keys, want, "subset {q} over {from}..{to}");
    }
}

/// Permuting the arrival order of a stream never changes the final
/// per-group counts of a sharded run — aggregation is
/// order-insensitive, so within one epoch any interleaving of the same
/// multiset of records yields the same totals (and they equal a naive
/// recount).
#[test]
fn shard_totals_are_arrival_order_invariant() {
    use msa_core::ShardedExecutor;
    let mut rng = SplitMix64::new(0xD5B);
    for _ in 0..20 {
        let queries = query_set(&mut rng);
        let mut records = record_batch(&mut rng);
        let shards = 1 + rng.gen_index(8);
        let seed = rng.next_u64();
        let plan = PhysicalPlan::flat(queries.iter().map(|&q| (q, 8)));
        let run = |records: &[Record]| {
            let mut sx = ShardedExecutor::new(
                ExecutorConfig::new(plan.clone(), CostParams::paper(), u64::MAX, seed),
                shards,
            )
            .unwrap();
            sx.run(records);
            sx.finish()
        };
        let (_, baseline) = run(&records);
        // Fisher–Yates shuffle driven by the deterministic generator.
        for i in (1..records.len()).rev() {
            records.swap(i, rng.gen_index(i + 1));
        }
        let (_, shuffled) = run(&records);
        for &q in &queries {
            let want = exact(&records, q);
            assert_eq!(baseline.totals(q), want, "query {q} vs naive recount");
            assert_eq!(shuffled.totals(q), want, "query {q} after permutation");
        }
    }
}

/// `DatasetStats::compute_for` as it was before the prefix index: one
/// pass over the records per set, each with its own distinct-key set
/// and run counter. Returns `(set, groups, flow length)` per set.
fn reference_stats(records: &[Record], sets: &[AttrSet]) -> Vec<(AttrSet, usize, f64)> {
    sets.iter()
        .map(|&set| {
            let mut distinct = msa_stream::hash::fast_set_with_capacity(1024);
            let mut runs = 0usize;
            let mut prev = None;
            for r in records {
                let key = r.project(set);
                if prev != Some(key) {
                    runs += 1;
                    prev = Some(key);
                }
                distinct.insert(key);
            }
            let fl = if runs == 0 {
                1.0
            } else {
                records.len() as f64 / runs as f64
            };
            (set, distinct.len(), fl)
        })
        .collect()
}

/// `temporal_flow_lengths` as it was before the prefix index: every
/// table built up front, and each record probed into every table in
/// turn.
fn reference_flow_lengths(
    records: &[Record],
    sets: &[AttrSet],
    buckets_per_table: usize,
    seed: u64,
) -> Vec<(AttrSet, f64)> {
    use msa_gigascope::table::{AggState, LftaTable};
    let mut tables: Vec<LftaTable> = sets
        .iter()
        .map(|&s| LftaTable::new(s, buckets_per_table.max(1), seed ^ (s.bits() as u64) << 32))
        .collect();
    for r in records {
        for t in &mut tables {
            let key = r.project(t.attrs());
            t.probe(key, AggState::unit());
        }
    }
    tables
        .into_iter()
        .map(|t| (t.attrs(), t.stats().avg_run_length().max(1.0)))
        .collect()
}

/// Asserts `stats` holds the per-set reference's group counts exactly
/// and its run flow lengths bit for bit.
fn assert_stats_match(records: &[Record], sets: &[AttrSet], stats: &DatasetStats, cell: &str) {
    for (set, groups, fl) in reference_stats(records, sets) {
        assert_eq!(stats.groups(set), groups, "{cell}: groups of {set}");
        assert_eq!(
            stats.flow_length(set).to_bits(),
            fl.to_bits(),
            "{cell}: run flow length of {set}"
        );
    }
}

/// Asserts `temporal_flow_lengths` equals the record-major reference
/// bit for bit, set by set and in order.
fn assert_flow_lengths_match(
    records: &[Record],
    sets: &[AttrSet],
    buckets: usize,
    seed: u64,
    cell: &str,
) {
    let bits = |v: Vec<(AttrSet, f64)>| -> Vec<(AttrSet, u64)> {
        v.into_iter().map(|(s, l)| (s, l.to_bits())).collect()
    };
    assert_eq!(
        bits(msa_gigascope::table::temporal_flow_lengths(
            records, sets, buckets, seed
        )),
        bits(reference_flow_lengths(records, sets, buckets, seed)),
        "{cell}: temporal flow lengths, {buckets} buckets"
    );
}

/// The five dataset shapes of the prefix-index battery, 5,000 records
/// or more each: three with eight live attributes, and the packet
/// trace, clustered and de-clustered, with four.
fn statistics_datasets() -> [(&'static str, Vec<Record>); 5] {
    use msa_stream::{
        ClusteredStreamBuilder, PacketTraceBuilder, TraceProfile, UniformStreamBuilder,
        ZipfStreamBuilder,
    };
    // The de-clustered trace has one record per flow, so it needs a
    // larger profile than the trace to reach the same length.
    let trace = |fraction| PacketTraceBuilder::new(TraceProfile::paper_scaled(fraction)).seed(11);
    let datasets = [
        (
            "uniform",
            UniformStreamBuilder::new(8, 300)
                .records(5_000)
                .seed(1)
                .build()
                .records,
        ),
        (
            "clustered",
            ClusteredStreamBuilder::new(8, 200)
                .records(5_000)
                .seed(2)
                .build()
                .records,
        ),
        (
            "zipf",
            ZipfStreamBuilder::new(8, 500, 1.2)
                .records(5_000)
                .seed(3)
                .build()
                .records,
        ),
        ("trace", trace(0.006).build().records),
        ("declustered", trace(0.4).build_declustered().records),
    ];
    for (name, records) in &datasets {
        assert!(records.len() >= 5_000, "{name}: {} records", records.len());
    }
    datasets
}

/// Runs the prefix-index battery over every dataset shape and prefix
/// length for each universe: `DatasetStats::compute` against the
/// per-set loops, and `temporal_flow_lengths` against the record-major
/// tables at 1, 63, 64 and 2,048 buckets.
fn assert_prefix_index_matrix(universes: &[AttrSet]) {
    for (name, records) in &statistics_datasets() {
        for len in [0usize, 1, 2, 3, 5_000] {
            let prefix = &records[..len];
            for &universe in universes {
                let sets: Vec<AttrSet> = msa_stream::attr::subsets_of(universe).collect();
                let cell = format!("{name}, {len} records, universe {universe}");
                let stats = DatasetStats::compute(prefix, universe);
                assert_eq!(stats.records(), len);
                assert_eq!(stats.known_sets().count(), sets.len());
                assert_stats_match(prefix, &sets, &stats, &cell);
                for buckets in [1usize, 63, 64, 2048] {
                    let seed = 0xF10 ^ (len as u64) << 8 ^ u64::from(universe.bits());
                    assert_flow_lengths_match(prefix, &sets, buckets, seed, &cell);
                }
            }
        }
    }
}

/// The one-pass prefix index reproduces the per-set statistics loops
/// and the record-major flow-length tables exactly, so plans built on
/// them cannot move. This half covers the universes A, AC, BD and ABCD,
/// and `compute_for` on arbitrary set lists.
#[test]
fn prefix_index_statistics_equal_the_per_set_passes() {
    let universes = ["A", "AC", "BD", "ABCD"].map(|u| AttrSet::parse(u).unwrap());
    assert_prefix_index_matrix(&universes);

    // Arbitrary set lists: any attributes, duplicates and the empty set
    // included, so the index's universe is whatever the list spans.
    let datasets = statistics_datasets();
    let mut rng = SplitMix64::new(0x57A7);
    for case in 0..40 {
        let (name, records) = &datasets[case % datasets.len()];
        let len = [0usize, 1, 2, 3, 17, 5_000][rng.gen_index(6)];
        let prefix = &records[..len];
        let sets: Vec<AttrSet> = (0..1 + rng.gen_index(12))
            .map(|_| AttrSet::from_bits(rng.gen_u32_below(256) as u16).unwrap())
            .collect();
        let cell = format!("{name}, {len} records, sets {sets:?}");
        let stats = DatasetStats::compute_for(prefix, &sets);
        assert_stats_match(prefix, &sets, &stats, &cell);
        let buckets = 1 + rng.gen_index(300);
        assert_flow_lengths_match(prefix, &sets, buckets, rng.next_u64(), &cell);
    }
}

/// The same battery over the universe of all eight attributes, 255
/// sets per cell: its own test, so it runs beside the other half.
#[test]
fn prefix_index_statistics_equal_the_per_set_passes_over_eight_attributes() {
    assert_prefix_index_matrix(&[AttrSet::parse("ABCDEFGH").unwrap()]);
}
