//! Cross-crate integration tests: trace generation → statistics →
//! planning → physical plan → execution → exact results, plus
//! model-vs-measurement agreement.

use msa_core::{
    AttrSet, Configuration, CostParams, EngineOptions, ExecutorConfig, LinearModel,
    MultiAggregator, Plan, Record,
};
use msa_optimizer::cost::{per_record_cost, CostContext};
use msa_optimizer::{greedy_collision, AllocStrategy, FeedingGraph};
use msa_stream::hash::FastMap;
use msa_stream::{
    ClusteredStreamBuilder, DatasetStats, GroupKey, PacketTraceBuilder, TraceProfile,
    UniformStreamBuilder,
};

fn s(x: &str) -> AttrSet {
    AttrSet::parse(x).unwrap()
}

fn exact(records: &[Record], q: AttrSet) -> FastMap<GroupKey, u64> {
    let mut m = FastMap::default();
    for r in records {
        *m.entry(r.project(q)).or_insert(0) += 1;
    }
    m
}

fn small_trace() -> msa_stream::gen::GeneratedStream {
    PacketTraceBuilder::new(TraceProfile::paper_scaled(0.02))
        .seed(77)
        .build()
}

#[test]
fn full_pipeline_on_packet_trace_is_exact() {
    let trace = small_trace();
    let queries = vec![s("AB"), s("BC"), s("BD"), s("CD")];
    let mut engine = MultiAggregator::new(queries.clone(), EngineOptions::new(3_000.0));
    for r in &trace.records {
        engine.push(*r);
    }
    let out = engine.finish();
    assert_eq!(out.report.records as usize, trace.len());
    for q in queries {
        assert_eq!(out.totals(q), exact(&trace.records, q), "query {q}");
    }
    // The engine must actually have chosen phantoms on clustered data
    // with a reasonable budget.
    let plan = out.final_plan.expect("planned");
    assert!(
        plan.configuration.phantoms().count() >= 1,
        "expected phantoms in {}",
        plan.configuration
    );
}

#[test]
fn phantoms_beat_no_phantoms_on_clustered_data_measured() {
    // The paper's headline claim (Figs. 13b/14b), verified end-to-end
    // with measured costs.
    let trace = small_trace();
    let stats = DatasetStats::compute(&trace.records, s("ABCD"));
    let model = LinearModel::paper_no_intercept();
    let ctx = CostContext::new(&stats, &model);
    let queries = vec![s("AB"), s("BC"), s("BD"), s("CD")];
    let graph = FeedingGraph::new(&queries);
    let m = 2_000.0;

    let gcsl = greedy_collision(&graph, m, &ctx, AllocStrategy::SupernodeLinear);
    let chosen = gcsl.final_step();

    let flat = Configuration::from_queries(&queries);
    let flat_alloc = AllocStrategy::SupernodeLinear.allocate(&flat, m, &ctx);

    let run = |cfg: &Configuration, alloc: &msa_optimizer::Allocation| -> f64 {
        let plan = Plan {
            configuration: cfg.clone(),
            allocation: alloc.clone(),
            predicted_cost: 0.0,
            predicted_update_cost: 0.0,
        };
        let mut ex = ExecutorConfig::new(plan.to_physical(), CostParams::paper(), u64::MAX, 9)
            .build()
            .discard_results();
        ex.run(&trace.records);
        ex.report().per_record_cost()
    };
    let with = run(&chosen.configuration, &chosen.allocation);
    let without = run(&flat, &flat_alloc);
    assert!(
        with < without * 0.7,
        "phantom cost {with} should be well below flat cost {without}"
    );
}

#[test]
fn predicted_cost_tracks_measured_cost() {
    // Model validation (§6.3.2): on uniform data the Eq. 7 prediction
    // should be within a small factor of the measured per-record cost.
    let stream = UniformStreamBuilder::new(4, 800)
        .records(80_000)
        .seed(5)
        .build();
    let stats = DatasetStats::compute(&stream.records, s("ABCD"));
    let model = LinearModel::paper_no_intercept();
    let mut ctx = CostContext::new(&stats, &model);
    ctx.clustering = msa_core::ClusterHandling::None;
    let queries = vec![s("AB"), s("CD")];
    let graph = FeedingGraph::new(&queries);

    for m in [2_000.0, 8_000.0] {
        let trace = greedy_collision(&graph, m, &ctx, AllocStrategy::SupernodeLinear);
        let step = trace.final_step();
        let predicted = per_record_cost(&step.configuration, &step.allocation, &ctx);
        let plan = Plan {
            configuration: step.configuration.clone(),
            allocation: step.allocation.clone(),
            predicted_cost: predicted,
            predicted_update_cost: 0.0,
        };
        let mut ex = ExecutorConfig::new(plan.to_physical(), CostParams::paper(), u64::MAX, 3)
            .build()
            .discard_results();
        ex.run(&stream.records);
        let measured = ex.report().per_record_cost();
        let ratio = predicted / measured;
        assert!(
            (0.4..2.5).contains(&ratio),
            "M={m}: predicted {predicted} vs measured {measured} (ratio {ratio})"
        );
    }
}

#[test]
fn physical_plan_respects_memory_budget() {
    let trace = small_trace();
    let stats = DatasetStats::compute(&trace.records, s("ABCD"));
    let queries = vec![s("AB"), s("BC"), s("BD"), s("CD")];
    for m in [1_000.0, 2_000.0, 4_000.0] {
        let plan = msa_optimizer::planner::plan_gcsl(&queries, &stats, m);
        let words = plan.to_physical().space_words() as f64;
        assert!(
            words <= m * 1.05 + 64.0,
            "M={m}: physical plan uses {words} words"
        );
    }
}

#[test]
fn epoch_results_match_per_epoch_ground_truth() {
    // Build a 3-epoch stream and verify per-epoch (not just total)
    // counts against a naive computation.
    let mut records = Vec::new();
    for epoch in 0..3u64 {
        for i in 0..5_000u32 {
            records.push(Record::new(
                &[i % 37, i % 11, 0, 0],
                epoch * 1_000_000 + (i as u64) * 150,
            ));
        }
    }
    let mut opts = EngineOptions::new(1_500.0);
    opts.epoch_micros = 1_000_000;
    opts.bootstrap_records = 1_000;
    let q = s("AB");
    let mut engine = MultiAggregator::new(vec![q], opts);
    for r in &records {
        engine.push(*r);
    }
    let out = engine.finish();
    for epoch in 0..3u64 {
        let slice: Vec<Record> = records
            .iter()
            .copied()
            .filter(|r| r.ts_micros / 1_000_000 == epoch)
            .collect();
        let want = exact(&slice, q);
        let mut got: FastMap<GroupKey, u64> = FastMap::default();
        for res in out.results.iter().filter(|r| r.epoch == epoch) {
            for (k, v) in res.counts() {
                *got.entry(k).or_insert(0) += v;
            }
        }
        assert_eq!(got, want, "epoch {epoch}");
    }
}

#[test]
fn executor_flush_cost_tracks_eq8_prediction() {
    // End-of-epoch model vs measured flush cost, single epoch, flat
    // configuration (where Eq. 8 is exact up to occupancy).
    let stream = UniformStreamBuilder::new(2, 400)
        .records(50_000)
        .seed(8)
        .build();
    let stats = DatasetStats::compute(&stream.records, s("AB"));
    let model = LinearModel::paper_no_intercept();
    let mut ctx = CostContext::new(&stats, &model);
    ctx.clustering = msa_core::ClusterHandling::None;
    let cfg = Configuration::from_queries(&[s("A"), s("B")]);
    let alloc = AllocStrategy::SupernodeLinear.allocate(&cfg, 4_000.0, &ctx);
    let predicted = msa_optimizer::cost::end_of_epoch_cost(&cfg, &alloc, &ctx);

    let plan = Plan {
        configuration: cfg,
        allocation: alloc,
        predicted_cost: 0.0,
        predicted_update_cost: predicted,
    };
    let mut ex = ExecutorConfig::new(plan.to_physical(), CostParams::paper(), u64::MAX, 4).build();
    ex.run(&stream.records);
    let (report, _) = ex.finish();
    let measured = report.flush_cost();
    // Eq. 8 assumes full tables (M_R entries); with 400 groups per
    // attribute every bucket of the small tables is occupied, so the
    // prediction should be close.
    let ratio = predicted / measured;
    assert!(
        (0.5..2.0).contains(&ratio),
        "predicted {predicted} vs measured {measured}"
    );
}

#[test]
fn clustered_data_lowers_measured_collision_rates() {
    // Eq. 15's physical basis: same groups, same table, but flows make
    // collisions rarer per record.
    let clustered = ClusteredStreamBuilder::new(2, 500)
        .records(60_000)
        .flow_lengths(msa_stream::FlowLengthDistribution::Constant { len: 20 })
        .active_flows(8)
        .seed(3)
        .build();
    let uniform = UniformStreamBuilder::new(2, 500)
        .records(60_000)
        .seed(3)
        .build();
    let ab = s("AB");
    let measure = |records: &[Record]| -> f64 {
        msa_gigascope::table::measure_collision_rate(
            records.iter().map(|r| r.project(ab)),
            ab,
            250,
            17,
        )
    };
    let x_clustered = measure(&clustered.records);
    let x_uniform = measure(&uniform.records);
    assert!(
        x_clustered < x_uniform / 2.0,
        "clustered {x_clustered} vs uniform {x_uniform}"
    );
}

#[test]
fn sql_frontend_end_to_end() {
    // Parse the paper's query style, run the engine, verify exactness
    // and the shared WHERE filter.
    let schema = msa_stream::Schema::packet_headers();
    let trace = small_trace();
    let sql = [
        "select srcIP, srcPort, count(*) from packets \
         where dstPort >= 2 group by srcIP, srcPort, time/60",
        "select dstIP, dstPort, count(*) from packets \
         where dstPort >= 2 group by dstIP, dstPort, time/60",
    ];
    let mut opts = msa_core::EngineOptions::new(3_000.0);
    opts.bootstrap_records = 2_000;
    let mut engine = MultiAggregator::from_sql(&sql, &schema, opts).unwrap();
    for r in &trace.records {
        engine.push(*r);
    }
    let out = engine.finish();

    let filtered: Vec<Record> = trace
        .records
        .iter()
        .copied()
        .filter(|r| r.attrs[3] >= 2)
        .collect();
    assert!(out.report.filtered_out > 0, "filter must reject something");
    assert_eq!(
        out.report.records - out.report.filtered_out,
        filtered.len() as u64
    );
    for q in [s("AB"), s("CD")] {
        assert_eq!(out.totals(q), exact(&filtered, q), "query {q}");
    }
}
