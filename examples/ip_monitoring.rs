//! IP traffic monitoring — the paper's motivating scenario.
//!
//! Four exploratory aggregations over packet headers, differing only in
//! their grouping attributes:
//!
//! ```sql
//! select srcIP, srcPort,  count(*) from packets group by srcIP, srcPort
//! select srcPort, dstIP,  count(*) from packets group by srcPort, dstIP
//! select srcPort, dstPort,count(*) from packets group by srcPort, dstPort
//! select dstIP, dstPort,  count(*) from packets group by dstIP, dstPort
//! ```
//!
//! The example synthesizes a clustered packet trace (calibrated to the
//! paper's tcpdump statistics), plans with and without phantoms, runs
//! both through the two-level executor and reports the measured cost
//! ratio plus heavy hitters.
//!
//! Run with: `cargo run --release --example ip_monitoring`

use msa_core::LinearModel;
use msa_core::{
    Algorithm, AllocStrategy, AttrSet, CostParams, EngineOptions, ExecutorConfig, MsaError,
    MultiAggregator, Schema,
};
use msa_optimizer::cost::CostContext;
use msa_stream::{DatasetStats, PacketTraceBuilder, TraceProfile};

fn main() -> Result<(), MsaError> {
    let schema = Schema::packet_headers();
    // 5% of the paper-scale trace keeps the example snappy (~43k packets).
    let trace = PacketTraceBuilder::new(TraceProfile::paper_scaled(0.05))
        .seed(11)
        .build();
    println!(
        "packet trace: {} packets over {:.0} s",
        trace.len(),
        trace
            .records
            .last()
            .map_or(0.0, |r| r.ts_micros as f64 / 1e6)
    );

    let queries = ["AB", "BC", "BD", "CD"]
        .iter()
        .map(|q| AttrSet::parse_checked(q))
        .collect::<Result<Vec<AttrSet>, _>>()?;
    for q in &queries {
        println!("  query: group by {}", schema.describe(*q));
    }

    // Plan and execute with phantoms (GCSL) ...
    let m_words = 4_000.0;
    let mut opts = EngineOptions::new(m_words);
    opts.bootstrap_records = trace.len() / 10;
    let mut engine = MultiAggregator::new(queries.clone(), opts);
    for r in &trace.records {
        engine.push(*r);
    }
    let output = engine.finish();
    let plan = output
        .final_plan
        .as_ref()
        .ok_or(MsaError::State("engine produced no final plan"))?;
    println!("\nconfiguration with phantoms: {}", plan.configuration);
    let with_phantoms = output.report.per_record_cost();

    // ... and the naive no-phantom baseline on identical statistics.
    let stats = DatasetStats::compute(&trace.records, AttrSet::parse_checked("ABCD")?);
    let model = LinearModel::paper_no_intercept();
    let ctx = CostContext::new(&stats, &model);
    let flat_cfg = msa_core::Configuration::from_queries(&queries);
    let flat_alloc = AllocStrategy::SupernodeLinear.allocate(&flat_cfg, m_words, &ctx);
    let flat_plan = msa_core::Plan {
        configuration: flat_cfg,
        allocation: flat_alloc,
        predicted_cost: 0.0,
        predicted_update_cost: 0.0,
    };
    let mut flat_ex =
        ExecutorConfig::new(flat_plan.to_physical(), CostParams::paper(), u64::MAX, 5)
            .build()
            .discard_results();
    flat_ex.run(&trace.records);
    let without_phantoms = flat_ex.report().per_record_cost();

    println!("\nmeasured per-record cost (c1 units):");
    println!("  with phantoms:    {with_phantoms:.2}");
    println!("  without phantoms: {without_phantoms:.2}");
    println!(
        "  improvement:      {:.1}x",
        without_phantoms / with_phantoms
    );
    let _ = Algorithm::default(); // (GCSL — shown for discoverability)

    // Heavy hitters: the paper's example query — "report every source
    // that sent more than 100 packets".
    let src_pairs = output.totals(queries[0]);
    let mut heavy: Vec<_> = src_pairs.iter().filter(|(_, &c)| c > 100).collect();
    heavy.sort_by_key(|(_, &c)| std::cmp::Reverse(c));
    println!(
        "\n{} (srcIP, srcPort) pairs exceeded 100 packets; top 5:",
        heavy.len()
    );
    for (key, count) in heavy.iter().take(5) {
        println!("  {key} -> {count} packets");
    }
    Ok(())
}
