//! Per-layer metrics of the traced passes: self times from the spans,
//! counts from the run report, table statistics and the store ledger,
//! the cost-model fit, and the reconciliation of layer self times with
//! the traced wall time.

use crate::backend::{Ledger, OPS};
use crate::spans::{self, Span};
use crate::workloads::{PlanInfo, PlanSource, Workload};
use crate::{fastest, stat, Metrics, Pass, KEEP};

/// Per-epoch `(seconds, probes, evictions)` samples for the cost fit:
/// for each explicit close, the executor self time of the epoch's
/// `offer_chunk` calls with its intra-epoch counts, and the close's own
/// self time with its flush counts.
fn fit_samples(spans: &[Span], traced: &[(u32, &Pass)]) -> Vec<(f64, f64, f64)> {
    let selfs = spans::self_times(spans);
    let mut out = Vec::new();
    for &(run, pass) in traced {
        let mut counts = pass.epoch_counts.iter();
        let mut offer_ns = 0u64;
        for (s, &own) in spans.iter().zip(&selfs).filter(|(s, _)| s.run == run) {
            match s.name {
                "executor.offer_chunk" => offer_ns += own,
                "executor.flush_epoch" => {
                    if let Some(c) = counts.next() {
                        let (ip, ie) = (c.intra_probes as f64, c.intra_evictions as f64);
                        let (fp, fe) = (c.flush_probes as f64, c.flush_evictions as f64);
                        out.push((offer_ns as f64 * 1e-9, ip, ie));
                        out.push((own as f64 * 1e-9, fp, fe));
                    }
                    offer_ns = 0;
                }
                _ => {}
            }
        }
    }
    out
}

/// The per-layer metrics of the `traced` passes (with their run ids),
/// plus one line per LFTA table with its observed and predicted
/// collision rate.
pub fn metrics(
    w: &Workload,
    traced: &[(u32, &Pass)],
    untraced_kept: &[&Pass],
    all: &[&Pass],
    spans: &[Span],
) -> (Metrics, Vec<String>) {
    let mut m = Metrics::default();
    let tot = spans::totals(spans);
    let get = |name: &str| tot.get(name).copied().unwrap_or_default();
    let passes: Vec<&Pass> = traced.iter().map(|&(_, p)| p).collect();
    let tp = passes[0];
    let np = passes.len() as f64;
    let records = tp.out.report.records.max(1) as f64;
    let per_rec = |ns: u64| ns as f64 / (records * np);
    let ms_per = |ns: u64, per: f64| ns as f64 * 1e-6 / per.max(1.0);

    // stream + optimizer: set-up layers.
    m.add("stream.chunk_ns_per_rec", per_rec(get("stream.chunk").self_ns), "ns");
    m.add("stream.stats_ms", ms_per(get("stream.stats").total_ns, np), "ms");
    m.add("optimizer.plan_ms", ms_per(get("optimizer.plan").total_ns, np), "ms");
    let fixed_info = match &w.plan {
        PlanSource::Fixed(plan) => {
            let first_epoch = w.records.partition_point(|r| r.ts_micros < w.epoch_micros);
            let sample = &w.records[..first_epoch];
            Some(PlanInfo::for_fixed(plan, &w.queries, sample))
        }
        PlanSource::Gcsl(_) => None,
    };
    let info = tp.info.as_ref().or(fixed_info.as_ref());
    let predicted = info.map_or(0.0, PlanInfo::predicted_cost);
    let rates = info.map(PlanInfo::predicted_rates).unwrap_or_default();
    m.add("optimizer.phantoms", info.map_or(0, |i| i.phantoms) as f64, "count");
    m.add("optimizer.predicted_cost_per_rec", predicted, "units");
    let measured = tp.out.report.per_record_cost();
    m.add("optimizer.model_error", measured / predicted - 1.0, "ratio");

    // LFTA tables: observed against predicted collision rates.
    let mut table_lines = Vec::new();
    let (mut probes, mut collisions, mut expected) = (0u64, 0u64, 0.0);
    for (attrs, ts) in &tp.tables {
        let pred = rates.get(attrs).copied().unwrap_or(0.0);
        probes += ts.probes;
        collisions += ts.collisions;
        expected += pred * ts.probes as f64;
        table_lines.push(format!(
            "table {attrs} probes {} collision_rate {} collision_rate_predicted {pred}",
            ts.probes,
            ts.collision_rate()
        ));
    }
    let probes = probes.max(1) as f64;
    m.add("table.collision_rate", collisions as f64 / probes, "ratio");
    m.add("table.collision_rate_predicted", expected / probes, "ratio");

    // The cost model's c1 and c2 in nanoseconds.
    let (c1, c2) = stat::fit_costs(&fit_samples(spans, traced));
    m.add("model.c1_ns", c1 * 1e9, "ns");
    m.add("model.c2_ns", c2 * 1e9, "ns");
    m.add("model.c2_over_c1", if c1 > 0.0 { c2 / c1 } else { 0.0 }, "ratio");

    // Executor and HFTA.
    let r = &tp.out.report;
    let epochs = r.epochs.max(1) as f64;
    let closes = get("executor.flush_epoch").count as f64;
    m.add("executor.build_ms", ms_per(get("executor.build").total_ns, np), "ms");
    m.add("executor.ingest_ns_per_rec", per_rec(get("executor.offer_chunk").self_ns), "ns");
    m.add("executor.probes_per_rec", r.intra_probes as f64 / records, "count");
    m.add("executor.intra_evictions_per_rec", r.intra_evictions as f64 / records, "count");
    m.add("hfta.received_per_rec", tp.out.hfta_received as f64 / records, "count");
    m.add("hfta.groups_per_epoch", tp.out.result_groups as f64 / epochs, "count");
    let flush_ms = ms_per(get("executor.flush_epoch").self_ns, closes);
    m.add("executor.flush_ms_per_epoch", flush_ms, "ms");
    m.add("executor.flush_evictions_per_epoch", r.flush_evictions as f64 / epochs, "count");
    m.add("executor.finish_ms", ms_per(get("executor.finish").self_ns, np), "ms");

    // Store: per backend op per pass; commits (snapshot and manifest
    // writes plus GC) apart from the WAL (append + sync).
    let mut ledger = Ledger::default();
    for p in &passes {
        ledger.absorb(&p.store_run);
    }
    let open = get("store.open");
    m.add("store.open_ms", ms_per(open.total_ns, open.count as f64), "ms");
    for op in OPS {
        let s = ledger.op(op);
        m.add(format!("store.{op}.count"), s.count as f64 / np, "count");
        m.add(format!("store.{op}.ms"), s.ns as f64 * 1e-6 / np, "ms");
        if ["write_atomic", "append", "read"].contains(&op) {
            m.add(format!("store.{op}.bytes"), s.bytes as f64 / np, "bytes");
        }
    }
    let run = &tp.store_run;
    let commits = run.snapshot_bytes.len() as f64;
    let commit_ns: u64 = ["write_atomic", "list", "remove"].iter().map(|op| run.op(op).ns).sum();
    let wal = run.op("append");
    let wal_ns = wal.ns + run.op("sync").ns;
    m.add("store.commits", commits, "count");
    m.add("store.commit_ms_per_commit", ms_per(commit_ns, commits), "ms");
    m.add("store.wal_us_per_append", wal_ns as f64 * 1e-3 / wal.count.max(1) as f64, "us");
    let first = run.snapshot_bytes.first().copied().unwrap_or(0);
    let last = run.snapshot_bytes.last().copied().unwrap_or(0);
    m.add("store.snapshot_bytes_first", first as f64, "bytes");
    m.add("store.snapshot_bytes_last", last as f64, "bytes");
    let wall_ns: f64 = passes.iter().map(|p| p.wall_s * 1e9).sum();
    m.add("store.wait_frac", ledger.total_ns() as f64 / wall_ns, "ratio");
    let recover: Vec<f64> = all.iter().map(|p| p.recover_s * 1e3).collect();
    let replay: Vec<f64> = all.iter().map(|p| p.replay_s * 1e3).collect();
    m.add("store.recover_ms", stat::median(&recover), "ms");
    m.add("store.replay_ms", stat::median(&replay), "ms");
    let recover_read = tp.store_recover.op("read").bytes;
    m.add("store.recover_read_bytes", recover_read as f64, "bytes");

    // Tracing itself: cost against the untraced passes (both from their
    // fastest passes, as the end-to-end timings), and the wall time no
    // layer span covers.
    let ingest = |ps: &[&Pass]| stat::median(&ps.iter().map(|p| p.ingest_s).collect::<Vec<_>>());
    let overhead = ingest(&fastest(&passes, KEEP)) / ingest(untraced_kept) - 1.0;
    m.add("trace.overhead_frac", overhead, "ratio");
    let pass_ns = get("pass").total_ns;
    let children_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| spans[p as usize].name == "pass"))
        .map(Span::dur_ns)
        .sum();
    let unattributed = pass_ns.saturating_sub(children_ns) as f64 / pass_ns.max(1) as f64;
    m.add("trace.unattributed_frac", unattributed, "ratio");
    (m, table_lines)
}
