//! `perfbench`: the end-to-end benchmark of the LFTA → HFTA pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload trace --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One closed loop with one caller: each pass runs stats bootstrap →
//! plan → executor build (→ store open) on the caller's thread, then
//! feeds the pregenerated input chunk by chunk, closes every epoch
//! explicitly when the next chunk's timestamp crosses a boundary, and
//! ends with `finish`. The executor has no internal queue, so the rate
//! at which it drains the input is its highest sustainable rate, and an
//! epoch close is the stall a line-rate source would have to buffer
//! through. The `durable` workload attaches a disk store, is killed with
//! its last epoch open, and ends with a cold-start recovery and a replay
//! of the tail.
//!
//! Passes repeat until `--seconds` have elapsed. Every pass is checked
//! against an oracle computed from the input, against the first pass
//! (bit for bit) and against a plain run that lets the executor close
//! epochs itself. A short self-test first arms eviction loss and must
//! see the oracle fail. Any mismatch makes the run exit non-zero.
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! with the end-to-end metrics; with `--trace 1` half the time runs
//! untraced and half with span recording, and the JSON holds the
//! per-layer metrics. Every metric is also printed as `name value unit`
//! above it, with the host facts and per-table collision rates; a traced
//! run writes its spans to `.perfbench-out/<workload>-spans.tsv`.

mod backend;
mod layers;
mod oracle;
mod spans;
mod stat;
mod workloads;

use backend::{Ledger, SharedLedger};
use msa_gigascope::hfta::EpochResult;
use msa_gigascope::table::TableStats;
use msa_gigascope::{
    CostParams, Executor, ExecutorConfig, FaultPlan, Hfta, PhysicalPlan, RunReport,
};
use msa_stream::{AttrSet, RecordChunk, PROCESSING_WINDOW_SIZE};
use oracle::Oracle;
use spans::{span, Span};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{PlanInfo, Workload};

const OUT_DIR: &str = ".perfbench-out";
/// Every phase runs at least this many passes, so bit-identity is
/// always checked.
const MIN_PASSES: usize = 2;
/// `setup_s` is the median of at least this many set-ups.
const MIN_SETUPS: usize = 5;
const SELFTEST_RECORDS: usize = 20_000;
const SELFTEST_LOSS: f64 = 0.05;
/// Share of the untraced passes the end-to-end timings come from: the
/// fastest ones by ingest time, and at least [`MIN_KEPT`] of them. Other
/// tenants of a shared host slow stretches of seconds to minutes by a
/// third or more; the fastest tenth measures the program rather than its
/// neighbours. Over 30 s windows of one 200 s run on a 2-vCPU VM, it
/// gave about two thirds of the window-to-window spread of the fastest
/// quarter, and half that of all passes.
const KEEP: f64 = 0.10;
/// Workloads with few, long passes keep at least this many.
const MIN_KEPT: usize = 3;
/// Layer self times must cover the traced wall time to within this.
const MAX_UNATTRIBUTED: f64 = 0.10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|_| format!("bad --seed {val}"))?,
            "--seconds" => {
                seconds = val
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {val}"))?
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Report counters that the per-epoch deltas are taken of.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    intra_probes: u64,
    intra_evictions: u64,
    flush_probes: u64,
    flush_evictions: u64,
}

impl Counters {
    fn of(r: &RunReport) -> Counters {
        Counters {
            intra_probes: r.intra_probes,
            intra_evictions: r.intra_evictions,
            flush_probes: r.flush_probes,
            flush_evictions: r.flush_evictions,
        }
    }

    fn minus(self, o: Counters) -> Counters {
        Counters {
            intra_probes: self.intra_probes - o.intra_probes,
            intra_evictions: self.intra_evictions - o.intra_evictions,
            flush_probes: self.flush_probes - o.flush_probes,
            flush_evictions: self.flush_evictions - o.flush_evictions,
        }
    }
}

/// An order-insensitive fingerprint of a result set: equal results give
/// equal digests, so passes can be compared without keeping them.
fn digest(results: &[EpochResult]) -> u64 {
    let mut sum = 0u64;
    for r in results {
        for (k, a) in &r.aggregates {
            let mut h = DefaultHasher::new();
            (r.query.bits(), r.epoch, k.values(), a.count, a.sum, a.min, a.max).hash(&mut h);
            sum = sum.wrapping_add(h.finish());
        }
    }
    sum
}

/// What one checked run of the pipeline left behind.
#[derive(Default)]
struct Checked {
    report: RunReport,
    digest: u64,
    mismatches: u64,
    hfta_received: u64,
    result_groups: u64,
}

fn check(report: RunReport, hfta: Hfta, oracle: &Oracle) -> Checked {
    let results = hfta.results();
    Checked {
        mismatches: oracle.mismatches(results),
        digest: digest(results),
        hfta_received: hfta.received(),
        result_groups: results.iter().map(|r| r.aggregates.len() as u64).sum(),
        report,
    }
}

struct Pass {
    setup_s: f64,
    wall_s: f64,
    ingest_s: f64,
    closes_ms: Vec<f64>,
    epoch_counts: Vec<Counters>,
    tables: Vec<(AttrSet, TableStats)>,
    out: Checked,
    recover_s: f64,
    replay_s: f64,
    store_run: Ledger,
    store_recover: Ledger,
    store_failures: u64,
    info: Option<PlanInfo>,
}

/// Feeds the chunk ranges from index `from` on, closing each epoch
/// explicitly before the first chunk of the next.
fn drive(
    ex: &mut Executor,
    w: &Workload,
    from: usize,
    closes: &mut Vec<f64>,
    counts: &mut Vec<Counters>,
) {
    let mut mark = Counters::of(ex.report());
    for &(a, b, epoch) in w.ranges.get(from..).unwrap_or(&[]) {
        while ex.current_epoch() < epoch {
            let t = Instant::now();
            span("executor.flush_epoch", || ex.flush_epoch());
            closes.push(secs(t) * 1e3);
            let now = Counters::of(ex.report());
            counts.push(now.minus(mark));
            mark = now;
        }
        let chunk = span("stream.chunk", || RecordChunk::from_records(&w.records[a..b]));
        span("executor.offer_chunk", || ex.offer_chunk(&chunk));
    }
}

fn run_pass(w: &Workload, oracle: &Oracle, store_dir: &Path, run: u32, traced: bool) -> Pass {
    if w.durable {
        let _ = std::fs::remove_dir_all(store_dir);
    }
    spans::record(traced, run);
    let t = Instant::now();
    let (mut pass, report, hfta) = span("pass", || pass_body(w, store_dir));
    pass.wall_s = secs(t);
    spans::record(false, run);
    pass.out = check(report, hfta, oracle);
    pass
}

/// One pass of the pipeline; the caller checks its answers.
fn pass_body(w: &Workload, store_dir: &Path) -> (Pass, RunReport, Hfta) {
    let ledger = SharedLedger::default();
    let store = w.durable.then_some((store_dir, &ledger));
    let s = workloads::setup(w, store);
    let setup_s = s.secs;
    let workloads::Setup { cfg, mut executor, store, info, .. } = s;
    let mut closes = Vec::new();
    let mut counts = Vec::new();
    let mut store_failures = 0u64;
    let (mut recover_s, mut replay_s) = (0.0, 0.0);
    let t0 = Instant::now();
    drive(&mut executor, w, 0, &mut closes, &mut counts);
    let tables = executor.table_stats();
    let (report, hfta, store_run, store_recover) = match store {
        None => {
            let t = Instant::now();
            let (r, h) = span("executor.finish", || executor.finish());
            closes.push(secs(t) * 1e3);
            (r, h, Ledger::default(), Ledger::default())
        }
        Some(handle) => {
            // The process dies with its last epoch open: no finish, and
            // only what the store holds survives.
            store_failures += u64::from(executor.store_degraded());
            drop(executor);
            drop(handle);
            let before = ledger.lock().clone();
            let t = Instant::now();
            let (handle, scrub, recovery) = span("store.recover", || {
                let handle = workloads::open_store(store_dir, &ledger);
                let scrub = handle.scrub();
                let recovery = handle.recover_executor(&cfg);
                (handle, scrub, recovery)
            });
            recover_s = secs(t);
            let after = ledger.lock().clone();
            let clean = scrub.is_ok_and(|s| s.generations_quarantined.is_empty())
                && recovery.fallbacks == 0;
            let hwm = recovery.records_hwm as usize;
            let from = w.ranges.partition_point(|r| r.0 < hwm);
            let aligned = w.ranges.get(from).is_some_and(|r| r.0 == hwm) || hwm == w.records.len();
            let (mut ex, from) = match recovery.executor {
                Some(ex) if clean && aligned => (ex, from),
                _ => {
                    store_failures += 1;
                    (cfg.build(), 0)
                }
            };
            let t = Instant::now();
            drive(&mut ex, w, from, &mut closes, &mut counts);
            store_failures += u64::from(ex.store_degraded());
            let t_finish = Instant::now();
            let (r, h) = span("executor.finish", || ex.finish());
            closes.push(secs(t_finish) * 1e3);
            replay_s = secs(t);
            drop(handle);
            let end = ledger.lock().clone();
            let mut run = before.clone();
            run.absorb(&end.since(&after));
            (r, h, run, after.since(&before))
        }
    };
    let ingest_s = secs(t0);
    store_failures += store_run.errors + store_recover.errors;
    let pass = Pass {
        setup_s,
        wall_s: 0.0,
        ingest_s,
        closes_ms: closes,
        epoch_counts: counts,
        tables,
        out: Checked::default(),
        recover_s,
        replay_s,
        store_run,
        store_recover,
        store_failures,
        info,
    };
    (pass, report, hfta)
}

/// The plain path: fixed-size chunks, and the executor closes epochs
/// itself inside `offer_chunk`.
fn implicit_run(w: &Workload, oracle: &Oracle) -> Checked {
    let mut ex = workloads::setup(w, None).executor;
    for c in w.records.chunks(PROCESSING_WINDOW_SIZE) {
        ex.offer_chunk(&RecordChunk::from_records(c));
    }
    let (report, hfta) = ex.finish();
    check(report, hfta, oracle)
}

/// Arms eviction loss on a small flat plan over the input's prefix; the
/// oracle must see records go missing and the report must flag drops.
fn selftest(w: &Workload) -> (f64, bool) {
    let records = &w.records[..w.records.len().min(SELFTEST_RECORDS)];
    let plan = PhysicalPlan::flat(w.queries.iter().map(|&q| (q, 64)));
    let mut cfg = ExecutorConfig::new(plan, CostParams::paper(), w.epoch_micros, w.seed);
    cfg.faults = Some(FaultPlan::new(w.seed).with_eviction_loss(SELFTEST_LOSS));
    let mut ex = cfg.build();
    for c in records.chunks(PROCESSING_WINDOW_SIZE) {
        ex.offer_chunk(&RecordChunk::from_records(c));
    }
    let (report, hfta) = ex.finish();
    let oracle = Oracle::compute(records, &w.queries, w.epoch_micros);
    let failed = oracle.mismatches(hfta.results());
    let frac = failed as f64 / records.len().max(1) as f64;
    (frac, report.evictions_dropped > 0)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn llc_size() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// The passes least disturbed by other work on the host: the fastest
/// `keep` share by ingest time, and at least [`MIN_KEPT`] of them.
fn fastest<'a>(passes: &[&'a Pass], keep: f64) -> Vec<&'a Pass> {
    let mut v = passes.to_vec();
    v.sort_by(|a, b| a.ingest_s.total_cmp(&b.ingest_s));
    let k = ((v.len() as f64 * keep).ceil() as usize).max(MIN_KEPT);
    v.truncate(k);
    v
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let t_gen = Instant::now();
    let Some(w) = workloads::build(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let gen_s = secs(t_gen);
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(1);
    }
    let store_dir = out_dir.join(format!("store-{}-{}", w.name, std::process::id()));
    let n = w.records.len() as u64;
    let oracle = Oracle::compute(&w.records, &w.queries, w.epoch_micros);
    println!(
        "workload {} seed {} records {} epochs {} epoch_ms {} input_gen_s {:.3}",
        w.name,
        w.seed,
        n,
        oracle.epochs(),
        w.epoch_micros / 1000,
        gen_s
    );

    let mut correct = true;
    let (selftest_frac, selftest_flagged) = selftest(&w);
    println!(
        "selftest eviction_loss {SELFTEST_LOSS} failed_frac {selftest_frac} flagged {selftest_flagged}"
    );
    if selftest_frac <= 0.0 || !selftest_flagged {
        println!("error: the armed self-test was not caught by the oracle");
        correct = false;
    }

    // The plain run doubles as the warm-up.
    let mut attempted = n;
    let implicit = implicit_run(&w, &oracle);
    let mut failed = implicit.mismatches;

    let budget = Duration::from_secs_f64(args.seconds);
    let phases: Vec<(bool, Duration)> = if args.trace {
        vec![(false, budget / 2), (true, budget / 2)]
    } else {
        vec![(false, budget)]
    };
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    let mut all_spans: Vec<Span> = Vec::new();
    let mut diverged = 0u64;
    for (traced, dur) in phases {
        let start = Instant::now();
        let mut k = 0;
        while k < MIN_PASSES || start.elapsed() < dur {
            let run = passes.len() as u32;
            let p = run_pass(&w, &oracle, &store_dir, run, traced);
            if traced {
                let base = all_spans.len() as u32;
                all_spans.extend(spans::take().into_iter().map(|mut s| {
                    s.parent = s.parent.map(|x| x + base);
                    s
                }));
            }
            println!(
                "pass {run} traced {} setup_s {:.4} ingest_s {:.4} rps {:.0} close_p50_ms {:.4} \
                 close_tail_ms {:.4}",
                u8::from(traced),
                p.setup_s,
                p.ingest_s,
                n as f64 / p.ingest_s,
                stat::median(&p.closes_ms),
                stat::tail(&p.closes_ms).0
            );
            attempted += n;
            failed += p.out.mismatches + p.store_failures;
            if let Some((_, first)) = passes.first() {
                if first.out.report != p.out.report || first.out.digest != p.out.digest {
                    diverged += 1;
                    failed += n;
                }
            }
            passes.push((traced, p));
            k += 1;
        }
    }
    let first = &passes[0].1;
    if implicit.digest != first.out.digest {
        diverged += 1;
        failed += n;
    }
    let mut setups: Vec<f64> = passes.iter().map(|(_, p)| p.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        let _ = std::fs::remove_dir_all(&store_dir);
        let ledger = SharedLedger::default();
        let s = workloads::setup(&w, w.durable.then_some((store_dir.as_path(), &ledger)));
        setups.push(s.secs);
    }
    let _ = std::fs::remove_dir_all(&store_dir);

    let untraced: Vec<&Pass> = passes.iter().filter(|(t, _)| !t).map(|(_, p)| p).collect();
    let traced: Vec<(u32, &Pass)> =
        (0u32..).zip(&passes).filter(|(_, (t, _))| *t).map(|(run, (_, p))| (run, p)).collect();
    let report = &first.out.report;
    let records = report.records.max(1) as f64;

    // End-to-end metrics, from the fastest of the untraced passes.
    let kept = fastest(&untraced, KEEP);
    let closes: Vec<f64> = kept.iter().flat_map(|p| p.closes_ms.iter().copied()).collect();
    let rps: Vec<f64> = kept.iter().map(|p| n as f64 / p.ingest_s).collect();
    let tails: Vec<(f64, f64)> = kept.iter().map(|p| stat::tail(&p.closes_ms)).collect();
    let tail_ms: Vec<f64> = tails.iter().map(|t| t.0).collect();
    let tail_pct = tails.first().map_or(0.0, |t| t.1);
    let mut e2e = Metrics::default();
    e2e.add("ingest_rps", stat::median(&rps), "records/s");
    e2e.add("epoch_close_p50_ms", stat::median(&closes), "ms");
    e2e.add("epoch_close_tail_ms", stat::median(&tail_ms), "ms");
    e2e.add("setup_s", stat::median(&setups), "s");
    e2e.add("peak_rss_mb", peak_rss_mb(), "MB");
    e2e.add("cost_per_rec", report.total_cost() / records, "units");
    println!(
        "end-to-end metrics from the {} fastest of {} untraced passes; epoch_close_tail is \
         each pass's p{tail_pct:.1} of {} closes, median over those passes; setup_s is the \
         median of {} set-ups",
        kept.len(),
        untraced.len(),
        first.closes_ms.len(),
        setups.len()
    );

    let failed = failed.min(attempted);
    let failed_frac = failed as f64 / attempted as f64;
    correct &= failed == 0;
    println!(
        "passes {} (untraced {}, traced {}) attempted {attempted} failed {failed} \
         failed_frac {failed_frac} diverged {diverged}",
        passes.len(),
        untraced.len(),
        traced.len()
    );

    let (layers, table_lines) = if args.trace {
        let all: Vec<&Pass> = passes.iter().map(|(_, p)| p).collect();
        let (layers, lines) = layers::metrics(&w, &traced, &kept, &all, &all_spans);
        let unattributed =
            layers.0.iter().find(|m| m.0 == "trace.unattributed_frac").map_or(1.0, |m| m.1);
        if unattributed > MAX_UNATTRIBUTED {
            println!(
                "error: layer self times leave {unattributed} of the traced wall time uncovered"
            );
            correct = false;
        }
        let tsv = out_dir.join(format!("{}-spans.tsv", w.name));
        let _ = std::fs::write(&tsv, spans::to_tsv(&all_spans));
        println!("spans {} written to {}", all_spans.len(), tsv.display());
        (layers, lines)
    } else {
        (Metrics::default(), Vec::new())
    };

    println!(
        "host nproc {} llc {} seed {} records {} epochs {} passes {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        llc_size(),
        w.seed,
        n,
        report.epochs,
        passes.len()
    );
    for line in &table_lines {
        println!("{line}");
    }
    for (name, v, unit) in e2e.0.iter().chain(&layers.0) {
        println!("metric {name} {v} {unit}");
    }
    println!("metric failed_frac {failed_frac} ratio");
    let shown = if args.trace { &layers } else { &e2e };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        shown.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
