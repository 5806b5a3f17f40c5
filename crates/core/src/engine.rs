//! The streaming engine: bootstrap → plan → execute → (re)plan.

use crate::adaptive::{drift, refine_stats, AdaptivePolicy};
use msa_collision::LinearModel;
pub use msa_gigascope::executor::ValueSource;
use msa_gigascope::hfta::EpochResult;
use msa_gigascope::{
    BoundsReport, CostParams, Executor, ExecutorConfig, FaultPlan, GuardLevel, GuardPolicy,
    OverloadGuard, RunReport,
};
use msa_optimizer::cost::{end_of_epoch_cost, rates, CostContext};
use msa_optimizer::{
    enforce_peak_load_from, Algorithm, ClusterHandling, PeakLoadMethod, Plan, Planner,
    PlannerOptions,
};
use msa_stream::hash::FastMap;
use msa_stream::{
    AttrSet, DatasetStats, Filter, GroupKey, Record, RecordChunk, PROCESSING_WINDOW_SIZE,
};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// LFTA memory budget in 4-byte words.
    pub m_words: f64,
    /// Epoch length in microseconds (default 60 s, the paper's
    /// `time/60` queries).
    pub epoch_micros: u64,
    /// Phantom-choice algorithm (default GCSL).
    pub algorithm: Algorithm,
    /// Cost parameters (default `c1 = 1`, `c2 = 50`).
    pub params: CostParams,
    /// Flow-length handling.
    pub clustering: ClusterHandling,
    /// Linear collision model `x = α + µ·g/b` used for planning (the
    /// paper's working model); a replan refines statistics through it.
    pub model: LinearModel,
    /// Records buffered to estimate statistics before the first plan
    /// (ignored when `stats` is supplied).
    pub bootstrap_records: usize,
    /// Precomputed statistics (skips the bootstrap phase).
    pub stats: Option<DatasetStats>,
    /// Adaptive replanning policy (None = plan once).
    pub adaptive: Option<AdaptivePolicy>,
    /// Hash seed.
    pub seed: u64,
    /// Retain per-epoch results (disable for pure cost measurement).
    pub retain_results: bool,
    /// Metric-value source for SUM/MIN/MAX/AVG aggregates (e.g. the
    /// packet-length attribute). Default: count-only.
    pub value_source: ValueSource,
    /// Selection filter applied before aggregation (default: pass all).
    pub filter: Filter,
    /// Runtime overload guard: when the measured per-epoch flush cost
    /// breaches the policy's peak budget `E_p`, the executor degrades
    /// gracefully (shed → phantoms off → allocation repair) and the
    /// engine applies guard-requested repairs at epoch boundaries
    /// (default: no guard).
    pub guard: Option<GuardPolicy>,
    /// Fault-injection plan for the LFTA → HFTA eviction channel
    /// (chaos testing; default: none). Stream-level faults — bursts,
    /// clock skew — must be applied to the records before pushing.
    pub faults: Option<FaultPlan>,
}

impl EngineOptions {
    /// Defaults for a budget of `m_words`.
    pub fn new(m_words: f64) -> EngineOptions {
        EngineOptions {
            m_words,
            epoch_micros: 60_000_000,
            algorithm: Algorithm::default(),
            params: CostParams::paper(),
            clustering: ClusterHandling::default(),
            model: LinearModel::paper_no_intercept(),
            bootstrap_records: 10_000,
            stats: None,
            adaptive: None,
            seed: 0,
            retain_results: true,
            value_source: ValueSource::None,
            filter: Filter::all(),
            guard: None,
            faults: None,
        }
    }
}

/// Everything a run produced.
#[derive(Clone, Debug)]
pub struct AggregationOutput {
    /// Exact per-epoch aggregation results (all queries, all epochs).
    pub results: Vec<EpochResult>,
    /// Merged cost/throughput report.
    pub report: RunReport,
    /// Number of adaptive replans performed.
    pub replans: usize,
    /// Number of guard-requested allocation repairs applied.
    pub repairs: usize,
    /// The plan in effect at the end of the run (None if the stream
    /// ended during bootstrap with no records at all).
    pub final_plan: Option<Plan>,
    /// The query set the run aggregated, in registration order.
    pub queries: Vec<AttrSet>,
    /// Loss mass the overload guard metered against its degradation
    /// budget (zero when no guard was configured).
    pub records_lost: u64,
}

impl AggregationOutput {
    /// Sums one query's counts across all epochs.
    pub fn totals(&self, query: AttrSet) -> FastMap<GroupKey, u64> {
        self.aggregate_totals(query)
            .into_iter()
            .map(|(k, a)| (k, a.count))
            .collect()
    }

    /// Guaranteed per-query count intervals derived from the run's loss
    /// ledgers: for every query, the fault-free true count lies in
    /// `[lo, hi]`, with every lost record attributed to a
    /// [`msa_gigascope::LossClass`]. Exact runs report the degenerate
    /// interval `lo == hi`.
    pub fn bounds(&self) -> BoundsReport {
        let mut bounds = BoundsReport::from_ledgers(&self.report, &self.queries, |q| {
            self.totals(q).into_iter().collect()
        });
        bounds.records_lost = self.records_lost;
        bounds
    }

    /// Combines one query's full aggregate states (count/sum/min/max of
    /// the metric attribute) across all epochs.
    pub fn aggregate_totals(
        &self,
        query: AttrSet,
    ) -> FastMap<GroupKey, msa_gigascope::table::AggState> {
        let mut out: FastMap<GroupKey, msa_gigascope::table::AggState> = FastMap::default();
        for r in &self.results {
            if r.query == query {
                for (k, a) in &r.aggregates {
                    match out.entry(*k) {
                        std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().merge(a),
                        std::collections::hash_map::Entry::Vacant(v) => {
                            v.insert(*a);
                        }
                    }
                }
            }
        }
        out
    }
}

enum State {
    Bootstrapping(Vec<Record>),
    // Boxed: the executor is much larger than the bootstrap buffer
    // handle, and the state is moved during promote/retire.
    Running(Box<Executor>),
}

/// The engine: push records, receive exact epoch aggregates, let the
/// optimizer manage the LFTA layout.
pub struct MultiAggregator {
    queries: Vec<AttrSet>,
    opts: EngineOptions,
    state: State,
    /// Records the running executor has not ingested yet: offered as one
    /// chunk when full and before every epoch-boundary hook.
    pending: RecordChunk,
    stats: Option<DatasetStats>,
    plan: Option<Plan>,
    results: Vec<EpochResult>,
    merged: RunReport,
    replans: usize,
    repairs: usize,
    current_epoch: u64,
    epochs_since_check: u64,
    executor_generation: u64,
    /// Guard state carried across executor swaps.
    guard_state: Option<OverloadGuard>,
    /// Pre-repair allocation the incremental shrink scan is relative to
    /// (reset by a full replan).
    repair_base: Option<msa_optimizer::Allocation>,
    /// Scale of the last applied repair (1.0 = none); the next repair's
    /// scan resumes below it.
    repair_scale: f64,
}

impl MultiAggregator {
    /// Creates an engine for `queries`.
    ///
    /// # Panics
    /// Panics if `queries` is empty.
    pub fn new(queries: Vec<AttrSet>, opts: EngineOptions) -> MultiAggregator {
        assert!(!queries.is_empty(), "need at least one query");
        let merged = RunReport {
            costs: opts.params,
            ..RunReport::default()
        };
        let mut engine = MultiAggregator {
            stats: opts.stats.clone(),
            state: State::Bootstrapping(Vec::new()),
            pending: RecordChunk::with_capacity(PROCESSING_WINDOW_SIZE),
            plan: None,
            results: Vec::new(),
            merged,
            replans: 0,
            repairs: 0,
            current_epoch: 0,
            epochs_since_check: 0,
            executor_generation: 0,
            guard_state: None,
            repair_base: None,
            repair_scale: 1.0,
            queries,
            opts,
        };
        if engine.stats.is_some() {
            engine.promote(Vec::new());
        }
        engine
    }

    /// Creates an engine from SQL queries in the paper's dialect (see
    /// [`crate::sql`]): the shared `WHERE` filter, epoch length and
    /// metric attribute are read from the queries; `opts` supplies the
    /// memory budget and algorithm choices.
    ///
    /// ```
    /// use msa_core::{EngineOptions, MultiAggregator};
    /// use msa_stream::Schema;
    ///
    /// let engine = MultiAggregator::from_sql(
    ///     &[
    ///         "select srcIP, srcPort, count(*) from R group by srcIP, srcPort, time/60",
    ///         "select dstIP, dstPort, count(*) from R group by dstIP, dstPort, time/60",
    ///     ],
    ///     &Schema::packet_headers(),
    ///     EngineOptions::new(20_000.0),
    /// )
    /// .unwrap();
    /// assert_eq!(engine.replans(), 0);
    /// ```
    pub fn from_sql(
        sqls: &[&str],
        schema: &msa_stream::Schema,
        opts: EngineOptions,
    ) -> Result<MultiAggregator, crate::sql::SqlError> {
        let set = crate::sql::QuerySet::parse(sqls, schema)?;
        let opts = set.configure(opts);
        Ok(MultiAggregator::new(set.group_bys, opts))
    }

    /// The current plan, once one exists.
    pub fn current_plan(&self) -> Option<&Plan> {
        self.plan.as_ref()
    }

    /// Number of adaptive replans so far.
    pub fn replans(&self) -> usize {
        self.replans
    }

    /// Current statistics estimate.
    pub fn stats(&self) -> Option<&DatasetStats> {
        self.stats.as_ref()
    }

    fn planner_options(&self) -> PlannerOptions {
        PlannerOptions {
            m_words: self.opts.m_words,
            algorithm: self.opts.algorithm,
            params: self.opts.params,
            clustering: self.opts.clustering,
            peak_load: None,
        }
    }

    /// Computes statistics from a buffer, plans, builds the executor and
    /// replays the buffer through it.
    fn promote(&mut self, buffered: Vec<Record>) {
        // Compute-once dataset statistics, held as a local through the
        // planning borrow and stored back afterwards.
        let stats = match self.stats.take() {
            Some(stats) => stats,
            None => {
                let universe = self.queries.iter().fold(AttrSet::EMPTY, |u, q| u.union(*q));
                let mut stats = DatasetStats::compute(&buffered, universe);
                // Flow lengths derived the paper's way (bucket-level run
                // lengths survive flow interleaving; §4.3).
                let sets: Vec<AttrSet> = stats.known_sets().collect();
                for (set, l) in msa_gigascope::table::temporal_flow_lengths(
                    &buffered,
                    &sets,
                    2048,
                    self.opts.seed ^ 0xF10,
                ) {
                    stats.set_flow_length(set, l);
                }
                stats
            }
        };
        let options = self.planner_options();
        let model = self.opts.model;
        let plan = Planner::new(&self.queries, &stats, &model, &options).plan(&options);
        self.stats = Some(stats);
        // A fresh plan invalidates the incremental-repair baseline.
        self.repair_base = None;
        self.repair_scale = 1.0;
        // Replaying a bootstrap buffer must start at the buffer's first
        // epoch; executor swaps mid-stream resume at the current one.
        let epoch_micros = self.opts.epoch_micros.max(1);
        let start_epoch = buffered
            .first()
            .map_or(self.current_epoch, |r| r.ts_micros / epoch_micros);
        let mut executor = self.build_executor(&plan, start_epoch);
        self.plan = Some(plan);
        executor.run(&buffered);
        self.state = State::Running(executor);
    }

    /// Builds an executor for `plan` from a recipe carrying the options'
    /// value source, filter, fault plan and overload guard, then
    /// transplants carried guard state, if any. Callers pass the plan
    /// explicitly — usually the one they are about to store — so there
    /// is no "plan set before building" invariant to uphold at a
    /// distance.
    fn build_executor(&mut self, plan: &Plan, start_epoch: u64) -> Box<Executor> {
        let config = ExecutorConfig {
            value_source: self.opts.value_source,
            filter: self.opts.filter.clone(),
            faults: self.opts.faults,
            guard: self.opts.guard,
            ..ExecutorConfig::new(
                plan.to_physical(),
                self.opts.params,
                self.opts.epoch_micros,
                msa_stream::hash::mix64(self.opts.seed ^ self.executor_generation),
            )
        };
        self.executor_generation += 1;
        let mut executor = config.build().with_start_epoch(start_epoch);
        if !self.opts.retain_results {
            executor = executor.discard_results();
        }
        if let Some(g) = self.guard_state.take() {
            executor = executor.with_guard_state(g);
        }
        Box::new(executor)
    }

    /// Retires `executor`, folding its results and counters into the
    /// accumulators and carrying the guard state to the next executor.
    fn retire(&mut self, executor: Box<Executor>) {
        let (report, hfta, guard) = executor.finish_parts();
        self.guard_state = guard;
        // Executors share the global epoch numbering (timestamps are
        // absolute); `merge` takes the epoch count as a maximum, not a
        // sum, and accumulates everything else.
        self.merged.merge(&report);
        self.results.extend(hfta.results().iter().cloned());
    }

    /// Checks drift at an epoch boundary; replans if needed.
    fn maybe_replan(&mut self) {
        let Some(policy) = self.opts.adaptive else {
            return;
        };
        self.epochs_since_check += 1;
        if self.epochs_since_check < policy.check_every_epochs {
            return;
        }
        self.epochs_since_check = 0;
        let State::Running(executor) = &mut self.state else {
            return;
        };
        // A degraded guard means the observed table statistics are not
        // the stream's (records shed, phantoms bypassed): a drift verdict
        // drawn from them would be noise, and overload already has its
        // own repair path. Defer the check until the guard is calm.
        if executor
            .guard()
            .is_some_and(|g| g.level() != GuardLevel::Normal)
        {
            executor.reset_table_stats();
            return;
        }
        let observed = executor.table_stats();
        let (plan, stats) = match (&self.plan, &self.stats) {
            (Some(p), Some(s)) => (p, s),
            _ => return,
        };
        let model = self.opts.model;
        let ctx = CostContext {
            stats,
            model: &model,
            params: self.opts.params,
            clustering: self.opts.clustering,
        };
        let predicted = rates(&plan.configuration, &plan.allocation, &ctx);
        if drift(&predicted, &observed, &policy) <= policy.drift_threshold {
            executor.reset_table_stats();
            return;
        }
        // Replan: refresh statistics from observations, rebuild.
        let new_stats = refine_stats(
            stats,
            &plan.configuration,
            &plan.allocation,
            &model,
            &observed,
            &policy,
        );
        let State::Running(executor) =
            std::mem::replace(&mut self.state, State::Bootstrapping(Vec::new()))
        else {
            unreachable!("checked above");
        };
        self.retire(executor);
        self.stats = Some(new_stats);
        self.replans += 1;
        self.promote(Vec::new());
    }

    /// Applies a guard-requested allocation repair: shrinks the current
    /// allocation until the model-space peak-load target holds (an
    /// incremental scan resuming below the previous repair's scale),
    /// then rebuilds the executor with the repaired allocation and the
    /// transplanted guard state.
    fn maybe_repair(&mut self) {
        let Some(policy) = self.opts.guard else {
            return;
        };
        let observed = {
            let State::Running(executor) = &mut self.state else {
                return;
            };
            if !executor.take_repair_request() {
                return;
            }
            executor.guard().map_or(0.0, |g| g.last_observed_cost())
        };
        let (Some(plan), Some(stats)) = (&self.plan, &self.stats) else {
            return;
        };
        let base = self
            .repair_base
            .clone()
            .unwrap_or_else(|| plan.allocation.clone());
        let model = self.opts.model;
        let ctx = CostContext {
            stats,
            model: &model,
            params: self.opts.params,
            clustering: self.opts.clustering,
        };
        // The model's E_u and the measured flush cost can sit on
        // different scales (a burst breaches the budget without moving
        // the model), so aim the shrink at the model-space equivalent of
        // the observed breach.
        let predicted = end_of_epoch_cost(&plan.configuration, &base, &ctx);
        let target = if observed > policy.peak_budget && observed > 0.0 {
            (predicted * policy.peak_budget / observed).min(policy.peak_budget)
        } else {
            policy.peak_budget
        };
        let out = enforce_peak_load_from(
            &plan.configuration,
            &base,
            &ctx,
            target,
            PeakLoadMethod::Shrink,
            self.repair_scale,
        );
        if out.scale >= self.repair_scale {
            // No progress possible (already at the smallest useful scale
            // or the constraint holds in model space as-is): keep the
            // executor; shedding remains in force until load subsides.
            return;
        }
        let new_plan = Plan {
            configuration: plan.configuration.clone(),
            allocation: out.allocation,
            predicted_cost: plan.predicted_cost,
            predicted_update_cost: out.update_cost,
        };
        let State::Running(executor) =
            std::mem::replace(&mut self.state, State::Bootstrapping(Vec::new()))
        else {
            unreachable!("checked above");
        };
        self.retire(executor);
        self.repair_base = Some(base);
        self.repair_scale = out.scale;
        self.repairs += 1;
        let executor = self.build_executor(&new_plan, self.current_epoch);
        self.plan = Some(new_plan);
        self.state = State::Running(executor);
    }

    /// Number of guard-requested allocation repairs applied so far.
    pub fn repairs(&self) -> usize {
        self.repairs
    }

    /// Pushes one record.
    pub fn push(&mut self, record: Record) {
        // Epoch-boundary hook for adaptivity and overload repair. The
        // hooks read and may retire the running executor, so it ingests
        // every record of the closing epoch first.
        let epoch = record.ts_micros / self.opts.epoch_micros.max(1);
        if epoch > self.current_epoch {
            self.current_epoch = epoch;
            self.offer_pending();
            self.maybe_replan();
            self.maybe_repair();
        }
        match &mut self.state {
            State::Bootstrapping(buffer) => {
                buffer.push(record);
                if buffer.len() >= self.opts.bootstrap_records {
                    let buffered = std::mem::take(buffer);
                    self.promote(buffered);
                }
            }
            State::Running(_) => {
                self.pending.push(&record);
                if self.pending.len() == PROCESSING_WINDOW_SIZE {
                    self.offer_pending();
                }
            }
        }
    }

    /// Offers the pending records to the running executor as one chunk.
    fn offer_pending(&mut self) {
        if let State::Running(executor) = &mut self.state {
            if !self.pending.is_empty() {
                executor.offer_chunk(&self.pending);
                self.pending.clear();
            }
        }
    }

    /// Finishes the run: flushes the last epoch and returns everything.
    pub fn finish(mut self) -> AggregationOutput {
        self.offer_pending();
        match std::mem::replace(&mut self.state, State::Bootstrapping(Vec::new())) {
            State::Bootstrapping(buffer) => {
                if !buffer.is_empty() {
                    self.promote(buffer);
                    let State::Running(executor) =
                        std::mem::replace(&mut self.state, State::Bootstrapping(Vec::new()))
                    else {
                        unreachable!("promote sets Running");
                    };
                    self.retire(executor);
                }
            }
            State::Running(executor) => self.retire(executor),
        }
        AggregationOutput {
            results: std::mem::take(&mut self.results),
            report: self.merged.clone(),
            replans: self.replans,
            repairs: self.repairs,
            final_plan: self.plan.clone(),
            queries: self.queries.clone(),
            records_lost: self
                .guard_state
                .as_ref()
                .map_or(0, OverloadGuard::records_lost),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msa_stream::{ClusteredStreamBuilder, UniformStreamBuilder};
    use std::collections::BTreeMap;

    fn s(x: &str) -> AttrSet {
        AttrSet::parse(x).unwrap()
    }

    /// Exact counts for cross-checking.
    fn exact(records: &[Record], q: AttrSet) -> FastMap<GroupKey, u64> {
        let mut m = FastMap::default();
        for r in records {
            *m.entry(r.project(q)).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn end_to_end_exact_results() {
        let stream = UniformStreamBuilder::new(4, 300)
            .records(30_000)
            .seed(1)
            .build();
        let queries = vec![s("AB"), s("BC"), s("BD"), s("CD")];
        let mut engine = MultiAggregator::new(queries.clone(), EngineOptions::new(20_000.0));
        for r in &stream.records {
            engine.push(*r);
        }
        let out = engine.finish();
        assert_eq!(out.report.records as usize, stream.len());
        for q in queries {
            assert_eq!(out.totals(q), exact(&stream.records, q), "query {q}");
        }
        let plan = out.final_plan.expect("plan exists");
        assert!(plan.configuration.queries().count() == 4);
    }

    #[test]
    fn bootstrap_shorter_than_stream_still_counts_everything() {
        let stream = UniformStreamBuilder::new(3, 50)
            .records(500)
            .seed(2)
            .build();
        let mut opts = EngineOptions::new(5_000.0);
        opts.bootstrap_records = 10_000; // never reached; finish() promotes
        let mut engine = MultiAggregator::new(vec![s("A"), s("B")], opts);
        for r in &stream.records {
            engine.push(*r);
        }
        let out = engine.finish();
        assert_eq!(out.report.records, 500);
        assert_eq!(out.totals(s("A")), exact(&stream.records, s("A")));
    }

    #[test]
    fn presupplied_stats_skip_bootstrap() {
        let stream = UniformStreamBuilder::new(2, 20)
            .records(1000)
            .seed(3)
            .build();
        let stats = DatasetStats::compute(&stream.records, s("AB"));
        let mut opts = EngineOptions::new(4_000.0);
        opts.stats = Some(stats);
        let mut engine = MultiAggregator::new(vec![s("A"), s("B")], opts);
        assert!(engine.current_plan().is_some(), "plans immediately");
        for r in &stream.records {
            engine.push(*r);
        }
        let out = engine.finish();
        assert_eq!(out.totals(s("B")), exact(&stream.records, s("B")));
    }

    /// Epoch 1: 20 groups. Epochs 2+: 2000 groups — collision rates
    /// explode relative to the plan, forcing a replan.
    fn drift_stream() -> Vec<Record> {
        let calm = UniformStreamBuilder::new(4, 20)
            .records(30_000)
            .duration_secs(0.9)
            .seed(4)
            .build();
        let wild = UniformStreamBuilder::new(4, 2000)
            .records(60_000)
            .duration_secs(2.0)
            .seed(5)
            .build();
        let mut records = calm.records.clone();
        records.extend(wild.records.iter().map(|r| Record {
            attrs: r.attrs,
            ts_micros: r.ts_micros + 1_000_000,
        }));
        records
    }

    /// Runs `records` through an adaptive engine over AB and CD with
    /// 1 s epochs.
    fn run_adaptive(records: &[Record]) -> AggregationOutput {
        let mut opts = EngineOptions::new(8_000.0);
        opts.epoch_micros = 1_000_000;
        opts.bootstrap_records = 5_000;
        opts.adaptive = Some(AdaptivePolicy::default());
        let mut engine = MultiAggregator::new(vec![s("AB"), s("CD")], opts);
        for r in records {
            engine.push(*r);
        }
        engine.finish()
    }

    #[test]
    fn adaptive_replans_on_distribution_shift() {
        let records = drift_stream();
        let out = run_adaptive(&records);
        assert!(out.replans >= 1, "expected a replan, got {}", out.replans);
        // Correctness must survive replanning.
        for q in [s("AB"), s("CD")] {
            assert_eq!(out.totals(q), exact(&records, q), "query {q}");
        }
    }

    #[test]
    fn replans_keep_every_epoch_exact() {
        // A replan retires the running executor at an epoch boundary, so
        // every record of the closing epoch must reach it first: each
        // (query, epoch) result is recounted, not just the run's totals.
        let records = drift_stream();
        let out = run_adaptive(&records);
        assert!(out.replans >= 1, "expected a replan, got {}", out.replans);
        for q in [s("AB"), s("CD")] {
            let mut expected: BTreeMap<u64, FastMap<GroupKey, u64>> = BTreeMap::new();
            for r in &records {
                let epoch = expected.entry(r.ts_micros / 1_000_000).or_default();
                *epoch.entry(r.project(q)).or_insert(0) += 1;
            }
            let mut got: BTreeMap<u64, FastMap<GroupKey, u64>> = BTreeMap::new();
            for result in out.results.iter().filter(|r| r.query == q) {
                let previous = got.insert(result.epoch, result.counts());
                assert!(
                    previous.is_none(),
                    "query {q}: epoch {} twice",
                    result.epoch
                );
            }
            assert_eq!(got, expected, "query {q}");
        }
    }

    #[test]
    fn no_adaptive_means_no_replans() {
        let stream = ClusteredStreamBuilder::new(4, 100)
            .records(20_000)
            .seed(6)
            .build();
        let mut opts = EngineOptions::new(10_000.0);
        opts.bootstrap_records = 2_000;
        let mut engine = MultiAggregator::new(vec![s("AB"), s("BC")], opts);
        for r in &stream.records {
            engine.push(*r);
        }
        let out = engine.finish();
        assert_eq!(out.replans, 0);
    }

    #[test]
    fn empty_stream_is_graceful() {
        let engine = MultiAggregator::new(vec![s("A")], EngineOptions::new(1_000.0));
        let out = engine.finish();
        assert_eq!(out.report.records, 0);
        assert!(out.results.is_empty());
    }

    #[test]
    fn epoch_results_are_split() {
        // 3 epochs of 1 second each.
        let records: Vec<Record> = (0..3000u32)
            .map(|i| Record::new(&[i % 10, 0, 0, 0], i as u64 * 1000))
            .collect();
        let mut opts = EngineOptions::new(2_000.0);
        opts.epoch_micros = 1_000_000;
        opts.bootstrap_records = 100;
        let mut engine = MultiAggregator::new(vec![s("A")], opts);
        for r in &records {
            engine.push(*r);
        }
        let out = engine.finish();
        let epochs: std::collections::BTreeSet<u64> = out.results.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs.len(), 3, "epochs seen: {epochs:?}");
    }
}
