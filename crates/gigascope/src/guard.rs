//! Runtime overload controller for the LFTA.
//!
//! The paper's peak-load constraint (§3.3) is enforced at *planning*
//! time: allocations are repaired so the expected end-of-epoch cost
//! `E_u` stays below a peak budget `E_p`. At runtime the observed load
//! can still breach the budget — a traffic burst, a group-count
//! explosion, a mis-estimated model. The [`OverloadGuard`] watches the
//! measured *total* per-epoch cost (intra-epoch maintenance plus the
//! end-of-epoch flush: a rate burst shows up in the former, a group
//! explosion in the latter) and walks a ladder of degradations, most
//! reversible first:
//!
//! 1. **Shedding** — deterministically sample the record stream,
//!    keeping one in `shed_factor` records (undercounts every query by
//!    exactly the shed count — the report carries the bound);
//! 2. **Phantoms off** — route raw records directly to the query
//!    tables, bypassing phantom maintenance. Counts stay *exact*: every
//!    record still contributes once to every query, but the flush
//!    cascade (the phantom contribution to `E_u`) disappears;
//! 3. **Repair** — request an allocation repair (shrink/shift,
//!    [`enforce_peak_load`](../../msa_optimizer/peakload/index.html))
//!    from whoever owns the optimizer; the engine rebuilds the executor
//!    with the repaired allocation at the next epoch boundary.
//!
//! Escalation is one level per breached epoch. De-escalation is
//! hysteretic: the observed cost must stay below
//! `recover_ratio · peak_budget` for `recover_epochs` consecutive
//! epochs before the guard steps one level down; costs inside the
//! band `(recover_ratio · E_p, E_p]` hold the current level.
//!
//! A [`DegradationPolicy`] bounds *how much* answer quality the ladder
//! may spend. Every lost record — a shed, a channel drop, a poisoned
//! record, a replay overrun — widens the guaranteed count interval the
//! bounds subsystem reports (see `bounds.rs`), and the guard meters
//! that widening against the operator's promise:
//!
//! * [`DegradationPolicy::BestEffort`] — unlimited shedding (the
//!   historical behavior); the interval widens as far as load demands;
//! * [`DegradationPolicy::BoundedApprox`] — shed only while the total
//!   accounted loss stays within `max_width`; further shed requests are
//!   *denied* (the record is processed), and if uncontrolled losses
//!   push past the budget anyway the guard latches a deterministic
//!   [`OverloadGuard::bound_breached`] alert instead of lying;
//! * [`DegradationPolicy::ExactOrStall`] — a zero budget: the shedding
//!   rung is skipped entirely (the ladder goes straight to the lossless
//!   phantoms-off rung), every shed request is denied, and *any*
//!   uncontrolled loss latches the breach alert.

/// Degradation level, least to most severe.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum GuardLevel {
    /// No degradation: full fidelity.
    #[default]
    Normal,
    /// Record sampling: keep one in `shed_factor` records.
    Shedding,
    /// Phantom maintenance disabled (plus shedding).
    PhantomsOff,
    /// Allocation repair requested (plus both milder measures).
    Repair,
}

impl GuardLevel {
    /// Numeric level (0 = [`GuardLevel::Normal`] … 3 = [`GuardLevel::Repair`]).
    pub fn index(self) -> u8 {
        match self {
            GuardLevel::Normal => 0,
            GuardLevel::Shedding => 1,
            GuardLevel::PhantomsOff => 2,
            GuardLevel::Repair => 3,
        }
    }

    /// Inverse of [`GuardLevel::index`]; `None` for out-of-range values
    /// (a decoder rejecting a corrupted checkpoint).
    pub fn from_index(index: u8) -> Option<GuardLevel> {
        match index {
            0 => Some(GuardLevel::Normal),
            1 => Some(GuardLevel::Shedding),
            2 => Some(GuardLevel::PhantomsOff),
            3 => Some(GuardLevel::Repair),
            _ => None,
        }
    }

    fn escalated(self) -> GuardLevel {
        match self {
            GuardLevel::Normal => GuardLevel::Shedding,
            GuardLevel::Shedding => GuardLevel::PhantomsOff,
            GuardLevel::PhantomsOff | GuardLevel::Repair => GuardLevel::Repair,
        }
    }

    fn relaxed(self) -> GuardLevel {
        match self {
            GuardLevel::Normal | GuardLevel::Shedding => GuardLevel::Normal,
            GuardLevel::PhantomsOff => GuardLevel::Shedding,
            GuardLevel::Repair => GuardLevel::PhantomsOff,
        }
    }
}

impl std::fmt::Display for GuardLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            GuardLevel::Normal => "normal",
            GuardLevel::Shedding => "shedding",
            GuardLevel::PhantomsOff => "phantoms-off",
            GuardLevel::Repair => "repair",
        };
        write!(f, "{name}")
    }
}

/// Operator-chosen failure mode under overload: how much guaranteed-
/// interval width (see `bounds.rs`) the guard may spend on shedding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradationPolicy {
    /// Never trade accuracy for load: the shedding rung is skipped and
    /// every shed request is denied. Any uncontrolled loss (channel
    /// fault, poison quarantine, replay overrun) latches the breach
    /// alert — the deployment either stays exact or says it stalled.
    ExactOrStall,
    /// Shed freely while the total accounted loss stays at or below
    /// `max_width` records; deny further sheds past it and latch the
    /// breach alert if uncontrolled losses overrun the budget anyway.
    BoundedApprox {
        /// Maximum interval width (in records) the operator accepts.
        max_width: u64,
    },
    /// Unlimited shedding; the interval widens as far as load demands.
    /// The historical guard behavior and the default.
    #[default]
    BestEffort,
}

impl DegradationPolicy {
    /// The loss budget in records: `Some(0)` for
    /// [`DegradationPolicy::ExactOrStall`], `Some(max_width)` for
    /// [`DegradationPolicy::BoundedApprox`], `None` (unlimited) for
    /// [`DegradationPolicy::BestEffort`].
    pub fn loss_budget(self) -> Option<u64> {
        match self {
            DegradationPolicy::ExactOrStall => Some(0),
            DegradationPolicy::BoundedApprox { max_width } => Some(max_width),
            DegradationPolicy::BestEffort => None,
        }
    }
}

impl std::fmt::Display for DegradationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradationPolicy::ExactOrStall => write!(f, "exact-or-stall"),
            DegradationPolicy::BoundedApprox { max_width } => {
                write!(f, "bounded-approx(max_width={max_width})")
            }
            DegradationPolicy::BestEffort => write!(f, "best-effort"),
        }
    }
}

/// What to do with the next record, once the ladder is at or above the
/// shedding rung and the [`DegradationPolicy`] has been consulted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedDecision {
    /// Process the record normally.
    Process,
    /// Drop the record; the caller must account the loss.
    Shed,
    /// The ladder wanted to shed but the loss budget is exhausted:
    /// process the record and count the denial.
    Denied,
}

/// Guard configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GuardPolicy {
    /// Peak per-epoch total-cost budget `E_p`: intra-epoch maintenance
    /// plus end-of-epoch flush, in the same `c1`/`c2` units as
    /// [`RunReport::flush_cost`](crate::RunReport::flush_cost).
    pub peak_budget: f64,
    /// De-escalation threshold as a fraction of `peak_budget`; costs in
    /// `(recover_ratio · E_p, E_p]` hold the current level (hysteresis).
    pub recover_ratio: f64,
    /// Consecutive calm epochs required before stepping one level down.
    pub recover_epochs: u64,
    /// While shedding, keep one in `shed_factor` records.
    pub shed_factor: u64,
    /// How much answer quality the ladder may spend (loss budget).
    pub degradation: DegradationPolicy,
}

impl GuardPolicy {
    /// A policy with budget `peak_budget` and default knobs
    /// (`recover_ratio = 0.7`, `recover_epochs = 1`, `shed_factor = 4`,
    /// `degradation = BestEffort`).
    pub fn new(peak_budget: f64) -> GuardPolicy {
        GuardPolicy {
            peak_budget,
            recover_ratio: 0.7,
            recover_epochs: 1,
            shed_factor: 4,
            degradation: DegradationPolicy::default(),
        }
    }

    /// Replaces the degradation policy (builder style).
    pub fn with_degradation(mut self, degradation: DegradationPolicy) -> GuardPolicy {
        self.degradation = degradation;
        self
    }
}

/// One guard state change, recorded for the run report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GuardTransition {
    /// Epoch (1-based count of closed epochs) whose flush triggered it.
    pub epoch: u64,
    /// Level before.
    pub from: GuardLevel,
    /// Level after.
    pub to: GuardLevel,
    /// The observed per-epoch total cost that triggered the change.
    pub observed_cost: f64,
}

/// The overload controller: observes per-epoch total cost, maintains
/// the degradation level with hysteresis.
///
/// A checkpoint carries the guard itself (see [`crate::snapshot`]),
/// whose codec reads these fields, the shed cursor included, so a
/// recovered executor sheds exactly the records the original would have
/// shed.
#[derive(Clone, Debug, PartialEq)]
pub struct OverloadGuard {
    pub(crate) policy: GuardPolicy,
    pub(crate) level: GuardLevel,
    /// Consecutive calm epochs observed at the current level.
    pub(crate) calm_epochs: u64,
    /// Round-robin shedding cursor.
    pub(crate) shed_counter: u64,
    /// Cost observed at the most recent epoch boundary.
    pub(crate) last_cost: f64,
    pub(crate) repair_requested: bool,
    /// Total loss mass accounted against the degradation budget.
    pub(crate) records_lost: u64,
    /// Whether the promised bound has been breached (latched).
    pub(crate) bound_breached: bool,
}

impl OverloadGuard {
    /// A guard at level 0 under `policy`.
    pub fn new(policy: GuardPolicy) -> OverloadGuard {
        OverloadGuard {
            policy,
            level: GuardLevel::Normal,
            calm_epochs: 0,
            shed_counter: 0,
            last_cost: 0.0,
            repair_requested: false,
            records_lost: 0,
            bound_breached: false,
        }
    }

    /// Current degradation level.
    pub fn level(&self) -> GuardLevel {
        self.level
    }

    /// The total cost observed at the most recent epoch boundary.
    pub fn last_observed_cost(&self) -> f64 {
        self.last_cost
    }

    /// Feeds one closed epoch's total cost; escalates or relaxes the
    /// level and returns the transition, if any.
    pub fn observe_epoch(&mut self, epoch: u64, cost: f64) -> Option<GuardTransition> {
        self.last_cost = cost;
        let from = self.level;
        let skip_shedding = self.policy.degradation == DegradationPolicy::ExactOrStall;
        if cost > self.policy.peak_budget {
            self.calm_epochs = 0;
            self.level = self.level.escalated();
            if skip_shedding && self.level == GuardLevel::Shedding {
                // ExactOrStall never spends accuracy: the lossy rung is
                // skipped and the ladder lands on the lossless
                // phantoms-off rung directly.
                self.level = self.level.escalated();
            }
            if self.level == GuardLevel::Repair {
                self.repair_requested = true;
            }
        } else if cost <= self.policy.peak_budget * self.policy.recover_ratio {
            self.calm_epochs += 1;
            if self.calm_epochs >= self.policy.recover_epochs.max(1) {
                self.level = self.level.relaxed();
                if skip_shedding && self.level == GuardLevel::Shedding {
                    self.level = self.level.relaxed();
                }
                self.calm_epochs = 0;
            }
        } else {
            // Inside the hysteresis band: hold the level.
            self.calm_epochs = 0;
        }
        (from != self.level).then_some(GuardTransition {
            epoch,
            from,
            to: self.level,
            observed_cost: cost,
        })
    }

    /// Decides the fate of the *next* record. Deterministic round-robin
    /// sampling: at level ≥ 1 the ladder wants to drop all but one in
    /// `shed_factor` records, but a drop is only granted while the
    /// [`DegradationPolicy`] loss budget still has room — past it the
    /// decision is [`ShedDecision::Denied`] and the record is processed.
    /// After a [`ShedDecision::Shed`] the caller must feed the loss back
    /// through [`OverloadGuard::account_loss`].
    pub fn shed_decision(&mut self) -> ShedDecision {
        if self.level < GuardLevel::Shedding {
            return ShedDecision::Process;
        }
        let keep = self
            .shed_counter
            .is_multiple_of(self.policy.shed_factor.max(1));
        self.shed_counter = self.shed_counter.wrapping_add(1);
        if keep {
            return ShedDecision::Process;
        }
        match self.policy.degradation.loss_budget() {
            Some(budget) if self.records_lost >= budget => ShedDecision::Denied,
            _ => ShedDecision::Shed,
        }
    }

    /// Accounts `n` records of loss mass against the degradation
    /// budget: sheds the guard granted *and* losses it cannot control
    /// (channel drops/duplicates, poison quarantine, replay overruns,
    /// shutdown abandonment). Controlled sheds stop exactly at the
    /// budget, so only uncontrolled loss can overrun it — when it does,
    /// the breach alert latches deterministically.
    pub fn account_loss(&mut self, n: u64) {
        self.records_lost = self.records_lost.saturating_add(n);
        if let Some(budget) = self.policy.degradation.loss_budget() {
            if self.records_lost > budget {
                self.bound_breached = true;
            }
        }
    }

    /// Total loss mass accounted against the degradation budget so far.
    pub fn records_lost(&self) -> u64 {
        self.records_lost
    }

    /// Whether the promised bound has been breached: uncontrolled loss
    /// pushed the accounted total past the [`DegradationPolicy`] budget.
    /// Latched — a breach is never silently forgotten.
    pub fn bound_breached(&self) -> bool {
        self.bound_breached
    }

    /// Whether phantom maintenance is currently disabled (level ≥ 2).
    pub fn phantoms_disabled(&self) -> bool {
        self.level >= GuardLevel::PhantomsOff
    }

    /// Whether an allocation repair is pending (level reached 3 and the
    /// request has not been consumed).
    pub fn repair_requested(&self) -> bool {
        self.repair_requested
    }

    /// Consumes a pending repair request; returns whether one was set.
    pub fn take_repair_request(&mut self) -> bool {
        std::mem::take(&mut self.repair_requested)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_one_level_per_breached_epoch() {
        let mut g = OverloadGuard::new(GuardPolicy::new(100.0));
        assert_eq!(g.level(), GuardLevel::Normal);
        let t = g.observe_epoch(1, 150.0).expect("transition");
        assert_eq!((t.from, t.to), (GuardLevel::Normal, GuardLevel::Shedding));
        g.observe_epoch(2, 150.0);
        assert_eq!(g.level(), GuardLevel::PhantomsOff);
        g.observe_epoch(3, 150.0);
        assert_eq!(g.level(), GuardLevel::Repair);
        assert!(g.repair_requested());
        // Saturates at Repair; no further transition.
        assert!(g.observe_epoch(4, 150.0).is_none());
        assert_eq!(g.level(), GuardLevel::Repair);
    }

    #[test]
    fn hysteresis_band_holds_level() {
        let mut p = GuardPolicy::new(100.0);
        p.recover_ratio = 0.7;
        let mut g = OverloadGuard::new(p);
        g.observe_epoch(1, 150.0);
        assert_eq!(g.level(), GuardLevel::Shedding);
        // 80 is below budget but above 70: hold.
        assert!(g.observe_epoch(2, 80.0).is_none());
        assert_eq!(g.level(), GuardLevel::Shedding);
        // 60 is calm: step down.
        let t = g.observe_epoch(3, 60.0).expect("recovers");
        assert_eq!(t.to, GuardLevel::Normal);
    }

    #[test]
    fn recover_epochs_requires_a_calm_streak() {
        let mut p = GuardPolicy::new(100.0);
        p.recover_epochs = 2;
        let mut g = OverloadGuard::new(p);
        g.observe_epoch(1, 150.0);
        assert!(
            g.observe_epoch(2, 10.0).is_none(),
            "one calm epoch is not enough"
        );
        assert!(
            g.observe_epoch(3, 10.0).is_some(),
            "two calm epochs de-escalate"
        );
        assert_eq!(g.level(), GuardLevel::Normal);
    }

    #[test]
    fn shedding_keeps_one_in_shed_factor() {
        let mut g = OverloadGuard::new(GuardPolicy::new(100.0));
        // Level 0: nothing shed.
        assert_eq!(g.shed_decision(), ShedDecision::Process);
        g.observe_epoch(1, 200.0);
        let shed: Vec<bool> = (0..8)
            .map(|_| g.shed_decision() == ShedDecision::Shed)
            .collect();
        assert_eq!(
            shed,
            [false, true, true, true, false, true, true, true],
            "keeps exactly 1 in 4"
        );
    }

    #[test]
    fn repair_request_is_consumed_once() {
        let mut g = OverloadGuard::new(GuardPolicy::new(1.0));
        for e in 1..=3 {
            g.observe_epoch(e, 10.0);
        }
        assert!(g.take_repair_request());
        assert!(!g.take_repair_request());
        // Another breached epoch at Repair re-arms the request.
        g.observe_epoch(4, 10.0);
        assert!(g.repair_requested());
    }

    #[test]
    fn phantoms_disabled_from_level_two() {
        let mut g = OverloadGuard::new(GuardPolicy::new(100.0));
        g.observe_epoch(1, 150.0);
        assert!(!g.phantoms_disabled());
        g.observe_epoch(2, 150.0);
        assert!(g.phantoms_disabled());
    }

    #[test]
    fn best_effort_never_denies_or_breaches() {
        let mut g = OverloadGuard::new(GuardPolicy::new(100.0));
        g.observe_epoch(1, 200.0);
        let mut shed = 0;
        for _ in 0..1000 {
            match g.shed_decision() {
                ShedDecision::Shed => {
                    g.account_loss(1);
                    shed += 1;
                }
                ShedDecision::Denied => panic!("best-effort must never deny"),
                ShedDecision::Process => {}
            }
        }
        assert_eq!(shed, 750, "3 of 4 shed");
        assert_eq!(g.records_lost(), 750);
        assert!(!g.bound_breached());
    }

    #[test]
    fn bounded_approx_sheds_exactly_up_to_the_budget() {
        let policy = GuardPolicy::new(100.0)
            .with_degradation(DegradationPolicy::BoundedApprox { max_width: 5 });
        let mut g = OverloadGuard::new(policy);
        g.observe_epoch(1, 200.0);
        let mut shed = 0;
        let mut denied = 0;
        for _ in 0..100 {
            match g.shed_decision() {
                ShedDecision::Shed => {
                    g.account_loss(1);
                    shed += 1;
                }
                ShedDecision::Denied => denied += 1,
                ShedDecision::Process => {}
            }
        }
        assert_eq!(shed, 5, "controlled sheds stop at the budget");
        assert_eq!(denied, 70, "the remaining drop slots are denied");
        assert_eq!(g.records_lost(), 5);
        assert!(!g.bound_breached(), "spending the budget is not a breach");
        // An uncontrolled loss past the budget latches the alert.
        g.account_loss(1);
        assert!(g.bound_breached());
    }

    #[test]
    fn exact_or_stall_skips_the_shedding_rung() {
        let policy = GuardPolicy::new(100.0).with_degradation(DegradationPolicy::ExactOrStall);
        let mut g = OverloadGuard::new(policy);
        let t = g.observe_epoch(1, 150.0).expect("transition");
        assert_eq!(
            (t.from, t.to),
            (GuardLevel::Normal, GuardLevel::PhantomsOff),
            "the lossy rung is skipped"
        );
        // The round-robin keep slot still processes; every slot that
        // would shed is denied instead — never `Shed`.
        let mut denied = 0;
        for _ in 0..8 {
            match g.shed_decision() {
                ShedDecision::Shed => panic!("exact-or-stall must never shed"),
                ShedDecision::Denied => denied += 1,
                ShedDecision::Process => {}
            }
        }
        assert!(denied > 0, "drop slots are denied under a zero budget");
        for _ in 0..8 {
            assert_ne!(g.shed_decision(), ShedDecision::Shed, "no shedding");
        }
        assert_eq!(g.records_lost(), 0);
        assert!(!g.bound_breached());
        // Relaxing skips the rung on the way down too.
        let t = g.observe_epoch(2, 10.0).expect("recovers");
        assert_eq!(
            (t.from, t.to),
            (GuardLevel::PhantomsOff, GuardLevel::Normal)
        );
        // Any uncontrolled loss is a breach under a zero budget.
        g.account_loss(1);
        assert!(g.bound_breached());
    }

    #[test]
    fn loss_budgets_follow_the_policy() {
        assert_eq!(DegradationPolicy::ExactOrStall.loss_budget(), Some(0));
        assert_eq!(
            DegradationPolicy::BoundedApprox { max_width: 9 }.loss_budget(),
            Some(9)
        );
        assert_eq!(DegradationPolicy::BestEffort.loss_budget(), None);
        assert_eq!(DegradationPolicy::default(), DegradationPolicy::BestEffort);
    }
}
