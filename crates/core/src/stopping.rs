//! Stopping conditions for simulation runs.

use congames_model::{is_imitation_stable, is_nash_equilibrium, ApproxEquilibrium};

use crate::engine::Simulation;
use crate::observe::Observer;
use crate::trajectory::{capture_record, RecordConfig, Trajectory};

/// A condition that ends a run.
///
/// Conditions come in two cost classes, and [`StopSpec::check_every`]
/// applies only to the expensive one:
///
/// * **Cheap, checked every round** (exempt from `check_every`):
///   [`StopCondition::MaxRounds`] and [`StopCondition::PotentialAtMost`]
///   read values the simulation already maintains, so they fire on the
///   exact round they become true — whatever the cadence.
/// * **Expensive, cadence-gated**: [`StopCondition::ImitationStable`],
///   [`StopCondition::ApproxEquilibrium`], and
///   [`StopCondition::NashEquilibrium`] cost `O(S²·k)` per evaluation and
///   are only evaluated on rounds with `round % check_every == 0`, so
///   detection can lag by up to `check_every − 1` rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum StopCondition {
    /// Stop after this many rounds. Cheap: checked every round, never
    /// gated by [`StopSpec::check_every`].
    MaxRounds(u64),
    /// Stop when the state is imitation-stable (no player can gain more than
    /// the protocol's effective `ν` by imitating within the support). For
    /// innovative protocols prefer [`StopCondition::NashEquilibrium`].
    /// Expensive: only evaluated at the [`StopSpec::check_every`] cadence.
    ImitationStable,
    /// Stop when the state is a (δ,ε,ν)-equilibrium (Definition 1).
    /// Expensive: only evaluated at the [`StopSpec::check_every`] cadence.
    ApproxEquilibrium(ApproxEquilibrium),
    /// Stop when the state is an `ε`-Nash equilibrium with additive
    /// tolerance `tol` over the *full* strategy space.
    /// Expensive: only evaluated at the [`StopSpec::check_every`] cadence.
    NashEquilibrium {
        /// Additive tolerance (0 = exact Nash).
        tol: f64,
    },
    /// Stop when the potential is at most this value (e.g. `(1+ε)·Φ*`).
    /// Cheap: checked every round, never gated by
    /// [`StopSpec::check_every`].
    PotentialAtMost(f64),
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StopReason {
    /// The round budget was exhausted.
    MaxRounds,
    /// An imitation-stable state was reached.
    ImitationStable,
    /// A (δ,ε,ν)-equilibrium was reached.
    ApproxEquilibrium,
    /// An (approximate) Nash equilibrium was reached.
    NashEquilibrium,
    /// The potential target was reached.
    PotentialReached,
}

/// A set of stop conditions plus a check cadence.
///
/// Equilibrium checks cost `O(S²·k)`; `check_every` trades detection latency
/// against per-round overhead. The cadence gates **only** the expensive
/// conditions ([`StopCondition::ImitationStable`],
/// [`StopCondition::ApproxEquilibrium`],
/// [`StopCondition::NashEquilibrium`]); the cheap conditions
/// ([`StopCondition::MaxRounds`], [`StopCondition::PotentialAtMost`]) are
/// exempt and checked every round, so a round budget fires exactly even at
/// `check_every > 1` while an equilibrium reached on an off-cadence round
/// is detected at the next cadence round.
#[derive(Debug, Clone, PartialEq)]
pub struct StopSpec {
    conditions: Vec<StopCondition>,
    check_every: u64,
}

impl StopSpec {
    /// Create a spec checking the expensive conditions every round.
    pub fn new(conditions: Vec<StopCondition>) -> Self {
        StopSpec { conditions, check_every: 1 }
    }

    /// Only bound the number of rounds.
    pub fn max_rounds(rounds: u64) -> Self {
        StopSpec::new(vec![StopCondition::MaxRounds(rounds)])
    }

    /// Check expensive conditions every `every` rounds (≥ 1). Cheap
    /// conditions (round budget, potential target) stay exempt and are
    /// checked every round; see the type-level docs for the split.
    pub fn with_check_every(mut self, every: u64) -> Self {
        self.check_every = every.max(1);
        self
    }

    /// The configured conditions.
    pub fn conditions(&self) -> &[StopCondition] {
        &self.conditions
    }

    /// The expensive-check cadence.
    pub fn check_every(&self) -> u64 {
        self.check_every
    }
}

/// The record/stop rule every run follows, applied at the simulation's
/// current round; `Some` when the run stops there. `reason` is the stop
/// verdict at this round ([`stop_reason`], or the ensemble's verdict at
/// its start; see `Simulation::run_observed_from`).
///
/// With a non-zero recording cadence the observer sees the record of the
/// round the run started in (`start_round`, possibly off the cadence), one
/// record per cadence round, and the record of the stop round
/// (deduplicated when on the cadence). `shock` marks a round whose
/// scheduled events fired just before it.
pub(crate) fn drive_round<O: Observer>(
    sim: &Simulation<'_>,
    reason: Option<StopReason>,
    record: &RecordConfig,
    start_round: u64,
    shock: bool,
    observer: &mut O,
) -> Option<RunSummary> {
    let round = sim.round();
    let potential = sim.potential();
    if record.every > 0 && (reason.is_some() || round == start_round || round % record.every == 0) {
        observer.observe(&capture_record(
            sim.game(),
            sim.state(),
            round,
            potential,
            sim.last_migrations(),
            record.approx.as_ref(),
            shock,
        ));
    }
    Some(RunSummary { reason: reason?, rounds: round, potential })
}

/// The first condition of `stop`, in spec order, that holds for `sim`
/// at its current round.
///
/// While a round hook still has scheduled fires (`events_pending`), the
/// run is nonstationary by declaration: equilibrium-type conditions are
/// deferred until the schedule drains (today's stable state is not an
/// outcome, it is the pre-shock reference). Only the round budget can stop
/// a run mid-schedule.
pub(crate) fn stop_reason(stop: &StopSpec, sim: &Simulation<'_>) -> Option<StopReason> {
    let round = sim.round();
    let events_pending = sim.events_pending();
    let expensive_due = round % stop.check_every() == 0 && !events_pending;
    let (game, state) = (sim.game(), sim.state());
    for cond in stop.conditions() {
        let reason = match *cond {
            StopCondition::MaxRounds(r) => (round >= r).then_some(StopReason::MaxRounds),
            StopCondition::PotentialAtMost(v) => {
                (!events_pending && sim.potential() <= v).then_some(StopReason::PotentialReached)
            }
            _ if !expensive_due => None,
            StopCondition::ImitationStable => {
                let threshold = sim.protocol().stability_threshold(sim.params());
                is_imitation_stable(game, state, threshold).then_some(StopReason::ImitationStable)
            }
            StopCondition::ApproxEquilibrium(eq) => {
                eq.is_satisfied(game, state).then_some(StopReason::ApproxEquilibrium)
            }
            StopCondition::NashEquilibrium { tol } => {
                is_nash_equilibrium(game, state, tol).then_some(StopReason::NashEquilibrium)
            }
        };
        if reason.is_some() {
            return reason;
        }
    }
    None
}

/// The trajectory-free result of a run: what stopped it, when, and at
/// which potential.
///
/// This is what `Simulation::run_observed` returns — per-round data flows
/// through the caller's [`Observer`](crate::Observer) instead of being
/// materialized. [`RunOutcome`] is this summary plus a recorded
/// [`Trajectory`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Which condition fired.
    pub reason: StopReason,
    /// Rounds executed (the stop condition was detected after this many).
    pub rounds: u64,
    /// Final potential.
    pub potential: f64,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Which condition fired.
    pub reason: StopReason,
    /// Rounds executed (the stop condition was detected after this many).
    pub rounds: u64,
    /// Final potential.
    pub potential: f64,
    /// Recorded metrics (empty if recording was disabled).
    pub trajectory: Trajectory,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builders() {
        let s = StopSpec::max_rounds(10);
        assert_eq!(s.conditions().len(), 1);
        assert_eq!(s.check_every(), 1);
        let s2 = StopSpec::new(vec![StopCondition::ImitationStable]).with_check_every(0);
        assert_eq!(s2.check_every(), 1, "cadence is clamped to at least 1");
        let s3 = s2.with_check_every(16);
        assert_eq!(s3.check_every(), 16);
    }
}
