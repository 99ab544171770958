//! Per-round metrics recording.

use congames_model::{ApproxEquilibrium, CongestionGame, State};

/// Metrics of one recorded round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundRecord {
    /// Round index (0 = initial state, before any migration).
    pub round: u64,
    /// Rosenthal potential `Φ`.
    pub potential: f64,
    /// Average latency `L_av`.
    pub l_av: f64,
    /// Average ex-post latency `L+_av`.
    pub l_av_plus: f64,
    /// Maximum latency of a used strategy.
    pub max_latency: f64,
    /// Number of players that migrated in the round ending here (0 for a
    /// record of round 0; a run resumed from a manually-stepped state
    /// reports the migrations of the step that produced its start round).
    pub migrations: u64,
    /// Number of strategies in use (`O(1)` off the state's support index,
    /// which the engines keep maintained — recording never rescans the
    /// counts).
    pub support: usize,
    /// Fraction of players on expensive/cheap strategies per Definition 1,
    /// when an [`ApproxEquilibrium`] was configured.
    pub unsatisfied_fraction: Option<f64>,
    /// Whether a scheduled-event hook (see [`RoundHook`](crate::RoundHook))
    /// mutated the game/state immediately before this round — i.e. this
    /// record is the first one reflecting the post-shock world. Always
    /// `false` in stationary runs.
    pub shock: bool,
}

/// What to record along a run.
///
/// Recording happens only inside `Simulation::run` /
/// `Simulation::run_observed` (which captures each record and hands it to
/// the caller's [`Observer`](crate::Observer)); manual `step` calls never
/// record, whatever this is set to.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecordConfig {
    /// Record every `every` rounds (0 disables recording entirely). When
    /// non-zero, a run records the state it starts from (round index
    /// `r₀`, its current round — not necessarily round 0) and the state
    /// the stop condition fires in (deduplicated if that round is on the
    /// cadence anyway). A run that fails mid-way returns an error and no
    /// trajectory at all.
    pub every: u64,
    /// Also track the unsatisfied fraction against this test.
    pub approx: Option<ApproxEquilibrium>,
}

impl RecordConfig {
    /// Record every round.
    pub fn every_round() -> Self {
        RecordConfig { every: 1, approx: None }
    }

    /// Record every `every` rounds (0 disables recording).
    pub fn every(every: u64) -> Self {
        RecordConfig { every, approx: None }
    }

    /// Record every round, including the unsatisfied fraction of `approx`.
    pub fn with_approx(approx: ApproxEquilibrium) -> Self {
        RecordConfig { every: 1, approx: Some(approx) }
    }

    /// Disable recording.
    pub fn disabled() -> Self {
        RecordConfig { every: 0, approx: None }
    }
}

/// The recorded time series of a run.
#[derive(Debug, Clone, Default)]
pub struct Trajectory {
    records: Vec<RoundRecord>,
}

impl Trajectory {
    pub(crate) fn new() -> Self {
        Trajectory { records: Vec::new() }
    }

    pub(crate) fn push(&mut self, record: RoundRecord) {
        self.records.push(record);
    }

    /// The recorded rounds, in order.
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }
}

pub(crate) fn capture_record(
    game: &CongestionGame,
    state: &State,
    round: u64,
    potential: f64,
    migrations: u64,
    approx: Option<&ApproxEquilibrium>,
    shock: bool,
) -> RoundRecord {
    let l_av = congames_model::average_latency(game, state);
    let l_av_plus = congames_model::average_latency_plus(game, state);
    let max_latency = congames_model::makespan(game, state);
    let unsatisfied_fraction = approx.map(|a| a.status(game, state).unsatisfied_fraction());
    RoundRecord {
        round,
        potential,
        l_av,
        l_av_plus,
        max_latency,
        migrations,
        support: state.support_size(),
        unsatisfied_fraction,
        shock,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_config_constructors() {
        assert_eq!(RecordConfig::every_round().every, 1);
        assert_eq!(RecordConfig::disabled().every, 0);
        let approx = ApproxEquilibrium::new(0.1, 0.1, 0.0).unwrap();
        assert!(RecordConfig::with_approx(approx).approx.is_some());
    }
}
