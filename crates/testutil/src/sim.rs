//! Multi-trial simulation helpers for comparing round engines.

use congames_dynamics::{EngineKind, Protocol, RoundRecord, Simulation};
use congames_model::{CongestionGame, State};
use congames_sampling::RngMode;

use crate::rng::fixture_stream;

/// A [`RoundRecord`] as comparable bits: round, `[potential, l_av,
/// l_av_plus, max_latency]` bits, migrations, support, the unsatisfied
/// fraction's bits, and the shock flag.
pub type RecordBits = (u64, [u64; 4], u64, usize, Option<u64>, bool);

/// A record as comparable bits (float fields by `to_bits`).
pub fn record_bits(r: &RoundRecord) -> RecordBits {
    (
        r.round,
        [r.potential.to_bits(), r.l_av.to_bits(), r.l_av_plus.to_bits(), r.max_latency.to_bits()],
        r.migrations,
        r.support,
        r.unsatisfied_fraction.map(f64::to_bits),
        r.shock,
    )
}

/// A per-trial scalar summary of a finished (short) run.
pub type StateStat = fn(&CongestionGame, &State) -> f64;

/// Run `trials` independent simulations of `protocol` on `game` from
/// `start`, each for exactly `rounds` rounds with the given `engine`, and
/// return `stat(game, final_state)` per trial.
///
/// Trial `i` uses the RNG `fixture_rng(label, i)`, so both engines can be
/// handed the *same* seed streams — any systematic difference between the
/// returned samples is then attributable to the engines, not the seeds.
///
/// # Panics
///
/// Panics if the simulation cannot be constructed or a round fails.
#[allow(clippy::too_many_arguments)]
pub fn trial_stats(
    label: &str,
    game: &CongestionGame,
    protocol: Protocol,
    start: &State,
    engine: EngineKind,
    rounds: u64,
    trials: u64,
    stat: StateStat,
) -> Vec<f64> {
    trial_stats_mode(label, RngMode::Xoshiro, game, protocol, start, engine, rounds, trials, stat)
}

/// [`trial_stats`] with an explicit RNG backend: trial `i` draws from
/// `fixture_stream(label, mode, i)`. Xoshiro mode is bit-identical to
/// [`trial_stats`]; counter mode is the cross-backend comparison arm.
#[allow(clippy::too_many_arguments)]
pub fn trial_stats_mode(
    label: &str,
    mode: RngMode,
    game: &CongestionGame,
    protocol: Protocol,
    start: &State,
    engine: EngineKind,
    rounds: u64,
    trials: u64,
    stat: StateStat,
) -> Vec<f64> {
    (0..trials)
        .map(|trial| {
            let mut sim = Simulation::new(game, protocol, start.clone())
                .expect("valid equivalence-trial simulation")
                .with_engine(engine);
            let mut rng = fixture_stream(label, mode, trial);
            for _ in 0..rounds {
                sim.step(&mut rng).expect("equivalence-trial round");
            }
            stat(game, sim.state())
        })
        .collect()
}

/// Histogram of `state.counts()[strategy]` over `trials` short runs:
/// the per-strategy occupancy distribution realized by `engine`.
///
/// The histogram has `game.total_players() + 1` cells (occupancy `0..=n`).
#[allow(clippy::too_many_arguments)]
pub fn occupancy_histogram(
    label: &str,
    game: &CongestionGame,
    protocol: Protocol,
    start: &State,
    engine: EngineKind,
    rounds: u64,
    trials: u64,
    strategy: usize,
) -> Vec<u64> {
    occupancy_histogram_mode(
        label,
        RngMode::Xoshiro,
        game,
        protocol,
        start,
        engine,
        rounds,
        trials,
        strategy,
    )
}

/// [`occupancy_histogram`] with an explicit RNG backend (see
/// [`trial_stats_mode`] for the stream derivation).
#[allow(clippy::too_many_arguments)]
pub fn occupancy_histogram_mode(
    label: &str,
    mode: RngMode,
    game: &CongestionGame,
    protocol: Protocol,
    start: &State,
    engine: EngineKind,
    rounds: u64,
    trials: u64,
    strategy: usize,
) -> Vec<u64> {
    let mut hist = vec![0u64; game.total_players() as usize + 1];
    for trial in 0..trials {
        let mut sim = Simulation::new(game, protocol, start.clone())
            .expect("valid occupancy-trial simulation")
            .with_engine(engine);
        let mut rng = fixture_stream(label, mode, trial);
        for _ in 0..rounds {
            sim.step(&mut rng).expect("occupancy-trial round");
        }
        hist[sim.state().counts()[strategy] as usize] += 1;
    }
    hist
}
