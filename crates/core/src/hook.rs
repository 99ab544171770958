//! Between-rounds game mutation hooks — the seam nonstationary scenarios
//! plug into.
//!
//! A [`RoundHook`] is polled by `Simulation::run_observed` before every
//! round: when its [`next_fire`](RoundHook::next_fire) round comes up, the
//! hook gets `&mut` access to the game and the state, mutates them (latency
//! drift, arrivals/departures, demand changes), and the simulation rebuilds
//! every derived structure — protocol parameters, class offsets, the
//! player array, the state's latency cache and support index, and the
//! potential — before the next round runs. The concrete scheduled-event
//! implementation lives in the `congames-scenario` crate; keeping the
//! trait here lets the core engine stay independent of it.
//!
//! # Determinism contract
//!
//! Hooks must be **RNG-free** and a pure function of the round index (plus
//! their own construction): every replica of an ensemble replays the same
//! schedule, counter-mode draw streams are addressed purely by
//! `(trial, round, site, index)`, and the bit-identity guarantees (thread
//! counts 1/2/8, shard/merge, both RNG backends) all assume a firing hook
//! changes the *state the kernels see*, never the randomness they consume.

use congames_model::{CongestionGame, State};

use crate::error::DynamicsError;

/// A between-rounds mutation hook (see the module docs above).
///
/// Attached via `Simulation::with_hook` (the first firing clones the game
/// into the simulation, so the hook mutates a private copy) or, for
/// ensembles, via `Ensemble::with_round_hook` (one fresh hook per trial). An attached
/// hook with no due event costs one `Option` compare per round, so the
/// no-schedule fast path keeps its historical performance — and its
/// fixed-seed stream pins — unchanged.
pub trait RoundHook: Send + std::fmt::Debug {
    /// The next round index at which [`RoundHook::fire`] wants to run, or
    /// `None` when the hook is exhausted. Must be non-decreasing across
    /// [`RoundHook::fire`] calls (a hook that keeps reporting the current
    /// round would wedge the run loop; the engine errors instead).
    fn next_fire(&self) -> Option<u64>;

    /// Apply every mutation due at round `round` to `game`/`state`.
    /// Returns `true` if anything changed — the round's records are then
    /// marked as shock rounds ([`RoundRecord::shock`](crate::RoundRecord)).
    ///
    /// Implementations must leave `game` and `state` mutually consistent
    /// (each class's player count equal to the sum of its strategy counts);
    /// the simulation re-validates after every firing and surfaces
    /// violations as errors. State mutations should route through
    /// `State::invalidate_caches_for_game_change` (the population mutators
    /// `State::add_players` / `State::remove_players` do so internally) —
    /// the engine additionally forces a full cache rebuild after any
    /// change, so a forgotten invalidation inside the hook cannot leak
    /// stale latencies into the dynamics.
    ///
    /// # Errors
    ///
    /// A failing hook aborts the run with its error; the simulation may be
    /// left mid-mutation and must not be stepped further.
    fn fire(
        &mut self,
        round: u64,
        game: &mut CongestionGame,
        state: &mut State,
    ) -> Result<bool, DynamicsError>;
}
