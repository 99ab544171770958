//! Applying scheduled events to a running game, cache-coherently.
//!
//! Every mutation routes through the model's mutators and then through
//! `State::invalidate_caches_for_game_change`, because a latency swap or a
//! population change silently invalidates both opt-in state caches (the
//! per-resource latency cache and the per-class support index) — arrivals
//! and departures even break the *support invariance* the sparse kernels
//! lean on. The engine additionally rebuilds its own derived structures
//! (protocol parameters, class offsets, player array, potential) after any
//! hook firing, so a scenario run stays exactly as consistent as a
//! stationary one.

use std::sync::Arc;

use congames_dynamics::{DynamicsError, RoundHook};
use congames_model::{CongestionGame, GameError, ResourceId, State, StrategyId};

use crate::error::ScenarioError;
use crate::event::{Schedule, ScheduledEvent};

/// Apply one event to `game`/`state`, leaving both mutually consistent
/// and every state cache invalidated.
///
/// Demand changes ([`ScheduledEvent::SetDemand`]) place the difference
/// deterministically: an increase lands on the class's lowest-id occupied
/// strategy (or its first strategy when the class is empty); a decrease
/// drains strategies in ascending id order, first-fit.
///
/// # Errors
///
/// Unknown resource/strategy/class ids, departures exceeding the players
/// actually present, arrivals that would overflow a `u64` population,
/// count, or load, and latency changes whose result is non-finite or
/// negative are rejected with the game and state left unchanged.
pub fn apply_event(
    game: &mut CongestionGame,
    state: &mut State,
    event: &ScheduledEvent,
) -> Result<(), ScenarioError> {
    match *event {
        ScheduledEvent::SetLatency { resource, ref latency } => {
            let r = ResourceId::new(resource);
            swap_latency(game, state, r, |game| game.set_latency(r, latency.build()))?;
        }
        ScheduledEvent::ScaleLatency { resource, factor } => {
            let r = ResourceId::new(resource);
            swap_latency(game, state, r, |game| game.scale_latency(r, factor))?;
        }
        ScheduledEvent::AddPlayers { strategy, count } => {
            let sid = StrategyId::new(strategy);
            game.check_strategy(sid)?;
            let class = game.class_of(sid);
            check_population(game, count)?;
            let players = game.classes()[class].players();
            // State first, as for departures: `add_players` validates its
            // counts and loads, maintains them, and invalidates caches.
            state.add_players(game, sid, count)?;
            game.set_class_players(class, players + count)?;
        }
        ScheduledEvent::RemovePlayers { strategy, count } => {
            let sid = StrategyId::new(strategy);
            game.check_strategy(sid)?;
            let class = game.class_of(sid);
            // State first: it validates availability and leaves everything
            // unchanged on failure, so the game is never left half-mutated.
            state.remove_players(game, sid, count)?;
            let players = game.classes()[class].players();
            game.set_class_players(class, players - count)?;
        }
        ScheduledEvent::SetDemand { class, players } => {
            let Some(c) = game.classes().get(class) else {
                return Err(ScenarioError::Apply {
                    round: 0,
                    message: format!(
                        "class {class} out of range ({} classes)",
                        game.classes().len()
                    ),
                });
            };
            let current = c.players();
            let range = c.strategy_range();
            if players > current {
                // Arrivals: the lowest-id occupied strategy, or the
                // class's first strategy when nobody is there yet.
                let target = range
                    .clone()
                    .map(StrategyId::new)
                    .find(|s| state.counts()[s.index()] > 0)
                    .unwrap_or(StrategyId::new(range.start));
                check_population(game, players - current)?;
                state.add_players(game, target, players - current)?;
                game.set_class_players(class, players)?;
            } else if players < current {
                // Departures: drain ascending strategy ids, first-fit.
                let mut remaining = current - players;
                for s in range.map(StrategyId::new) {
                    if remaining == 0 {
                        break;
                    }
                    let take = state.counts()[s.index()].min(remaining);
                    if take > 0 {
                        state.remove_players(game, s, take)?;
                        remaining -= take;
                    }
                }
                debug_assert_eq!(remaining, 0, "class counts summed to the class demand");
                game.set_class_players(class, players)?;
            }
        }
    }
    Ok(())
}

/// Replace resource `r`'s latency through `mutate`, then require the new
/// function to pass [`CongestionGame::check_latency_domain`] (finite and
/// non-negative at load 0 and one past the largest load a player could
/// face), the check every run start makes too. A function that fails is
/// swapped back out, so the game and state are left unchanged.
fn swap_latency(
    game: &mut CongestionGame,
    state: &mut State,
    r: ResourceId,
    mutate: impl FnOnce(&mut CongestionGame) -> Result<(), GameError>,
) -> Result<(), ScenarioError> {
    let previous = game.resources().get(r.index()).map(|res| res.latency().clone());
    mutate(game)?;
    if let Err(e) = game.check_latency_domain(r, state.base_load(r)) {
        game.set_latency(r, previous.expect("the mutation validated the resource"))?;
        return Err(ScenarioError::Apply { round: 0, message: e.to_string() });
    }
    state.invalidate_caches_for_game_change();
    Ok(())
}

/// Arrivals must keep the game's total population — and with it every
/// class size — inside `u64`; a wrapped count would silently shrink it.
fn check_population(game: &CongestionGame, added: u64) -> Result<(), ScenarioError> {
    let present = game.total_players();
    match present.checked_add(added) {
        Some(_) => Ok(()),
        None => Err(GameError::PlayerOverflow { what: "population", present, added }.into()),
    }
}

/// A [`Schedule`] adapted to the engine's [`RoundHook`] seam: a cursor
/// over the events, applying everything due at (or before — a resumed run
/// catches up) the fire round.
///
/// Cursors are cheap to construct from a shared `Arc<Schedule>`, which is
/// exactly what `Ensemble::with_round_hook` wants: one fresh cursor per
/// replica, all replaying the same schedule.
///
/// # Example
///
/// ```
/// use congames_scenario::{generate, ScheduleCursor};
/// use congames_dynamics::{Ensemble, FinalSummary, ImitationProtocol, StopSpec, Welford, MapItem};
/// use congames_model::{Affine, CongestionGame, State};
/// use std::sync::Arc;
///
/// let game = CongestionGame::singleton(
///     vec![Affine::linear(1.0).into(), Affine::linear(1.0).into()],
///     64,
/// )?;
/// let start = State::from_counts(&game, vec![32, 32])?;
/// let schedule = Arc::new(generate::step_shock(10, 0, 3.0)?);
/// let stats = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start)?
///     .trials(8)
///     .with_round_hook(move || Box::new(ScheduleCursor::new(Arc::clone(&schedule))))
///     .run_reduced(
///         &StopSpec::max_rounds(30),
///         |_trial| FinalSummary,
///         MapItem::new(|s: congames_dynamics::RunSummary| s.potential, Welford::new()),
///     )?;
/// assert_eq!(stats.into_inner().count(), 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScheduleCursor {
    schedule: Arc<Schedule>,
    next: usize,
}

impl ScheduleCursor {
    /// A cursor at the start of `schedule`.
    pub fn new(schedule: Arc<Schedule>) -> Self {
        ScheduleCursor { schedule, next: 0 }
    }

    /// Events not yet fired.
    pub fn remaining(&self) -> usize {
        self.schedule.len() - self.next
    }
}

impl RoundHook for ScheduleCursor {
    fn next_fire(&self) -> Option<u64> {
        self.schedule.events().get(self.next).map(|(round, _)| *round)
    }

    fn fire(
        &mut self,
        round: u64,
        game: &mut CongestionGame,
        state: &mut State,
    ) -> Result<bool, DynamicsError> {
        let mut changed = false;
        while let Some((fire_round, event)) = self.schedule.events().get(self.next) {
            if *fire_round > round {
                break;
            }
            apply_event(game, state, event).map_err(|e| DynamicsError::Hook {
                message: match e {
                    // `apply_event` does not know the round; stamp it here.
                    ScenarioError::Apply { message, .. } => {
                        ScenarioError::Apply { round: *fire_round, message }.to_string()
                    }
                    e => format!("scheduled event at round {fire_round}: {e}"),
                },
            })?;
            self.next += 1;
            changed = true;
        }
        Ok(changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LatencySpec;
    use congames_model::{potential, Affine};

    fn two_links(n: u64, counts: Vec<u64>) -> (CongestionGame, State) {
        let game = CongestionGame::singleton(
            vec![Affine::linear(1.0).into(), Affine::linear(2.0).into()],
            n,
        )
        .unwrap();
        let state = State::from_counts(&game, counts).unwrap();
        (game, state)
    }

    #[test]
    fn set_and_scale_latency_take_effect_and_invalidate_caches() {
        let (mut game, mut state) = two_links(10, vec![6, 4]);
        state.ensure_latency_cache(&game);
        apply_event(
            &mut game,
            &mut state,
            &ScheduledEvent::SetLatency {
                resource: 0,
                latency: LatencySpec::Constant { value: 7.5 },
            },
        )
        .unwrap();
        state.ensure_latency_cache(&game);
        assert_eq!(state.strategy_latency(&game, StrategyId::new(0)), 7.5);
        apply_event(
            &mut game,
            &mut state,
            &ScheduledEvent::ScaleLatency { resource: 1, factor: 0.5 },
        )
        .unwrap();
        state.ensure_latency_cache(&game);
        assert_eq!(state.strategy_latency(&game, StrategyId::new(1)), 4.0);
        assert!((potential(&game, &state) - (6.0 * 7.5 + (1.0 + 2.0 + 3.0 + 4.0))).abs() < 1e-12);
    }

    #[test]
    fn population_events_keep_game_and_state_consistent() {
        let (mut game, mut state) = two_links(10, vec![6, 4]);
        apply_event(&mut game, &mut state, &ScheduledEvent::AddPlayers { strategy: 1, count: 5 })
            .unwrap();
        assert_eq!(game.total_players(), 15);
        assert_eq!(state.counts(), &[6, 9]);
        apply_event(
            &mut game,
            &mut state,
            &ScheduledEvent::RemovePlayers { strategy: 0, count: 6 },
        )
        .unwrap();
        assert_eq!(game.total_players(), 9);
        assert_eq!(state.counts(), &[0, 9]);
        // Over-draining fails and leaves both untouched.
        let err = apply_event(
            &mut game,
            &mut state,
            &ScheduledEvent::RemovePlayers { strategy: 0, count: 1 },
        )
        .unwrap_err();
        assert!(matches!(err, ScenarioError::Game(GameError::InsufficientPlayers { .. })));
        assert_eq!(game.total_players(), 9);
        assert_eq!(state.counts(), &[0, 9]);
    }

    #[test]
    fn overflowing_arrivals_fail_and_leave_game_and_state_unchanged() {
        // Two classes of 1000 on disjoint links: raising class 0's demand
        // to u64::MAX overflows only the total population.
        let mut b = CongestionGame::builder();
        let links = [
            b.add_resource(Affine::linear(1.0).into()),
            b.add_resource(Affine::linear(2.0).into()),
        ];
        for (&name, &r) in ["a", "b"].iter().zip(&links) {
            b.add_class(name, 1000, vec![congames_model::Strategy::singleton(r)]).unwrap();
        }
        let mut game = b.build().unwrap();
        let mut state = State::from_counts(&game, vec![1000, 1000]).unwrap();
        let (game0, state0) = (game.clone(), state.clone());
        for event in [
            ScheduledEvent::AddPlayers { strategy: 0, count: u64::MAX },
            ScheduledEvent::SetDemand { class: 0, players: u64::MAX },
        ] {
            let err = apply_event(&mut game, &mut state, &event).unwrap_err();
            assert!(
                matches!(err, ScenarioError::Game(GameError::PlayerOverflow { .. })),
                "{event:?}: {err}"
            );
            assert!(err.to_string().contains("overflows u64"), "{err}");
            assert_eq!(game.total_players(), 2000);
            assert_eq!(state, state0);
            assert_eq!(format!("{game:?}"), format!("{game0:?}"));
        }
        // The state's own guard: a strategy count that would wrap.
        let (game, mut state) = two_links(2000, vec![1000, 1000]);
        let err = state.add_players(&game, StrategyId::new(1), u64::MAX - 5).unwrap_err();
        assert_eq!(
            err,
            GameError::PlayerOverflow { what: "strategy", present: 1000, added: u64::MAX - 5 }
        );
        assert_eq!(state.counts(), &[1000, 1000]);
    }

    #[test]
    fn non_finite_latencies_fail_and_leave_game_and_state_unchanged() {
        // Links 1,2,4 with 2000 players: one ×1e300 keeps ℓ(2001) finite,
        // the second compounds it to ∞.
        let mut game = CongestionGame::singleton(
            [1.0, 2.0, 4.0].map(|a| Affine::linear(a).into()).to_vec(),
            2000,
        )
        .unwrap();
        let mut state = State::from_counts(&game, vec![1000, 600, 400]).unwrap();
        let scale = ScheduledEvent::ScaleLatency { resource: 0, factor: 1e300 };
        apply_event(&mut game, &mut state, &scale).unwrap();
        state.ensure_latency_cache(&game);
        let (game0, state0) = (game.clone(), state.clone());
        let overflowing = LatencySpec::Monomial { coefficient: 1e300, degree: 4 };
        for event in
            [scale.clone(), ScheduledEvent::SetLatency { resource: 1, latency: overflowing }]
        {
            let err = apply_event(&mut game, &mut state, &event).unwrap_err();
            assert!(matches!(err, ScenarioError::Apply { .. }), "{event:?}: {err}");
            assert!(err.to_string().contains("finite and non-negative"), "{err}");
            assert_eq!(state, state0);
            assert_eq!(format!("{game:?}"), format!("{game0:?}"));
            for load in [0, 1, 2001] {
                for r in 0..3 {
                    let r = ResourceId::new(r);
                    assert_eq!(game.latency(r, load).to_bits(), game0.latency(r, load).to_bits());
                }
            }
        }
        // Through a cursor, the error names the round the event fired at.
        let schedule = Arc::new(Schedule::new(vec![(4, scale)]).unwrap());
        let err = ScheduleCursor::new(schedule).fire(4, &mut game, &mut state).unwrap_err();
        assert!(err.to_string().contains("event at round 4 failed to apply"), "{err}");
        assert_eq!(state, state0);
        // Virtual agents raise the largest load a player can face: a
        // function finite at n + 1 but not at n + base + 1 is rejected.
        let mut game = CongestionGame::singleton(vec![Affine::linear(1.0).into()], 10).unwrap();
        let mut state = State::from_counts(&game, vec![10]).unwrap().with_virtual_agents(&game);
        // One virtual agent: the largest load is 10 + 1 + 1 = 12, and
        // c·x⁴ is finite at x = 11 but overflows at x = 12.
        let edge = f64::MAX / 11.5f64.powi(4);
        let err = apply_event(
            &mut game,
            &mut state,
            &ScheduledEvent::SetLatency {
                resource: 0,
                latency: LatencySpec::Monomial { coefficient: edge, degree: 4 },
            },
        );
        assert!((edge * 11f64.powi(4)).is_finite());
        assert!(matches!(err, Err(ScenarioError::Apply { .. })), "{err:?}");
    }

    #[test]
    fn set_demand_places_and_drains_deterministically() {
        let (mut game, mut state) = two_links(10, vec![0, 10]);
        // Increase lands on the lowest-id *occupied* strategy (1 here).
        apply_event(&mut game, &mut state, &ScheduledEvent::SetDemand { class: 0, players: 14 })
            .unwrap();
        assert_eq!(state.counts(), &[0, 14]);
        // Decrease drains ascending ids first-fit: strategy 0 has nothing,
        // strategy 1 loses 9.
        apply_event(&mut game, &mut state, &ScheduledEvent::SetDemand { class: 0, players: 5 })
            .unwrap();
        assert_eq!(state.counts(), &[0, 5]);
        assert_eq!(game.classes()[0].players(), 5);
        // Equal demand is a no-op.
        apply_event(&mut game, &mut state, &ScheduledEvent::SetDemand { class: 0, players: 5 })
            .unwrap();
        assert_eq!(state.counts(), &[0, 5]);
        // Empty class: the increase lands on the class's first strategy.
        apply_event(&mut game, &mut state, &ScheduledEvent::SetDemand { class: 0, players: 0 })
            .unwrap();
        apply_event(&mut game, &mut state, &ScheduledEvent::SetDemand { class: 0, players: 3 })
            .unwrap();
        assert_eq!(state.counts(), &[3, 0]);
        // Unknown class is rejected.
        assert!(matches!(
            apply_event(&mut game, &mut state, &ScheduledEvent::SetDemand { class: 7, players: 1 }),
            Err(ScenarioError::Apply { .. })
        ));
    }

    #[test]
    fn cursor_fires_due_events_in_order_and_catches_up() {
        let (mut game, mut state) = two_links(10, vec![6, 4]);
        let schedule = Arc::new(
            Schedule::new(vec![
                (3, ScheduledEvent::ScaleLatency { resource: 0, factor: 2.0 }),
                (3, ScheduledEvent::ScaleLatency { resource: 0, factor: 3.0 }),
                (8, ScheduledEvent::AddPlayers { strategy: 0, count: 1 }),
            ])
            .unwrap(),
        );
        let mut cursor = ScheduleCursor::new(Arc::clone(&schedule));
        assert_eq!(cursor.next_fire(), Some(3));
        assert_eq!(cursor.remaining(), 3);
        // Fire at round 5: both round-3 events catch up, the round-8 one
        // stays pending.
        assert!(cursor.fire(5, &mut game, &mut state).unwrap());
        assert_eq!(cursor.next_fire(), Some(8));
        state.ensure_latency_cache(&game);
        // ×2 then ×3 — both applied.
        assert_eq!(state.strategy_latency(&game, StrategyId::new(0)), 36.0);
        assert!(cursor.fire(8, &mut game, &mut state).unwrap());
        assert_eq!(cursor.next_fire(), None);
        assert_eq!(game.total_players(), 11);
    }
}
