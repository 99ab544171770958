//! Edge-case coverage of the dynamics layer: degenerate games, stopping
//! interactions, virtual agents, recording cadence, and trajectory APIs.

use congames::dynamics::{
    Damping, EngineKind, ImitationProtocol, NuRule, Protocol, RecordConfig, Simulation,
    StopCondition, StopReason, StopSpec,
};
use congames::model::{ApproxEquilibrium, State};
use congames::sampling::seeded_rng;
use congames::{Affine, CongestionGame, Constant, Monomial, StrategyId};

fn links(latencies: Vec<congames::model::LatencyFn>, n: u64) -> CongestionGame {
    CongestionGame::singleton(latencies, n).unwrap()
}

#[test]
fn single_player_class_is_inert_under_imitation() {
    // One player has nobody to imitate: every round is a no-op.
    let game = links(vec![Affine::linear(1.0).into(), Affine::linear(2.0).into()], 1);
    let state = State::from_counts(&game, vec![1, 0]).unwrap();
    let proto: Protocol = ImitationProtocol::paper_default().with_nu_rule(NuRule::None).into();
    for engine in [EngineKind::Aggregate, EngineKind::PlayerLevel] {
        let mut sim = Simulation::new(&game, proto, state.clone()).unwrap().with_engine(engine);
        let mut rng = seeded_rng(1, engine as u64);
        for _ in 0..50 {
            let stats = sim.step(&mut rng).unwrap();
            assert_eq!(stats.migrations, 0);
        }
        assert_eq!(sim.state().count(StrategyId::new(0)), 1);
    }
}

/// A population too large for the player-level engine's per-player array
/// is a precise error from `step`, not an allocation abort. The 2⁶²-player
/// start comes straight from counts, so building it costs nothing.
#[test]
fn player_engine_rejects_a_population_it_cannot_hold() {
    let n = 1u64 << 62;
    let game = links(vec![Affine::linear(1.0).into(), Affine::linear(2.0).into()], n);
    let state = State::from_counts(&game, vec![n, 0]).unwrap();
    let proto: Protocol = ImitationProtocol::paper_default().into();
    let mut sim =
        Simulation::new(&game, proto, state).unwrap().with_engine(EngineKind::PlayerLevel);
    let err = sim.step(&mut seeded_rng(1, 0)).expect_err("2^62 player slots cannot be allocated");
    assert!(err.to_string().contains("players"), "{err}");
    assert_eq!(sim.round(), 0, "a failed round must not advance the simulation");
}

/// The latency cache evaluates `ℓ_e(x_e + x⁰_e + 1)` on every resource, so
/// a start whose total population plus largest base load plus one
/// overflows `u64` is a precise error from every entry point (and from the
/// re-check after a hook grows the population), not a wrapped load or a
/// silently wrong potential.
#[test]
fn a_start_whose_cached_loads_overflow_is_rejected() {
    use congames::dynamics::{DynamicsError, Ensemble, RoundHook};
    let is_players = |err: &DynamicsError| {
        matches!(err, DynamicsError::InvalidParameter { name: "players", .. })
    };
    let proto: Protocol = ImitationProtocol::paper_default().into();
    let lat = || vec![Affine::linear(1.0).into(), Affine::linear(2.0).into()];
    let game = links(lat(), u64::MAX);
    let state = State::from_counts(&game, vec![u64::MAX, 0]).unwrap();
    let err = Simulation::new(&game, proto, state.clone()).unwrap_err();
    assert!(is_players(&err), "{err:?}");
    let err = Ensemble::new(&game, proto, state.clone()).unwrap_err();
    assert!(is_players(&err), "{err:?}");

    // One base load is one player too many; without it the start fits.
    let game = links(lat(), u64::MAX - 1);
    let state = State::from_counts(&game, vec![u64::MAX - 1, 0]).unwrap();
    let virt: Protocol = ImitationProtocol::paper_default().with_virtual_agents(true).into();
    let err = Simulation::new(&game, virt, state.clone().with_virtual_agents(&game)).unwrap_err();
    assert!(is_players(&err), "{err:?}");
    let sim = Simulation::new(&game, proto, state).expect("the largest start that fits");

    // A hook that grows the population past the bound fails its re-check.
    #[derive(Debug)]
    struct Arrival {
        fired: bool,
    }
    impl RoundHook for Arrival {
        fn next_fire(&self) -> Option<u64> {
            (!self.fired).then_some(0)
        }
        fn fire(
            &mut self,
            _round: u64,
            game: &mut CongestionGame,
            state: &mut State,
        ) -> Result<bool, DynamicsError> {
            state.add_players(game, StrategyId::new(1), 1)?;
            game.set_class_players(0, u64::MAX)?;
            self.fired = true;
            Ok(true)
        }
    }
    let mut sim = sim.with_hook(Box::new(Arrival { fired: false }));
    let err = sim.run(&StopSpec::max_rounds(1), &mut seeded_rng(3, 0)).unwrap_err();
    assert!(is_players(&err), "{err:?}");
}

/// Every run start requires each latency to be finite and non-negative at
/// load 0 and at the total population plus the resource's base load plus
/// one — the loads the potential and the latency cache read — as a
/// latency swap does. A start that fails is a precise error from every
/// entry point, not an infinite potential and NaN statistics.
#[test]
fn a_start_with_non_finite_latencies_is_rejected() {
    use congames::dynamics::{DynamicsError, Ensemble};
    use congames::model::GameError;
    let is_latency = |err: &DynamicsError, at: u64| match err {
        DynamicsError::Game(GameError::InvalidLatency { load, .. }) => *load == at,
        _ => false,
    };
    let proto: Protocol = ImitationProtocol::paper_default().into();
    // ℓ(x) = 10³⁰⁸·x is finite at 0 and infinite at 1001.
    let game = links(vec![Affine::linear(1e308).into(), Affine::linear(1e308).into()], 1000);
    let state = State::from_counts(&game, vec![500, 500]).unwrap();
    let err = Simulation::new(&game, proto, state.clone()).unwrap_err();
    assert!(is_latency(&err, 1001), "{err:?}");
    assert!(err.to_string().contains("finite and non-negative"), "{err}");
    let err = Ensemble::new(&game, proto, state.clone()).unwrap_err();
    assert!(is_latency(&err, 1001), "{err:?}");

    // The base load counts: 2 players reach load 3 only with virtual
    // agents, where ℓ(3) = 1.2·f64::MAX overflows and ℓ(2) does not.
    let a = f64::MAX / 2.5;
    let game = links(vec![Affine::linear(a).into(), Affine::linear(a).into()], 1);
    let state = State::from_counts(&game, vec![1, 0]).unwrap();
    Simulation::new(&game, proto, state.clone()).expect("ℓ(2) is finite");
    let virt: Protocol = ImitationProtocol::paper_default().with_virtual_agents(true).into();
    let err = Simulation::new(&game, virt, state.with_virtual_agents(&game)).unwrap_err();
    assert!(is_latency(&err, 3), "{err:?}");
}

/// Player counts never wrap silently: a class whose counts sum past `u64`
/// is rejected by `State::from_counts` (a wrapped sum could otherwise
/// match a small population), and no game can hold a total population
/// past `u64` — not at construction, not after a population mutation.
#[test]
fn populations_past_u64_are_rejected() {
    use congames::model::{GameError, Strategy};
    let is_population =
        |err: &GameError| matches!(err, GameError::PlayerOverflow { what: "population", .. });
    let lat = || vec![Affine::linear(1.0).into(), Affine::linear(2.0).into()];

    // [u64::MAX, 1] wraps to 0 players under a plain sum.
    let game = links(lat(), 0);
    let err = State::from_counts(&game, vec![u64::MAX, 1]).unwrap_err();
    assert!(is_population(&err), "{err:?}");

    // Two classes of 2⁶³ players: `total_players()` would wrap to 0.
    let half = 1u64 << 63;
    let mut b = CongestionGame::builder();
    let r = b.add_resource(Affine::linear(1.0).into());
    let s = || vec![Strategy::singleton(r)];
    b.add_class("a", half, s()).unwrap();
    b.add_class("b", half, s()).unwrap();
    let err = b.build().unwrap_err();
    assert!(is_population(&err), "{err:?}");

    // The same total reached by a population mutation fails and leaves
    // the game unchanged.
    let mut b = CongestionGame::builder();
    let r = b.add_resource(Affine::linear(1.0).into());
    b.add_class("a", half, vec![Strategy::singleton(r)]).unwrap();
    b.add_class("b", half - 1, vec![Strategy::singleton(r)]).unwrap();
    let mut game = b.build().unwrap();
    assert_eq!(game.total_players(), u64::MAX);
    let err = game.set_class_players(1, half).unwrap_err();
    assert!(is_population(&err), "{err:?}");
    assert_eq!(game.classes()[1].players(), half - 1);
    assert_eq!(game.total_players(), u64::MAX);
    game.set_class_players(1, 0).unwrap();
    assert_eq!(game.total_players(), half);
}

/// Every state mutator handed a game of another shape fails with
/// `WrongLength` before it touches anything, in both directions (a game
/// with more strategies, whose ids would index past the state's counts,
/// and one with fewer), and leaves the state as it was.
#[test]
fn state_mutators_reject_a_game_of_another_shape() {
    use congames::model::{GameError, Migration};
    let lat = |k: usize| (0..k).map(|i| Affine::linear(1.0 + i as f64).into()).collect();
    let sid = StrategyId::new;
    for (built_for, handed) in [(2, 3), (3, 2)] {
        let own = links(lat(built_for), 6);
        let other = links(lat(handed), 6);
        let mut counts = vec![0; built_for];
        counts[0] = 6;
        let mut state = State::from_counts(&own, counts).unwrap();
        state.ensure_latency_cache(&own);
        state.ensure_support_index(&own);
        let (counts, loads) = (state.counts().to_vec(), state.loads().to_vec());
        // The highest strategy of the handed game: past the state's counts
        // when the handed game is the larger one.
        let last = sid(handed as u32 - 1);
        let moves = [Migration::new(sid(0), last, 2)];
        let results = [
            ("apply_migration", state.apply_migration(&other, moves[0])),
            ("apply_move", state.apply_move(&other, sid(0), last)),
            ("apply_migrations", state.apply_migrations(&other, &moves)),
            (
                "apply_migrations_with",
                state.apply_migrations_with(&other, &moves, |_, _, _, _| {
                    panic!("nothing may be reported for a rejected batch")
                }),
            ),
            ("add_players", state.add_players(&other, last, 1)),
            ("remove_players", state.remove_players(&other, sid(0), 1)),
        ];
        for (name, result) in results {
            assert_eq!(
                result,
                Err(GameError::WrongLength { expected: handed, found: built_for }),
                "{name}: state for {built_for} links, game with {handed}"
            );
        }
        assert_eq!(state.counts(), counts);
        assert_eq!(state.loads(), loads);
        assert!(state.latency_cache_valid() && state.support_index_valid());
        assert!(state.latency_cache_consistent(&own) && state.support_consistent(&own));
    }
}

#[test]
fn zero_player_game_runs_without_panic() {
    let game = links(vec![Affine::linear(1.0).into()], 0);
    let state = State::from_counts(&game, vec![0]).unwrap();
    let mut sim = Simulation::new(&game, ImitationProtocol::paper_default().into(), state).unwrap();
    let mut rng = seeded_rng(2, 0);
    let out = sim.run(&StopSpec::new(vec![StopCondition::ImitationStable]), &mut rng).unwrap();
    assert_eq!(out.rounds, 0);
    assert_eq!(out.reason, StopReason::ImitationStable);
}

#[test]
fn virtual_agents_discover_empty_strategies() {
    // All players on the slow link; virtual agents make the fast link
    // sampleable, so imitation escapes the lost-strategy trap (Section 6,
    // option 2).
    let game = links(vec![Constant::new(100.0).into(), Constant::new(1.0).into()], 64);
    let state = State::from_counts(&game, vec![64, 0]).unwrap().with_virtual_agents(&game);
    let proto: Protocol = ImitationProtocol::paper_default()
        .with_virtual_agents(true)
        .with_nu_rule(NuRule::None)
        .into();
    let mut sim = Simulation::new(&game, proto, state).unwrap();
    let mut rng = seeded_rng(3, 0);
    for _ in 0..2000 {
        sim.step(&mut rng).unwrap();
        if sim.state().count(StrategyId::new(1)) > 0 {
            break;
        }
    }
    assert!(
        sim.state().count(StrategyId::new(1)) > 0,
        "virtual agents failed to seed the empty strategy"
    );
}

#[test]
fn recording_cadence_subsamples() {
    let game = links(vec![Affine::linear(1.0).into(), Affine::linear(1.0).into()], 100);
    let state = State::from_counts(&game, vec![80, 20]).unwrap();
    let mut sim = Simulation::new(
        &game,
        ImitationProtocol::paper_default().with_nu_rule(NuRule::None).into(),
        state,
    )
    .unwrap()
    .with_recording(RecordConfig { every: 5, approx: None });
    let mut rng = seeded_rng(4, 0);
    let out = sim.run(&StopSpec::max_rounds(17), &mut rng).unwrap();
    // Records at rounds 0, 5, 10, 15 plus the final state at 17.
    let rounds: Vec<u64> = out.trajectory.records().iter().map(|r| r.round).collect();
    assert_eq!(rounds, vec![0, 5, 10, 15, 17]);
}

#[test]
fn unsatisfied_fraction_is_recorded_when_configured() {
    let game = links(vec![Affine::linear(1.0).into(), Affine::linear(1.0).into()], 100);
    let state = State::from_counts(&game, vec![90, 10]).unwrap();
    let eq = ApproxEquilibrium::new(0.0, 0.05, 0.0).unwrap();
    let mut sim = Simulation::new(
        &game,
        ImitationProtocol::paper_default().with_nu_rule(NuRule::None).into(),
        state,
    )
    .unwrap()
    .with_recording(RecordConfig::with_approx(eq));
    let mut rng = seeded_rng(5, 0);
    let out = sim.run(&StopSpec::max_rounds(3), &mut rng).unwrap();
    let first = out.trajectory.records()[0];
    assert!(first.unsatisfied_fraction.unwrap() > 0.0);
}

#[test]
fn potential_target_stop_fires() {
    let game = links(vec![Affine::linear(1.0).into(), Affine::linear(1.0).into()], 200);
    let state = State::from_counts(&game, vec![150, 50]).unwrap();
    let phi0 = congames::model::potential(&game, &state);
    let mut sim = Simulation::new(
        &game,
        ImitationProtocol::paper_default().with_nu_rule(NuRule::None).into(),
        state,
    )
    .unwrap();
    let mut rng = seeded_rng(6, 0);
    let target = phi0 * 0.95;
    let out = sim
        .run(
            &StopSpec::new(vec![
                StopCondition::PotentialAtMost(target),
                StopCondition::MaxRounds(10_000),
            ]),
            &mut rng,
        )
        .unwrap();
    assert_eq!(out.reason, StopReason::PotentialReached);
    assert!(out.potential <= target);
}

#[test]
fn check_every_delays_detection_but_not_correctness() {
    let game = links(vec![Affine::linear(1.0).into(), Affine::linear(1.0).into()], 50);
    let state = State::from_counts(&game, vec![40, 10]).unwrap();
    let proto: Protocol = ImitationProtocol::paper_default().with_nu_rule(NuRule::None).into();
    let mut fine = Simulation::new(&game, proto, state.clone()).unwrap();
    let mut coarse = Simulation::new(&game, proto, state).unwrap();
    let spec_fine =
        StopSpec::new(vec![StopCondition::ImitationStable, StopCondition::MaxRounds(10_000)]);
    let spec_coarse = spec_fine.clone().with_check_every(64);
    let mut r1 = seeded_rng(7, 0);
    let mut r2 = seeded_rng(7, 0);
    let out_fine = fine.run(&spec_fine, &mut r1).unwrap();
    let out_coarse = coarse.run(&spec_coarse, &mut r2).unwrap();
    assert_eq!(out_fine.reason, StopReason::ImitationStable);
    assert_eq!(out_coarse.reason, StopReason::ImitationStable);
    // The coarse check can only stop at multiples of 64.
    assert_eq!(out_coarse.rounds % 64, 0);
    assert!(out_coarse.rounds >= out_fine.rounds);
}

#[test]
fn fixed_damping_slows_migration() {
    let game = links(vec![Monomial::new(1.0, 2).into(), Monomial::new(1.0, 2).into()], 1000);
    let state = State::from_counts(&game, vec![900, 100]).unwrap();
    let mut expected = Vec::new();
    for damping in [Damping::None, Damping::Fixed(4.0)] {
        let proto: Protocol = ImitationProtocol::new(0.5)
            .unwrap()
            .with_damping(damping)
            .with_nu_rule(NuRule::None)
            .into();
        let sim = Simulation::new(&game, proto, state.clone()).unwrap();
        expected.push(sim.migration_matrix()[0].expected_movers);
    }
    assert!((expected[0] / expected[1] - 4.0).abs() < 1e-9);
}

#[test]
fn multi_class_games_migrate_within_classes_only() {
    // Two classes over a shared resource plus private ones.
    let mut b = CongestionGame::builder();
    let shared = b.add_resource(Affine::linear(1.0).into());
    let pa = b.add_resource(Affine::linear(1.0).into());
    let pb = b.add_resource(Affine::linear(1.0).into());
    b.add_class(
        "a",
        40,
        vec![congames::Strategy::singleton(shared), congames::Strategy::singleton(pa)],
    )
    .unwrap();
    b.add_class(
        "b",
        40,
        vec![congames::Strategy::singleton(shared), congames::Strategy::singleton(pb)],
    )
    .unwrap();
    let game = b.build().unwrap();
    let state = State::from_counts(&game, vec![30, 10, 30, 10]).unwrap();
    let proto: Protocol = ImitationProtocol::paper_default().with_nu_rule(NuRule::None).into();
    let mut sim = Simulation::new(&game, proto, state).unwrap();
    let mut rng = seeded_rng(8, 0);
    for _ in 0..200 {
        sim.step(&mut rng).unwrap();
        let a_total = sim.state().counts()[0] + sim.state().counts()[1];
        let b_total = sim.state().counts()[2] + sim.state().counts()[3];
        assert_eq!(a_total, 40);
        assert_eq!(b_total, 40);
    }
}

#[test]
fn exploration_probability_formula_uses_class_parameters() {
    // β, ℓ_min and class sizes enter the exploration probability; verify
    // the closed form on a concrete instance.
    let game = links(vec![Affine::linear(1.0).into(), Affine::linear(2.0).into()], 10);
    let params = game.params();
    let state = State::from_counts(&game, vec![9, 1]).unwrap();
    let p = congames::ExplorationProtocol::new(0.5).unwrap();
    let mu = p.migration_probability(
        &game,
        &state,
        &params,
        StrategyId::new(0),
        StrategyId::new(1),
        2,
        10,
    );
    // gain = 9 − 4 = 5, ℓ_P = 9, scale = S·ℓ_min/(β·n) = 2·1/(2·10) = 0.1.
    let expect = 0.5 * 0.1 * 5.0 / 9.0;
    assert!((mu - expect).abs() < 1e-12, "mu {mu} vs expected {expect}");
}

/// Regression for the `check_every` contract documented on
/// [`StopSpec`]/[`StopCondition`]: cheap conditions (round budget,
/// potential target) are exempt from the cadence and fire on their exact
/// round, while expensive conditions (imitation stability) are only
/// evaluated on cadence rounds — so their detection lands on the first
/// cadence multiple at or after the first stable round, never later.
#[test]
fn check_every_gates_only_expensive_conditions() {
    let game = links(vec![Affine::linear(1.0).into(), Affine::linear(1.0).into()], 600);
    let state = State::from_counts(&game, vec![480, 120]).unwrap();
    let proto: Protocol = ImitationProtocol::paper_default().into();

    // MaxRounds is exempt: it fires at exactly 13 although 13 % 5 != 0.
    let mut sim = Simulation::new(&game, proto, state.clone()).unwrap();
    let mut rng = seeded_rng(40, 0);
    let out = sim.run(&StopSpec::max_rounds(13).with_check_every(5), &mut rng).unwrap();
    assert_eq!(out.reason, StopReason::MaxRounds);
    assert_eq!(out.rounds, 13, "cheap conditions must not be gated by check_every");

    // ImitationStable is gated: stopping rounds with cadence k are exactly
    // the cadence-1 stopping rounds rounded up to a multiple of k (a
    // stable state is absorbing, so the state waits for the next check).
    let run = |k: u64| {
        let mut sim = Simulation::new(&game, proto, state.clone()).unwrap();
        let mut rng = seeded_rng(41, 0);
        sim.run(
            &StopSpec::new(vec![StopCondition::ImitationStable, StopCondition::MaxRounds(50_000)])
                .with_check_every(k),
            &mut rng,
        )
        .unwrap()
    };
    let exact = run(1);
    assert_eq!(exact.reason, StopReason::ImitationStable);
    assert!(exact.rounds > 0, "the skewed start must take a few rounds to stabilize");
    for k in [3u64, 7, 16] {
        let gated = run(k);
        assert_eq!(gated.reason, StopReason::ImitationStable);
        assert_eq!(
            gated.rounds,
            exact.rounds.div_ceil(k) * k,
            "detection latency at cadence {k} must be bounded by the cadence"
        );
    }
}
