//! Property-based tests of the core invariants (proptest).

use congames::model::Strategy as GameStrategy;
use congames::model::{
    potential, potential_delta_for_load_change, CongestionGame, Migration, ResourceId, State,
    StrategyId,
};
use congames::{Affine, Monomial};
use proptest::prelude::*;

/// A random symmetric game over up to 6 resources and up to 5 strategies
/// (random non-empty resource subsets), plus a consistent random state.
fn arb_game_and_counts() -> impl Strategy<Value = (CongestionGame, Vec<u64>)> {
    (2usize..=6, 2usize..=5, 1u64..60).prop_flat_map(|(m, s, n)| {
        let subsets =
            proptest::collection::vec(proptest::collection::vec(0u32..m as u32, 1..=m), s..=s);
        let weights = proptest::collection::vec(1u64..=10, s..=s);
        let coeffs = proptest::collection::vec((1u32..=4, 1u32..=3), m..=m);
        (subsets, weights, coeffs).prop_map(move |(subsets, weights, coeffs)| {
            let mut b = CongestionGame::builder();
            for &(a, k) in &coeffs {
                if k == 1 {
                    b.add_resource(Affine::linear(a as f64).into());
                } else {
                    b.add_resource(Monomial::new(a as f64, k).into());
                }
            }
            let strategies: Vec<GameStrategy> = subsets
                .into_iter()
                .map(|ids| {
                    GameStrategy::new(ids.into_iter().map(ResourceId::new).collect())
                        .expect("non-empty subset")
                })
                .collect();
            // Distribute n players proportionally to the random weights.
            let total_w: u64 = weights.iter().sum();
            let mut counts: Vec<u64> = weights.iter().map(|w| n * w / total_w).collect();
            let assigned: u64 = counts.iter().sum();
            counts[0] += n - assigned;
            b.add_class("players", n, strategies).expect("non-empty class");
            (b.build().expect("valid game"), counts)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Loads derived incrementally through arbitrary move sequences always
    /// match a from-scratch recomputation.
    #[test]
    fn loads_stay_consistent_under_moves(
        (game, counts) in arb_game_and_counts(),
        moves in proptest::collection::vec((0u32..5, 0u32..5), 0..30),
    ) {
        let mut state = State::from_counts(&game, counts).unwrap();
        for (f, t) in moves {
            let s = game.num_strategies() as u32;
            let (f, t) = (StrategyId::new(f % s), StrategyId::new(t % s));
            if state.count(f) > 0 {
                state.apply_move(&game, f, t).unwrap();
            }
        }
        prop_assert!(state.loads_consistent(&game));
    }

    /// Rosenthal's defining identity: a unilateral move changes the
    /// potential by exactly the mover's latency change.
    #[test]
    fn potential_tracks_unilateral_deviations(
        (game, counts) in arb_game_and_counts(),
        moves in proptest::collection::vec((0u32..5, 0u32..5), 1..20),
    ) {
        let mut state = State::from_counts(&game, counts).unwrap();
        let mut phi = potential(&game, &state);
        for (f, t) in moves {
            let s = game.num_strategies() as u32;
            let (f, t) = (StrategyId::new(f % s), StrategyId::new(t % s));
            if state.count(f) == 0 || f == t {
                continue;
            }
            let before = state.strategy_latency(&game, f);
            let after = state.latency_after_move(&game, f, t);
            state.apply_move(&game, f, t).unwrap();
            phi += after - before;
            prop_assert!((phi - potential(&game, &state)).abs() < 1e-6);
        }
    }

    /// The per-resource incremental delta matches the potential difference
    /// for arbitrary batch migrations.
    #[test]
    fn batch_delta_matches_potential_difference(
        (game, counts) in arb_game_and_counts(),
        batch in proptest::collection::vec((0u32..5, 0u32..5, 1u64..5), 1..8),
    ) {
        let mut state = State::from_counts(&game, counts).unwrap();
        let before = potential(&game, &state);
        let old_loads = state.loads().to_vec();
        let s = game.num_strategies() as u32;
        let migrations: Vec<Migration> = batch
            .into_iter()
            .map(|(f, t, c)| Migration::new(StrategyId::new(f % s), StrategyId::new(t % s), c))
            .collect();
        if state.apply_migrations(&game, &migrations).is_ok() {
            let delta: f64 = old_loads
                .iter()
                .zip(state.loads())
                .enumerate()
                .map(|(i, (&o, &n))| {
                    potential_delta_for_load_change(&game, ResourceId::new(i as u32), 0, o, n)
                })
                .sum();
            prop_assert!((potential(&game, &state) - before - delta).abs() < 1e-6);
        }
    }

    /// A batch's changed-resource pass reports exactly the resources whose
    /// load moved (ascending, with their base load and old/new loads, and
    /// none whose moves cancel out) and leaves the latency cache bitwise
    /// equal to a rebuild — with and without virtual agents, with the cache
    /// built or invalidated; single moves keep the cache exact too.
    #[test]
    fn changed_resource_pass_reports_and_refreshes_exactly(
        (game, counts) in arb_game_and_counts(),
        batches in proptest::collection::vec(
            proptest::collection::vec((0u32..5, 0u32..5, 1u64..8, any::<bool>()), 1..8),
            1..4,
        ),
        virtual_agents in any::<bool>(),
        cached in any::<bool>(),
    ) {
        let mut state = State::from_counts(&game, counts).unwrap();
        if virtual_agents {
            state = state.with_virtual_agents(&game);
        }
        state.ensure_latency_cache(&game);
        if !cached {
            state.invalidate_latency_cache();
        }
        let s = game.num_strategies() as u32;
        for batch in batches {
            // A jointly feasible batch; a flagged move is followed by its
            // exact opposite when the destination can supply it, so the
            // resources the two strategies do not share net to zero.
            let mut left = state.counts().to_vec();
            let mut migrations = Vec::new();
            for (f, t, c, back) in batch {
                let (f, t) = (StrategyId::new(f % s), StrategyId::new(t % s));
                let c = c.min(left[f.index()]);
                if c == 0 {
                    continue;
                }
                left[f.index()] -= c;
                migrations.push(Migration::new(f, t, c));
                if back && f != t && left[t.index()] >= c {
                    left[t.index()] -= c;
                    migrations.push(Migration::new(t, f, c));
                }
            }
            let old_loads = state.loads().to_vec();
            let mut reported = Vec::new();
            state
                .apply_migrations_with(&game, &migrations, |r, base, old, new| {
                    reported.push((r, base, old, new));
                })
                .unwrap();
            let expected: Vec<_> = old_loads
                .iter()
                .zip(state.loads())
                .enumerate()
                .filter(|(_, (o, n))| o != n)
                .map(|(i, (&o, &n))| {
                    let r = ResourceId::new(i as u32);
                    (r, state.base_load(r), o, n)
                })
                .collect();
            prop_assert_eq!(reported, expected);
            prop_assert!(state.loads_consistent(&game));
            prop_assert!(state.latency_cache_consistent(&game));
            if let Some(m) = migrations.first().filter(|m| state.count(m.to) > 0) {
                state.apply_move(&game, m.to, m.from).unwrap();
                prop_assert!(state.latency_cache_consistent(&game));
            }
            state.ensure_latency_cache(&game);
            prop_assert!(state.latency_cache_consistent(&game));
            if !cached {
                state.invalidate_latency_cache();
            }
        }
    }

    /// `latency_after_move` agrees with actually applying the move.
    #[test]
    fn hypothetical_latency_matches_applied_move(
        (game, counts) in arb_game_and_counts(),
        f in 0u32..5,
        t in 0u32..5,
    ) {
        let s = game.num_strategies() as u32;
        let (f, t) = (StrategyId::new(f % s), StrategyId::new(t % s));
        let mut state = State::from_counts(&game, counts).unwrap();
        if state.count(f) > 0 {
            let predicted = state.latency_after_move(&game, f, t);
            state.apply_move(&game, f, t).unwrap();
            let actual = state.strategy_latency(&game, t);
            prop_assert!((predicted - actual).abs() < 1e-9);
        }
    }

    /// The average latency is always between the min and max used-strategy
    /// latency, and `L+_av ≥ L_av` for non-decreasing latencies.
    #[test]
    fn average_latency_bounds((game, counts) in arb_game_and_counts()) {
        let state = State::from_counts(&game, counts).unwrap();
        let l_av = congames::model::average_latency(&game, &state);
        let l_plus = congames::model::average_latency_plus(&game, &state);
        prop_assert!(l_plus >= l_av - 1e-12);
        let max = congames::model::makespan(&game, &state);
        prop_assert!(l_av <= max + 1e-12);
    }
}
