//! Rosenthal's potential function.
//!
//! `Φ(x) = Σ_e Σ_{i=1..x_e} ℓ_e(i)` (Rosenthal 1973). States minimizing `Φ`
//! are exactly the Nash equilibria of the game; the IMITATION PROTOCOL
//! decreases `Φ` in expectation each round (Corollary 3), which is the engine
//! behind all convergence results in the paper.

use crate::game::CongestionGame;
use crate::state::State;

/// Rosenthal potential of `state`: `Σ_e Σ_{i=1..x_e} ℓ_e(i)`.
///
/// Runs in `O(Σ_e x_e)` latency evaluations — one batched
/// [`Latency::sum_range`](crate::Latency::sum_range) walk per resource
/// instead of one virtual call per load (`O(1)` for the closed-form
/// families); engines maintain the potential incrementally (see
/// [`potential_delta_for_load_change`]) and use this for verification and
/// initialization. Base loads from virtual agents shift the summation
/// window: the sum runs over `i ∈ x⁰_e+1 ..= x⁰_e+x_e` so that only
/// player-induced congestion contributes, matching the incremental updates.
pub fn potential(game: &CongestionGame, state: &State) -> f64 {
    let mut phi = 0.0;
    for (idx, r) in game.resources().iter().enumerate() {
        let rid = crate::resource::ResourceId::new(idx as u32);
        phi += r.latency().sum_range(state.base_load(rid), 1..state.load(rid) + 1);
    }
    phi
}

/// Rosenthal potential computed directly from a load vector (no base loads).
///
/// Useful when working with flows rather than states (e.g. comparing against
/// the optimal flow's potential `Φ*`).
///
/// # Panics
///
/// Panics if `loads.len()` differs from the game's resource count.
pub fn potential_of_loads(game: &CongestionGame, loads: &[u64]) -> f64 {
    assert_eq!(loads.len(), game.num_resources(), "load vector length mismatch");
    let mut phi = 0.0;
    for (r, &x) in game.resources().iter().zip(loads) {
        phi += r.latency().sum_range(0, 1..x + 1);
    }
    phi
}

/// Potential change contributed by resource `r` when its player-induced load
/// moves from `old` to `new` (base load `base` held fixed):
///
/// * `new > old`: `+ Σ_{u=old+1..new} ℓ(base+u)`
/// * `new < old`: `− Σ_{u=new+1..old} ℓ(base+u)`
///
/// Summing this over all changed resources gives the exact `ΔΦ` of a
/// migration batch, which is how the engines keep `Φ` current in `O(|Δx|)`
/// latency evaluations per round — the walk over the intermediate loads is
/// one batched [`Latency::sum_range`](crate::Latency::sum_range) call:
/// left-to-right summation (bit-identical to the scalar loop it replaced)
/// for the families on the default, and exact closed forms for
/// constant/affine resources, which may differ from that loop by ulps
/// (see the exactness notes in [`latency`](crate::latency)).
pub fn potential_delta_for_load_change(
    game: &CongestionGame,
    r: crate::resource::ResourceId,
    base: u64,
    old: u64,
    new: u64,
) -> f64 {
    let res = game.resource(r);
    if new > old {
        res.latency().sum_range(base, old + 1..new + 1)
    } else if old > new {
        -res.latency().sum_range(base, new + 1..old + 1)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{Affine, Monomial};
    use crate::resource::ResourceId;
    use crate::state::Migration;
    use crate::strategy::{Strategy, StrategyId};

    fn sid(i: u32) -> StrategyId {
        StrategyId::new(i)
    }

    #[test]
    fn potential_linear_closed_form() {
        // ℓ(x) = a x ⇒ Σ_{i≤k} a i = a k(k+1)/2.
        let game = CongestionGame::singleton(
            vec![Affine::linear(2.0).into(), Affine::linear(3.0).into()],
            7,
        )
        .unwrap();
        let s = State::from_counts(&game, vec![4, 3]).unwrap();
        let expect = 2.0 * (4.0 * 5.0 / 2.0) + 3.0 * (3.0 * 4.0 / 2.0);
        assert!((potential(&game, &s) - expect).abs() < 1e-9);
    }

    #[test]
    fn potential_of_loads_matches_state_potential() {
        let game = CongestionGame::singleton(
            vec![Monomial::new(1.0, 2).into(), Affine::new(1.0, 5.0).into()],
            6,
        )
        .unwrap();
        let s = State::from_counts(&game, vec![2, 4]).unwrap();
        assert!((potential(&game, &s) - potential_of_loads(&game, s.loads())).abs() < 1e-12);
    }

    #[test]
    fn delta_matches_recomputation_over_moves() {
        let mut b = CongestionGame::builder();
        let r0 = b.add_resource(Monomial::new(1.0, 2).into());
        let r1 = b.add_resource(Affine::new(0.5, 1.0).into());
        let r2 = b.add_resource(Affine::linear(2.0).into());
        b.add_class(
            "c",
            5,
            vec![
                Strategy::new(vec![r0, r1]).unwrap(),
                Strategy::new(vec![r1, r2]).unwrap(),
                Strategy::new(vec![r2]).unwrap(),
            ],
        )
        .unwrap();
        let game = b.build().unwrap();
        let mut s = State::from_counts(&game, vec![3, 1, 1]).unwrap();
        let mut phi = potential(&game, &s);

        let moves = [(0u32, 1u32), (1, 2), (0, 2), (2, 0)];
        for (f, t) in moves {
            let old_loads = s.loads().to_vec();
            s.apply_move(&game, sid(f), sid(t)).unwrap();
            let mut delta = 0.0;
            for (i, (&o, &n)) in old_loads.iter().zip(s.loads()).enumerate() {
                delta += potential_delta_for_load_change(&game, ResourceId::new(i as u32), 0, o, n);
            }
            phi += delta;
            assert!(
                (phi - potential(&game, &s)).abs() < 1e-9,
                "incremental potential drifted after move {f}->{t}"
            );
        }
    }

    #[test]
    fn single_move_delta_equals_latency_difference() {
        // The defining property of Rosenthal's potential: for a unilateral
        // move P→Q, ΔΦ = ℓ_Q(x + 1_Q − 1_P) − ℓ_P(x).
        let game = CongestionGame::singleton(
            vec![Monomial::new(2.0, 3).into(), Affine::new(1.0, 4.0).into()],
            9,
        )
        .unwrap();
        let mut s = State::from_counts(&game, vec![6, 3]).unwrap();
        let before = potential(&game, &s);
        let gain_target = s.latency_after_move(&game, sid(0), sid(1));
        let leave = s.strategy_latency(&game, sid(0));
        s.apply_move(&game, sid(0), sid(1)).unwrap();
        let after = potential(&game, &s);
        assert!((after - before - (gain_target - leave)).abs() < 1e-9);
    }

    #[test]
    fn batch_migration_delta_matches() {
        let game = CongestionGame::singleton(
            vec![
                Affine::linear(1.0).into(),
                Affine::linear(1.0).into(),
                Affine::linear(1.0).into(),
            ],
            9,
        )
        .unwrap();
        let mut s = State::from_counts(&game, vec![5, 2, 2]).unwrap();
        let before = potential(&game, &s);
        let old = s.loads().to_vec();
        s.apply_migrations(
            &game,
            &[Migration::new(sid(0), sid(1), 2), Migration::new(sid(0), sid(2), 1)],
        )
        .unwrap();
        let delta: f64 = old
            .iter()
            .zip(s.loads())
            .enumerate()
            .map(|(i, (&o, &n))| {
                potential_delta_for_load_change(&game, ResourceId::new(i as u32), 0, o, n)
            })
            .sum();
        assert!((potential(&game, &s) - before - delta).abs() < 1e-9);
    }

    #[test]
    fn potential_with_virtual_agents_uses_shifted_window() {
        let game = CongestionGame::singleton(vec![Affine::linear(1.0).into()], 3).unwrap();
        let s = State::from_counts(&game, vec![3]).unwrap().with_virtual_agents(&game);
        // base 1, players 3: Σ_{i=2..4} i = 9
        assert!((potential(&game, &s) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn empty_load_contributes_zero() {
        let game = CongestionGame::singleton(
            vec![Affine::new(1.0, 10.0).into(), Affine::linear(1.0).into()],
            2,
        )
        .unwrap();
        let s = State::from_counts(&game, vec![0, 2]).unwrap();
        assert!((potential(&game, &s) - 3.0).abs() < 1e-12);
    }
}
