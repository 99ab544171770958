//! Solution concepts: Nash equilibria, imitation-stable states, and the
//! (δ,ε,ν)-equilibria of Definition 1.

use crate::game::CongestionGame;
use crate::metrics::ClassMetrics;
use crate::state::State;
use crate::strategy::StrategyId;

/// The most profitable unilateral deviation found in a state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestDeviation {
    /// Origin strategy (has at least one player).
    pub from: StrategyId,
    /// Destination strategy.
    pub to: StrategyId,
    /// Latency gain `ℓ_P(x) − ℓ_Q(x + 1_Q − 1_P)` (positive = improvement).
    pub gain: f64,
}

/// Find the best unilateral deviation, optionally restricted to the support.
///
/// With `support_only = true` the destination must currently be used by
/// another player (i.e. reachable by imitation); with `false` all strategies
/// of the player's class are candidates (the best-response view).
///
/// Origins — and, with `support_only`, destinations — iterate the state's
/// [`State::occupied_or_scan`] view: the support index when it is built,
/// in the same ascending-id order as the dense scan it replaces, with a
/// count-testing dense fallback for index-less states.
///
/// Returns `None` if no player exists or no strictly improving deviation
/// exists.
pub fn best_deviation(
    game: &CongestionGame,
    state: &State,
    support_only: bool,
) -> Option<BestDeviation> {
    let mut best: Option<BestDeviation> = None;
    for (ci, class) in game.classes().iter().enumerate() {
        for from in state.occupied_or_scan(game, ci) {
            let l_from = state.strategy_latency(game, from);
            let mut consider = |to: StrategyId| {
                if to == from {
                    return;
                }
                let l_to = state.latency_after_move(game, from, to);
                let gain = l_from - l_to;
                if gain > 0.0 && best.map_or(true, |b| gain > b.gain) {
                    best = Some(BestDeviation { from, to, gain });
                }
            };
            if support_only {
                // Imitation requires someone to sample on the target.
                state.occupied_or_scan(game, ci).for_each(&mut consider);
            } else {
                class.strategy_ids().for_each(&mut consider);
            }
        }
    }
    best
}

/// Whether `state` is a Nash equilibrium up to additive tolerance `tol`
/// (i.e. an `ε`-Nash with `ε = tol`): no player can unilaterally improve its
/// latency by more than `tol`.
///
/// `tol = 0` gives exact Nash. The check is exact over the explicit strategy
/// sets (cost `O(S² · k)` where `k` is the maximum strategy length).
pub fn is_nash_equilibrium(game: &CongestionGame, state: &State, tol: f64) -> bool {
    match best_deviation(game, state, false) {
        Some(b) => b.gain <= tol,
        None => true,
    }
}

/// Whether `state` is *imitation-stable*: starting from it, the IMITATION
/// PROTOCOL makes no further move with probability 1.
///
/// Per Section 2.3, a state is imitation-stable iff it is `ε`-Nash with
/// `ε = ν` *with respect to the support*: no player can gain more than `nu`
/// by adopting the strategy of another (existing) player.
///
/// The answer is `best_deviation(game, state, true).map_or(true, |b|
/// b.gain <= nu)` (so a NaN `nu` makes any improving deviation unstable),
/// but the scan stops at the first occupied pair that breaks it. With a
/// fresh latency cache, classes whose strategies share no resource read
/// `ℓ_Q(x + 1_Q − 1_P)` from [`State::latency_plus_row`] instead of merging
/// resource lists per pair.
pub fn is_imitation_stable(game: &CongestionGame, state: &State, nu: f64) -> bool {
    let plus_row = state.latency_plus_row(game);
    for (ci, class) in game.classes().iter().enumerate() {
        let plus = plus_row.filter(|_| class.strategies_disjoint());
        for from in state.occupied_or_scan(game, ci) {
            let l_from = state.strategy_latency(game, from);
            for to in state.occupied_or_scan(game, ci) {
                if to == from {
                    continue;
                }
                let l_to = match plus {
                    Some(plus) => plus[to.index()],
                    None => state.latency_after_move(game, from, to),
                };
                let gain = l_from - l_to;
                if gain > 0.0 && (gain > nu || nu.is_nan()) {
                    return false;
                }
            }
        }
    }
    true
}

/// Classification of a state against Definition 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxStatus {
    /// Players on *expensive* strategies (`ℓ_P > (1+ε)·L+_av + ν`).
    pub expensive_players: u64,
    /// Players on *cheap* strategies (`ℓ_P < (1−ε)·L_av − ν`).
    pub cheap_players: u64,
    /// Total players considered.
    pub players: u64,
}

impl ApproxStatus {
    /// Players outside the `[±ε]` band: `expensive + cheap`.
    pub fn unsatisfied(&self) -> u64 {
        self.expensive_players + self.cheap_players
    }

    /// Fraction of unsatisfied players (0 for empty games).
    pub fn unsatisfied_fraction(&self) -> f64 {
        if self.players == 0 {
            0.0
        } else {
            self.unsatisfied() as f64 / self.players as f64
        }
    }
}

/// The (δ,ε,ν)-equilibrium test of Definition 1.
///
/// A state is at a (δ,ε,ν)-equilibrium iff at most a `δ`-fraction of players
/// use strategies whose latency deviates from the average by more than an
/// `ε`-fraction (plus the additive slack `ν`):
///
/// * expensive: `ℓ_P(x) > (1+ε)·L+_av + ν`
/// * cheap: `ℓ_P(x) < (1−ε)·L_av − ν`
///
/// For multi-class games the test is applied per class (each class has its
/// own averages) and the unsatisfied players are summed.
///
/// # Example
///
/// ```
/// use congames_model::{ApproxEquilibrium, CongestionGame, Affine, State};
/// let game = CongestionGame::singleton(
///     vec![Affine::linear(1.0).into(), Affine::linear(1.0).into()],
///     10,
/// )?;
/// let balanced = State::from_counts(&game, vec![5, 5])?;
/// let eq = ApproxEquilibrium::new(0.1, 0.1, 0.0)?;
/// assert!(eq.is_satisfied(&game, &balanced));
/// # Ok::<(), congames_model::GameError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxEquilibrium {
    delta: f64,
    eps: f64,
    nu: f64,
}

impl ApproxEquilibrium {
    /// Create a (δ,ε,ν)-equilibrium test.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GameError::InvalidParameter`] unless
    /// `δ ∈ [0,1]`, `ε ≥ 0`, `ν ≥ 0` (all finite).
    pub fn new(delta: f64, eps: f64, nu: f64) -> Result<Self, crate::GameError> {
        if !(0.0..=1.0).contains(&delta) || !delta.is_finite() {
            return Err(crate::GameError::InvalidParameter {
                name: "delta",
                message: "must be a finite value in [0, 1]",
            });
        }
        if eps < 0.0 || !eps.is_finite() {
            return Err(crate::GameError::InvalidParameter {
                name: "eps",
                message: "must be finite and non-negative",
            });
        }
        if nu < 0.0 || !nu.is_finite() {
            return Err(crate::GameError::InvalidParameter {
                name: "nu",
                message: "must be finite and non-negative",
            });
        }
        Ok(ApproxEquilibrium { delta, eps, nu })
    }

    /// The allowed unsatisfied fraction δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The relative latency band ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The additive slack ν.
    pub fn nu(&self) -> f64 {
        self.nu
    }

    /// Count expensive/cheap players in `state`.
    pub fn status(&self, game: &CongestionGame, state: &State) -> ApproxStatus {
        let mut expensive = 0u64;
        let mut cheap = 0u64;
        let mut players = 0u64;
        for (ci, class) in game.classes().iter().enumerate() {
            players += class.players();
            if class.players() == 0 {
                continue;
            }
            let m = ClassMetrics::of(game, state, ci);
            let hi = (1.0 + self.eps) * m.l_av_plus + self.nu;
            let lo = (1.0 - self.eps) * m.l_av - self.nu;
            for sid in class.strategy_ids() {
                let c = state.count(sid);
                if c == 0 {
                    continue;
                }
                let l = state.strategy_latency(game, sid);
                if l > hi {
                    expensive += c;
                } else if l < lo {
                    cheap += c;
                }
            }
        }
        ApproxStatus { expensive_players: expensive, cheap_players: cheap, players }
    }

    /// Whether `state` satisfies the (δ,ε,ν)-equilibrium condition.
    pub fn is_satisfied(&self, game: &CongestionGame, state: &State) -> bool {
        let st = self.status(game, state);
        st.unsatisfied() as f64 <= self.delta * st.players as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{Affine, Constant};
    use crate::strategy::Strategy;
    use crate::GameError;

    fn sid(i: u32) -> StrategyId {
        StrategyId::new(i)
    }

    fn two_links(a1: f64, a2: f64, n: u64) -> CongestionGame {
        CongestionGame::singleton(vec![Affine::linear(a1).into(), Affine::linear(a2).into()], n)
            .unwrap()
    }

    #[test]
    fn balanced_identical_links_are_nash() {
        let game = two_links(1.0, 1.0, 10);
        let s = State::from_counts(&game, vec![5, 5]).unwrap();
        assert!(is_nash_equilibrium(&game, &s, 0.0));
        assert!(is_imitation_stable(&game, &s, 0.0));
        assert!(best_deviation(&game, &s, false).is_none());
    }

    #[test]
    fn unbalanced_state_has_deviation() {
        let game = two_links(1.0, 1.0, 10);
        let s = State::from_counts(&game, vec![8, 2]).unwrap();
        let b = best_deviation(&game, &s, false).unwrap();
        assert_eq!(b.from, sid(0));
        assert_eq!(b.to, sid(1));
        // gain = 8 − 3 = 5
        assert!((b.gain - 5.0).abs() < 1e-12);
        assert!(!is_nash_equilibrium(&game, &s, 0.0));
        assert!(is_nash_equilibrium(&game, &s, 5.0));
    }

    #[test]
    fn imitation_stability_ignores_unused_strategies() {
        // All players on an expensive constant link; the cheap link is
        // unused, so imitation cannot discover it: imitation-stable but not
        // Nash. This is the "lost strategy" drawback of Section 6.
        let game = CongestionGame::singleton(
            vec![Constant::new(100.0).into(), Constant::new(1.0).into()],
            5,
        )
        .unwrap();
        let s = State::from_counts(&game, vec![5, 0]).unwrap();
        assert!(is_imitation_stable(&game, &s, 0.0));
        assert!(!is_nash_equilibrium(&game, &s, 0.0));
    }

    #[test]
    fn imitation_stability_respects_nu() {
        let game = two_links(1.0, 1.0, 7);
        // counts (4,3): gain of moving 4→3 side is 4 − 4 = 0 ⇒ stable even
        // with ν = 0.
        let s = State::from_counts(&game, vec![4, 3]).unwrap();
        assert!(is_imitation_stable(&game, &s, 0.0));
        // counts (5,2): gain = 5 − 3 = 2 > ν for ν < 2.
        let s2 = State::from_counts(&game, vec![5, 2]).unwrap();
        assert!(!is_imitation_stable(&game, &s2, 1.9));
        assert!(is_imitation_stable(&game, &s2, 2.0));
    }

    #[test]
    fn early_exit_stability_matches_the_best_deviation_answer() {
        use crate::latency::Monomial;
        use crate::resource::{Resource, ResourceId};
        let links = CongestionGame::singleton(
            vec![
                Affine::new(1.0, 2.0).into(),
                Constant::new(0.0).into(),
                Monomial::new(0.5, 2).into(),
                Affine::linear(3.0).into(),
                Constant::new(9.0).into(),
            ],
            30,
        )
        .unwrap();
        let resources =
            (0..4).map(|i| Resource::new(Affine::linear(1.0 + i as f64).into())).collect();
        let path = |ids: &[u32]| Strategy::new(ids.iter().map(|&i| ResourceId::new(i)).collect());
        let paths = CongestionGame::symmetric(
            resources,
            vec![path(&[0, 1]).unwrap(), path(&[1, 2]).unwrap(), path(&[3]).unwrap()],
            9,
        )
        .unwrap();
        let mut seed = 17u64;
        let mut answers = [0usize; 2];
        for game in [&links, &paths] {
            let range = game.classes()[0].strategy_range();
            for _ in 0..200 {
                let mut counts = vec![0u64; game.num_strategies()];
                for _ in 0..game.total_players() {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let pick = ((seed >> 33) % range.len() as u64) * ((seed >> 21) & 1);
                    counts[pick as usize] += 1;
                }
                let mut state = State::from_counts(game, counts).unwrap();
                for cached in [false, true] {
                    if cached {
                        state.ensure_latency_cache(game);
                        state.ensure_support_index(game);
                    }
                    let best = best_deviation(game, &state, true);
                    let mut nus = vec![0.0, 0.5, f64::NAN];
                    nus.extend(best.map(|b| b.gain));
                    nus.extend(best.map(|b| b.gain - 1e-9));
                    for nu in nus {
                        let want = best.map_or(true, |b| b.gain <= nu);
                        assert_eq!(is_imitation_stable(game, &state, nu), want, "ν = {nu}");
                        answers[usize::from(want)] += 1;
                    }
                }
            }
        }
        assert!(answers.iter().all(|&k| k > 50), "both answers must be exercised: {answers:?}");
    }

    #[test]
    fn approx_eq_parameter_validation() {
        assert!(matches!(
            ApproxEquilibrium::new(1.5, 0.1, 0.0),
            Err(GameError::InvalidParameter { name: "delta", .. })
        ));
        assert!(matches!(
            ApproxEquilibrium::new(0.5, -0.1, 0.0),
            Err(GameError::InvalidParameter { name: "eps", .. })
        ));
        assert!(matches!(
            ApproxEquilibrium::new(0.5, 0.1, f64::NAN),
            Err(GameError::InvalidParameter { name: "nu", .. })
        ));
        let eq = ApproxEquilibrium::new(0.25, 0.5, 1.0).unwrap();
        assert_eq!((eq.delta(), eq.eps(), eq.nu()), (0.25, 0.5, 1.0));
    }

    #[test]
    fn approx_status_counts_expensive_and_cheap() {
        // Three links x, x, 10x with counts (4,4,2) over n=10:
        // latencies 4, 4, 20; L_av = (4·4+4·4+2·20)/10 = 7.2
        // L+_av = (4·5+4·5+2·30)/10 = 10.
        let game = CongestionGame::singleton(
            vec![
                Affine::linear(1.0).into(),
                Affine::linear(1.0).into(),
                Affine::linear(10.0).into(),
            ],
            10,
        )
        .unwrap();
        let s = State::from_counts(&game, vec![4, 4, 2]).unwrap();
        // ε = 0.5, ν = 0: expensive above 1.5·10 = 15 ⇒ link 3 (2 players);
        // cheap below 0.5·7.2 = 3.6 ⇒ none.
        let eq = ApproxEquilibrium::new(0.0, 0.5, 0.0).unwrap();
        let st = eq.status(&game, &s);
        assert_eq!(st.expensive_players, 2);
        assert_eq!(st.cheap_players, 0);
        assert_eq!(st.players, 10);
        assert!((st.unsatisfied_fraction() - 0.2).abs() < 1e-12);
        assert!(!eq.is_satisfied(&game, &s));
        // Allowing δ = 0.2 accepts the state.
        let eq2 = ApproxEquilibrium::new(0.2, 0.5, 0.0).unwrap();
        assert!(eq2.is_satisfied(&game, &s));
    }

    #[test]
    fn cheap_players_are_flagged() {
        // Links x and 100 + 0·x (constant): counts (1, 9) over n=10.
        // latencies: 1 and 100. L_av = (1 + 900)/10 = 90.1; the lone player
        // at latency 1 is "cheap" for any reasonable band.
        let game = CongestionGame::singleton(
            vec![Affine::linear(1.0).into(), Constant::new(100.0).into()],
            10,
        )
        .unwrap();
        let s = State::from_counts(&game, vec![1, 9]).unwrap();
        let eq = ApproxEquilibrium::new(0.0, 0.1, 0.0).unwrap();
        let st = eq.status(&game, &s);
        assert_eq!(st.cheap_players, 1);
    }

    #[test]
    fn multi_class_uses_per_class_averages() {
        // Class a on resource 0 only; class b picks between 1 and 2.
        let mut b = CongestionGame::builder();
        let r0 = b.add_resource(Constant::new(10.0).into());
        let r1 = b.add_resource(Affine::linear(1.0).into());
        let r2 = b.add_resource(Affine::linear(1.0).into());
        b.add_class("a", 4, vec![Strategy::singleton(r0)]).unwrap();
        b.add_class("b", 4, vec![Strategy::singleton(r1), Strategy::singleton(r2)]).unwrap();
        let game = b.build().unwrap();
        let s = State::from_counts(&game, vec![4, 2, 2]).unwrap();
        // Both classes are internally balanced ⇒ satisfied even with δ=0.
        let eq = ApproxEquilibrium::new(0.0, 0.01, 0.0).unwrap();
        assert!(eq.is_satisfied(&game, &s));
    }
}
