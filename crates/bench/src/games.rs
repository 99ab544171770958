//! Shared game families used by the experiments.

use congames_model::{Affine, CongestionGame, Constant, LatencyFn, Monomial, State};
use congames_network::{builders, NetworkGame};
use rand::Rng;

/// The classic Braess diamond with `n` players: congestible outer edges
/// (`ℓ(x) = x·10/n`), constant cross edges (`ℓ = 10`), and a cheap bridge
/// (`ℓ = 0.5`). Scaling the linear slopes by `n` keeps the two edge types
/// comparable at every population size, which is what makes the instance
/// interesting.
pub fn braess_network(n: u64) -> NetworkGame {
    let a = 10.0 / n as f64;
    let (g, s, t) = builders::braess([
        Affine::linear(a).into(),
        Constant::new(10.0).into(),
        Constant::new(10.0).into(),
        Affine::linear(a).into(),
        Constant::new(0.5).into(),
    ]);
    NetworkGame::build(g, s, t, n, 100).expect("braess builds")
}

/// A heavily skewed but full-support start: strategy `i` of each class gets
/// a share proportional to `4^(S−i)`, so imitation can reach everything but
/// begins far from balance (~75% of players on the first strategy).
pub fn geometric_spread(game: &CongestionGame) -> State {
    let mut counts = vec![0u64; game.num_strategies()];
    for class in game.classes() {
        let ids: Vec<u32> = class.strategy_range().collect();
        let s = ids.len();
        let total_w: f64 = (0..s).map(|i| 4f64.powi((s - i) as i32)).sum();
        let n = class.players();
        let mut assigned = 0u64;
        for (i, &id) in ids.iter().enumerate() {
            let w = 4f64.powi((s - i) as i32) / total_w;
            let c = ((n as f64) * w).floor() as u64;
            counts[id as usize] = c;
            assigned += c;
        }
        // Put the rounding remainder on the most loaded strategy.
        counts[ids[0] as usize] += n - assigned;
    }
    State::from_counts(game, counts).expect("counts sum to class sizes")
}

/// `m` parallel links with monomial latencies `a_i·x^d`, coefficients
/// `a_i = 1 + i` (asymmetric so equilibria are non-trivial).
pub fn poly_links(m: usize, d: u32, n: u64) -> CongestionGame {
    let lats: Vec<LatencyFn> = (0..m).map(|i| Monomial::new(1.0 + i as f64, d).into()).collect();
    CongestionGame::singleton(lats, n).expect("valid singleton game")
}

/// A linear singleton game with log-uniform random coefficients in
/// `[1, spread]`.
pub fn random_linear_singleton(
    m: usize,
    n: u64,
    spread: f64,
    rng: &mut impl Rng,
) -> CongestionGame {
    let lats: Vec<LatencyFn> = (0..m)
        .map(|_| {
            let a = (rng.gen::<f64>() * spread.ln()).exp();
            Affine::linear(a).into()
        })
        .collect();
    CongestionGame::singleton(lats, n).expect("valid singleton game")
}

/// A state assigning each player to a uniformly random strategy of its
/// class (the random initialization of Theorem 9 / Theorem 10).
pub fn random_state(game: &CongestionGame, rng: &mut impl Rng) -> State {
    let mut counts = vec![0u64; game.num_strategies()];
    for class in game.classes() {
        let ids: Vec<u32> = class.strategy_range().collect();
        for _ in 0..class.players() {
            counts[ids[rng.gen_range(0..ids.len())] as usize] += 1;
        }
    }
    State::from_counts(game, counts).expect("counts sum to class sizes")
}

/// An interior two-hot start: players split `3:1` between the first two
/// strategies of each class (imitation needs a support of at least two).
pub fn skewed_two_hot(game: &CongestionGame) -> State {
    let mut counts = vec![0u64; game.num_strategies()];
    for class in game.classes() {
        let ids: Vec<u32> = class.strategy_range().collect();
        assert!(ids.len() >= 2, "two-hot start needs two strategies");
        let n = class.players();
        counts[ids[0] as usize] = n - n / 4;
        counts[ids[1] as usize] = n / 4;
    }
    State::from_counts(game, counts).expect("counts sum to class sizes")
}

/// A *sparse-support* start: each class's players spread evenly over its
/// first `k` strategies, the remaining `S − k` strategies empty. This is
/// the shape of a near-converged imitation round in a huge strategy space
/// (support invariance keeps the dynamics inside these `k` strategies
/// forever), which is what the support-indexed sparse kernels accelerate.
pub fn sparse_support(game: &CongestionGame, k: usize) -> State {
    let mut counts = vec![0u64; game.num_strategies()];
    for class in game.classes() {
        let ids: Vec<u32> = class.strategy_range().collect();
        let k = k.min(ids.len());
        assert!(k >= 1, "sparse start needs at least one strategy");
        let n = class.players();
        let share = n / k as u64;
        assert!(share >= 1, "sparse start needs at least {k} players per class (got {n})");
        for &id in &ids[..k] {
            counts[id as usize] = share;
        }
        counts[ids[0] as usize] += n - share * k as u64;
    }
    State::from_counts(game, counts).expect("counts sum to class sizes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn braess_has_three_paths() {
        let net = braess_network(100);
        assert_eq!(net.game().num_strategies(), 3);
        assert_eq!(net.game().total_players(), 100);
        let s = State::all_on_first(net.game());
        assert_eq!(s.support_size(), 1);
    }

    #[test]
    fn poly_links_params() {
        let g = poly_links(4, 3, 50);
        assert_eq!(g.num_strategies(), 4);
        assert!((g.params().d - 3.0).abs() < 1e-12);
    }

    #[test]
    fn random_state_is_valid() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = poly_links(4, 2, 100);
        let s = random_state(&g, &mut rng);
        assert_eq!(s.counts().iter().sum::<u64>(), 100);
        assert!(s.loads_consistent(&g));
    }

    #[test]
    fn skewed_two_hot_split() {
        let g = poly_links(4, 1, 100);
        let s = skewed_two_hot(&g);
        assert_eq!(s.counts()[0], 75);
        assert_eq!(s.counts()[1], 25);
    }

    #[test]
    fn sparse_support_occupies_exactly_k() {
        let g = poly_links(64, 2, 1000);
        let s = sparse_support(&g, 8);
        assert_eq!(s.support_size(), 8);
        assert_eq!(s.counts().iter().sum::<u64>(), 1000);
        assert_eq!(s.counts()[0], 125); // even split, no remainder
        assert_eq!(s.counts()[8], 0);
    }

    #[test]
    fn random_linear_singleton_coefficients_in_range() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = random_linear_singleton(6, 10, 4.0, &mut rng);
        for r in g.resources() {
            let a = r.latency_at(1);
            assert!((1.0..=4.0).contains(&a), "coefficient {a}");
        }
    }
}
