//! Congestion games: resources, strategies, and player classes.

use std::ops::Range;

use crate::error::GameError;
use crate::latency::LatencyFn;
use crate::resource::{Resource, ResourceId};
use crate::strategy::{Strategy, StrategyId};

/// A group of interchangeable players sharing one strategy set.
///
/// A *symmetric* congestion game has a single class. Asymmetric games (such
/// as the threshold games of Section 3.2) have one class per player or per
/// player type; imitation then samples only within one's own class, as the
/// paper notes after Corollary 5.
#[derive(Debug, Clone)]
pub struct PlayerClass {
    name: String,
    strategies: Range<u32>,
    players: u64,
    disjoint: bool,
}

impl PlayerClass {
    /// The class's (diagnostic) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The contiguous range of global strategy ids available to this class.
    pub fn strategy_range(&self) -> Range<u32> {
        self.strategies.clone()
    }

    /// Iterate over the strategy ids available to this class.
    pub fn strategy_ids(&self) -> impl Iterator<Item = StrategyId> {
        self.strategies.clone().map(StrategyId::new)
    }

    /// Number of strategies available to this class.
    pub fn num_strategies(&self) -> usize {
        self.strategies.len()
    }

    /// Number of players in this class.
    pub fn players(&self) -> u64 {
        self.players
    }

    /// Whether no two of the class's strategies share a resource (true of
    /// every singleton game). Then a player moving from any `P` to `Q`
    /// adds one player to every resource of `Q`, so
    /// `ℓ_Q(x + 1_Q − 1_P) = ℓ_Q(x + 1_Q)` for every origin `P`: one row
    /// per class replaces the per-pair merge walks of
    /// [`State::latency_after_move`](crate::State::latency_after_move).
    pub fn strategies_disjoint(&self) -> bool {
        self.disjoint
    }
}

/// An atomic congestion game with player classes.
///
/// Construct games with [`CongestionGame::singleton`],
/// [`CongestionGame::symmetric`], or the incremental [`SymmetricBuilder`] /
/// [`CongestionGame::builder`] APIs.
///
/// # Example
///
/// ```
/// use congames_model::{CongestionGame, Monomial};
///
/// // Four parallel links with latency x², 100 players.
/// let game = CongestionGame::singleton(
///     (0..4).map(|_| Monomial::new(1.0, 2).into()).collect(),
///     100,
/// )?;
/// assert_eq!(game.num_resources(), 4);
/// assert_eq!(game.num_strategies(), 4);
/// assert_eq!(game.total_players(), 100);
/// # Ok::<(), congames_model::GameError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CongestionGame {
    resources: Vec<Resource>,
    strategies: Vec<Strategy>,
    /// Class index of every strategy (parallel to `strategies`).
    strategy_class: Vec<u32>,
    classes: Vec<PlayerClass>,
}

impl CongestionGame {
    /// Build a *singleton* (parallel-links) game: one strategy per resource,
    /// a single symmetric class of `players`.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::NoResources`] if `latencies` is empty.
    pub fn singleton(latencies: Vec<LatencyFn>, players: u64) -> Result<Self, GameError> {
        if latencies.is_empty() {
            return Err(GameError::NoResources);
        }
        let resources: Vec<Resource> = latencies.into_iter().map(Resource::new).collect();
        let strategies: Vec<Strategy> =
            (0..resources.len()).map(|i| Strategy::singleton(ResourceId::new(i as u32))).collect();
        Self::from_parts(resources, vec![("players".to_string(), strategies, players)])
    }

    /// Build a symmetric game: all `players` share the given strategy set.
    ///
    /// # Errors
    ///
    /// Fails if `resources` or `strategies` is empty, or if a strategy
    /// references an out-of-range resource.
    pub fn symmetric(
        resources: Vec<Resource>,
        strategies: Vec<Strategy>,
        players: u64,
    ) -> Result<Self, GameError> {
        Self::from_parts(resources, vec![("players".to_string(), strategies, players)])
    }

    /// Start building a game with explicit resources and (possibly several)
    /// player classes.
    pub fn builder() -> SymmetricBuilder {
        SymmetricBuilder::new()
    }

    fn from_parts(
        resources: Vec<Resource>,
        classes: Vec<(String, Vec<Strategy>, u64)>,
    ) -> Result<Self, GameError> {
        if resources.is_empty() {
            return Err(GameError::NoResources);
        }
        if classes.is_empty() {
            return Err(GameError::NoClasses);
        }
        let mut strategies = Vec::new();
        let mut strategy_class = Vec::new();
        let mut class_list = Vec::new();
        // Resources used by the current class; reset after each class so
        // a game with many classes still costs O(m + Σ|P|).
        let mut used = vec![false; resources.len()];
        let mut total = 0u64;
        for (ci, (name, strats, players)) in classes.into_iter().enumerate() {
            if strats.is_empty() {
                return Err(GameError::EmptyClass);
            }
            total = add_population(total, players)?;
            let start = strategies.len() as u32;
            let mut disjoint = true;
            for s in strats {
                for &r in s.resources() {
                    if r.index() >= resources.len() {
                        return Err(GameError::UnknownResource {
                            resource: r.raw(),
                            resources: resources.len(),
                        });
                    }
                    disjoint &= !std::mem::replace(&mut used[r.index()], true);
                }
                strategies.push(s);
                strategy_class.push(ci as u32);
            }
            let end = strategies.len() as u32;
            for s in &strategies[start as usize..] {
                s.resources().iter().for_each(|r| used[r.index()] = false);
            }
            class_list.push(PlayerClass { name, strategies: start..end, players, disjoint });
        }
        Ok(CongestionGame { resources, strategies, strategy_class, classes: class_list })
    }

    /// The game's resources.
    pub fn resources(&self) -> &[Resource] {
        &self.resources
    }

    /// Number of resources (`m`).
    pub fn num_resources(&self) -> usize {
        self.resources.len()
    }

    /// The global strategy list.
    pub fn strategies(&self) -> &[Strategy] {
        &self.strategies
    }

    /// Number of strategies across all classes (`|P|`).
    pub fn num_strategies(&self) -> usize {
        self.strategies.len()
    }

    /// The player classes.
    pub fn classes(&self) -> &[PlayerClass] {
        &self.classes
    }

    /// Total players over all classes (`n`).
    pub fn total_players(&self) -> u64 {
        self.classes.iter().map(|c| c.players).sum()
    }

    /// The resource with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn resource(&self, r: ResourceId) -> &Resource {
        &self.resources[r.index()]
    }

    /// The strategy with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn strategy(&self, s: StrategyId) -> &Strategy {
        &self.strategies[s.index()]
    }

    /// The class index owning strategy `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn class_of(&self, s: StrategyId) -> usize {
        self.strategy_class[s.index()] as usize
    }

    /// Validate that `s` is a known strategy id.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::UnknownStrategy`] otherwise.
    pub fn check_strategy(&self, s: StrategyId) -> Result<(), GameError> {
        if s.index() < self.strategies.len() {
            Ok(())
        } else {
            Err(GameError::UnknownStrategy { strategy: s.raw(), strategies: self.strategies.len() })
        }
    }

    /// Latency of resource `r` at congestion `load`.
    pub fn latency(&self, r: ResourceId, load: u64) -> f64 {
        self.resources[r.index()].latency_at(load)
    }

    /// Require resource `r`'s latency to be finite and non-negative at
    /// load 0 and one past the largest load a player could face: every
    /// player plus the resource's `base` (virtual-agent) load, plus one
    /// for a move's `ℓ(x+1)` (saturating at `u64::MAX`). Latencies are
    /// non-decreasing, so these two loads bound every value a run reads;
    /// every run start and every latency swap checks them, so Φ and the
    /// latency cache never hold a non-finite or negative value.
    ///
    /// # Errors
    ///
    /// [`GameError::InvalidLatency`] names the first failing load.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a resource of the game.
    pub fn check_latency_domain(&self, r: ResourceId, base: u64) -> Result<(), GameError> {
        let top = self.total_players().saturating_add(base).saturating_add(1);
        for load in [0, top] {
            let value = self.latency(r, load);
            if !(value.is_finite() && value >= 0.0) {
                return Err(GameError::InvalidLatency {
                    resource: r.raw(),
                    load,
                    value_bits: value.to_bits(),
                });
            }
        }
        Ok(())
    }

    /// Maximum number of resources in any strategy (`k = max_P |P|`).
    pub fn max_strategy_len(&self) -> usize {
        self.strategies.iter().map(Strategy::len).max().unwrap_or(0)
    }

    /// Compute the protocol parameters (`d`, `ν`, `β`, `ℓ_min`) of this game.
    ///
    /// This scans all resources and strategies once; cache the result.
    pub fn params(&self) -> GameParams {
        GameParams::of(self)
    }

    /// Replace the latency function of resource `r` (link re-provisioning;
    /// the `SetLatency` scenario event).
    ///
    /// A [`State`](crate::State) with a latency cache built against this
    /// game keeps serving the **old** function's values until
    /// [`State::invalidate_caches_for_game_change`](crate::State::invalidate_caches_for_game_change)
    /// runs; cached protocol parameters ([`CongestionGame::params`]) go
    /// stale the same way. Every game mutator carries this obligation.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::UnknownResource`] if `r` is out of range.
    pub fn set_latency(&mut self, r: ResourceId, latency: LatencyFn) -> Result<(), GameError> {
        let resources = self.resources.len();
        self.resources
            .get_mut(r.index())
            .ok_or(GameError::UnknownResource { resource: r.raw(), resources })?
            .set_latency(latency);
        Ok(())
    }

    /// Scale the latency function of resource `r` by `factor` (link
    /// degradation for `factor > 1`, capacity upgrades for `factor < 1`;
    /// the `ScaleLatency` scenario event). Wraps the current function in
    /// [`Scaled`](crate::latency::Scaled), so repeated scaling composes.
    ///
    /// The same cache-invalidation obligation as
    /// [`CongestionGame::set_latency`] applies.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidParameter`] unless `factor` is finite
    /// and positive, and [`GameError::UnknownResource`] if `r` is out of
    /// range.
    pub fn scale_latency(&mut self, r: ResourceId, factor: f64) -> Result<(), GameError> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(GameError::InvalidParameter {
                name: "factor",
                message: "latency scale factor must be finite and positive",
            });
        }
        let resources = self.resources.len();
        let res = self
            .resources
            .get_mut(r.index())
            .ok_or(GameError::UnknownResource { resource: r.raw(), resources })?;
        let scaled = crate::latency::Scaled::new(res.latency().clone(), factor);
        res.set_latency(scaled.into());
        Ok(())
    }

    /// Set the player count of class `class` (arrivals/departures; the
    /// `AddPlayers`/`RemovePlayers`/`SetDemand` scenario events).
    ///
    /// This changes only the game's bookkeeping — any `State` must be
    /// adjusted to match (`State::add_players` / `State::remove_players`)
    /// or it will fail count validation, and population-dependent protocol
    /// parameters ([`CongestionGame::params`] uses `n`) must be recomputed.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidParameter`] if `class` is out of range,
    /// and [`GameError::PlayerOverflow`] if the total population would
    /// overflow `u64`; the game is then unchanged.
    pub fn set_class_players(&mut self, class: usize, players: u64) -> Result<(), GameError> {
        if class >= self.classes.len() {
            return Err(GameError::InvalidParameter {
                name: "class",
                message: "class index out of range",
            });
        }
        let others = self.total_players() - self.classes[class].players;
        add_population(others, players)?;
        self.classes[class].players = players;
        Ok(())
    }
}

/// `total + players`, or [`GameError::PlayerOverflow`] if the population
/// no longer fits in `u64`. Every constructor and population mutator
/// checks through it, so [`CongestionGame::total_players`] never wraps.
fn add_population(total: u64, players: u64) -> Result<u64, GameError> {
    total.checked_add(players).ok_or(GameError::PlayerOverflow {
        what: "population",
        present: total,
        added: players,
    })
}

/// Protocol-relevant analytic parameters of a game (Section 2.2 and 6).
///
/// * `d` — upper bound on the elasticity of all latency functions,
/// * `nu` — `ν ≥ max_P ν_P` with `ν_P = Σ_{e∈P} ν_e` and
///   `ν_e = max_{x ∈ 1..⌈max(d,1)⌉} ℓ_e(x) − ℓ_e(x−1)`,
/// * `beta` — upper bound on the maximum slope of any latency over the full
///   load range (used by the EXPLORATION PROTOCOL),
/// * `ell_min` — `min_e ℓ_e(1)`, the minimum latency of an occupied resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GameParams {
    /// Elasticity upper bound `d`.
    pub d: f64,
    /// Slope bound `ν` over almost-empty strategies.
    pub nu: f64,
    /// Maximum slope `β` of any latency function up to full load.
    pub beta: f64,
    /// Minimum latency `ℓ_min = min_e ℓ_e(1)` of a singly-occupied resource.
    pub ell_min: f64,
}

impl GameParams {
    /// Compute the parameters of `game` (see type docs).
    pub fn of(game: &CongestionGame) -> GameParams {
        let n = game.total_players().max(1);
        let mut d = 0.0_f64;
        for r in game.resources() {
            d = d.max(r.latency().elasticity_bound(n));
        }
        // ν_e uses the slope on loads 1..⌈d⌉ (at least 1).
        let d_ceil = (d.ceil() as u64).max(1);
        let nu_e: Vec<f64> =
            game.resources().iter().map(|r| r.latency().max_step(0, d_ceil)).collect();
        let mut nu = 0.0_f64;
        for s in game.strategies() {
            let nu_p: f64 = s.resources().iter().map(|r| nu_e[r.index()]).sum();
            nu = nu.max(nu_p);
        }
        let mut beta = 0.0_f64;
        let mut ell_min = f64::INFINITY;
        for r in game.resources() {
            beta = beta.max(r.latency().max_step(0, n));
            ell_min = ell_min.min(r.latency_at(1));
        }
        GameParams { d, nu, beta, ell_min }
    }

    /// The damping denominator used by the IMITATION PROTOCOL: `max(d, 1)`.
    ///
    /// The paper's probability `λ/d · gain/ℓ_P` is stated for `d ≥ 1`; for
    /// games whose latencies all have elasticity below one (e.g. constants)
    /// no damping is needed, so the protocol clamps the denominator at 1.
    pub fn damping(&self) -> f64 {
        self.d.max(1.0)
    }
}

/// Incremental builder for congestion games with explicit resources and one
/// or more player classes.
///
/// # Example
///
/// ```
/// use congames_model::{CongestionGame, Affine, Strategy, ResourceId};
///
/// let mut b = CongestionGame::builder();
/// let r0 = b.add_resource(Affine::linear(1.0).into());
/// let r1 = b.add_resource(Affine::linear(2.0).into());
/// let r2 = b.add_resource(Affine::new(1.0, 1.0).into());
/// b.add_class("commuters", 10, vec![
///     Strategy::new(vec![r0, r2])?,
///     Strategy::new(vec![r1])?,
/// ])?;
/// let game = b.build()?;
/// assert_eq!(game.num_strategies(), 2);
/// # Ok::<(), congames_model::GameError>(())
/// ```
#[derive(Debug, Default)]
pub struct SymmetricBuilder {
    resources: Vec<Resource>,
    classes: Vec<(String, Vec<Strategy>, u64)>,
}

impl SymmetricBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        SymmetricBuilder::default()
    }

    /// Add a resource; returns its id.
    pub fn add_resource(&mut self, latency: LatencyFn) -> ResourceId {
        self.resources.push(Resource::new(latency));
        ResourceId::new((self.resources.len() - 1) as u32)
    }

    /// Add a named resource; returns its id.
    pub fn add_named_resource(
        &mut self,
        name: impl Into<String>,
        latency: LatencyFn,
    ) -> ResourceId {
        self.resources.push(Resource::named(name, latency));
        ResourceId::new((self.resources.len() - 1) as u32)
    }

    /// Add a player class with its strategy set.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::EmptyClass`] if `strategies` is empty.
    pub fn add_class(
        &mut self,
        name: impl Into<String>,
        players: u64,
        strategies: Vec<Strategy>,
    ) -> Result<&mut Self, GameError> {
        if strategies.is_empty() {
            return Err(GameError::EmptyClass);
        }
        self.classes.push((name.into(), strategies, players));
        Ok(self)
    }

    /// Finish building the game.
    ///
    /// # Errors
    ///
    /// Fails if no resources / classes were added, if a strategy references
    /// an unknown resource, or with [`GameError::PlayerOverflow`] if the
    /// classes' total population overflows `u64`.
    pub fn build(self) -> Result<CongestionGame, GameError> {
        CongestionGame::from_parts(self.resources, self.classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{Affine, Monomial};

    #[test]
    fn singleton_game_shape() {
        let game = CongestionGame::singleton(
            vec![Affine::linear(1.0).into(), Affine::linear(2.0).into()],
            5,
        )
        .unwrap();
        assert_eq!(game.num_resources(), 2);
        assert_eq!(game.num_strategies(), 2);
        assert_eq!(game.total_players(), 5);
        assert_eq!(game.classes().len(), 1);
        assert_eq!(game.classes()[0].players(), 5);
        assert_eq!(game.max_strategy_len(), 1);
        assert_eq!(game.class_of(StrategyId::new(1)), 0);
        assert_eq!(game.strategy(StrategyId::new(0)).resources(), &[ResourceId::new(0)]);
    }

    #[test]
    fn empty_inputs_are_rejected() {
        assert!(matches!(CongestionGame::singleton(vec![], 5), Err(GameError::NoResources)));
        let r: Vec<Resource> = vec![Resource::new(Affine::linear(1.0).into())];
        assert!(matches!(
            CongestionGame::symmetric(r, vec![], 5),
            Err(GameError::EmptyClass) | Err(GameError::NoClasses)
        ));
    }

    #[test]
    fn out_of_range_resource_is_rejected() {
        let r = vec![Resource::new(Affine::linear(1.0).into())];
        let s = vec![Strategy::new(vec![ResourceId::new(3)]).unwrap()];
        assert!(matches!(
            CongestionGame::symmetric(r, s, 2),
            Err(GameError::UnknownResource { resource: 3, resources: 1 })
        ));
    }

    #[test]
    fn builder_multi_class() {
        let mut b = CongestionGame::builder();
        let r0 = b.add_resource(Affine::linear(1.0).into());
        let r1 = b.add_named_resource("fast", Affine::linear(2.0).into());
        b.add_class("a", 3, vec![Strategy::singleton(r0)]).unwrap();
        b.add_class("b", 4, vec![Strategy::singleton(r0), Strategy::singleton(r1)]).unwrap();
        let game = b.build().unwrap();
        assert_eq!(game.classes().len(), 2);
        assert_eq!(game.total_players(), 7);
        assert_eq!(game.class_of(StrategyId::new(0)), 0);
        assert_eq!(game.class_of(StrategyId::new(1)), 1);
        assert_eq!(game.class_of(StrategyId::new(2)), 1);
        assert_eq!(game.classes()[1].num_strategies(), 2);
        assert_eq!(game.resource(r1).name(), Some("fast"));
        let ids: Vec<_> = game.classes()[1].strategy_ids().collect();
        assert_eq!(ids, vec![StrategyId::new(1), StrategyId::new(2)]);
        // Classes may share resources with each other and stay disjoint.
        assert!(game.classes().iter().all(PlayerClass::strategies_disjoint));
    }

    #[test]
    fn overlapping_strategies_are_not_disjoint() {
        let r: Vec<Resource> = (0..3).map(|_| Resource::new(Affine::linear(1.0).into())).collect();
        let ids = |v: &[u32]| Strategy::new(v.iter().map(|&i| ResourceId::new(i)).collect());
        let game =
            CongestionGame::symmetric(r, vec![ids(&[0, 1]).unwrap(), ids(&[1, 2]).unwrap()], 2)
                .unwrap();
        assert!(!game.classes()[0].strategies_disjoint());
    }

    #[test]
    fn check_strategy_bounds() {
        let game = CongestionGame::singleton(vec![Affine::linear(1.0).into()], 1).unwrap();
        assert!(game.check_strategy(StrategyId::new(0)).is_ok());
        assert!(matches!(
            game.check_strategy(StrategyId::new(9)),
            Err(GameError::UnknownStrategy { .. })
        ));
    }

    #[test]
    fn params_linear_game() {
        // Two linear links a=1, a=3: d = 1, ν = max slope on loads ≤ 1 = 3,
        // β = 3, ℓ_min = 1.
        let game = CongestionGame::singleton(
            vec![Affine::linear(1.0).into(), Affine::linear(3.0).into()],
            10,
        )
        .unwrap();
        let p = game.params();
        assert!((p.d - 1.0).abs() < 1e-12);
        assert!((p.nu - 3.0).abs() < 1e-12);
        assert!((p.beta - 3.0).abs() < 1e-12);
        assert!((p.ell_min - 1.0).abs() < 1e-12);
        assert!((p.damping() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn params_polynomial_game() {
        // x³ on both links, 10 players: d = 3, ν_e over x ∈ 1..3 = 3³-2³ = 19,
        // β = 10³ - 9³ = 271.
        let game = CongestionGame::singleton(
            vec![Monomial::new(1.0, 3).into(), Monomial::new(1.0, 3).into()],
            10,
        )
        .unwrap();
        let p = game.params();
        assert!((p.d - 3.0).abs() < 1e-12);
        assert!((p.nu - 19.0).abs() < 1e-12);
        assert!((p.beta - 271.0).abs() < 1e-12);
        assert!((p.damping() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn params_nu_sums_over_path() {
        // A two-edge path with slopes 1 and 2 ⇒ ν_P = 3.
        let mut b = CongestionGame::builder();
        let r0 = b.add_resource(Affine::linear(1.0).into());
        let r1 = b.add_resource(Affine::linear(2.0).into());
        b.add_class("c", 2, vec![Strategy::new(vec![r0, r1]).unwrap()]).unwrap();
        let game = b.build().unwrap();
        assert!((game.params().nu - 3.0).abs() < 1e-12);
    }

    #[test]
    fn game_is_clone_and_send_sync() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<CongestionGame>();
    }
}
