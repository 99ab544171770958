//! The IMITATION and EXPLORATION protocols and their configuration knobs.

use congames_model::{CongestionGame, GameParams, State, StrategyId};

use crate::error::DynamicsError;

/// How the imitation migration probability is damped (the `1/d` factor).
///
/// The paper damps by the elasticity bound `d` to avoid overshooting
/// (Section 2.3). `None` reproduces the undamped dynamics of the
/// overshooting discussion; `Fixed` allows ablations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Damping {
    /// Damp by `max(d, 1)` where `d` is the game's elasticity bound
    /// (the paper's protocol).
    #[default]
    Elasticity,
    /// No damping (the overshooting counter-example configuration).
    None,
    /// Damp by a fixed factor `≥ 1`.
    Fixed(f64),
}

/// Whether migration requires the anticipated gain to exceed `ν`.
///
/// The paper's protocol migrates only when
/// `ℓ_P(x) > ℓ_Q(x+1_Q−1_P) + ν`; Theorem 9 shows the rule can be dropped
/// for large singleton games (Section 6, option 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NuRule {
    /// Require `gain > ν` (the paper's protocol).
    #[default]
    Threshold,
    /// Require only `gain > 0`.
    None,
}

/// Whether the uniformly sampled "other player" may be the sampler itself.
///
/// The paper says "samples *another* player" (exclude, the default); its
/// analysis uses the asymptotically identical include form `x_Q/n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelfSampling {
    /// Sample uniformly among the other `n−1` players of the class.
    #[default]
    Exclude,
    /// Sample uniformly among all `n` players (self-samples never migrate).
    Include,
}

/// Protocol 1: the IMITATION PROTOCOL.
///
/// Each round every player (concurrently) samples another player of its
/// class and, if the anticipated latency gain clears the `ν` threshold,
/// migrates with probability
///
/// ```text
/// μ_PQ = λ/d · (ℓ_P(x) − ℓ_Q(x + 1_Q − 1_P)) / ℓ_P(x)
/// ```
///
/// # Example
///
/// ```
/// use congames_dynamics::ImitationProtocol;
/// let p = ImitationProtocol::new(0.25)?;
/// assert_eq!(p.lambda(), 0.25);
/// # Ok::<(), congames_dynamics::DynamicsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImitationProtocol {
    lambda: f64,
    damping: Damping,
    nu_rule: NuRule,
    self_sampling: SelfSampling,
    virtual_agents: bool,
}

impl ImitationProtocol {
    /// Create an imitation protocol with migration constant `λ ∈ (0, 1]` and
    /// default (paper) settings: elasticity damping, `ν` threshold, sampling
    /// excludes self, no virtual agents.
    ///
    /// # Errors
    ///
    /// Returns [`DynamicsError::InvalidParameter`] if `λ ∉ (0, 1]`.
    pub fn new(lambda: f64) -> Result<Self, DynamicsError> {
        if !(lambda > 0.0 && lambda <= 1.0) {
            return Err(DynamicsError::InvalidParameter {
                name: "lambda",
                message: "must be a finite value in (0, 1]",
            });
        }
        Ok(ImitationProtocol {
            lambda,
            damping: Damping::Elasticity,
            nu_rule: NuRule::Threshold,
            self_sampling: SelfSampling::Exclude,
            virtual_agents: false,
        })
    }

    /// The paper-default protocol with `λ = 1/4`.
    ///
    /// The proofs use a (much smaller) constant; `1/4` keeps every proof's
    /// qualitative behaviour while converging at a practical speed, and the
    /// ablation experiment sweeps `λ` to show where overshooting begins.
    pub fn paper_default() -> Self {
        ImitationProtocol::new(0.25).expect("0.25 is a valid lambda")
    }

    /// Set the damping mode.
    pub fn with_damping(mut self, damping: Damping) -> Self {
        self.damping = damping;
        self
    }

    /// Set the `ν` rule.
    pub fn with_nu_rule(mut self, rule: NuRule) -> Self {
        self.nu_rule = rule;
        self
    }

    /// Set the self-sampling mode.
    pub fn with_self_sampling(mut self, mode: SelfSampling) -> Self {
        self.self_sampling = mode;
        self
    }

    /// Enable the virtual-agent variant (Section 6, option 2): every
    /// strategy permanently hosts one virtual agent that can be sampled.
    /// The caller must pair this with
    /// [`congames_model::State::with_virtual_agents`] so the base loads are
    /// accounted for.
    pub fn with_virtual_agents(mut self, enabled: bool) -> Self {
        self.virtual_agents = enabled;
        self
    }

    /// The migration constant `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The damping mode.
    pub fn damping(&self) -> Damping {
        self.damping
    }

    /// The `ν` rule.
    pub fn nu_rule(&self) -> NuRule {
        self.nu_rule
    }

    /// The self-sampling mode.
    pub fn self_sampling(&self) -> SelfSampling {
        self.self_sampling
    }

    /// Whether virtual agents are enabled.
    pub fn virtual_agents(&self) -> bool {
        self.virtual_agents
    }

    /// The effective damping denominator for a game with parameters `params`.
    pub fn damping_factor(&self, params: &GameParams) -> f64 {
        match self.damping {
            Damping::Elasticity => params.damping(),
            Damping::None => 1.0,
            Damping::Fixed(v) => v.max(1.0),
        }
    }

    /// The effective gain threshold.
    pub fn gain_threshold(&self, params: &GameParams) -> f64 {
        match self.nu_rule {
            NuRule::Threshold => params.nu,
            NuRule::None => 0.0,
        }
    }

    /// Migration probability for a player on `from` that sampled `to`
    /// (`0` when the gain does not clear the threshold).
    pub fn migration_probability(
        &self,
        game: &CongestionGame,
        state: &State,
        params: &GameParams,
        from: StrategyId,
        to: StrategyId,
    ) -> f64 {
        if from == to {
            return 0.0;
        }
        let l_from = state.strategy_latency(game, from);
        if l_from <= 0.0 {
            return 0.0;
        }
        let l_to = state.latency_after_move(game, from, to);
        let gain = l_from - l_to;
        if gain <= self.gain_threshold(params) {
            return 0.0;
        }
        (self.lambda / self.damping_factor(params) * gain / l_from).clamp(0.0, 1.0)
    }
}

/// Protocol 2: the EXPLORATION PROTOCOL (Section 6).
///
/// Players sample a *strategy* uniformly at random (rather than a player)
/// and migrate with probability
///
/// ```text
/// μ_PQ = min{1, λ · |P|·ℓ_min/(β·n) · (ℓ_P − ℓ_Q(x+1_Q−1_P))/ℓ_P}
/// ```
///
/// where `β` bounds the maximum latency slope and `ℓ_min = min_e ℓ_e(1)`.
/// The heavy damping is required because uniform sampling can direct many
/// players at an empty strategy at once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplorationProtocol {
    lambda: f64,
}

impl ExplorationProtocol {
    /// Create an exploration protocol with constant `λ ∈ (0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`DynamicsError::InvalidParameter`] if `λ ∉ (0, 1]`.
    pub fn new(lambda: f64) -> Result<Self, DynamicsError> {
        if !(lambda > 0.0 && lambda <= 1.0) {
            return Err(DynamicsError::InvalidParameter {
                name: "lambda",
                message: "must be a finite value in (0, 1]",
            });
        }
        Ok(ExplorationProtocol { lambda })
    }

    /// The paper-default exploration protocol (`λ = 1/4`).
    pub fn paper_default() -> Self {
        ExplorationProtocol::new(0.25).expect("0.25 is a valid lambda")
    }

    /// The migration constant `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Migration probability for a player on `from` that sampled strategy
    /// `to` uniformly. `class_strategies`/`class_players` are `|P|` and `n`
    /// of the player's class.
    #[allow(clippy::too_many_arguments)]
    pub fn migration_probability(
        &self,
        game: &CongestionGame,
        state: &State,
        params: &GameParams,
        from: StrategyId,
        to: StrategyId,
        class_strategies: usize,
        class_players: u64,
    ) -> f64 {
        if from == to || class_players == 0 {
            return 0.0;
        }
        let l_from = state.strategy_latency(game, from);
        if l_from <= 0.0 {
            return 0.0;
        }
        let l_to = state.latency_after_move(game, from, to);
        let gain = l_from - l_to;
        if gain <= 0.0 {
            return 0.0;
        }
        let beta = params.beta.max(f64::MIN_POSITIVE);
        let scale = class_strategies as f64 * params.ell_min / (beta * class_players as f64);
        (self.lambda * scale * gain / l_from).clamp(0.0, 1.0)
    }
}

/// A revision protocol: imitation, exploration, or a random mixture.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Protocol {
    /// Pure imitation (Protocol 1).
    Imitation(ImitationProtocol),
    /// Pure exploration (Protocol 2).
    Exploration(ExplorationProtocol),
    /// With probability `explore_prob` a player explores, otherwise it
    /// imitates (Section 6, option 3; the paper suggests `1/2`).
    Combined {
        /// The imitation component.
        imitation: ImitationProtocol,
        /// The exploration component.
        exploration: ExplorationProtocol,
        /// Probability of exploring in a given round.
        explore_prob: f64,
    },
}

impl Protocol {
    /// The 50/50 combined protocol from Section 6 with both `λ = 1/4`.
    pub fn combined_default() -> Protocol {
        Protocol::Combined {
            imitation: ImitationProtocol::paper_default(),
            exploration: ExplorationProtocol::paper_default(),
            explore_prob: 0.5,
        }
    }

    /// Build a combined protocol with an explicit mixture probability.
    ///
    /// # Errors
    ///
    /// Returns [`DynamicsError::InvalidParameter`] if
    /// `explore_prob ∉ [0, 1]`.
    pub fn combined(
        imitation: ImitationProtocol,
        exploration: ExplorationProtocol,
        explore_prob: f64,
    ) -> Result<Protocol, DynamicsError> {
        if !(0.0..=1.0).contains(&explore_prob) || !explore_prob.is_finite() {
            return Err(DynamicsError::InvalidParameter {
                name: "explore_prob",
                message: "must be a finite value in [0, 1]",
            });
        }
        Ok(Protocol::Combined { imitation, exploration, explore_prob })
    }

    /// The imitation component, if any.
    pub fn imitation(&self) -> Option<&ImitationProtocol> {
        match self {
            Protocol::Imitation(p) => Some(p),
            Protocol::Combined { imitation, .. } => Some(imitation),
            Protocol::Exploration(_) => None,
        }
    }

    /// The exploration component, if any.
    pub fn exploration(&self) -> Option<&ExplorationProtocol> {
        match self {
            Protocol::Exploration(p) => Some(p),
            Protocol::Combined { exploration, .. } => Some(exploration),
            Protocol::Imitation(_) => None,
        }
    }

    /// The probability that a player explores in a round: `0` for pure
    /// imitation, `1` for pure exploration.
    pub fn explore_prob(&self) -> f64 {
        match self {
            Protocol::Imitation(_) => 0.0,
            Protocol::Exploration(_) => 1.0,
            Protocol::Combined { explore_prob, .. } => *explore_prob,
        }
    }

    /// The gain threshold used by the imitation-stability stop condition:
    /// the imitation component's threshold, or 0 for pure exploration.
    pub fn stability_threshold(&self, params: &GameParams) -> f64 {
        self.imitation().map_or(0.0, |p| p.gain_threshold(params))
    }

    /// Whether this protocol can discover strategies outside the support.
    pub fn is_innovative(&self) -> bool {
        match self {
            Protocol::Imitation(p) => p.virtual_agents(),
            Protocol::Exploration(_) => true,
            Protocol::Combined { explore_prob, .. } => *explore_prob > 0.0,
        }
    }
}

impl From<ImitationProtocol> for Protocol {
    fn from(p: ImitationProtocol) -> Protocol {
        Protocol::Imitation(p)
    }
}

impl From<ExplorationProtocol> for Protocol {
    fn from(p: ExplorationProtocol) -> Protocol {
        Protocol::Exploration(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congames_model::{Affine, CongestionGame, Monomial};

    fn sid(i: u32) -> StrategyId {
        StrategyId::new(i)
    }

    #[test]
    fn lambda_validation() {
        assert!(ImitationProtocol::new(0.0).is_err());
        assert!(ImitationProtocol::new(1.5).is_err());
        assert!(ImitationProtocol::new(f64::NAN).is_err());
        assert!(ImitationProtocol::new(1.0).is_ok());
        assert!(ExplorationProtocol::new(-0.5).is_err());
        assert!(Protocol::combined(
            ImitationProtocol::paper_default(),
            ExplorationProtocol::paper_default(),
            1.5
        )
        .is_err());
    }

    #[test]
    fn imitation_probability_matches_formula() {
        // Two links x and 2x with counts (6, 2) over 8 players: ℓ_P = 6,
        // ℓ_Q(+1) = 2·3 = 6 → gain 0 ⇒ no move. Counts (7,1): ℓ_P = 7,
        // ℓ_Q(+1) = 4 → gain 3.
        let game = CongestionGame::singleton(
            vec![Affine::linear(1.0).into(), Affine::linear(2.0).into()],
            8,
        )
        .unwrap();
        let params = game.params(); // d = 1, ν = 2
        let state = congames_model::State::from_counts(&game, vec![7, 1]).unwrap();
        let p = ImitationProtocol::new(0.5).unwrap();
        let mu = p.migration_probability(&game, &state, &params, sid(0), sid(1));
        // λ/d · gain/ℓ_P = 0.5 · 3/7
        assert!((mu - 0.5 * 3.0 / 7.0).abs() < 1e-12);
        // Below the ν threshold nothing moves: gain must exceed ν = 2.
        let state2 = congames_model::State::from_counts(&game, vec![6, 2]).unwrap();
        assert_eq!(p.migration_probability(&game, &state2, &params, sid(0), sid(1)), 0.0);
    }

    #[test]
    fn nu_rule_none_lowers_threshold() {
        let game = CongestionGame::singleton(
            vec![Affine::linear(1.0).into(), Affine::linear(1.0).into()],
            6,
        )
        .unwrap();
        let params = game.params(); // ν = 1
                                    // counts (4, 2): gain = 4 − 3 = 1; threshold ν = 1 blocks it.
        let state = congames_model::State::from_counts(&game, vec![4, 2]).unwrap();
        let strict = ImitationProtocol::new(0.5).unwrap();
        assert_eq!(strict.migration_probability(&game, &state, &params, sid(0), sid(1)), 0.0);
        let relaxed = strict.with_nu_rule(NuRule::None);
        assert!(relaxed.migration_probability(&game, &state, &params, sid(0), sid(1)) > 0.0);
    }

    #[test]
    fn elasticity_damping_divides_by_d() {
        let game = CongestionGame::singleton(
            vec![Monomial::new(1.0, 4).into(), Monomial::new(1.0, 4).into()],
            10,
        )
        .unwrap();
        let params = game.params(); // d = 4
        let state = congames_model::State::from_counts(&game, vec![9, 1]).unwrap();
        let damped = ImitationProtocol::new(1.0).unwrap();
        let undamped = damped.with_damping(Damping::None);
        let m_d = damped.migration_probability(&game, &state, &params, sid(0), sid(1));
        let m_u = undamped.migration_probability(&game, &state, &params, sid(0), sid(1));
        assert!((m_u / m_d - 4.0).abs() < 1e-9);
        let fixed = damped.with_damping(Damping::Fixed(2.0));
        let m_f = fixed.migration_probability(&game, &state, &params, sid(0), sid(1));
        assert!((m_u / m_f - 2.0).abs() < 1e-9);
    }

    #[test]
    fn probabilities_are_clamped() {
        let game = CongestionGame::singleton(
            vec![Affine::linear(100.0).into(), Affine::linear(0.001).into()],
            4,
        )
        .unwrap();
        let params = game.params();
        let state = congames_model::State::from_counts(&game, vec![3, 1]).unwrap();
        let p = ImitationProtocol::new(1.0).unwrap().with_damping(Damping::None);
        let mu = p.migration_probability(&game, &state, &params, sid(0), sid(1));
        assert!((0.0..=1.0).contains(&mu));
    }

    #[test]
    fn exploration_probability_scales_with_class_size() {
        let game = CongestionGame::singleton(
            vec![Affine::linear(1.0).into(), Affine::linear(1.0).into()],
            100,
        )
        .unwrap();
        let params = game.params();
        let state = congames_model::State::from_counts(&game, vec![100, 0]).unwrap();
        let p = ExplorationProtocol::new(1.0).unwrap();
        let mu_small = p.migration_probability(&game, &state, &params, sid(0), sid(1), 2, 100);
        let mu_large = p.migration_probability(&game, &state, &params, sid(0), sid(1), 2, 10_000);
        assert!(mu_small > 0.0);
        // More players ⇒ heavier damping (per capita).
        assert!(mu_large < mu_small);
    }

    #[test]
    fn protocol_accessors() {
        let imit = ImitationProtocol::paper_default();
        let expl = ExplorationProtocol::paper_default();
        let c = Protocol::combined(imit, expl, 0.5).unwrap();
        assert!(c.imitation().is_some());
        assert!(c.exploration().is_some());
        assert!(c.is_innovative());
        let pi: Protocol = imit.into();
        assert!(!pi.is_innovative());
        assert!(pi.exploration().is_none());
        let pv: Protocol = imit.with_virtual_agents(true).into();
        assert!(pv.is_innovative());
        let pe: Protocol = expl.into();
        assert!(pe.is_innovative());
        assert!(pe.imitation().is_none());
    }
}
