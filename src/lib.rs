//! # congames
//!
//! A production-quality Rust reproduction of *"Concurrent Imitation
//! Dynamics in Congestion Games"* (Heiner Ackermann, Petra Berenbrink,
//! Simon Fischer, Martin Hoefer; PODC 2009 / arXiv:0808.2081).
//!
//! This umbrella crate re-exports the project's sub-crates:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`model`] | `congames-model` | congestion games, latencies, states, potential, equilibrium concepts |
//! | [`network`] | `congames-network` | graphs, path enumeration, convex min-cost flow (`Φ*`), builders |
//! | [`dynamics`] | `congames-dynamics` | the IMITATION / EXPLORATION protocols and round engines |
//! | [`lowerbounds`] | `congames-lowerbounds` | threshold games, the Theorem 6 construction, counter-examples |
//! | [`sampling`] | `congames-sampling` | binomial/multinomial samplers, seed derivation |
//! | [`wardrop`] | `congames-wardrop` | the continuous (non-atomic) limit: Wardrop equilibria, mean-field imitation flow |
//! | [`analysis`] | `congames-analysis` | statistics, regression, tables, trial runner |
//! | [`scenario`] | `congames-scenario` | nonstationary, trace-driven scenarios: scheduled shocks with deterministic replay |
//!
//! The most common items are also re-exported at the crate root.
//!
//! # Quickstart
//!
//! ```
//! use congames::{
//!     Affine, ApproxEquilibrium, CongestionGame, ImitationProtocol, Simulation, State,
//!     StopCondition, StopSpec,
//! };
//! use rand::SeedableRng;
//!
//! // Eight parallel links with linear latencies, 10 000 players, all of
//! // them initially piled onto two links.
//! let game = CongestionGame::singleton(
//!     (0..8).map(|i| Affine::linear(1.0 + i as f64).into()).collect(),
//!     10_000,
//! )?;
//! let mut counts = vec![0; 8];
//! counts[0] = 9_000;
//! counts[7] = 1_000;
//! let start = State::from_counts(&game, counts)?;
//!
//! let mut sim = Simulation::new(&game, ImitationProtocol::paper_default().into(), start)?;
//! let nu = sim.params().nu;
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
//! let outcome = sim.run(
//!     &StopSpec::new(vec![
//!         StopCondition::ApproxEquilibrium(ApproxEquilibrium::new(0.05, 0.1, nu)?),
//!         StopCondition::MaxRounds(100_000),
//!     ]),
//!     &mut rng,
//! )?;
//! println!("reached an approximate equilibrium after {} rounds", outcome.rounds);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use congames_analysis as analysis;
pub use congames_dynamics as dynamics;
pub use congames_lowerbounds as lowerbounds;
pub use congames_model as model;
pub use congames_network as network;
pub use congames_sampling as sampling;
pub use congames_scenario as scenario;
pub use congames_wardrop as wardrop;

pub use congames_dynamics::{
    Damping, EngineKind, Ensemble, ExplorationProtocol, ImitationProtocol, NuRule, Observer,
    Protocol, RecordConfig, Reducer, RunSummary, Simulation, StopCondition, StopReason, StopSpec,
};
pub use congames_model::{
    Affine, ApproxEquilibrium, Bpr, CongestionGame, Constant, GameError, Latency, Monomial,
    Polynomial, ResourceId, State, Strategy, StrategyId,
};
pub use congames_network::NetworkGame;
