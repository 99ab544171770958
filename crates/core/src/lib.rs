//! # congames-dynamics
//!
//! The core contribution of *"Concurrent Imitation Dynamics in Congestion
//! Games"* (Ackermann, Berenbrink, Fischer, Hoefer; PODC 2009): concurrent,
//! round-based revision protocols for atomic congestion games, plus the
//! machinery to simulate and measure them.
//!
//! * [`ImitationProtocol`] — Protocol 1 of the paper. Each round, every
//!   player samples another player uniformly at random and adopts the sampled
//!   strategy with probability `λ/d · (ℓ_P − ℓ_Q(x+1_Q−1_P))/ℓ_P`, provided
//!   the anticipated gain exceeds `ν`. The `1/d` elasticity damping prevents
//!   overshooting (Section 2.3); both the damping and the `ν` rule are
//!   configurable so the paper's ablations (undamped dynamics, the Section 6
//!   variants) can be reproduced.
//! * [`ExplorationProtocol`] — Protocol 2 (Section 6): sample a *strategy*
//!   uniformly instead of a player; guarantees convergence to Nash
//!   equilibria at the price of much heavier damping.
//! * [`Protocol::combined`] — the 50/50 mixture discussed in Section 6.
//!
//! Rounds are simulated by either of two statistically identical engines
//! (see [`EngineKind`]): a ground-truth *player-level* engine that iterates
//! players individually, and an *aggregate* engine that draws per-origin
//! multinomials in `O(S²)` time per round independent of the number of
//! players.
//!
//! # Performance architecture
//!
//! Both round kernels are **zero-steady-state-allocation**: every piece of
//! per-round working memory is reusable scratch owned by the [`Simulation`]
//! (a flat CSR pair buffer and a multinomial counts buffer for the
//! aggregate kernel; a μ table, written once per class visit, plus
//! move/commit buffers for the player-level kernel) or by the `State` (the per-round
//! latency cache, which memoizes `ℓ_e(x_e)`, `ℓ_e(x_e+1)`, and `ℓ_P(x)`
//! and is maintained incrementally as migrations apply). An integration
//! test pins this with a counting global allocator.
//!
//! # Ensembles
//!
//! The statistical experiments run thousands of replicas; [`Ensemble`]
//! executes them across threads with `split_seed`-derived per-replica
//! seeds and returns trial-ordered outcomes that are **bit-identical for
//! any thread count**. Every ensemble entry point, materializing or
//! reduced, runs on one block scheduler.
//!
//! # Streaming observers and reducers
//!
//! Per-round metrics stream through the [`Observer`] trait
//! ([`Simulation::run_observed`] feeds one [`RoundRecord`] per recorded
//! round; [`Trajectory`] is just the stock materializing observer), and
//! ensembles fold per-trial outputs into a [`Reducer`]
//! (`identity`/`absorb`/`merge`) via [`Ensemble::run_reduced`] — so a
//! 10⁵-trial sweep reduces online with memory independent of the trial
//! count, still bit-identical for every thread count. Stock reducers cover
//! per-round-index mean/variance/CI ([`PerRoundStats`], built on
//! [`Welford`]), min/max envelopes ([`MinMax`]), convergence-round
//! histograms keyed by stop reason ([`ConvergenceHistogram`]), and a
//! counted, reservoir-free quantile summary ([`QuantileSketch`]).
//!
//! # Example
//!
//! ```
//! use congames_dynamics::{ImitationProtocol, Simulation, StopCondition, StopSpec};
//! use congames_model::{ApproxEquilibrium, CongestionGame, Affine, State};
//! use rand::SeedableRng;
//!
//! let game = CongestionGame::singleton(
//!     (0..4).map(|i| Affine::linear((i + 1) as f64).into()).collect(),
//!     1000,
//! )?;
//! let start = State::all_on_first(&game);
//! let protocol = ImitationProtocol::paper_default().into();
//! let mut sim = Simulation::new(&game, protocol, start)?;
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let eq = ApproxEquilibrium::new(0.05, 0.1, sim.params().nu)?;
//! let outcome = sim.run(
//!     &StopSpec::new(vec![
//!         StopCondition::ApproxEquilibrium(eq),
//!         StopCondition::MaxRounds(100_000),
//!     ]),
//!     &mut rng,
//! )?;
//! assert!(outcome.rounds < 100_000);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod ensemble;
mod error;
mod expectation;
mod hook;
mod observe;
mod protocol;
mod reduce;
pub mod sequential;
mod stopping;
mod trajectory;
pub mod wire;

pub use engine::{EngineKind, RoundStats, Simulation};
pub use ensemble::{Ensemble, REDUCE_BLOCK};
pub use error::DynamicsError;
pub use expectation::PairFlow;
pub use hook::RoundHook;
pub use observe::{FinalSummary, Observer, RecordSeries};
pub use protocol::{
    Damping, ExplorationProtocol, ImitationProtocol, NuRule, Protocol, SelfSampling,
};
pub use reduce::{
    merge_partials, ConvergenceHistogram, MapItem, MinMax, PerRoundStats, QuantileSketch,
    ReasonStats, Reducer, RoundIndexStats, ScalarStats, Welford, STOP_REASONS,
};
pub use sequential::{PivotRule, SequentialOutcome};
pub use stopping::{RunOutcome, RunSummary, StopCondition, StopReason, StopSpec};
pub use trajectory::{RecordConfig, RoundRecord, Trajectory};
