//! # congames-sampling
//!
//! Random-variate substrate for the `congames` project.
//!
//! The concurrent round engines need two primitives that `rand` itself
//! does not provide (and `rand_distr` is not on the approved dependency
//! list, so they are implemented and validated here):
//!
//! * [`binomial`] — exact binomial sampling. Small cases sum Bernoullis,
//!   moderate means use the stable inversion recurrence (BINV), large means
//!   use the BTPE rejection algorithm of Kachitvichyanukul & Schmeiser
//!   (1988). This is what lets the aggregate engine simulate a round among
//!   millions of players in microseconds without changing the distribution.
//! * [`multinomial_with_rest_into`] — one round of per-player independent
//!   choices grouped by origin strategy is exactly a multinomial draw (the
//!   "rest" category is "stay put"); it is sampled by conditional
//!   binomials into a reused counts buffer.
//!
//! Reproducibility helpers ([`split_seed`], [`seeded_rng`]) derive
//! independent, deterministic RNG streams for parallel experiments, and the
//! [`DrawStream`] abstraction (module [`counter`] + [`RngMode`]) lets every
//! kernel draw either from the sequential xoshiro stream or from a
//! counter-based Philox stream addressed by `(trial, round, site, index)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod binomial;
pub mod counter;
mod error;
mod multinomial;
mod seeds;
mod stream;

pub use binomial::binomial;
pub use counter::{counter_blocks, counter_site_blocks, CounterRng};
// Re-exported so downstream crates pick dispatch arms without depending on
// `congames-simd` directly.
pub use congames_simd::Dispatch;
pub use error::SamplingError;
pub use multinomial::multinomial_with_rest_into;
pub use seeds::{seeded_rng, split_seed};
pub use stream::{DrawRng, DrawStream, RngMode};
