//! # congames-analysis
//!
//! Experiment-harness utilities: summary statistics with confidence
//! intervals, least-squares / log–log regression for scaling exponents,
//! aligned-text table rendering, CSV output, and a
//! deterministic multi-seed parallel trial runner built on std scoped
//! threads.
//!
//! Everything here is deliberately free of the game types — it consumes and
//! produces plain numbers — so the experiment binaries in `congames-bench`
//! stay thin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod csv;
mod regression;
mod runner;
mod shock;
mod stats;
mod table;

pub use csv::{convergence_csv, per_round_stats_csv, CsvWriter};
pub use regression::{linear_fit, loglog_fit, Fit};
pub use runner::run_trials;
pub use shock::{shock_recovery, shock_recovery_csv, ShockSummary};
pub use stats::Summary;
pub use table::Table;
