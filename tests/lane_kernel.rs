//! `Ensemble::lane_width` after the replica-lane kernel's removal.
//!
//! Every reduced sweep runs on the scalar `Simulation`, which the lane
//! kernel matched byte for byte. The method stays as a no-op for existing
//! callers until the benchmark stops passing it; these tests pin that it
//! leaves reduced sweeps byte-identical for every width it used to accept
//! × thread count.

use congames::dynamics::{
    EngineKind, Ensemble, FinalSummary, ImitationProtocol, MapItem, RunSummary, ScalarStats,
    StopCondition, StopSpec,
};
use congames::sampling::RngMode;
use congames_testutil::games;
use congames_testutil::rng::fixture_seed;

/// The widths the lane kernel accepted.
const LANE_WIDTHS: [usize; 4] = [8, 16, 32, 64];

/// `Ensemble::lane_width` changes nothing: for every lane width × thread
/// count, a reduced sweep over a two-class game must produce the scalar
/// sweep's bits, and per-trial outputs must arrive in trial order.
#[test]
fn lane_ensembles_are_bit_identical_for_every_width_and_thread_count() {
    let game = games::two_class_overlap(60, 40);
    let start = games::geometric_state(&game);
    let stop = StopSpec::new(vec![StopCondition::ImitationStable, StopCondition::MaxRounds(40)])
        .with_check_every(4);
    let run = |lanes: Option<usize>, threads: usize| -> Vec<u64> {
        let mut e = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
            .expect("valid ensemble")
            .engine(EngineKind::Aggregate)
            .rng_mode(RngMode::Counter)
            .trials(70)
            .base_seed(fixture_seed("lanes/ensemble", 0))
            .threads(threads);
        if let Some(w) = lanes {
            e = e.lane_width(w);
        }
        e.run_reduced(
            &stop,
            |_trial| FinalSummary,
            MapItem::new(|s: RunSummary| s.potential.to_bits(), Vec::new()),
        )
        .expect("reduced run succeeds")
        .into_inner()
    };
    let scalar = run(None, 1);
    assert_eq!(scalar.len(), 70);
    for width in LANE_WIDTHS {
        for threads in [1, 2, 8] {
            assert_eq!(
                scalar,
                run(Some(width), threads),
                "lanes={width} threads={threads} changed per-trial potential bits"
            );
        }
    }
}

/// The quantile sketch path (the CLI's `--reduce quantiles`) with a lane
/// width set: summary statistics equal the sweep without it exactly.
#[test]
fn lane_quantile_reductions_match_scalar_bits() {
    let game = games::affine_singleton(120);
    let start = games::geometric_state(&game);
    let stop = StopSpec::max_rounds(25);
    let run = |lanes: Option<usize>| {
        let mut e = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
            .expect("valid ensemble")
            .rng_mode(RngMode::Counter)
            .trials(80)
            .base_seed(2024)
            .threads(4);
        if let Some(w) = lanes {
            e = e.lane_width(w);
        }
        e.run_reduced(
            &stop,
            |_trial| FinalSummary,
            MapItem::new(|s: RunSummary| s.potential, ScalarStats::new()),
        )
        .expect("reduced run succeeds")
        .into_inner()
    };
    let scalar = run(None);
    for width in LANE_WIDTHS {
        assert_eq!(scalar, run(Some(width)), "lanes={width} changed the quantile sketch");
    }
}
