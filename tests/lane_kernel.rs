//! Replica-major lane kernel: bit-identity property tests.
//!
//! The contract under test is absolute, not statistical: every lane of a
//! [`LaneKernel`] must realize **bit for bit** the trajectory the scalar
//! aggregate engine realizes for the same trial in counter mode. The suite
//! sweeps every supported lane width on one- and two-class fixtures,
//! re-derives the frozen `[28, 14, 8]` counter-kernel pin through the lane
//! kernel, and checks that `Ensemble::lane_width` leaves reduced sweeps
//! byte-identical for every lane width × thread count combination.

use congames::dynamics::{
    DynamicsError, EngineKind, Ensemble, FinalSummary, ImitationProtocol, LaneKernel, MapItem,
    Observer, Protocol, RecordConfig, RoundRecord, RunSummary, ScalarStats, Simulation,
    StopCondition, StopReason, StopSpec, LANE_WIDTHS,
};
use congames::model::{ApproxEquilibrium, CongestionGame, State};
use congames::sampling::{DrawStream, RngMode};
use congames_testutil::games;
use congames_testutil::rng::fixture_seed;
use congames_testutil::sim::record_bits;

/// Rounds per lockstep comparison: enough mixing that a drifting lane
/// diverges visibly, short enough to keep the width sweep fast.
const ROUNDS: u64 = 15;

/// Step every lane of a fresh kernel `ROUNDS` times and require each lane's
/// counts, potential bits, and migration tally to equal the scalar
/// counter-mode run of its trial.
fn assert_lanes_match_scalar(label: &str, game: &CongestionGame, start: &State, width: usize) {
    let base_seed = fixture_seed(label, 0);
    let protocol: Protocol = ImitationProtocol::paper_default().into();
    let mut kernel =
        LaneKernel::new(game, protocol, start, base_seed, 0, width).expect("valid lane kernel");
    for _ in 0..ROUNDS {
        kernel.step();
    }
    for lane in 0..width {
        let mut sim = Simulation::new(game, protocol, start.clone()).expect("valid simulation");
        let mut rng = DrawStream::for_trial(RngMode::Counter, base_seed, lane as u64);
        let mut migrations = 0;
        for _ in 0..ROUNDS {
            migrations = sim.step(&mut rng).expect("scalar step").migrations;
        }
        assert_eq!(
            kernel.lane_counts(lane),
            sim.state().counts(),
            "{label}: lane {lane} of {width} diverged from the scalar counts"
        );
        assert_eq!(
            kernel.lane_potential(lane).to_bits(),
            sim.potential().to_bits(),
            "{label}: lane {lane} of {width} diverged from the scalar potential bits"
        );
        assert_eq!(
            kernel.lane_migrations(lane),
            migrations,
            "{label}: lane {lane} of {width} diverged from the scalar migration count"
        );
    }
}

#[test]
fn every_lane_width_matches_scalar_on_a_single_class_fixture() {
    let game = games::affine_singleton(120);
    let start = games::geometric_state(&game);
    for width in LANE_WIDTHS {
        assert_lanes_match_scalar("lanes/affine", &game, &start, width);
    }
}

#[test]
fn every_lane_width_matches_scalar_on_a_two_class_fixture() {
    // Two player classes over overlapping strategy sets: exercises the
    // per-class pair walk, the union origin/destination sets, and per-class
    // exploration scaling inside the lane kernel.
    let game = games::two_class_overlap(60, 40);
    let start = games::geometric_state(&game);
    for width in LANE_WIDTHS {
        assert_lanes_match_scalar("lanes/two-class", &game, &start, width);
    }
}

/// The frozen counter-kernel pin from `engine_equivalence`: trial 7 of the
/// `eq/kernel-pin` fixture reaches counts `[28, 14, 8]` after 30 rounds.
/// The lane kernel must re-derive those exact bits when trial 7 rides as
/// lane 0 of a lane group.
#[test]
fn lane_kernel_reproduces_the_pinned_counter_trajectory() {
    let game = games::linear_singleton(3, 50);
    let start = games::geometric_state(&game);
    let mut kernel = LaneKernel::new(
        &game,
        ImitationProtocol::paper_default().into(),
        &start,
        fixture_seed("eq/kernel-pin", 0),
        7,
        8,
    )
    .expect("valid lane kernel");
    for _ in 0..30 {
        kernel.step();
    }
    assert_eq!(
        kernel.lane_counts(0),
        &[28, 14, 8],
        "lane 0 (trial 7) drifted from the pinned counter trajectory"
    );
}

/// `Ensemble::lane_width` is pure scheduling: for every lane width × thread
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

/// The quantile sketch path (the CLI's `--reduce quantiles`) through lanes:
/// summary statistics of a lane sweep equal the scalar sweep exactly.
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

/// Collects every record a run streams plus its summary.
#[derive(Default)]
struct Collect(Vec<RoundRecord>);

impl Observer for Collect {
    type Output = (Vec<RoundRecord>, RunSummary);

    fn observe(&mut self, record: &RoundRecord) {
        self.0.push(*record);
    }

    fn finish(self, summary: &RunSummary) -> Self::Output {
        (self.0, *summary)
    }
}

/// The record contract — start record, cadence records, deduplicated stop
/// record — is the same for a lane as for the scalar run of its trial, bit
/// for bit: with an unsatisfied-fraction test configured, a run resumed off
/// the record cadence, and stops that fire off the cadence.
#[test]
fn lane_records_equal_scalar_records_bitwise() {
    let game = games::two_class_overlap(60, 40);
    let start = games::geometric_state(&game);
    let protocol: Protocol = ImitationProtocol::paper_default().into();
    let approx = ApproxEquilibrium::new(0.1, 0.1, game.params().nu).expect("valid test");
    let record = RecordConfig { every: 3, approx: Some(approx) };
    let stop = StopSpec::new(vec![StopCondition::ImitationStable, StopCondition::MaxRounds(40)])
        .with_check_every(2);
    let base_seed = fixture_seed("lanes/records", 0);
    let width = 8;
    let mut kernel = LaneKernel::new(&game, protocol, &start, base_seed, 0, width)
        .expect("valid lane kernel")
        .with_recording(record);
    // Two manual rounds put the run's start off the record cadence.
    kernel.step();
    kernel.step();
    let lanes = kernel.run_observed(&stop, (0..width).map(|_| Collect::default()).collect());
    let lanes = lanes.expect("no lane fails");
    let mut off_cadence_stops = 0;
    for (lane, (records, summary)) in lanes.iter().enumerate() {
        let mut sim = Simulation::new(&game, protocol, start.clone())
            .expect("valid simulation")
            .with_recording(record);
        let mut rng = DrawStream::for_trial(RngMode::Counter, base_seed, lane as u64);
        sim.step(&mut rng).expect("scalar step");
        sim.step(&mut rng).expect("scalar step");
        let mut observer = Collect::default();
        let scalar = sim.run_observed(&stop, &mut rng, &mut observer).expect("scalar run");
        let (scalar_records, _) = observer.finish(&scalar);
        assert_eq!(records[0].round, 2, "lane {lane}: the start record is missing");
        assert_eq!(
            records.iter().map(record_bits).collect::<Vec<_>>(),
            scalar_records.iter().map(record_bits).collect::<Vec<_>>(),
            "lane {lane}: records differ from the scalar run"
        );
        assert_eq!(
            (summary.reason, summary.rounds, summary.potential.to_bits()),
            (scalar.reason, scalar.rounds, scalar.potential.to_bits()),
            "lane {lane}: summary differs from the scalar run"
        );
        if summary.rounds % 3 != 0 {
            off_cadence_stops += 1;
        }
    }
    assert!(off_cadence_stops > 0, "no lane stopped off the record cadence");
    assert!(
        lanes.iter().any(|(_, s)| s.reason == StopReason::ImitationStable),
        "no lane reached imitation stability"
    );
}

/// One kernel reset across three lane groups — a full group, a narrower
/// tail, and a full group again, as an ensemble worker runs them — gives
/// every lane the records and summary a fresh kernel for its group gives
/// it, bit for bit.
#[test]
fn a_reset_kernel_matches_fresh_kernels_bitwise() {
    let game = games::two_class_overlap(60, 40);
    let start = games::geometric_state(&game);
    let protocol: Protocol = ImitationProtocol::paper_default().into();
    let record = RecordConfig::every(3);
    let stop = StopSpec::new(vec![StopCondition::ImitationStable, StopCondition::MaxRounds(40)])
        .with_check_every(2);
    let base_seed = fixture_seed("lanes/reset", 0);
    let bits = |lanes: Vec<(Vec<RoundRecord>, RunSummary)>| {
        lanes
            .iter()
            .map(|(records, s)| {
                let records: Vec<_> = records.iter().map(record_bits).collect();
                (records, s.reason, s.rounds, s.potential.to_bits())
            })
            .collect::<Vec<_>>()
    };
    let run = |kernel: &mut LaneKernel<'_>, lanes: usize| {
        let observers = (0..lanes).map(|_| Collect::default()).collect();
        bits(kernel.run_observed(&stop, observers).expect("no lane fails"))
    };
    let mut kernel = LaneKernel::new(&game, protocol, &start, base_seed, 0, 8)
        .expect("valid lane kernel")
        .with_recording(record);
    for (first, lanes) in [(0u64, 8usize), (8, 5), (13, 8)] {
        if first > 0 {
            kernel.reset(first, lanes).expect("the group fits");
        }
        let reused = run(&mut kernel, lanes);
        let mut fresh = LaneKernel::new(&game, protocol, &start, base_seed, first, lanes)
            .expect("valid lane kernel")
            .with_recording(record);
        assert_eq!(reused, run(&mut fresh, lanes), "group at trial {first}");
        assert!(reused.iter().any(|l| l.1 == StopReason::ImitationStable), "group at {first}");
    }
}

/// A population whose lane buffers cannot be sized is a precise error from
/// `LaneKernel::new` (and from a lane sweep), not a wrapped window, an
/// out-of-range slice, or an allocation abort. (At `u64::MAX` players the
/// start itself is rejected, before any lane buffer is sized.)
#[test]
fn lane_kernel_rejects_a_population_it_cannot_hold() {
    let n = u64::MAX / 2;
    let game = CongestionGame::singleton(
        vec![congames::Affine::linear(1.0).into(), congames::Affine::linear(2.0).into()],
        n,
    )
    .expect("valid game");
    let start = State::from_counts(&game, vec![n, 0]).expect("valid state");
    let protocol: Protocol = ImitationProtocol::paper_default().into();
    let err = LaneKernel::new(&game, protocol, &start, 1, 0, 8).unwrap_err();
    assert!(matches!(err, DynamicsError::InvalidParameter { .. }), "{err:?}");
    let err = Ensemble::new(&game, protocol, start)
        .expect("valid ensemble")
        .rng_mode(RngMode::Counter)
        .trials(8)
        .threads(1)
        .lane_width(8)
        .run_reduced(&StopSpec::max_rounds(3), |_trial| FinalSummary, Vec::new())
        .unwrap_err();
    assert!(matches!(err, DynamicsError::InvalidParameter { .. }), "{err:?}");
}
