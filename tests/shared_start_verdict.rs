//! The start verdict of a reduced sweep: without a round hook, the
//! ensemble evaluates the stop conditions at the start once per sweep and
//! gives that verdict to round 0 of every trial (see
//! `Ensemble::run_reduced`, "Determinism").
//!
//! Every sweep here is compared with a per-trial evaluation — a fresh
//! `Simulation` per trial, whose round 0 always runs the stop conditions —
//! bit for bit: stop-reason histogram, each trial's reason, rounds and
//! final Φ, and the recorded trajectories. A replica driven by hand pins
//! that `Simulation` itself carries no verdict from one run to the next.

use congames::dynamics::{
    merge_partials, ConvergenceHistogram, DynamicsError, Ensemble, FinalSummary, ImitationProtocol,
    MapItem, Protocol, RecordConfig, Reducer, RoundHook, RunSummary, Simulation, StopCondition,
    StopReason, StopSpec, Trajectory, REDUCE_BLOCK,
};
use congames::model::{CongestionGame, ResourceId, State};
use congames::sampling::{DrawStream, RngMode};
use congames::Affine;

const SEED: u64 = 20090808;
/// Three reduction blocks, the last one partial.
const TRIALS: usize = 70;

/// A trial's stop reason, rounds and final-potential bits.
type Outcome = (StopReason, u64, u64);

fn outcome(s: RunSummary) -> Outcome {
    (s.reason, s.rounds, s.potential.to_bits())
}

type Sweep = (ConvergenceHistogram, MapItem<RunSummary, fn(RunSummary) -> Outcome, Vec<Outcome>>);

fn reducer() -> Sweep {
    (ConvergenceHistogram::new(), MapItem::new(outcome as fn(RunSummary) -> Outcome, Vec::new()))
}

/// Two identical linear links and 120 players.
fn game() -> CongestionGame {
    CongestionGame::singleton(vec![Affine::linear(1.0).into(), Affine::linear(1.0).into()], 120)
        .expect("valid game")
}

/// A start the dynamics leave (latencies 90 and 30).
fn unstable(game: &CongestionGame) -> State {
    State::from_counts(game, vec![90, 30]).expect("valid start")
}

/// A start that is already imitation-stable: every trial stops at round 0.
fn stable(game: &CongestionGame) -> State {
    State::from_counts(game, vec![60, 60]).expect("valid start")
}

fn protocol() -> Protocol {
    ImitationProtocol::paper_default().into()
}

fn stable_first(rounds: u64) -> StopSpec {
    StopSpec::new(vec![StopCondition::ImitationStable, StopCondition::MaxRounds(rounds)])
}

/// Steepens link 1 to `3x` at round 0, which makes the `[90, 30]` start
/// imitation-stable (both links then cost 90).
#[derive(Debug, Default)]
struct SteepenAtZero {
    fired: bool,
}

impl RoundHook for SteepenAtZero {
    fn next_fire(&self) -> Option<u64> {
        (!self.fired).then_some(0)
    }

    fn fire(
        &mut self,
        _round: u64,
        game: &mut CongestionGame,
        _state: &mut State,
    ) -> Result<bool, DynamicsError> {
        self.fired = true;
        game.set_latency(ResourceId::new(1), Affine::linear(3.0).into())?;
        Ok(true)
    }
}

/// The sweep evaluated trial by trial on fresh simulations.
fn per_trial(start: &State, stop: &StopSpec, hooked: bool) -> Vec<Outcome> {
    let game = game();
    (0..TRIALS)
        .map(|trial| {
            let mut sim = Simulation::new(&game, protocol(), start.clone()).expect("valid start");
            if hooked {
                sim.attach_hook(Box::new(SteepenAtZero::default()));
            }
            let mut rng = DrawStream::for_trial(RngMode::Counter, SEED, trial as u64);
            outcome(sim.run_observed(stop, &mut rng, &mut ()).expect("trial runs"))
        })
        .collect()
}

fn ensemble<'g>(game: &'g CongestionGame, start: &State, threads: usize) -> Ensemble<'g> {
    Ensemble::new(game, protocol(), start.clone())
        .expect("valid ensemble")
        .trials(TRIALS)
        .base_seed(SEED)
        .rng_mode(RngMode::Counter)
        .threads(threads)
}

/// `run_reduced` at 1, 2 and 8 threads and shard ×3 + merge all equal the
/// per-trial evaluation; returns it.
fn assert_sweep_matches(start: &State, stop: &StopSpec, hooked: bool, label: &str) -> Vec<Outcome> {
    let game = game();
    let expected = per_trial(start, stop, hooked);
    // The same reduction tree as the sweep: one partial per block, merged
    // in block order.
    let blocks = expected.chunks(REDUCE_BLOCK).map(|block| {
        let mut partial = ConvergenceHistogram::new();
        for &(reason, rounds, bits) in block {
            partial.absorb(RunSummary { reason, rounds, potential: f64::from_bits(bits) });
        }
        partial
    });
    let histogram = merge_partials(ConvergenceHistogram::new(), blocks);
    let check = |(got_histogram, outcomes): Sweep, how: &str| {
        assert_eq!(outcomes.into_inner(), expected, "{label}: {how}");
        assert_eq!(got_histogram, histogram, "{label}: {how} histogram");
    };
    for threads in [1, 2, 8] {
        let mut e = ensemble(&game, start, threads);
        if hooked {
            e = e.with_round_hook(|| Box::new(SteepenAtZero::default()));
        }
        check(e.run_reduced(stop, |_| FinalSummary, reducer()).expect("sweep"), "run_reduced");
        let mut leaves = Vec::new();
        for shard in 0..3 {
            leaves.extend(
                e.run_reduced_shard(shard, 3, stop, |_| FinalSummary, &reducer()).expect("shard"),
            );
        }
        check(merge_partials(reducer(), leaves), "shard x3 + merge");
    }
    expected
}

#[test]
fn shared_start_verdicts_equal_per_trial_evaluation() {
    let game = game();
    // A stable start: every trial stops at round 0 on the shared verdict.
    let out = assert_sweep_matches(&stable(&game), &stable_first(500), false, "stable start");
    assert!(out.iter().all(|o| o.0 == StopReason::ImitationStable && o.1 == 0));
    // An unstable start: round 0 says "go on", later rounds decide.
    let out = assert_sweep_matches(&unstable(&game), &stable_first(500), false, "unstable start");
    assert!(out.iter().all(|o| o.0 == StopReason::ImitationStable && o.1 > 0));
    // A zero-round budget under the same start: round 0 is the only round.
    let out = assert_sweep_matches(&unstable(&game), &stable_first(0), false, "zero rounds");
    assert!(out.iter().all(|o| o.0 == StopReason::MaxRounds && o.1 == 0));
}

/// A hook that fires at round 0 makes every trial evaluate its own start:
/// each sees the post-event verdict, the same one a fresh simulation
/// computes.
#[test]
fn a_hook_firing_at_round_zero_gets_no_shared_verdict() {
    let game = game();
    let out = assert_sweep_matches(&unstable(&game), &stable_first(500), true, "hooked");
    assert!(out.iter().all(|o| o.0 == StopReason::ImitationStable && o.1 == 0));
}

/// Two sweeps on one ensemble under different specs each equal their
/// per-trial evaluation, whatever the earlier sweep's verdict was.
#[test]
fn successive_sweeps_under_different_specs_do_not_share_a_verdict() {
    let game = game();
    let start = stable(&game);
    let budget_first = StopSpec::new(vec![StopCondition::MaxRounds(0)]);
    let stable_late = stable_first(500).with_check_every(3);
    let expected_budget = per_trial(&start, &budget_first, false);
    let expected_stable = per_trial(&start, &stable_late, false);
    assert!(expected_budget.iter().all(|o| o.0 == StopReason::MaxRounds));
    assert!(expected_stable.iter().all(|o| o.0 == StopReason::ImitationStable));
    for threads in [1, 2, 8] {
        let e = ensemble(&game, &start, threads);
        for (stop, expected) in
            [(&budget_first, &expected_budget), (&stable_late, &expected_stable)]
        {
            let (_, outcomes) = e.run_reduced(stop, |_| FinalSummary, reducer()).expect("sweep");
            assert_eq!(&outcomes.into_inner(), expected, "threads {threads}, {stop:?}");
        }
    }
}

/// Recording at round 0 is unchanged by the shared verdict: reduced
/// sweeps observe the same trajectories as fresh simulations.
#[test]
fn round_zero_records_are_unchanged() {
    let game = game();
    let records = |t: &Trajectory| format!("{:?}", t.records());
    for start in [stable(&game), unstable(&game)] {
        let stop = stable_first(8);
        let expected: Vec<String> = (0..TRIALS)
            .map(|trial| {
                let mut sim = Simulation::new(&game, protocol(), start.clone())
                    .expect("valid start")
                    .with_recording(RecordConfig::every(3));
                let mut rng = DrawStream::for_trial(RngMode::Counter, SEED, trial as u64);
                records(&sim.run(&stop, &mut rng).expect("trial runs").trajectory)
            })
            .collect();
        for threads in [1, 2, 8] {
            let got = ensemble(&game, &start, threads)
                .recording(RecordConfig::every(3))
                .run_reduced(&stop, |_| Trajectory::default(), Vec::new())
                .expect("sweep");
            assert_eq!(got.iter().map(records).collect::<Vec<_>>(), expected, "threads {threads}");
        }
    }
}

/// Round 0 of one replica, driven by hand through the cases where a
/// verdict carried over from an earlier run would answer from the wrong
/// start, spec or game.
#[test]
fn a_replica_evaluates_every_round_zero_afresh() {
    let game = game();
    let mut rng = DrawStream::for_trial(RngMode::Counter, SEED, 0);
    let mut verdict = |sim: &mut Simulation<'_>, stop: &StopSpec| {
        let summary = sim.run_observed(stop, &mut rng, &mut ()).expect("run");
        assert_eq!(summary.rounds, 0, "every run here stops at round 0");
        summary.reason
    };
    let zero = stable_first(0);

    // A hook attached after an unhooked run: the event at round 0 makes
    // the start stable.
    let mut sim = Simulation::new(&game, protocol(), unstable(&game)).expect("valid start");
    assert_eq!(verdict(&mut sim, &zero), StopReason::MaxRounds);
    assert_eq!(verdict(&mut sim, &zero), StopReason::MaxRounds, "again");
    sim.attach_hook(Box::new(SteepenAtZero::default()));
    assert_eq!(verdict(&mut sim, &zero), StopReason::ImitationStable, "hooked round 0");

    // A reset to another start.
    let mut sim = Simulation::new(&game, protocol(), stable(&game)).expect("valid start");
    assert_eq!(verdict(&mut sim, &zero), StopReason::ImitationStable);
    sim.reset(&unstable(&game)).expect("valid start");
    assert_eq!(verdict(&mut sim, &zero), StopReason::MaxRounds, "after reset");
    sim.reset(&stable(&game)).expect("valid start");
    assert_eq!(verdict(&mut sim, &zero), StopReason::ImitationStable, "after reset back");

    // Another spec on the same start, in both orders.
    let budget = StopSpec::new(vec![StopCondition::MaxRounds(0)]);
    assert_eq!(verdict(&mut sim, &budget), StopReason::MaxRounds);
    assert_eq!(verdict(&mut sim, &zero), StopReason::ImitationStable);
    assert_eq!(verdict(&mut sim, &budget), StopReason::MaxRounds);
    let potential = StopSpec::new(vec![
        StopCondition::PotentialAtMost(f64::INFINITY),
        StopCondition::MaxRounds(0),
    ]);
    assert_eq!(verdict(&mut sim, &potential), StopReason::PotentialReached);
}
