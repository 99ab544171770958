//! The determinism contract extended to nonstationary runs: attaching a
//! scenario schedule to an ensemble must leave every bit-identity
//! guarantee intact. Shocked sweeps are compared across thread counts
//! 1/2/8 under both RNG backends, a shocked shard×3 wire merge is checked
//! bitwise against the single-process reduction, and mixed-scenario shard
//! headers (differing only in their `scenario=` config digest) must be
//! rejected per file.
//!
//! Scenario hooks are RNG-free by contract — they fire as a function of
//! the round number alone — which is exactly why every stationary
//! guarantee carries over unchanged.

use congames::dynamics::{
    merge_partials, EngineKind, Ensemble, FinalSummary, ImitationProtocol, MapItem, RoundHook,
    ScalarStats, StopSpec,
};
use congames::sampling::RngMode;
use congames::scenario::{generate::step_shock, Schedule, ScheduleCursor, ScheduledEvent};
use congames_testutil::games;
use std::sync::Arc;

/// A schedule that exercises every cache-breaking event family: a latency
/// shock, a demand change (support churn), and an arrival/departure pair.
fn churn_schedule() -> Arc<Schedule> {
    Arc::new(
        Schedule::new(vec![
            (6, ScheduledEvent::ScaleLatency { resource: 0, factor: 3.0 }),
            (12, ScheduledEvent::SetDemand { class: 0, players: 150 }),
            (18, ScheduledEvent::AddPlayers { strategy: 1, count: 10 }),
            (22, ScheduledEvent::RemovePlayers { strategy: 1, count: 5 }),
        ])
        .expect("valid churn schedule"),
    )
}

fn shocked_ensemble<'a>(
    game: &'a congames::CongestionGame,
    start: &congames::State,
    engine: EngineKind,
    rng: RngMode,
    threads: usize,
    schedule: Option<Arc<Schedule>>,
) -> Ensemble<'a> {
    let mut e = Ensemble::new(game, ImitationProtocol::paper_default().into(), start.clone())
        .expect("valid ensemble")
        .engine(engine)
        .rng_mode(rng)
        .trials(16)
        .base_seed(2026)
        .threads(threads);
    if let Some(schedule) = schedule {
        e = e.with_round_hook(move || {
            Box::new(ScheduleCursor::new(Arc::clone(&schedule))) as Box<dyn RoundHook>
        });
    }
    e
}

/// Shocked ensembles are bit-identical for thread counts 1/2/8, under
/// both engines and both RNG backends — and actually shocked (the hook
/// changes the outcome versus the stationary run).
#[test]
fn shocked_ensemble_identical_across_threads_and_rng_modes() {
    let game = games::affine_singleton(120);
    let start = games::geometric_state(&game);
    let stop = StopSpec::max_rounds(30);
    let schedule = churn_schedule();
    for engine in [EngineKind::Aggregate, EngineKind::PlayerLevel] {
        for rng in [RngMode::Xoshiro, RngMode::Counter] {
            let run = |threads: usize, sched: Option<Arc<Schedule>>| {
                shocked_ensemble(&game, &start, engine, rng, threads, sched)
                    .run_with(&stop, |sim, out| {
                        (out.rounds, out.potential.to_bits(), sim.state().counts().to_vec())
                    })
                    .expect("ensemble run succeeds")
            };
            let reference = run(1, Some(Arc::clone(&schedule)));
            for threads in [2, 8] {
                assert_eq!(
                    reference,
                    run(threads, Some(Arc::clone(&schedule))),
                    "{engine:?}/{rng}: shocked ensemble changed with {threads} threads"
                );
            }
            // The events moved demand from 120 to 150 (+10 −5): every
            // trial's final counts must total 155, never the original 120.
            for (_, _, counts) in &reference {
                assert_eq!(counts.iter().sum::<u64>(), 155, "{engine:?}/{rng}");
            }
            assert_ne!(
                reference,
                run(1, None),
                "{engine:?}/{rng}: the schedule had no observable effect"
            );
        }
    }
}

/// A shocked shard×3 run, pushed through the wire encoding and merged in
/// shard order, is bit-identical to the single-process shocked reduction.
#[test]
fn shocked_shard_merge_identical_to_single_process() {
    use congames::dynamics::wire::{decode_shard_file, encode_shard_file, WireReduce};
    let game = games::affine_singleton(120);
    let start = games::geometric_state(&game);
    let stop = StopSpec::max_rounds(30);
    let schedule = step_shock(9, 0, 4.0).map(Arc::new).expect("valid step shock");
    let scalar =
        || MapItem::new(|s: congames::dynamics::RunSummary| s.potential, ScalarStats::new());
    for rng in [RngMode::Xoshiro, RngMode::Counter] {
        let ensemble = || {
            shocked_ensemble(
                &game,
                &start,
                EngineKind::Aggregate,
                rng,
                2,
                Some(Arc::clone(&schedule)),
            )
        };
        let single = ensemble()
            .run_reduced(&stop, |_t| FinalSummary, scalar())
            .expect("single-process run succeeds");
        let mut leaves = Vec::new();
        for shard in 0..3 {
            let blocks = ensemble()
                .run_reduced_shard(shard, 3, &stop, |_t| FinalSummary, &scalar())
                .expect("shard run succeeds");
            // Round-trip the leaves through the wire format, as the CLI
            // shard files do.
            let header = congames::dynamics::wire::ShardHeader {
                base_seed: 2026,
                trials: 16,
                trial_lo: ensemble().shard_trials(shard, 3).start as u64,
                trial_hi: ensemble().shard_trials(shard, 3).end as u64,
                shard: shard as u32,
                num_shards: 3,
                rng_mode: rng,
                reducer_id: scalar().wire_id(),
                config: format!("scenario={}", schedule.digest()),
            };
            let bytes = encode_shard_file(&header, &blocks);
            let (_, decoded) = decode_shard_file(&scalar(), &bytes).expect("shard file decodes");
            leaves.extend(decoded);
        }
        let merged = merge_partials(scalar(), leaves);
        assert_eq!(
            merged.inner(),
            single.inner(),
            "{rng}: shocked 3-shard wire merge changed the reduction bits"
        );
    }
}

/// Shard headers that differ only in their `scenario=` digest are a
/// different run configuration and must not merge.
#[test]
fn mixed_scenario_shard_sets_are_rejected() {
    use congames::dynamics::wire::{validate_shard_sequence, ShardHeader, WireError};
    let shock = step_shock(9, 0, 4.0).expect("valid step shock");
    let other = step_shock(10, 0, 4.0).expect("valid step shock");
    assert_ne!(shock.digest(), other.digest());
    let header = |shard: u32, digest: &str| ShardHeader {
        base_seed: 2026,
        trials: 64,
        trial_lo: u64::from(shard) * 32,
        trial_hi: u64::from(shard + 1) * 32,
        shard,
        num_shards: 2,
        rng_mode: RngMode::Counter,
        reducer_id: "welford".into(),
        config: format!("links=1,2;scenario={digest}"),
    };
    let headers = vec![header(0, &shock.digest()), header(1, &other.digest())];
    let err = validate_shard_sequence(&headers).expect_err("mixed scenarios must not merge");
    assert!(matches!(err, WireError::ConfigMismatch { shard: 1, .. }), "{err:?}");
    assert!(err.to_string().contains("different run configuration"), "{err}");
    // Uniform-scenario sets stay mergeable.
    let ok = vec![header(0, &shock.digest()), header(1, &shock.digest())];
    validate_shard_sequence(&ok).expect("uniform-scenario shards merge");
}

/// An arrival that would wrap the population must stop the run with a
/// precise error, not continue on a silently shrunken game (2000 players +
/// u64::MAX used to wrap to 1999).
#[test]
fn wrapping_arrival_trace_fails_the_run() {
    use congames::dynamics::{DynamicsError, Simulation};
    use congames::sampling::DrawStream;
    let schedule = congames::scenario::trace::parse_trace(
        "# congames-trace v1\n5,add_players,0,18446744073709551615\n",
    )
    .expect("the trace parses: the overflow is a property of the game it meets");
    let game = games::linear_singleton(3, 2000);
    let start = games::geometric_state(&game);
    for engine in [EngineKind::Aggregate, EngineKind::PlayerLevel] {
        let mut sim =
            Simulation::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                .expect("valid simulation")
                .with_engine(engine)
                .with_hook(Box::new(ScheduleCursor::new(Arc::new(schedule.clone()))));
        let mut rng = DrawStream::for_trial(RngMode::Counter, 5, 0);
        let err = sim.run(&StopSpec::max_rounds(50), &mut rng).unwrap_err();
        assert!(
            matches!(&err, DynamicsError::Hook { message } if message.contains("overflows u64")),
            "{engine:?}: {err}"
        );
        assert_eq!(sim.round(), 5, "{engine:?}: the run must stop at the event");
        assert_eq!(sim.state().counts().iter().sum::<u64>(), 2000);
    }
}

/// `run_with` stops at the lowest failing trial instead of running every
/// remaining trial: with one thread, a hook that never advances fails
/// trial 0, and no later trial builds its hook.
#[test]
fn run_with_stops_at_the_lowest_failing_trial() {
    use congames::dynamics::DynamicsError;
    use std::sync::atomic::{AtomicUsize, Ordering};
    #[derive(Debug)]
    struct Wedged;
    impl RoundHook for Wedged {
        fn next_fire(&self) -> Option<u64> {
            Some(0)
        }
        fn fire(
            &mut self,
            _round: u64,
            _game: &mut congames::CongestionGame,
            _state: &mut congames::State,
        ) -> Result<bool, DynamicsError> {
            Ok(false)
        }
    }
    let game = games::linear_singleton(3, 60);
    let start = games::geometric_state(&game);
    let built = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&built);
    let err = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start)
        .expect("valid ensemble")
        .trials(64)
        .threads(1)
        .with_round_hook(move || {
            counter.fetch_add(1, Ordering::Relaxed);
            Box::new(Wedged) as Box<dyn RoundHook>
        })
        .run_with(&StopSpec::max_rounds(10), |_, outcome| outcome.rounds)
        .unwrap_err();
    assert!(matches!(err, DynamicsError::Hook { .. }), "{err:?}");
    assert_eq!(built.load(Ordering::Relaxed), 1, "trials after the failing one still ran");
}
