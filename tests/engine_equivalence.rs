//! Cross-engine equivalence: the `Aggregate` engine (per-origin
//! multinomials, `O(S²)` per round) and the `PlayerLevel` engine (explicit
//! per-player iteration, `O(n)` per round) must realize **statistically
//! identical** dynamics — same per-round migration distribution, hence the
//! same distribution over trajectories.
//!
//! This suite is the correctness bedrock for every future performance PR:
//! sharding, batching, or fusing a round engine must keep these tests
//! green. It compares the two engines across game families (linear,
//! affine, and superlinear singletons; an overlapping-strategy general
//! game; the Braess network) and protocols (imitation, exploration,
//! combined), using the tolerance machinery of `congames-testutil`:
//!
//! * z-tests on mean final potential and mean average latency after a
//!   fixed number of rounds (z = 4.5 → a correct engine pair fails with
//!   probability ≈ 7e-6 per comparison), and
//! * a two-sample Kolmogorov–Smirnov test on the full final-occupancy
//!   distribution of a tracked strategy.
//!
//! Every trial seed derives from `congames_testutil::rng::fixture_rng`, so
//! failures replay exactly.

use std::sync::Arc;

use congames::dynamics::{
    DynamicsError, EngineKind, Ensemble, ExplorationProtocol, ImitationProtocol, Protocol,
    RecordConfig, RoundHook, Simulation, StopCondition, StopReason, StopSpec,
};
use congames::model::{average_latency, potential, CongestionGame, ResourceId, State, StrategyId};
use congames::sampling::{DrawRng, DrawStream, RngMode};
use congames::scenario::{generate::step_shock, ScheduleCursor};
use congames_testutil::games;
use congames_testutil::rng::{fixture_rng, fixture_seed, fixture_stream};
use congames_testutil::sim::{
    occupancy_histogram, occupancy_histogram_mode, record_bits, trial_stats, trial_stats_mode,
    RecordBits,
};
use congames_testutil::stats::{assert_means_equal, ks_distance, ks_threshold};

/// Number of independent trials per engine for the mean comparisons.
const TRIALS: u64 = 256;
/// Rounds simulated per trial: enough mixing to leave the start state's
/// neighborhood, short enough that distributions retain spread.
const ROUNDS: u64 = 12;
/// z tolerance for mean comparisons (two-sided ≈ 7e-6 false-failure rate).
const Z: f64 = 4.5;

fn potential_stat(game: &CongestionGame, state: &State) -> f64 {
    potential(game, state)
}

fn latency_stat(game: &CongestionGame, state: &State) -> f64 {
    average_latency(game, state)
}

/// Compare both engines on one `(game, start, protocol)` configuration.
fn assert_engines_agree(label: &str, game: &CongestionGame, start: &State, protocol: Protocol) {
    let stats: [(&str, congames_testutil::sim::StateStat); 2] =
        [("potential", potential_stat), ("avg_latency", latency_stat)];
    for (stat_name, stat) in stats {
        let agg = trial_stats(
            &format!("{label}/agg"),
            game,
            protocol,
            start,
            EngineKind::Aggregate,
            ROUNDS,
            TRIALS,
            stat,
        );
        let player = trial_stats(
            &format!("{label}/player"),
            game,
            protocol,
            start,
            EngineKind::PlayerLevel,
            ROUNDS,
            TRIALS,
            stat,
        );
        // Relative floor: protects the comparison when both engines have
        // essentially converged and the sample variance is ~0.
        let scale = agg.iter().map(|x| x.abs()).fold(0.0f64, f64::max).max(1.0);
        assert_means_equal(
            &agg,
            &player,
            Z,
            1e-9 * scale,
            &format!("{label}: {stat_name} after {ROUNDS} rounds"),
        );
    }
}

/// KS comparison of the final-occupancy distribution of strategy 0.
fn assert_occupancy_distributions_agree(
    label: &str,
    game: &CongestionGame,
    start: &State,
    protocol: Protocol,
) {
    let trials = 400u64;
    let agg = occupancy_histogram(
        &format!("{label}/occ-agg"),
        game,
        protocol,
        start,
        EngineKind::Aggregate,
        ROUNDS,
        trials,
        0,
    );
    let player = occupancy_histogram(
        &format!("{label}/occ-player"),
        game,
        protocol,
        start,
        EngineKind::PlayerLevel,
        ROUNDS,
        trials,
        0,
    );
    let d = ks_distance(&agg, &player);
    let thresh = ks_threshold(trials as usize, trials as usize, 1e-4);
    assert!(
        d <= thresh,
        "{label}: occupancy KS distance {d:.4} exceeds {thresh:.4} over {trials} trials"
    );
}

#[test]
fn linear_singleton_imitation() {
    let game = games::linear_singleton(4, 200);
    let start = games::geometric_state(&game);
    assert_engines_agree(
        "eq/linear-imit",
        &game,
        &start,
        ImitationProtocol::paper_default().into(),
    );
}

#[test]
fn linear_singleton_exploration() {
    let game = games::linear_singleton(4, 200);
    let start = games::geometric_state(&game);
    assert_engines_agree(
        "eq/linear-expl",
        &game,
        &start,
        ExplorationProtocol::paper_default().into(),
    );
}

#[test]
fn affine_singleton_combined_protocol() {
    let game = games::affine_singleton(150);
    let start = games::geometric_state(&game);
    assert_engines_agree("eq/affine-comb", &game, &start, Protocol::combined_default());
}

#[test]
fn monomial_singleton_imitation() {
    let game = games::monomial_singleton(120);
    let start = games::geometric_state(&game);
    assert_engines_agree(
        "eq/monomial-imit",
        &game,
        &start,
        ImitationProtocol::paper_default().into(),
    );
}

#[test]
fn overlapping_general_game_imitation() {
    let game = games::overlapping_pairs(100);
    let start = games::geometric_state(&game);
    assert_engines_agree(
        "eq/overlap-imit",
        &game,
        &start,
        ImitationProtocol::paper_default().into(),
    );
}

#[test]
fn braess_network_imitation() {
    let net = games::braess_network(128);
    let start = games::geometric_state(net.game());
    assert_engines_agree(
        "eq/braess-imit",
        net.game(),
        &start,
        ImitationProtocol::paper_default().into(),
    );
}

#[test]
fn braess_network_combined_protocol() {
    let net = games::braess_network(128);
    let start = games::geometric_state(net.game());
    assert_engines_agree("eq/braess-comb", net.game(), &start, Protocol::combined_default());
}

#[test]
fn occupancy_distribution_linear_singleton() {
    let game = games::linear_singleton(3, 60);
    let start = games::geometric_state(&game);
    assert_occupancy_distributions_agree(
        "eq/occ-linear",
        &game,
        &start,
        ImitationProtocol::paper_default().into(),
    );
}

#[test]
fn occupancy_distribution_braess() {
    let net = games::braess_network(60);
    let start = games::geometric_state(net.game());
    assert_occupancy_distributions_agree(
        "eq/occ-braess",
        net.game(),
        &start,
        ImitationProtocol::paper_default().into(),
    );
}

/// Both engines are individually deterministic given a seed: replaying the
/// same fixture stream must reproduce the trajectory bit-for-bit.
#[test]
fn engines_replay_deterministically() {
    let game = games::affine_singleton(90);
    let start = games::geometric_state(&game);
    for engine in [EngineKind::Aggregate, EngineKind::PlayerLevel] {
        let run = |label: &str| -> Vec<Vec<u64>> {
            let mut sim =
                Simulation::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                    .expect("valid simulation")
                    .with_engine(engine);
            let mut rng = fixture_rng(label, 0);
            (0..20)
                .map(|_| {
                    sim.step(&mut rng).expect("step");
                    sim.state().counts().to_vec()
                })
                .collect()
        };
        assert_eq!(run("eq/replay"), run("eq/replay"), "{engine:?} diverged under replay");
    }
}

/// The multi-class case: two classes sharing resources, Combined protocol
/// with virtual agents (Section 6, options 2+3 together). Imitation samples
/// within a class only; the aggregate and player-level kernels must still
/// realize identical statistics.
#[test]
fn two_class_combined_with_virtual_agents() {
    let game = games::two_class_overlap(80, 60);
    let imitation = ImitationProtocol::paper_default().with_virtual_agents(true);
    let protocol = Protocol::combined(imitation, ExplorationProtocol::paper_default(), 0.5)
        .expect("valid combined protocol");
    let start = games::geometric_state(&game).with_virtual_agents(&game);
    assert_engines_agree("eq/two-class-virtual", &game, &start, protocol);
}

/// Ensemble output must be **bit-identical** for any thread count: replica
/// seeds derive from `(base_seed, trial)` and never from scheduling.
#[test]
fn ensemble_identical_across_thread_counts() {
    let game = games::affine_singleton(120);
    let start = games::geometric_state(&game);
    for engine in [EngineKind::Aggregate, EngineKind::PlayerLevel] {
        let run = |threads: usize| {
            Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                .expect("valid ensemble")
                .engine(engine)
                .trials(16)
                .base_seed(2024)
                .threads(threads)
                .run_with(&StopSpec::max_rounds(25), |sim, out| {
                    (out.rounds, out.potential.to_bits(), sim.state().counts().to_vec())
                })
                .expect("ensemble run succeeds")
        };
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(
                reference,
                run(threads),
                "{engine:?}: ensemble output changed with {threads} threads"
            );
        }
    }
}

/// The streamed reduction pin (the `run_reduced` sibling of the outcome
/// pin above): per-round Welford/min-max tables and the stop-reason
/// histogram must come out **bit-identical** for thread counts 1/2/8.
/// The block-structured reduction tree depends only on the trial count,
/// so 80 trials (3 reduction blocks) exercise both absorb and merge.
#[test]
fn reduced_ensemble_identical_across_thread_counts() {
    use congames::dynamics::{
        ConvergenceHistogram, FinalSummary, PerRoundStats, RecordConfig, RecordSeries,
    };
    let game = games::affine_singleton(120);
    let start = games::geometric_state(&game);
    for engine in [EngineKind::Aggregate, EngineKind::PlayerLevel] {
        let per_round = |threads: usize| {
            Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                .expect("valid ensemble")
                .engine(engine)
                .trials(80)
                .base_seed(2024)
                .threads(threads)
                .recording(RecordConfig::every_round())
                .run_reduced(
                    &StopSpec::max_rounds(25),
                    |_trial| RecordSeries::new(),
                    PerRoundStats::new(),
                )
                .expect("reduced ensemble run succeeds")
        };
        let histogram = |threads: usize| {
            Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                .expect("valid ensemble")
                .engine(engine)
                .trials(80)
                .base_seed(2024)
                .threads(threads)
                .run_reduced(
                    &StopSpec::max_rounds(25),
                    |_trial| FinalSummary,
                    ConvergenceHistogram::new(),
                )
                .expect("reduced ensemble run succeeds")
        };
        let stats_reference = per_round(1);
        assert_eq!(stats_reference.trials(), 80);
        assert_eq!(stats_reference.len(), 26, "rounds 0..=25 recorded");
        let hist_reference = histogram(1);
        assert_eq!(hist_reference.total(), 80);
        for threads in [2, 8] {
            assert_eq!(
                stats_reference,
                per_round(threads),
                "{engine:?}: reduced per-round stats changed with {threads} threads"
            );
            assert_eq!(
                hist_reference,
                histogram(threads),
                "{engine:?}: convergence histogram changed with {threads} threads"
            );
        }
    }
}

/// The multi-process acceptance anchor: splitting a fixed-seed sweep into
/// any number of shards, carrying each shard's reduction-tree leaves
/// through the wire encoding (encode → bytes → decode), and merging in
/// shard order must be **byte-identical** to single-process `run_reduced`
/// — for both engines and every shard count. This is the property the
/// `congames shard`/`congames merge` pair is built on.
#[test]
fn sharded_wire_merge_identical_to_single_process_run_reduced() {
    use congames::dynamics::wire::{
        decode_shard_file, encode_shard_file, validate_shard_sequence, ShardHeader, WireReduce,
    };
    use congames::dynamics::{
        merge_partials, ConvergenceHistogram, FinalSummary, MapItem, ScalarStats,
    };
    let game = games::affine_singleton(120);
    let start = games::geometric_state(&game);
    let stop = StopSpec::max_rounds(25);
    for engine in [EngineKind::Aggregate, EngineKind::PlayerLevel] {
        let ensemble = || {
            Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                .expect("valid ensemble")
                .engine(engine)
                .trials(80)
                .base_seed(2024)
                .threads(2)
        };
        let scalar =
            || MapItem::new(|s: congames::dynamics::RunSummary| s.potential, ScalarStats::new());
        let single_scalar = ensemble()
            .run_reduced(&stop, |_t| FinalSummary, scalar())
            .expect("single-process run succeeds");
        let single_hist = ensemble()
            .run_reduced(&stop, |_t| FinalSummary, ConvergenceHistogram::new())
            .expect("single-process run succeeds");
        // 80 trials = 3 blocks; 1 shard (degenerate), 2 (uneven), 3 (one
        // block each), and 7 (more shards than blocks → empty shards).
        for num_shards in [1usize, 2, 3, 7] {
            let mut files = Vec::new();
            let mut hist_files = Vec::new();
            for shard in 0..num_shards {
                let e = ensemble();
                let range = e.shard_trials(shard, num_shards);
                let header = |reducer_id: String| ShardHeader {
                    base_seed: 2024,
                    trials: 80,
                    trial_lo: range.start as u64,
                    trial_hi: range.end as u64,
                    shard: shard as u32,
                    num_shards: num_shards as u32,
                    rng_mode: RngMode::Xoshiro,
                    reducer_id,
                    config: format!("engine={engine:?}"),
                };
                let blocks = e
                    .run_reduced_shard(shard, num_shards, &stop, |_t| FinalSummary, &scalar())
                    .expect("shard run succeeds");
                files.push(encode_shard_file(&header(scalar().wire_id()), &blocks));
                let blocks = e
                    .run_reduced_shard(
                        shard,
                        num_shards,
                        &stop,
                        |_t| FinalSummary,
                        &ConvergenceHistogram::new(),
                    )
                    .expect("shard run succeeds");
                hist_files.push(encode_shard_file(
                    &header(ConvergenceHistogram::new().wire_id()),
                    &blocks,
                ));
            }
            // Replay the merge exactly as `congames merge` does: validate
            // the headers, decode every shard's leaves, fold in order.
            let mut headers = Vec::new();
            let mut leaves = Vec::new();
            for bytes in &files {
                let (h, blocks) = decode_shard_file(&scalar(), bytes).expect("shard file decodes");
                headers.push(h);
                leaves.extend(blocks);
            }
            validate_shard_sequence(&headers).expect("shard sequence validates");
            let merged = merge_partials(scalar(), leaves);
            assert_eq!(
                merged.inner(),
                single_scalar.inner(),
                "{engine:?}: {num_shards}-shard wire merge changed the scalar reduction bits"
            );
            let mut leaves = Vec::new();
            for bytes in &hist_files {
                let (_, blocks) = decode_shard_file(&ConvergenceHistogram::new(), bytes)
                    .expect("shard file decodes");
                leaves.extend(blocks);
            }
            let merged = merge_partials(ConvergenceHistogram::new(), leaves);
            assert_eq!(
                merged, single_hist,
                "{engine:?}: {num_shards}-shard wire merge changed the histogram"
            );
        }
    }
}

/// Fixed-seed determinism pin for the zero-allocation kernels: the exact
/// trajectory of a pinned `(game, seed)` pair. This is intentionally
/// brittle — any change to the kernels' RNG consumption or decision order
/// shows up here first. Re-pin the constants (and say so in the changelog)
/// when such a change is *intended*; a surprise failure means
/// nondeterminism crept in.
#[test]
fn kernel_streams_are_pinned() {
    let game = games::linear_singleton(3, 50);
    let start = games::geometric_state(&game);
    let run = |engine: EngineKind| -> Vec<u64> {
        let mut sim =
            Simulation::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                .expect("valid simulation")
                .with_engine(engine);
        let mut rng = fixture_rng("eq/kernel-pin", 7);
        for _ in 0..30 {
            sim.step(&mut rng).expect("step");
        }
        sim.state().counts().to_vec()
    };
    let aggregate = run(EngineKind::Aggregate);
    let player = run(EngineKind::PlayerLevel);
    assert_eq!(aggregate.iter().sum::<u64>(), 50);
    assert_eq!(player.iter().sum::<u64>(), 50);
    // Pinned expected trajectories (see the doc comment for re-pinning).
    assert_eq!(aggregate, run(EngineKind::Aggregate), "aggregate kernel must replay exactly");
    assert_eq!(player, run(EngineKind::PlayerLevel), "player kernel must replay exactly");
    let pinned_aggregate: &[u64] = &[29, 13, 8];
    let pinned_player: &[u64] = &[29, 13, 8];
    assert_eq!(
        aggregate, pinned_aggregate,
        "aggregate kernel stream drifted from the pinned trajectory"
    );
    assert_eq!(
        player, pinned_player,
        "player-level kernel stream drifted from the pinned trajectory"
    );
}

/// Big-flow pin for the batched latency paths: with 10⁵ players on three
/// skewed linear links, the first aggregate rounds migrate >10³ players
/// per resource, so every `ΔΦ` update walks >10³ intermediate loads
/// through one `Latency::sum_range` call. Pins the exact per-round counts
/// **and the bit pattern of every potential** — the batched evaluation
/// layer must keep both unchanged (same re-pinning rules as
/// [`kernel_streams_are_pinned`]).
#[test]
fn big_flow_aggregate_stream_and_potentials_pinned() {
    let game = games::linear_singleton(3, 100_000);
    let start = games::geometric_state(&game);
    let mut sim = Simulation::new(&game, ImitationProtocol::paper_default().into(), start)
        .expect("valid simulation")
        .with_engine(EngineKind::Aggregate);
    let mut rng = fixture_rng("eq/big-flow", 11);
    assert_eq!(
        sim.potential().to_bits(),
        0x41e4f48fa3000000,
        "initial potential (batched full evaluation) drifted"
    );
    let mut prev_loads = sim.state().loads().to_vec();
    let mut counts = Vec::new();
    let mut potentials = Vec::new();
    for round in 0..3 {
        sim.step(&mut rng).expect("step");
        let max_delta = prev_loads
            .iter()
            .zip(sim.state().loads())
            .map(|(&o, &n)| o.abs_diff(n))
            .max()
            .expect("non-empty loads");
        assert!(
            max_delta > 1_000,
            "round {round}: the big-flow fixture must walk >10³ loads per ΔΦ (got {max_delta})"
        );
        prev_loads.copy_from_slice(sim.state().loads());
        counts.push(sim.state().counts().to_vec());
        potentials.push(sim.potential().to_bits());
    }
    assert_eq!(
        counts,
        vec![vec![60921, 25568, 13511], vec![59621, 26008, 14371], vec![58557, 26357, 15086]],
        "big-flow aggregate kernel stream drifted from the pinned trajectory"
    );
    assert_eq!(
        potentials,
        vec![0x41e4bcbb05200000, 0x41e4972cc3200000, 0x41e47e603b800000],
        "recorded potentials drifted — the batched ΔΦ path changed a bit"
    );
}

/// Incremental `ΔΦ` (batched `sum_range` walks per changed resource) vs a
/// from-scratch `potential` recomputation over 10³ rounds — **exact**
/// equality, not tolerance. The fixture's integer-slope linear latencies
/// make every latency, window sum, and closed-form value an exactly
/// representable integer, so the incremental and the batch-recomputed
/// potential must agree to the last bit on every single round; any
/// deviation means the two paths compute different sums.
#[test]
fn incremental_potential_has_zero_drift_over_1000_rounds() {
    let game = games::linear_singleton(4, 500);
    let start = games::geometric_state(&game);
    for engine in [EngineKind::Aggregate, EngineKind::PlayerLevel] {
        let mut sim =
            Simulation::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                .expect("valid simulation")
                .with_engine(engine);
        let mut rng = fixture_rng("eq/drift", 3);
        for round in 0..1_000 {
            sim.step(&mut rng).expect("step");
            let exact = potential(&game, sim.state());
            assert_eq!(
                sim.potential().to_bits(),
                exact.to_bits(),
                "{engine:?}: incremental potential drifted from {exact} at round {round}"
            );
        }
    }
}

/// The start states themselves are engine-independent fixtures; pin their
/// shape so drift in the fixtures cannot masquerade as engine agreement.
#[test]
fn fixture_states_are_stable() {
    let game = games::linear_singleton(4, 200);
    let start = games::geometric_state(&game);
    // 200 players at geometric weights 2^-1.. = 100, 50, 25, 12; the
    // 13-player remainder lands on the first strategy.
    assert_eq!(start.counts(), &[113, 50, 25, 12]);
    let net = games::braess_network(128);
    let start = games::geometric_state(net.game());
    assert_eq!(start.counts().iter().sum::<u64>(), 128);
    assert!(start.counts().iter().all(|&c| c > 0));
}

/// Counter-mode sibling of [`kernel_streams_are_pinned`]: the exact
/// trajectory both kernels realize when drawing from the Philox stream
/// addressed by `(trial, round, site, index)`. Same re-pinning rules — a
/// surprise failure means the counter key schedule or a kernel's draw
/// addressing changed.
#[test]
fn counter_kernel_streams_are_pinned() {
    let game = games::linear_singleton(3, 50);
    let start = games::geometric_state(&game);
    let run = |engine: EngineKind| -> Vec<u64> {
        let mut sim =
            Simulation::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                .expect("valid simulation")
                .with_engine(engine);
        let mut rng = fixture_stream("eq/kernel-pin", RngMode::Counter, 7);
        for _ in 0..30 {
            sim.step(&mut rng).expect("step");
        }
        sim.state().counts().to_vec()
    };
    let aggregate = run(EngineKind::Aggregate);
    let player = run(EngineKind::PlayerLevel);
    assert_eq!(aggregate.iter().sum::<u64>(), 50);
    assert_eq!(player.iter().sum::<u64>(), 50);
    assert_eq!(aggregate, run(EngineKind::Aggregate), "aggregate kernel must replay exactly");
    assert_eq!(player, run(EngineKind::PlayerLevel), "player kernel must replay exactly");
    let pinned_aggregate: &[u64] = &[28, 14, 8];
    let pinned_player: &[u64] = &[28, 14, 8];
    assert_eq!(
        aggregate, pinned_aggregate,
        "counter-mode aggregate kernel stream drifted from the pinned trajectory"
    );
    assert_eq!(
        player, pinned_player,
        "counter-mode player kernel stream drifted from the pinned trajectory"
    );
}

/// Counter-mode ensembles must be bit-identical across thread counts
/// 1/2/8 (same guarantee as the xoshiro pin above — here it holds by
/// construction, since every draw is position-addressed) *and* match a
/// frozen trajectory pin.
#[test]
fn counter_ensemble_identical_across_thread_counts() {
    let game = games::affine_singleton(120);
    let start = games::geometric_state(&game);
    for engine in [EngineKind::Aggregate, EngineKind::PlayerLevel] {
        let run = |threads: usize| {
            Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                .expect("valid ensemble")
                .engine(engine)
                .rng_mode(RngMode::Counter)
                .trials(16)
                .base_seed(2024)
                .threads(threads)
                .run_with(&StopSpec::max_rounds(25), |sim, out| {
                    (out.rounds, out.potential.to_bits(), sim.state().counts().to_vec())
                })
                .expect("ensemble run succeeds")
        };
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(
                reference,
                run(threads),
                "{engine:?}: counter-mode ensemble output changed with {threads} threads"
            );
        }
        // Fresh counter-mode pins: trial 0 and trial 15 of the
        // single-thread reference (full counts vector + potential bits).
        let pin: &[(usize, u64, u64, &[u64])] = match engine {
            EngineKind::Aggregate => &[
                (0, 25, 0x40ae_5000_0000_0000, &[58, 29, 19, 14]),
                (15, 25, 0x40ae_5000_0000_0000, &[57, 30, 19, 14]),
            ],
            EngineKind::PlayerLevel => &[
                (0, 25, 0x40ae_5000_0000_0000, &[58, 29, 19, 14]),
                (15, 25, 0x40ae_5200_0000_0000, &[58, 28, 20, 14]),
            ],
        };
        for &(trial, rounds, pot_bits, counts) in pin {
            assert_eq!(
                reference[trial],
                (rounds, pot_bits, counts.to_vec()),
                "{engine:?}: counter-mode trial {trial} drifted from the pinned trajectory"
            );
        }
    }
}

/// Counter-mode sharded wire merge: shard counts 1 and 3 must reproduce
/// the single-process `run_reduced` bits, and the merged mean is pinned.
#[test]
fn counter_sharded_merge_identical_and_pinned() {
    use congames::dynamics::wire::{decode_shard_file, encode_shard_file, ShardHeader, WireReduce};
    use congames::dynamics::{merge_partials, FinalSummary, MapItem, ScalarStats};
    let game = games::affine_singleton(120);
    let start = games::geometric_state(&game);
    let stop = StopSpec::max_rounds(25);
    let ensemble = || {
        Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
            .expect("valid ensemble")
            .engine(EngineKind::Aggregate)
            .rng_mode(RngMode::Counter)
            .trials(80)
            .base_seed(2024)
            .threads(2)
    };
    let scalar =
        || MapItem::new(|s: congames::dynamics::RunSummary| s.potential, ScalarStats::new());
    let single = ensemble()
        .run_reduced(&stop, |_t| FinalSummary, scalar())
        .expect("single-process run succeeds");
    for num_shards in [1usize, 3] {
        let mut leaves = Vec::new();
        for shard in 0..num_shards {
            let e = ensemble();
            let range = e.shard_trials(shard, num_shards);
            let header = ShardHeader {
                base_seed: 2024,
                trials: 80,
                trial_lo: range.start as u64,
                trial_hi: range.end as u64,
                shard: shard as u32,
                num_shards: num_shards as u32,
                rng_mode: RngMode::Counter,
                reducer_id: scalar().wire_id(),
                config: "counter-pin".into(),
            };
            let blocks = e
                .run_reduced_shard(shard, num_shards, &stop, |_t| FinalSummary, &scalar())
                .expect("shard run succeeds");
            let bytes = encode_shard_file(&header, &blocks);
            let (h, blocks) = decode_shard_file(&scalar(), &bytes).expect("shard file decodes");
            assert_eq!(h.rng_mode, RngMode::Counter, "rng mode must survive the wire");
            leaves.extend(blocks);
        }
        let merged = merge_partials(scalar(), leaves);
        assert_eq!(
            merged.inner(),
            single.inner(),
            "{num_shards}-shard counter-mode wire merge changed the reduction bits"
        );
    }
    // Fresh pin of the merged mean's bit pattern.
    assert_eq!(
        single.inner().mean().to_bits(),
        0x40ae_5253_3333_3333,
        "counter-mode merged mean drifted"
    );
}

/// Mixed-mode shard sets must be rejected with a precise per-file error —
/// the `congames merge` negative path.
#[test]
fn mixed_rng_mode_shard_sets_are_rejected() {
    use congames::dynamics::wire::{validate_shard_sequence, ShardHeader, WireError};
    let header = |shard: u32, rng_mode: RngMode| ShardHeader {
        base_seed: 2024,
        trials: 64,
        trial_lo: u64::from(shard) * 32,
        trial_hi: u64::from(shard + 1) * 32,
        shard,
        num_shards: 2,
        rng_mode,
        reducer_id: "welford".into(),
        config: "mixed-mode-test".into(),
    };
    let headers = vec![header(0, RngMode::Xoshiro), header(1, RngMode::Counter)];
    let err = validate_shard_sequence(&headers).expect_err("mixed modes must not merge");
    assert_eq!(
        err,
        WireError::RngModeMismatch {
            shard: 1,
            expected: RngMode::Xoshiro,
            found: RngMode::Counter
        }
    );
    // The message names the offending shard and both modes.
    let msg = err.to_string();
    assert!(msg.contains("shard 1"), "{msg}");
    assert!(msg.contains("counter") && msg.contains("xoshiro"), "{msg}");
    // Same-mode counter sets stay mergeable.
    let ok = vec![header(0, RngMode::Counter), header(1, RngMode::Counter)];
    validate_shard_sequence(&ok).expect("uniform counter-mode shards merge");
}

/// Cross-backend statistical equivalence on the engine-equivalence
/// fixtures: for each engine, xoshiro-mode and counter-mode trial
/// populations must agree in mean final potential / average latency
/// (Welch z at Z = 4.5) and in the full final-occupancy distribution (KS).
#[test]
fn counter_and_xoshiro_modes_statistically_equivalent() {
    let game = games::linear_singleton(4, 200);
    let start = games::geometric_state(&game);
    let protocol: Protocol = ImitationProtocol::paper_default().into();
    let stats: [(&str, congames_testutil::sim::StateStat); 2] =
        [("potential", potential_stat), ("avg_latency", latency_stat)];
    for engine in [EngineKind::Aggregate, EngineKind::PlayerLevel] {
        for (stat_name, stat) in stats {
            let xoshiro = trial_stats_mode(
                "eq/mode-z",
                RngMode::Xoshiro,
                &game,
                protocol,
                &start,
                engine,
                ROUNDS,
                TRIALS,
                stat,
            );
            let counter = trial_stats_mode(
                "eq/mode-z",
                RngMode::Counter,
                &game,
                protocol,
                &start,
                engine,
                ROUNDS,
                TRIALS,
                stat,
            );
            let scale = xoshiro.iter().map(|x| x.abs()).fold(0.0f64, f64::max).max(1.0);
            assert_means_equal(
                &xoshiro,
                &counter,
                Z,
                1e-9 * scale,
                &format!("{engine:?}: xoshiro vs counter {stat_name} after {ROUNDS} rounds"),
            );
        }
    }
    // KS on the strategy-0 occupancy distribution (smaller fixture, more
    // trials, aggregate engine).
    let game = games::linear_singleton(3, 60);
    let start = games::geometric_state(&game);
    let trials = 400u64;
    let xoshiro = occupancy_histogram_mode(
        "eq/mode-ks",
        RngMode::Xoshiro,
        &game,
        protocol,
        &start,
        EngineKind::Aggregate,
        ROUNDS,
        trials,
        0,
    );
    let counter = occupancy_histogram_mode(
        "eq/mode-ks",
        RngMode::Counter,
        &game,
        protocol,
        &start,
        EngineKind::Aggregate,
        ROUNDS,
        trials,
        0,
    );
    let d = ks_distance(&xoshiro, &counter);
    let thresh = ks_threshold(trials as usize, trials as usize, 1e-4);
    assert!(
        d <= thresh,
        "xoshiro vs counter occupancy KS distance {d:.4} exceeds {thresh:.4} over {trials} trials"
    );
}

/// A stream wrapper that forwards every draw and positioning hook and
/// counts the sites begun. It overrides neither [`DrawRng::site_blocks`]
/// nor [`DrawRng::site_words`], so an addressed kernel fetches its blocks
/// and words through the trait's default per-site walks. With `forward_addressed == false` it also hides
/// [`DrawRng::addressed`], so the player-level kernel takes its full-draw
/// path: every player begins its site and draws, as on a sequential
/// stream.
struct SiteCounter<R> {
    inner: R,
    forward_addressed: bool,
    sites: u64,
}

impl<R: rand::RngCore> rand::RngCore for SiteCounter<R> {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

impl<R: DrawRng> DrawRng for SiteCounter<R> {
    fn addressed(&self) -> bool {
        self.forward_addressed && self.inner.addressed()
    }

    fn begin_round(&mut self, round: u64) {
        self.inner.begin_round(round);
    }

    fn begin_site(&mut self, site: u64) {
        self.sites += 1;
        self.inner.begin_site(site);
    }
}

/// Per-round `(counts, potential bits)` of a counter-mode player-level run
/// of `rounds` rounds drawing from `rng`. With a schedule, every round
/// goes through `run` (the only entry point that fires hooks), one round
/// per call.
fn counter_player_trajectory(
    game: &CongestionGame,
    protocol: Protocol,
    start: &State,
    schedule: Option<&std::sync::Arc<congames::scenario::Schedule>>,
    mut rng: impl DrawRng,
    rounds: u64,
) -> Vec<(Vec<u64>, u64)> {
    let mut sim = Simulation::new(game, protocol, start.clone())
        .expect("valid simulation")
        .with_engine(EngineKind::PlayerLevel);
    if let Some(schedule) = schedule {
        sim = sim.with_hook(Box::new(congames::scenario::ScheduleCursor::new(
            std::sync::Arc::clone(schedule),
        )));
    }
    let mut trajectory = Vec::new();
    for round in 1..=rounds {
        if schedule.is_some() {
            sim.run(&StopSpec::max_rounds(round), &mut rng).expect("run");
        } else {
            sim.step(&mut rng).expect("step");
        }
        trajectory.push((sim.state().counts().to_vec(), sim.potential().to_bits()));
    }
    trajectory
}

/// The counter-mode player kernel skips the draws of players on origins
/// with no positive-μ destination, compacts the movable players' sites
/// (against a strategy bitmask for classes of at most 64 strategies),
/// fetches their first Philox words (pure imitation) or blocks (with
/// exploration) in site batches, and decides each batch in one pass over
/// μ rows prefilled per class visit. All of it must be invisible. Three
/// streams run every case:
///
/// * the bare counter stream (the batched across-site `site_words` and
///   `site_blocks`);
/// * a wrapper that forwards `addressed()` but neither `site_words` nor
///   `site_blocks` (the trait's default per-site walks);
/// * a wrapper that hides `addressed()` (the full-draw path, which
///   decides player by player).
///
/// Every per-round count and potential bit agrees across the three, for
/// the imitation (with and without the ν threshold), exploration and
/// combined protocols, virtual agents on and off, both self-sampling
/// modes, 1- and 2-class games, a class larger than one site chunk whose
/// size is not a multiple of the vector width, a 1-player class (an empty
/// sampling pool) that is movable from round 0, supported and piled
/// starts, a shocked run, classes of 33 and 65 strategies (either side of
/// the 32-bit halves of the movable bitmask, and past its 64-bit width),
/// the 8-link, 10 000-player shape of the `player_shock` benchmark under
/// pure imitation, and both μ sources: the μ table, and per-decision μ on
/// a 1088-link class whose `2·S²` values exceed the table's budget. Its
/// 3 000 players start on 6 links, where the mask evaluates μ, or spread
/// over all 1088, where support² exceeds the class size and the mask marks
/// every occupied origin movable unevaluated (a few rounds only, to fit a
/// debug build). Every supported-start case must also really skip some
/// sites, or it would not test the skip.
#[test]
fn movable_origin_skip_matches_full_draw_path_bitwise() {
    use congames::dynamics::{NuRule, SelfSampling};
    let imitation = |va: bool, ss: SelfSampling| {
        ImitationProtocol::paper_default().with_virtual_agents(va).with_self_sampling(ss)
    };
    let mut protocols: Vec<(String, Protocol)> = Vec::new();
    for va in [false, true] {
        for ss in [SelfSampling::Exclude, SelfSampling::Include] {
            protocols.push((format!("imitation/va={va}/{ss:?}"), imitation(va, ss).into()));
            let combined =
                Protocol::combined(imitation(va, ss), ExplorationProtocol::paper_default(), 0.25)
                    .expect("valid combined protocol");
            protocols.push((format!("combined/va={va}/{ss:?}"), combined));
        }
    }
    protocols.push((
        "imitation/nu=none".into(),
        ImitationProtocol::paper_default().with_nu_rule(NuRule::None).into(),
    ));
    protocols.push(("exploration".into(), ExplorationProtocol::paper_default().into()));
    let one_class = games::linear_singleton(4, 300);
    let two_class = games::two_class_overlap(150, 90);
    // More movable players than one 256-site chunk, in a class whose size
    // is not a multiple of 8: full chunks and ragged vector tails both run.
    let wide_class = games::linear_singleton(4, 523);
    // A lone player has nobody to imitate under self-exclusion.
    let lone_player = games::two_class_overlap(150, 1);
    let eight_links = games::linear_singleton(8, 300);
    let shock = std::sync::Arc::new(
        congames::scenario::generate::step_shock(40, 0, 3.0).expect("valid schedule"),
    );
    // Strategy 32 sits in the bitmask's high half; 65 strategies take the
    // scalar compaction.
    let links_33 = games::linear_singleton(33, 700);
    let links_65 = games::linear_singleton(65, 700);
    // The shape `player_shock` times, under pure imitation only.
    let shock_shape = games::linear_singleton(8, 10_000);
    // 2·1088² > 2²¹ μ values: every decision evaluates μ.
    let links_1088 = games::linear_singleton(1088, 3000);
    let fixtures: [(&str, &CongestionGame, Option<&std::sync::Arc<_>>); 10] = [
        ("1-class", &one_class, None),
        ("2-class", &two_class, None),
        ("1-class/523", &wide_class, None),
        ("2-class/1-player", &lone_player, None),
        ("1-class/8-links", &eight_links, None),
        ("1-class/step_shock", &one_class, Some(&shock)),
        ("1-class/33-links", &links_33, None),
        ("1-class/65-links", &links_65, None),
        ("1-class/8-links/10000", &shock_shape, None),
        ("1-class/1088-links", &links_1088, None),
    ];
    // The piled start leaves strategies empty, which only virtual agents
    // and exploration can reach: the mask must count them as destinations.
    // The stranded start puts class a on {r1,r2} and the lone player of
    // class b on r2, so the lone player is movable from round 0. The
    // sparse start spreads the 1088-link class over its first 6 links, the
    // spread start over all of them (two or three players each).
    let fixture_starts = fixtures.into_iter().flat_map(|f| {
        let starts: &[&str] = match f.0 {
            "2-class/1-player" => &["geometric", "piled", "stranded"],
            "1-class/8-links/10000" => &["geometric"],
            "1-class/1088-links" => &["sparse", "spread"],
            _ => &["geometric", "piled"],
        };
        starts.iter().map(move |&s| (f, s))
    });
    for ((fixture, game, schedule), start_name) in fixture_starts {
        for (name, protocol) in &protocols {
            if fixture == "1-class/8-links/10000" && protocol.exploration().is_some() {
                continue;
            }
            let virtual_agents = protocol.imitation().is_some_and(|p| p.virtual_agents());
            let mut start = match start_name {
                "geometric" => games::geometric_state(game),
                "piled" => games::piled_state(game),
                "sparse" => {
                    let mut counts = vec![0; game.num_strategies()];
                    counts[..6].copy_from_slice(&[500; 6]);
                    State::from_counts(game, counts).expect("sparse start")
                }
                "spread" => {
                    let n = game.num_strategies();
                    let extra = (game.total_players() as usize - 2 * n).min(n);
                    let counts = (0..n).map(|i| 2 + (i < extra) as u64).collect();
                    State::from_counts(game, counts).expect("spread start")
                }
                _ => State::from_counts(game, vec![0, 150, 1, 0]).expect("stranded start"),
            };
            if virtual_agents {
                start = start.with_virtual_agents(game);
            }
            let label = format!("{fixture}/{start_name}/{name}");
            let rounds = if start_name == "spread" { 6 } else { 90 };
            let stream = || fixture_stream("eq/movable-skip", RngMode::Counter, 3);
            let mut default_blocks =
                SiteCounter { inner: stream(), forward_addressed: true, sites: 0 };
            let mut full = SiteCounter { inner: stream(), forward_addressed: false, sites: 0 };
            let batched =
                counter_player_trajectory(game, *protocol, &start, schedule, stream(), rounds);
            let walked = counter_player_trajectory(
                game,
                *protocol,
                &start,
                schedule,
                &mut default_blocks,
                rounds,
            );
            let full_path =
                counter_player_trajectory(game, *protocol, &start, schedule, &mut full, rounds);
            assert_eq!(walked, full_path, "{label}: the default site_blocks walk diverged");
            assert_eq!(batched, full_path, "{label}: the batched site_blocks diverged");
            // The stranded lone player can leave r2 only by exploring
            // or by imitating a virtual agent.
            if start_name == "stranded" && (protocol.exploration().is_some() || virtual_agents) {
                assert!(
                    batched.iter().any(|(counts, _)| counts[2] == 0),
                    "{label}: the lone player never moved"
                );
            }
            // Supported starts settle within the horizon, so they must
            // skip; unsupported starts may still be moving.
            assert!(
                default_blocks.sites < full.sites || start_name != "geometric",
                "{label}: no site was skipped ({} of {} begun)",
                default_blocks.sites,
                full.sites
            );
        }
    }
}

/// One trial's output as bits: every record, the final potential, the
/// rounds and the stop reason — or the error the trial failed with.
type TrialBits = Result<(Vec<RecordBits>, u64, u64, StopReason), String>;

fn trial_bits(sim: &mut Simulation<'_>, stop: &StopSpec, mut rng: impl DrawRng) -> TrialBits {
    let out = sim.run(stop, &mut rng).map_err(|e| e.to_string())?;
    let records = out.trajectory.records().iter().map(record_bits).collect();
    Ok((records, out.potential.to_bits(), out.rounds, out.reason))
}

/// A hook that adds players to strategy 0 at round `at` without growing
/// the class: the firing leaves an owned, mutated game and a state that
/// fails the re-check, so the trial returns an error mid-run.
#[derive(Debug)]
struct Corrupt {
    at: Option<u64>,
}

impl RoundHook for Corrupt {
    fn next_fire(&self) -> Option<u64> {
        self.at
    }

    fn fire(
        &mut self,
        _round: u64,
        game: &mut CongestionGame,
        state: &mut State,
    ) -> Result<bool, DynamicsError> {
        self.at = None;
        game.scale_latency(ResourceId::new(0), 5.0)?;
        state.add_players(game, StrategyId::new(0), 7)?;
        Ok(true)
    }
}

/// A replica reused across trials through [`Simulation::reset`] gives
/// every trial the bits a fresh `Simulation::new` gives it: the records,
/// the final potential, the rounds and the stop reason. Covered: both
/// engines and both RNG backends, with and without virtual agents, with a
/// `step_shock` hook (whose firing swaps in an owned, rescaled game the
/// reset must drop), and a reset after a trial that returned an error
/// mid-run.
#[test]
fn reset_replica_matches_fresh_simulations_bitwise() {
    let game = games::two_class_overlap(150, 90);
    let shock = Arc::new(step_shock(6, 1, 3.0).expect("valid schedule"));
    let stop = StopSpec::new(vec![StopCondition::ImitationStable, StopCondition::MaxRounds(60)])
        .with_check_every(2);
    let record = RecordConfig::every(3);
    let seed = fixture_seed("eq/reset", 0);
    for engine in [EngineKind::Aggregate, EngineKind::PlayerLevel] {
        for va in [false, true] {
            for hooked in [false, true] {
                for mode in [RngMode::Xoshiro, RngMode::Counter] {
                    let label = format!("{engine:?}/va={va}/hooked={hooked}/{mode:?}");
                    let protocol: Protocol =
                        ImitationProtocol::paper_default().with_virtual_agents(va).into();
                    let mut start = games::geometric_state(&game);
                    if va {
                        start = start.with_virtual_agents(&game);
                    }
                    let hook = || -> Option<Box<dyn RoundHook>> {
                        hooked.then(|| Box::new(ScheduleCursor::new(Arc::clone(&shock))) as _)
                    };
                    let build = || {
                        Simulation::new(&game, protocol, start.clone())
                            .expect("valid simulation")
                            .with_engine(engine)
                            .with_recording(record)
                    };
                    let fresh = |trial: u64| -> TrialBits {
                        let mut sim = build();
                        if let Some(h) = hook() {
                            sim = sim.with_hook(h);
                        }
                        let rng = DrawStream::for_trial(mode, seed, trial);
                        trial_bits(&mut sim, &stop, rng)
                    };
                    let mut replica = build();
                    // Trial 0 fails mid-run, leaving a mutated owned game
                    // and an inconsistent state behind.
                    replica.attach_hook(Box::new(Corrupt { at: Some(3) }));
                    let rng = DrawStream::for_trial(mode, seed, 0);
                    trial_bits(&mut replica, &stop, rng).expect_err("the corrupting hook fails");
                    for trial in 0..4 {
                        replica.reset(&start).expect("the start is valid");
                        if let Some(h) = hook() {
                            replica.attach_hook(h);
                        }
                        let rng = DrawStream::for_trial(mode, seed, trial);
                        let reused = trial_bits(&mut replica, &stop, rng);
                        let want = fresh(trial);
                        assert!(want.is_ok(), "{label} trial {trial}: {want:?}");
                        assert_eq!(reused, want, "{label} trial {trial}");
                        if hooked {
                            let (records, ..) = want.as_ref().unwrap();
                            assert!(records.iter().any(|r| r.5), "{label}: the shock never fired");
                        }
                    }
                    // A start of another game is rejected.
                    let other = games::two_class_overlap(10, 10);
                    assert!(replica.reset(&games::geometric_state(&other)).is_err(), "{label}");
                }
            }
        }
    }
}
