//! Steady-state allocation pin for the round kernels.
//!
//! The scratch-buffer engine design promises **zero heap allocations per
//! round in steady state** for both kernels: all per-round working memory
//! (CSR pair buffer, multinomial counts, μ table, move/commit buffers,
//! the state's latency cache, migration scratch) is owned by the
//! [`Simulation`] and reused. This test installs a counting global
//! allocator, warms a simulation past its buffer high-water marks, and then
//! asserts that further rounds perform no allocation at all — and that a
//! replica rewound with `Simulation::reset` runs whole further trials
//! without allocating.
//!
//! Everything runs inside a single `#[test]` so no concurrent test can
//! perturb the global counter.

use congames::dynamics::{EngineKind, ImitationProtocol, NuRule, Protocol, Simulation};
use congames::model::{Affine, CongestionGame, State};
use congames::sampling::{DrawRng, DrawStream, RngMode};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

// Per-thread counter so the measurement is immune to allocations the test
// harness performs concurrently on other threads (a real, observed source
// of flaky counts with a process-global counter). The `const` initializer
// keeps TLS access allocation-free; `try_with` tolerates thread teardown.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates directly to `System`, only incrementing a counter.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations performed by the *current* thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Eight asymmetric linear links with a heavily skewed start: the dynamics
/// churn for a few hundred rounds before freezing, so a window placed
/// right after warm-up exercises every kernel code path (pair enumeration,
/// multinomials, the μ table, the commit sort, migration application)
/// while buffers are already at their high-water marks — the largest
/// flows happen in the *first* rounds.
fn game() -> CongestionGame {
    sized_game(4096)
}

fn sized_game(players: u64) -> CongestionGame {
    CongestionGame::singleton(
        (0..8).map(|i| Affine::linear(1.0 + 0.25 * i as f64).into()).collect(),
        players,
    )
    .expect("valid game")
}

fn skewed_start(game: &CongestionGame) -> State {
    let n = game.total_players();
    let mut counts = vec![n / 64; game.num_strategies()];
    counts[0] = n - 7 * (n / 64);
    State::from_counts(game, counts).expect("valid start")
}

fn assert_steady_state_alloc_free(
    game: &CongestionGame,
    engine: EngineKind,
    protocol: Protocol,
    label: &str,
    require_steady_migrations: bool,
    mut rng: impl DrawRng,
) {
    let mut sim = Simulation::new(game, protocol, skewed_start(game))
        .expect("valid simulation")
        .with_engine(engine);
    // Warm-up: the first rounds carry the largest flows, so 50 rounds
    // drive every scratch buffer to its high-water mark.
    let mut migrated = 0u64;
    for _ in 0..50 {
        migrated += sim.step(&mut rng).expect("warm-up round").migrations;
    }
    assert!(migrated > 0, "{label}: warm-up must exercise the migration path");
    let before = allocations();
    let mut migrated = 0u64;
    for _ in 0..100 {
        migrated += sim.step(&mut rng).expect("steady-state round").migrations;
    }
    let after = allocations();
    if require_steady_migrations {
        // All positive-gain dynamics eventually freeze (the potential is a
        // supermartingale), so only configurations whose churn provably
        // outlasts the window assert ongoing migrations.
        assert!(migrated > 0, "{label}: the measured window must still migrate");
    }
    assert_eq!(
        after - before,
        0,
        "{label}: {} heap allocations in 100 measured rounds",
        after - before
    );
}

/// Big-flow aggregate rounds: 2¹⁶ players on 8 links, so the early rounds
/// migrate thousands of players per resource and every `ΔΦ` update walks
/// more than 10³ intermediate loads through the batched
/// `Latency::sum_range` (which must chunk through its fixed stack buffer,
/// never the heap).
fn assert_big_flow_rounds_alloc_free() {
    let game = CongestionGame::singleton(
        (0..8).map(|i| Affine::linear(1.0 + 0.25 * i as f64).into()).collect(),
        1 << 16,
    )
    .expect("valid game");
    let mut counts = vec![1024u64; 8];
    counts[0] = (1 << 16) - 7 * 1024;
    let start = State::from_counts(&game, counts).expect("valid start");
    let mut sim = Simulation::new(
        &game,
        ImitationProtocol::paper_default().with_nu_rule(NuRule::None).into(),
        start,
    )
    .expect("valid simulation")
    .with_engine(EngineKind::Aggregate);
    let mut rng = SmallRng::seed_from_u64(77);
    // Warm-up: round 1 carries the single largest flow, so two rounds put
    // every scratch buffer at its high-water mark.
    for _ in 0..2 {
        sim.step(&mut rng).expect("warm-up round");
    }
    let mut prev_loads = sim.state().loads().to_vec();
    let before = allocations();
    let mut max_delta = 0u64;
    for _ in 0..10 {
        sim.step(&mut rng).expect("big-flow round");
        for (o, &n) in prev_loads.iter_mut().zip(sim.state().loads()) {
            max_delta = max_delta.max(o.abs_diff(n));
            *o = n;
        }
    }
    let after = allocations();
    assert!(
        max_delta > 1_000,
        "big-flow window must walk >10³ intermediate loads per ΔΦ (got {max_delta})"
    );
    assert_eq!(
        after - before,
        0,
        "big-flow aggregate rounds: {} heap allocations in 10 measured rounds",
        after - before
    );
}

/// Full latency-cache rebuilds (invalidate + `ensure_latency_cache`) on a
/// warmed state: the batched per-resource pair evaluation and the
/// cleared-then-refilled cache vectors must reuse their capacity.
fn assert_cache_rebuild_alloc_free() {
    use congames::model::Monomial;
    let lats = (0..64)
        .map(|i| -> congames::model::LatencyFn {
            if i % 2 == 0 {
                Affine::linear(1.0 + i as f64).into()
            } else {
                Monomial::new(1.0 + i as f64, 2).into()
            }
        })
        .collect();
    let game = CongestionGame::singleton(lats, 4096).expect("valid game");
    let mut counts = vec![64u64; 64];
    counts[0] = 4096 - 63 * 64;
    let mut state = State::from_counts(&game, counts).expect("valid state");
    state.ensure_latency_cache(&game); // warm: allocates the tables once
    let before = allocations();
    for _ in 0..100 {
        state.invalidate_latency_cache();
        state.ensure_latency_cache(&game);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "latency-cache rebuild: {} heap allocations in 100 rebuilds",
        after - before
    );
}

/// Support-index maintenance in steady state: once
/// `ensure_support_index` has built the per-class occupied lists (full
/// class capacity reserved up front), migration batches that repeatedly
/// push strategies *out of and back into* the support — the worst case
/// for the sorted-insert maintenance — must not touch the heap.
fn assert_support_index_maintenance_alloc_free() {
    use congames::model::Migration;
    use congames::model::StrategyId;
    let game = game();
    let mut counts = vec![0u64; 8];
    counts[0] = 4096;
    let mut state = State::from_counts(&game, counts).expect("valid state");
    state.ensure_support_index(&game);
    let sid = StrategyId::new;
    // Warm-up: first batch sizes the internal outflow scratch.
    state.apply_migrations(&game, &[Migration::new(sid(0), sid(1), 8)]).expect("warm-up batch");
    let before = allocations();
    for i in 0..100u32 {
        // Occupy a rotating strategy, then drain it again: one insert and
        // one remove per batch, at shifting positions in the sorted list.
        let s = sid(2 + (i % 6));
        state
            .apply_migrations(&game, &[Migration::new(sid(0), s, 16), Migration::new(sid(1), s, 4)])
            .expect("occupy batch");
        state
            .apply_migrations(&game, &[Migration::new(s, sid(0), 16), Migration::new(s, sid(1), 4)])
            .expect("drain batch");
        assert_eq!(state.support_size(), 2, "support must be back to {{0, 1}}");
    }
    let after = allocations();
    assert!(state.support_consistent(&game));
    assert_eq!(
        after - before,
        0,
        "support-index maintenance: {} heap allocations in 200 toggling batches",
        after - before
    );
}

/// Trial turnover on one replica: once a warm-up trial has sized every
/// buffer, `Simulation::reset` to the start (copying counts, loads and
/// caches into the replica's storage) followed by a whole trial run to
/// imitation stability — pair builds, draws, applies, stop checks for the
/// aggregate engine; the player array rebuild, compaction, word fetches
/// and decisions for the player-level one — touches the heap not once.
/// This is how an ensemble worker runs trial after trial.
fn assert_trial_turnover_alloc_free(game: &CongestionGame, engine: EngineKind, label: &str) {
    use congames::dynamics::{StopCondition, StopReason, StopSpec};
    let start = skewed_start(game);
    let protocol: Protocol = ImitationProtocol::paper_default().into();
    let stop = StopSpec::new(vec![StopCondition::ImitationStable, StopCondition::MaxRounds(5_000)]);
    let mut sim = Simulation::new(game, protocol, start.clone())
        .expect("valid simulation")
        .with_engine(engine);
    let mut streams: Vec<DrawStream> =
        (0..6).map(|t| DrawStream::for_trial(RngMode::Counter, 4321, t)).collect();
    let (warm_up, measured) = streams.split_at_mut(3);
    for rng in warm_up {
        sim.reset(&start).expect("valid start");
        sim.run_observed(&stop, rng, &mut ()).expect("warm-up trial");
    }
    let before = allocations();
    let mut rounds = 0;
    for rng in measured {
        sim.reset(&start).expect("valid start");
        let summary = sim.run_observed(&stop, rng, &mut ()).expect("measured trial");
        assert_eq!(summary.reason, StopReason::ImitationStable);
        rounds += summary.rounds;
    }
    let after = allocations();
    assert!(
        rounds > 10,
        "{label}: the measured trials must run the dynamics (got {rounds} rounds)"
    );
    assert_eq!(
        after - before,
        0,
        "{label} trial turnover: {} heap allocations in 3 reset + run trials",
        after - before
    );
}

/// Trial turnover inside a sweep: a single-threaded `run_reduced` with the
/// CLI's quantile reducer (round and final-Φ `ScalarStats`) allocates as
/// much for one block of 32 trials as for a block of one trial. The
/// worker's replica, the sweep's start verdict and the block partial are
/// built once per sweep, and every further trial — the rewind, the stop
/// checks, the rounds, the observer and the reducer's absorb — allocates
/// nothing. The round budget ends every trial in the same round, so the
/// sketches see one round value and a narrow band of final potentials.
fn assert_sweep_turnover_alloc_free() {
    use congames::dynamics::{
        Ensemble, FinalSummary, MapItem, RunSummary, ScalarStats, StopCondition, StopSpec,
    };
    let game = game();
    let protocol: Protocol = ImitationProtocol::paper_default().into();
    let stop = StopSpec::new(vec![StopCondition::ImitationStable, StopCondition::MaxRounds(12)])
        .with_check_every(4);
    let sweep = |trials: usize| {
        let ensemble = Ensemble::new(&game, protocol, skewed_start(&game))
            .expect("valid ensemble")
            .trials(trials)
            .threads(1)
            .base_seed(4321)
            .rng_mode(RngMode::Counter);
        let reducer = (
            MapItem::new(|s: RunSummary| s.rounds as f64, ScalarStats::new()),
            MapItem::new(|s: RunSummary| s.potential, ScalarStats::new()),
        );
        let before = allocations();
        let (rounds, _) =
            ensemble.run_reduced(&stop, |_| FinalSummary, reducer).expect("sweep runs");
        let after = allocations();
        let rounds = rounds.into_inner();
        assert_eq!((rounds.count(), rounds.min(), rounds.max()), (trials as u64, 12.0, 12.0));
        after - before
    };
    let (one, block) = (sweep(1), sweep(32));
    assert_eq!(
        block, one,
        "sweep turnover: a 32-trial block made {block} heap allocations, a 1-trial one {one}"
    );
}

#[test]
fn round_kernels_do_not_allocate_in_steady_state() {
    let base = ImitationProtocol::paper_default().with_nu_rule(NuRule::None);
    let imitation: Protocol = base.into();
    let combined =
        Protocol::combined(base, congames::dynamics::ExplorationProtocol::paper_default(), 0.25)
            .expect("valid combined protocol");
    for (protocol, name, steady) in [(imitation, "imitation", true), (combined, "combined", true)] {
        assert_steady_state_alloc_free(
            &game(),
            EngineKind::Aggregate,
            protocol,
            &format!("aggregate/{name}"),
            steady,
            SmallRng::seed_from_u64(1234),
        );
        assert_steady_state_alloc_free(
            &game(),
            EngineKind::PlayerLevel,
            protocol,
            &format!("player-level/{name}"),
            steady,
            SmallRng::seed_from_u64(1234),
        );
        // Counter-mode player rounds additionally build the movable-origin
        // mask every class visit, compact the movable players' sites, and
        // fetch their Philox blocks in site batches; the mask, site and
        // block buffers are reused simulation scratch. 4099 players fill
        // many site chunks and are not a multiple of the vector width, and
        // (unlike a few hundred players) still migrate in the window.
        for players in [4096, 4099] {
            assert_steady_state_alloc_free(
                &sized_game(players),
                EngineKind::PlayerLevel,
                protocol,
                &format!("player-level/counter/{players}/{name}"),
                steady,
                DrawStream::for_trial(RngMode::Counter, 1234, 0),
            );
        }
    }
    // The batched-latency paths this repo's perf story now rests on:
    // big-flow ΔΦ walks and full cache rebuilds stay off the heap too.
    assert_big_flow_rounds_alloc_free();
    assert_cache_rebuild_alloc_free();
    // Incremental support-index maintenance (inserts/removes as counts
    // cross zero) is likewise allocation-free once built.
    assert_support_index_maintenance_alloc_free();
    // A replica rewound between trials keeps that discipline across trial
    // turnover.
    assert_trial_turnover_alloc_free(&game(), EngineKind::Aggregate, "aggregate");
    // The shape the `player_shock` benchmark times (ℓ_i(x) = i·x on 8
    // links, 10 000 players) under pure imitation on the counter stream:
    // every class visit compacts the movable sites against the strategy
    // bitmask, fetches their Philox words in site batches and decides them
    // with the imitation kernel. Its rounds and its trial turnover reuse
    // the site, word and move buffers.
    let shock_shape = CongestionGame::singleton(
        (1..=8).map(|a| Affine::linear(a as f64).into()).collect(),
        10_000,
    )
    .expect("valid game");
    assert_steady_state_alloc_free(
        &shock_shape,
        EngineKind::PlayerLevel,
        ImitationProtocol::paper_default().into(),
        "player-level/counter/8-links/10000/imitation",
        false,
        DrawStream::for_trial(RngMode::Counter, 1234, 0),
    );
    assert_trial_turnover_alloc_free(
        &shock_shape,
        EngineKind::PlayerLevel,
        "player-level/counter/8-links/10000/imitation",
    );
    // Inside a sweep, turnover adds nothing per trial either.
    assert_sweep_turnover_alloc_free();
}
