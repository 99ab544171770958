//! Throughput of one concurrent round: aggregate vs player-level engines,
//! across population and strategy-space sizes, plus the [`Ensemble`]
//! batch runner. The aggregate engine's cost must be independent of `n`;
//! the player-level engine's linear in `n`; ensemble wall-clock must drop
//! with the thread count while producing identical results.
//!
//! CI runs this bench in quick mode (`BENCH_QUICK=1`) and archives the
//! numbers as `BENCH_throughput.json` (`BENCH_JSON=…`), so the repo's
//! perf trajectory is tracked commit over commit.

use congames_bench::games::{poly_links, skewed_two_hot, sparse_support};
use congames_dynamics::{EngineKind, Ensemble, ImitationProtocol, NuRule, Simulation, StopSpec};
use congames_model::{potential_delta_for_load_change, ResourceId};
use congames_sampling::{counter_blocks, seeded_rng, CounterRng, Dispatch, DrawStream, RngMode};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::RngCore;

fn bench_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("round");
    for &(n, m) in &[(1_000u64, 8usize), (100_000, 8), (1_000_000, 8), (10_000, 64)] {
        let game = poly_links(m, 2, n);
        let start = skewed_two_hot(&game);
        group.bench_with_input(BenchmarkId::new("aggregate", format!("n{n}_m{m}")), &n, |b, _| {
            let mut sim = Simulation::new(
                &game,
                ImitationProtocol::paper_default().with_nu_rule(NuRule::None).into(),
                start.clone(),
            )
            .expect("valid simulation");
            let mut rng = seeded_rng(1, 0);
            b.iter(|| sim.step(&mut rng).expect("step succeeds"));
        });
    }
    for &n in &[1_000u64, 10_000] {
        let game = poly_links(8, 2, n);
        let start = skewed_two_hot(&game);
        group.bench_with_input(BenchmarkId::new("player_level", n), &n, |b, _| {
            let mut sim = Simulation::new(
                &game,
                ImitationProtocol::paper_default().with_nu_rule(NuRule::None).into(),
                start.clone(),
            )
            .expect("valid simulation")
            .with_engine(EngineKind::PlayerLevel);
            let mut rng = seeded_rng(2, 0);
            b.iter(|| sim.step(&mut rng).expect("step succeeds"));
        });
    }
    group.finish();
}

/// Near-converged sparse-support rounds: S = 1024 strategies but only 8
/// occupied. Support invariance pins pure imitation inside those 8
/// strategies forever, so this is the steady-state shape of *every*
/// convergence experiment on a large strategy space — and the case the
/// per-class support index turns from `O(S²)` into `O(support²)` per
/// round. Both ids are pinned in `tools/bench_diff`.
///
/// Measured on the 1-CPU build container (quick mode) when the support
/// index landed: aggregate 14839 → 1425 ns/round (**10.4×** — the dense
/// scan walked 8×1023 destination slots, the sparse walk visits 8×7),
/// and the support-index origin iteration also cut the dense
/// `round/aggregate/n10000_m64` two-hot case 369 → 140 ns/round (2.6×).
/// The player-level twin stays `O(n)` (≈ 21–22 µs for n = 4096; its μ
/// table covers S = 1024 — only a class with `2·S² > 2²¹` evaluates μ
/// per decision).
fn bench_sparse_rounds(c: &mut Criterion) {
    let s = 1024usize;
    let k = 8usize;
    let game = poly_links(s, 2, 4096);
    let start = sparse_support(&game, k);
    let param = format!("S{s}_support{k}");

    let mut group = c.benchmark_group("aggregate");
    group.bench_with_input(BenchmarkId::new("near_converged", &param), &s, |b, _| {
        let mut sim = Simulation::new(
            &game,
            ImitationProtocol::paper_default().with_nu_rule(NuRule::None).into(),
            start.clone(),
        )
        .expect("valid simulation");
        let mut rng = seeded_rng(3, 0);
        b.iter(|| sim.step(&mut rng).expect("step succeeds"));
    });
    group.finish();

    let mut group = c.benchmark_group("player_level");
    group.bench_with_input(BenchmarkId::new("near_converged", &param), &s, |b, _| {
        let mut sim = Simulation::new(
            &game,
            ImitationProtocol::paper_default().with_nu_rule(NuRule::None).into(),
            start.clone(),
        )
        .expect("valid simulation")
        .with_engine(EngineKind::PlayerLevel);
        let mut rng = seeded_rng(4, 0);
        b.iter(|| sim.step(&mut rng).expect("step succeeds"));
    });
    group.finish();
}

/// One iteration = a full 16-replica ensemble of 32-round runs; the
/// thread sweep shows the parallel speedup (results are identical across
/// the sweep by construction).
fn bench_ensemble(c: &mut Criterion) {
    let mut group = c.benchmark_group("ensemble");
    let n = 10_000u64;
    let game = poly_links(8, 2, n);
    let start = skewed_two_hot(&game);
    let stop = StopSpec::max_rounds(32);
    for &threads in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("trials16_rounds32", format!("t{threads}")),
            &threads,
            |b, &threads| {
                let ensemble = Ensemble::new(
                    &game,
                    ImitationProtocol::paper_default().with_nu_rule(NuRule::None).into(),
                    start.clone(),
                )
                .expect("valid ensemble")
                .trials(16)
                .base_seed(7)
                .threads(threads);
                b.iter(|| ensemble.run_with(&stop, |_, out| out.rounds).expect("ensemble run"));
            },
        );
    }
    group.finish();
}

/// The batched latency-evaluation hot paths (`Latency::eval_range_into` /
/// `sum_range`): a big-flow `ΔΦ` walk — 4096 intermediate loads behind a
/// single virtual call, the cost Θ(Δx) charged per migrated flow unit —
/// and the full per-round latency-cache rebuild at small and large
/// resource counts. Both ids are pinned in `tools/bench_diff`.
fn bench_batched_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("potential");
    let n = 100_000u64;
    let game = poly_links(8, 2, n);
    let state = skewed_two_hot(&game);
    let load = state.load(ResourceId::new(0));
    group.bench_with_input(BenchmarkId::new("delta_walk", "x4096"), &n, |b, _| {
        b.iter(|| potential_delta_for_load_change(&game, ResourceId::new(0), 0, load - 4096, load));
    });
    group.finish();

    let mut group = c.benchmark_group("cache_rebuild");
    for &m in &[64usize, 1024] {
        let game = poly_links(m, 2, 10_000);
        let mut state = skewed_two_hot(&game);
        group.bench_with_input(BenchmarkId::new("rebuild", format!("m{m}")), &m, |b, _| {
            b.iter(|| {
                state.invalidate_latency_cache();
                state.ensure_latency_cache(&game);
            });
        });
    }
    group.finish();
}

/// Raw and kernel-level cost of the two RNG backends. `rng/raw/*` is the
/// per-`u64` draw cost (the counter backend pays one Philox 4×64-10 block
/// per four draws plus the positioning bookkeeping); `rng/round/*` is one
/// aggregate round of the n=10⁴, m=64 fixture drawn through a
/// [`DrawStream`] in each mode — the end-to-end overhead counter mode
/// charges a round kernel. All four ids are pinned in `tools/bench_diff`,
/// so a counter-mode overhead regression fails CI.
fn bench_rng_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("rng");
    group.bench_function(BenchmarkId::new("raw", "xoshiro"), |b| {
        let mut rng = seeded_rng(1, 0);
        b.iter(|| black_box(rng.next_u64()));
    });
    group.bench_function(BenchmarkId::new("raw", "counter"), |b| {
        let mut rng = CounterRng::for_trial(1, 0);
        let mut i = 0u64;
        b.iter(|| {
            // Walk sites the way the player kernel does — reposition, then
            // draw — so the positioning cost is part of the measurement.
            rng.begin_site(i);
            i = i.wrapping_add(1);
            black_box(rng.next_u64())
        });
    });
    // Batched keystream: one iteration produces 32 trials' first blocks
    // (128 words) for a shared `(round, site)` address in one vector
    // sweep. Compare ns/iter ÷ 128 against
    // `raw/counter`'s ns/word (which pays a full Philox block per word
    // measured); the id is pinned in `tools/bench_diff`.
    group.bench_function(BenchmarkId::new("raw", "counter_batched"), |b| {
        let trials: Vec<u64> = (0..32).collect();
        let mut out = vec![[0u64; 4]; 32];
        let mut site = 0u64;
        b.iter(|| {
            site = site.wrapping_add(1);
            counter_blocks(Dispatch::global(), 1, 0, site, 0, &trials, &mut out);
            black_box(out[31][3])
        });
    });
    let game = poly_links(64, 2, 10_000);
    let start = skewed_two_hot(&game);
    for mode in [RngMode::Xoshiro, RngMode::Counter] {
        group.bench_with_input(BenchmarkId::new("round", mode.name()), &mode, |b, &mode| {
            let mut sim = Simulation::new(
                &game,
                ImitationProtocol::paper_default().with_nu_rule(NuRule::None).into(),
                start.clone(),
            )
            .expect("valid simulation");
            let mut rng = DrawStream::for_trial(mode, 1, 0);
            b.iter(|| sim.step(&mut rng).expect("step succeeds"));
        });
    }
    group.finish();
}

/// Scenario-layer overhead on the round loop. One iteration = a full
/// 32-round run of the n=10⁴, m=8 fixture: with no hook (`none`), with an
/// armed schedule whose only event lies beyond the budget (`armed_idle` —
/// the per-round cost of polling `next_fire`, which every shocked sweep
/// pays on every non-shock round), and with a mid-run latency shock
/// (`shocked` — one full cache rebuild + revalidation amortized over the
/// run). `none` and `armed_idle` are pinned in `tools/bench_diff`: the
/// armed-but-idle schedule must stay in the noise of the hook-free loop.
fn bench_scenario(c: &mut Criterion) {
    use congames_scenario::{generate::step_shock, ScheduleCursor};
    use std::sync::Arc;
    let mut group = c.benchmark_group("scenario");
    let n = 10_000u64;
    let game = poly_links(8, 2, n);
    let start = skewed_two_hot(&game);
    let stop = StopSpec::max_rounds(32);
    // Armed-but-idle: first fire at round 1000, far past the 32-round
    // budget. Shocked: a ×4 shock at round 16, mid-run.
    let idle = Arc::new(step_shock(1000, 0, 4.0).expect("valid schedule"));
    let shocked = Arc::new(step_shock(16, 0, 4.0).expect("valid schedule"));
    let variants: [(&str, Option<Arc<congames_scenario::Schedule>>); 3] =
        [("none", None), ("armed_idle", Some(idle)), ("shocked", Some(shocked))];
    for (label, schedule) in variants {
        group.bench_function(BenchmarkId::new("shock_reconverge", label), |b| {
            let mut rng = seeded_rng(5, 0);
            b.iter(|| {
                let mut sim = Simulation::new(
                    &game,
                    ImitationProtocol::paper_default().with_nu_rule(NuRule::None).into(),
                    start.clone(),
                )
                .expect("valid simulation");
                if let Some(s) = &schedule {
                    sim = sim.with_hook(Box::new(ScheduleCursor::new(Arc::clone(s))));
                }
                sim.run(&stop, &mut rng).expect("run succeeds").rounds
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_rounds,
    bench_sparse_rounds,
    bench_ensemble,
    bench_batched_latency,
    bench_rng_throughput,
    bench_scenario
);
criterion_main!(benches);
