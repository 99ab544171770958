//! Random-variate substrate costs: binomial (all three internal paths) and
//! multinomial sampling.

use congames_sampling::{binomial, multinomial_with_rest_into};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_samplers(c: &mut Criterion) {
    let mut group = c.benchmark_group("samplers");
    // Bernoulli-sum path (n ≤ 32), BINV (n·p < 10), BTPE (n·p ≥ 10).
    for &(name, n, p) in &[
        ("binomial_small", 20u64, 0.3f64),
        ("binomial_binv", 10_000, 0.0005),
        ("binomial_btpe", 1_000_000, 0.25),
    ] {
        group.bench_function(name, |b| {
            let mut rng = SmallRng::seed_from_u64(1);
            b.iter(|| binomial(&mut rng, n, p).expect("valid parameters"));
        });
    }
    for &k in &[4usize, 64] {
        let probs: Vec<f64> = (0..k).map(|i| 0.5 / k as f64 * (1.0 + i as f64 % 2.0)).collect();
        group.bench_with_input(BenchmarkId::new("multinomial_rest", k), &k, |b, _| {
            let mut rng = SmallRng::seed_from_u64(2);
            let mut counts = Vec::new();
            b.iter(|| {
                multinomial_with_rest_into(&mut rng, 100_000, &probs, &mut counts).expect("valid")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_samplers);
criterion_main!(benches);
