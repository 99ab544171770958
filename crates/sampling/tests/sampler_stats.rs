//! Distributional correctness of the hot-path samplers: χ² goodness-of-fit
//! against exact probabilities for `binomial` (all three internal paths)
//! and `multinomial_with_rest_into`.
//!
//! The per-round engine correctness of the whole project reduces to these
//! samplers being *exact* (not just right in mean and variance), so this
//! suite tests full distributions. Tolerances come from
//! `congames_testutil::stats` at z = 4.5 (≈ 7e-6 false-failure rate per
//! assertion); all seeds are pinned through `fixture_rng`.

use congames_sampling::{binomial, multinomial_with_rest_into};
use congames_testutil::rng::fixture_rng;
use congames_testutil::stats::{assert_chi_square_fits, assert_close};

/// One `multinomial_with_rest_into` draw as `(counts, rest)`.
fn draw_with_rest(rng: &mut impl rand::Rng, n: u64, probs: &[f64]) -> (Vec<u64>, u64) {
    let mut counts = Vec::new();
    let rest =
        multinomial_with_rest_into(rng, n, probs, &mut counts).expect("valid sub-probabilities");
    (counts, rest)
}

/// Exact Binomial(n, p) pmf by the stable multiplicative recurrence.
fn binomial_pmf(n: u64, p: f64) -> Vec<f64> {
    let q = 1.0 - p;
    let mut pmf = vec![0.0f64; n as usize + 1];
    // Start from the largest representable endpoint to avoid underflow for
    // moderate n; for the n used here (≤ 400), q^n is representable.
    pmf[0] = q.powi(n as i32);
    for k in 1..=n as usize {
        let kf = k as f64;
        pmf[k] = pmf[k - 1] * ((n as f64 - kf + 1.0) / kf) * (p / q);
    }
    pmf
}

/// χ² of `draws` samples of `binomial(n, p)` against the exact pmf.
fn check_binomial_fit(label: &str, n: u64, p: f64, draws: u64) {
    let mut rng = fixture_rng(label, 0);
    let mut counts = vec![0u64; n as usize + 1];
    for _ in 0..draws {
        counts[binomial(&mut rng, n, p).expect("valid parameters") as usize] += 1;
    }
    let pmf = binomial_pmf(n, p);
    assert_chi_square_fits(&counts, &pmf, 4.5, label);
}

#[test]
fn binomial_bernoulli_path_is_exact() {
    // n ≤ 32 routes to the Bernoulli-sum path.
    check_binomial_fit("chi2/binomial-bernoulli", 20, 0.3, 40_000);
}

#[test]
fn binomial_binv_path_is_exact() {
    // n > 32 with n·min(p,q) < 10 routes to BINV.
    check_binomial_fit("chi2/binomial-binv", 100, 0.05, 40_000);
    check_binomial_fit("chi2/binomial-binv-2", 400, 0.02, 40_000);
}

#[test]
fn binomial_btpe_path_is_exact() {
    // n·min(p,q) ≥ 10 routes to BTPE.
    check_binomial_fit("chi2/binomial-btpe", 100, 0.3, 40_000);
    check_binomial_fit("chi2/binomial-btpe-2", 300, 0.5, 40_000);
}

#[test]
fn binomial_flipped_p_is_exact() {
    // p > 0.5 exercises the flip-and-complement wrapper around each path.
    check_binomial_fit("chi2/binomial-flip-bernoulli", 20, 0.8, 40_000);
    check_binomial_fit("chi2/binomial-flip-btpe", 100, 0.7, 40_000);
}

#[test]
fn multinomial_with_rest_marginals_are_exact() {
    // Each component of a multinomial is marginally Binomial(n, p_i), and
    // the rest category is Binomial(n, 1 − Σp). Aggregating draws gives a
    // χ²-testable per-category table.
    let probs = [0.10, 0.25, 0.05, 0.20];
    let rest_p = 1.0 - probs.iter().sum::<f64>();
    let n = 50u64;
    let draws = 20_000u64;
    let mut rng = fixture_rng("chi2/multinomial-rest", 0);
    let mut totals = vec![0u64; probs.len() + 1];
    for _ in 0..draws {
        let (counts, rest) = draw_with_rest(&mut rng, n, &probs);
        assert_eq!(counts.iter().sum::<u64>() + rest, n, "counts + rest must equal n");
        for (t, c) in totals.iter_mut().zip(counts.iter().chain(std::iter::once(&rest))) {
            *t += c;
        }
    }
    // The pooled table of n·draws category picks follows the cell
    // probabilities exactly (sums of independent multinomials).
    let mut cell_probs: Vec<f64> = probs.to_vec();
    cell_probs.push(rest_p);
    assert_chi_square_fits(&totals, &cell_probs, 4.5, "multinomial_with_rest totals");
}

#[test]
fn multinomial_full_vector_is_exact() {
    // Dyadic probabilities summing to exactly one: the conditional
    // binomials leave no mass for the rest category.
    let probs = [0.25, 0.25, 0.5];
    let n = 64u64;
    let draws = 20_000u64;
    let mut rng = fixture_rng("chi2/multinomial-full", 0);
    let mut totals = vec![0u64; probs.len()];
    for _ in 0..draws {
        let (counts, rest) = draw_with_rest(&mut rng, n, &probs);
        assert_eq!(rest, 0, "a full probability vector must assign every trial");
        for (t, c) in totals.iter_mut().zip(&counts) {
            *t += c;
        }
    }
    assert_chi_square_fits(&totals, &probs, 4.5, "multinomial totals");
}

#[test]
fn multinomial_with_rest_joint_distribution_small_case() {
    // Exhaustive joint check on a tiny case: n = 2 over probs (p, q) with
    // rest r. The joint outcome (k1, k2) has a closed form; χ² over all
    // 6 outcomes validates the *joint* distribution, not just marginals.
    let (p, q) = (0.3f64, 0.2f64);
    let r = 1.0 - p - q;
    let n = 2u64;
    let draws = 30_000u64;
    let mut rng = fixture_rng("chi2/multinomial-joint", 0);
    // Outcomes indexed as (k1, k2) with k1 + k2 ≤ 2.
    let outcomes = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)];
    let multi = |k1: u64, k2: u64| -> f64 {
        let k3 = n - k1 - k2;
        let fact = |k: u64| -> f64 { (1..=k).map(|i| i as f64).product::<f64>().max(1.0) };
        fact(n) / (fact(k1) * fact(k2) * fact(k3))
            * p.powi(k1 as i32)
            * q.powi(k2 as i32)
            * r.powi(k3 as i32)
    };
    let probs: Vec<f64> = outcomes.iter().map(|&(a, b)| multi(a, b)).collect();
    let mut counts = vec![0u64; outcomes.len()];
    for _ in 0..draws {
        let (ks, rest) = draw_with_rest(&mut rng, n, &[p, q]);
        assert_eq!(ks[0] + ks[1] + rest, n);
        let idx = outcomes
            .iter()
            .position(|&(a, b)| (a, b) == (ks[0], ks[1]))
            .expect("outcome in support");
        counts[idx] += 1;
    }
    assert_chi_square_fits(&counts, &probs, 4.5, "multinomial joint (n=2)");
}

#[test]
fn binomial_pmf_helper_is_a_distribution() {
    for &(n, p) in &[(20u64, 0.3f64), (100, 0.05), (300, 0.5)] {
        let pmf = binomial_pmf(n, p);
        assert_close(pmf.iter().sum::<f64>(), 1.0, 1e-9, "pmf normalization");
        let mean: f64 = pmf.iter().enumerate().map(|(k, q)| k as f64 * q).sum();
        assert_close(mean, n as f64 * p, 1e-6, "pmf mean");
    }
}
