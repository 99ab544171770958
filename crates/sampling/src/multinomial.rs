//! Multinomial sampling via conditional binomials.

use rand::Rng;

use crate::binomial::binomial;
use crate::error::SamplingError;

/// Sample counts from the *sub*-probability vector `probs`
/// (`Σ probs ≤ 1`) into the caller-provided `counts` buffer; the remaining
/// mass is the implicit "rest" category (e.g. players who do not migrate).
/// Clears and fills `counts` (growing it only if its capacity is
/// insufficient) and returns the rest count, so `Σ counts + rest = n`.
///
/// Uses the standard conditional-binomial decomposition:
/// `k_1 ~ Bin(n, p_1)`, `k_2 ~ Bin(n − k_1, p_2/(1 − p_1))`, ….
///
/// This is the primitive the aggregate round engines call once per origin
/// strategy per round: `probs[j]` is the per-player probability of
/// migrating to destination `j` and the rest category is "stay put".
/// Reusing `counts` across calls keeps the round loop free of
/// steady-state heap allocations.
///
/// # Errors
///
/// Returns [`SamplingError::InvalidWeights`] if `probs` is empty, contains
/// negatives/NaNs, or sums to more than `1 + 1e-9`.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
/// let mut counts = Vec::new();
/// let rest =
///     congames_sampling::multinomial_with_rest_into(&mut rng, 100, &[0.2, 0.3], &mut counts)?;
/// assert_eq!(counts.iter().sum::<u64>() + rest, 100);
/// # Ok::<(), congames_sampling::SamplingError>(())
/// ```
pub fn multinomial_with_rest_into(
    rng: &mut impl Rng,
    n: u64,
    probs: &[f64],
    counts: &mut Vec<u64>,
) -> Result<u64, SamplingError> {
    validate_probs(probs)?;
    let total: f64 = probs.iter().sum();
    if total > 1.0 + 1e-9 {
        return Err(SamplingError::InvalidWeights {
            message: "sub-probabilities must sum to at most 1",
        });
    }
    counts.clear();
    counts.resize(probs.len(), 0);
    // Sequentially draw `Bin(remaining, p_i / mass_left)`.
    let mut remaining = n;
    let mut mass_left = 1.0;
    for (i, &p) in probs.iter().enumerate() {
        if remaining == 0 {
            break;
        }
        if p <= 0.0 {
            continue;
        }
        if mass_left <= 0.0 {
            break;
        }
        let cond = (p / mass_left).clamp(0.0, 1.0);
        let k = binomial(rng, remaining, cond)?;
        counts[i] = k;
        remaining -= k;
        mass_left -= p;
    }
    Ok(remaining)
}

fn validate_probs(probs: &[f64]) -> Result<(), SamplingError> {
    if probs.is_empty() {
        return Err(SamplingError::InvalidWeights { message: "empty probability vector" });
    }
    if probs.iter().any(|p| !p.is_finite() || *p < 0.0) {
        return Err(SamplingError::InvalidWeights {
            message: "probabilities must be finite and non-negative",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn draw(rng: &mut SmallRng, n: u64, probs: &[f64]) -> (Vec<u64>, u64) {
        let mut counts = Vec::new();
        let rest = multinomial_with_rest_into(rng, n, probs, &mut counts).unwrap();
        (counts, rest)
    }

    #[test]
    fn with_rest_conserves_players() {
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..100 {
            let (c, rest) = draw(&mut rng, 500, &[0.05, 0.1]);
            assert_eq!(c.iter().sum::<u64>() + rest, 500);
        }
    }

    #[test]
    fn means_match_probabilities() {
        let mut rng = SmallRng::seed_from_u64(3);
        let probs = [0.15, 0.35, 0.5];
        let n = 2000u64;
        let draws = 3000;
        let mut sums = [0.0f64; 3];
        for _ in 0..draws {
            let (c, _) = draw(&mut rng, n, &probs);
            for i in 0..3 {
                sums[i] += c[i] as f64;
            }
        }
        for i in 0..3 {
            let mean = sums[i] / draws as f64;
            let expect = n as f64 * probs[i];
            let se = (n as f64 * probs[i] * (1.0 - probs[i]) / draws as f64).sqrt();
            assert!((mean - expect).abs() < 5.0 * se, "category {i}: mean {mean} vs {expect}");
        }
    }

    #[test]
    fn rest_mean_matches() {
        let mut rng = SmallRng::seed_from_u64(4);
        let n = 1000u64;
        let draws = 5000;
        let mut rest_sum = 0.0;
        for _ in 0..draws {
            let (_, rest) = draw(&mut rng, n, &[0.2, 0.1]);
            rest_sum += rest as f64;
        }
        let mean = rest_sum / draws as f64;
        assert!((mean - 700.0).abs() < 5.0, "rest mean {mean}");
    }

    #[test]
    fn zero_probability_categories_get_zero() {
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(draw(&mut rng, 100, &[0.0, 1.0, 0.0]), (vec![0, 100, 0], 0));
    }

    #[test]
    fn buffer_is_cleared_and_reused() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut buf = vec![7; 5];
        let rest = multinomial_with_rest_into(&mut rng, 300, &[0.1, 0.25], &mut buf).unwrap();
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.iter().sum::<u64>() + rest, 300);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut buf = Vec::new();
        for probs in [&[][..], &[0.9, 0.2], &[-0.1, 1.1], &[f64::NAN]] {
            assert!(
                multinomial_with_rest_into(&mut rng, 10, probs, &mut buf).is_err(),
                "{probs:?}"
            );
        }
    }

    #[test]
    fn n_zero_gives_zeros() {
        let mut rng = SmallRng::seed_from_u64(7);
        assert_eq!(draw(&mut rng, 0, &[0.5, 0.5]), (vec![0, 0], 0));
    }
}
