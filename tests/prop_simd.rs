//! Property pins for the SIMD dispatch layer under the lane kernel.
//!
//! The `congames-simd` contract is **bit-identity across dispatch arms**:
//! integer kernels (the batched Philox keystream) compute the exact same
//! words in every arm, and float kernels vectorize *across* lanes only —
//! each lane's own operation sequence is unchanged, so no reassociation
//! and no bit drift. This suite pins both halves of that contract:
//!
//! * [`counter_blocks`] (the across-lane Philox sweep behind
//!   `LaneStreams::prime_site`) equals the scalar random-access reference
//!   [`CounterRng::at`] word for word, over random keys, counter
//!   addresses, lane counts (covering every vector-width tail: the 8-,
//!   4-, and 1-lane remainders), and lane strides — in **every** dispatch
//!   arm the host can run;
//! * [`counter_site_blocks`] (the across-site sweep behind the
//!   player-level kernel's `DrawRng::site_blocks`) equals the same
//!   reference over random keys, trials, rounds and site lists of every
//!   length 0–19, in every arm;
//! * a [`LaneKernel`] stepped under each vector arm realizes bit for bit
//!   the counts, potential bits, and migration tallies of the same kernel
//!   stepped under forced-scalar dispatch, for every supported lane width
//!   W ∈ {8, 16, 32, 64}.
//!
//! Arms the host CPU cannot execute resolve to the next-best arm (that
//! degradation is part of the dispatch contract), so the suite is
//! meaningful — if weaker — on machines without AVX2/AVX-512.
//! Seeds in `proptest-regressions/prop_simd.txt` replay pinned cases
//! before the random ones on every run.

use congames::dynamics::{ImitationProtocol, LaneKernel, Protocol};
use congames::model::{Affine, CongestionGame, State};
use congames::sampling::{counter_blocks, counter_site_blocks, CounterRng, Dispatch};
use proptest::prelude::*;

/// Lockstep rounds per kernel comparison: enough churn to reach (and
/// cross) the converged fast paths on small fixtures.
const ROUNDS: u64 = 12;

/// Every dispatch value worth forcing on this host: scalar always, plus
/// each vector arm that resolves to itself (i.e. that the CPU can run).
fn arms() -> Vec<Dispatch> {
    let mut arms = vec![Dispatch::Scalar];
    for d in [Dispatch::Avx2, Dispatch::Avx512] {
        if d.resolve() == d {
            arms.push(d);
        }
    }
    arms
}

/// A random singleton fixture: `m` affine links, `n` players skewed onto
/// one link so the first rounds migrate heavily before freezing.
fn arb_fixture() -> impl Strategy<Value = (CongestionGame, State)> {
    (2usize..=8, 64u64..=512, 0usize..8, proptest::collection::vec(1u32..=40, 8)).prop_map(
        |(m, n, hot, slopes)| {
            let game = CongestionGame::singleton(
                (0..m).map(|i| Affine::linear(0.25 * slopes[i] as f64).into()).collect(),
                n,
            )
            .expect("valid game");
            let hot = hot % m;
            let base = n / (2 * m as u64);
            let mut counts = vec![base; m];
            counts[hot] = n - base * (m as u64 - 1);
            let start = State::from_counts(&game, counts).expect("valid start");
            (game, start)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The batched Philox sweep equals the scalar random-access reference
    /// word for word, in every arm, at every lane-count tail and stride.
    #[test]
    fn batched_philox_matches_scalar(
        base_seed in any::<u64>(),
        round in 0u64..(1 << 40),
        site in 0u64..(1 << 20),
        block in 0u64..(1 << 20),
        first_trial in 0u64..(1 << 40),
        stride in 1u64..=7,
        lanes in 1usize..=64,
    ) {
        let trials: Vec<u64> =
            (0..lanes as u64).map(|l| first_trial + l * stride).collect();
        for d in arms() {
            let mut out = vec![[0u64; 4]; lanes];
            counter_blocks(d, base_seed, round, site, block, &trials, &mut out);
            for (i, &t) in trials.iter().enumerate() {
                for (j, &word) in out[i].iter().enumerate() {
                    let expect =
                        CounterRng::at(base_seed, t, round, site, block * 4 + j as u64);
                    prop_assert!(
                        word == expect,
                        "{d:?}: lane {i} (trial {t}) word {j}: {word:#x} != {expect:#x}"
                    );
                }
            }
        }
    }

    /// The site-batched sweep equals the scalar random-access reference
    /// word for word, in every arm, at every length 0–19 (so the 16-, 8-
    /// and 4-lane sweeps and the scalar tail all run).
    #[test]
    fn site_batched_philox_matches_scalar(
        base_seed in any::<u64>(),
        trial in any::<u64>(),
        round in any::<u64>(),
        sites in proptest::collection::vec(any::<u64>(), 0..20),
    ) {
        for d in arms() {
            let mut out = vec![[0u64; 4]; sites.len()];
            counter_site_blocks(d, base_seed, trial, round, &sites, &mut out);
            for (i, &site) in sites.iter().enumerate() {
                for (j, &word) in out[i].iter().enumerate() {
                    let expect = CounterRng::at(base_seed, trial, round, site, j as u64);
                    prop_assert!(
                        word == expect,
                        "{d:?}: site {i} ({site}) word {j}: {word:#x} != {expect:#x}"
                    );
                }
            }
        }
    }

    /// A kernel stepped under each vector arm realizes the forced-scalar
    /// trajectory bit for bit at every supported lane width.
    #[test]
    fn simd_step_matches_scalar_dispatch(
        (game, start) in arb_fixture(),
        base_seed in any::<u64>(),
    ) {
        let protocol: Protocol = ImitationProtocol::paper_default().into();
        for width in [8usize, 16, 32, 64] {
            let mut scalar = LaneKernel::new(&game, protocol, &start, base_seed, 0, width)
                .expect("valid kernel")
                .with_dispatch(Dispatch::Scalar);
            for _ in 0..ROUNDS {
                scalar.step();
            }
            for arm in arms().into_iter().filter(|&d| d != Dispatch::Scalar) {
                let mut simd = LaneKernel::new(&game, protocol, &start, base_seed, 0, width)
                    .expect("valid kernel")
                    .with_dispatch(arm);
                for _ in 0..ROUNDS {
                    simd.step();
                }
                for l in 0..width {
                    prop_assert!(
                        simd.lane_counts(l) == scalar.lane_counts(l),
                        "{arm:?} w{width}: lane {l} counts diverged from scalar dispatch"
                    );
                    prop_assert!(
                        simd.lane_potential(l).to_bits() == scalar.lane_potential(l).to_bits(),
                        "{arm:?} w{width}: lane {l} potential bits diverged"
                    );
                    prop_assert!(
                        simd.lane_migrations(l) == scalar.lane_migrations(l),
                        "{arm:?} w{width}: lane {l} migration tally diverged"
                    );
                }
            }
        }
    }
}
