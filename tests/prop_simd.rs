//! Property pins for the SIMD dispatch layer.
//!
//! The `congames-simd` contract is **bit-identity across dispatch arms**
//! (`scalar` and `avx512`): the batched Philox keystream computes the
//! exact same words in both arms, and the player round's compaction and
//! imitation decision pick the same movers. This suite pins that contract:
//!
//! * [`counter_blocks`] (the across-trial Philox sweep) equals the scalar
//!   random-access reference [`CounterRng::at`] word for word, over random
//!   keys, counter addresses, trial counts (covering every vector-width
//!   tail: the 16- and 8-lane sweeps and the scalar remainder), and trial
//!   strides — in **every** dispatch arm the host can run;
//! * [`counter_site_blocks`] (the across-site sweep behind the
//!   player-level kernel's `DrawRng::site_blocks`) equals the same
//!   reference over random keys, trials, rounds and site lists of every
//!   length 0–19, in every arm;
//! * a counter-mode sweep of either engine, run by the `congames` binary
//!   under the vector arm (`CONGAMES_SIMD`, read once per process),
//!   writes the same shard file, byte for byte, as under forced-scalar
//!   dispatch.
//!
//! An arm the host CPU cannot execute resolves to scalar (that
//! degradation is part of the dispatch contract), so the suite is
//! meaningful — if weaker — on machines without AVX-512.
//! Seeds in `proptest-regressions/prop_simd.txt` replay pinned cases
//! before the random ones on every run.

use std::process::Command;

use congames::sampling::{counter_blocks, counter_site_blocks, CounterRng, Dispatch};
use proptest::prelude::*;

/// Rounds per swept trial: enough churn to reach (and cross) the
/// converged fast paths on small fixtures.
const ROUNDS: &str = "12";

/// Every dispatch value worth forcing on this host: scalar always, plus
/// the vector arm if it resolves to itself (i.e. the CPU can run it).
fn arms() -> Vec<Dispatch> {
    let mut arms = vec![Dispatch::Scalar];
    if Dispatch::Avx512.resolve() == Dispatch::Avx512 {
        arms.push(Dispatch::Avx512);
    }
    arms
}

/// The `CONGAMES_SIMD` value that forces `d`.
fn env_name(d: Dispatch) -> &'static str {
    match d {
        Dispatch::Scalar => "scalar",
        Dispatch::Avx512 => "avx512",
    }
}

/// The shard file of a one-shard counter-mode sweep run under `arm`.
fn shard_bytes(arm: Dispatch, args: &[String]) -> Vec<u8> {
    let out = std::env::temp_dir().join(format!(
        "congames-prop-simd-{}-{}.bin",
        std::process::id(),
        env_name(arm)
    ));
    let status = Command::new(env!("CARGO_BIN_EXE_congames"))
        .arg("shard")
        .args(args)
        .args(["--shard", "0", "--num-shards", "1", "--out"])
        .arg(&out)
        .env("CONGAMES_SIMD", env_name(arm))
        .output()
        .expect("the binary runs");
    assert!(status.status.success(), "{}", String::from_utf8_lossy(&status.stderr));
    let bytes = std::fs::read(&out).expect("the shard file was written");
    std::fs::remove_file(&out).expect("remove the scratch file");
    bytes
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
    /// word for word, in every arm, at every length 0–19 (so the 16- and
    /// 8-lane sweeps and the scalar tail all run).
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

    /// A sweep stepped under the vector arm — the player engine's
    /// site-batched Philox sweeps, compaction and imitation decisions, and
    /// the aggregate engine, which runs no vector kernel — realizes the
    /// forced-scalar reduction bit for bit.
    #[test]
    fn simd_step_matches_scalar_dispatch(
        m in 2usize..=8,
        n in 64u64..=512,
        slopes in proptest::collection::vec(1u32..=40, 8),
        base_seed in any::<u64>(),
        combined in any::<bool>(),
    ) {
        let links: Vec<String> =
            slopes[..m].iter().map(|&k| (0.25 * k as f64).to_string()).collect();
        for engine in ["aggregate", "player"] {
            let args: Vec<String> = [
                "--links", &links.join(","), "--players", &n.to_string(),
                "--seed", &base_seed.to_string(), "--rounds", ROUNDS,
                "--trials", "4", "--threads", "1", "--rng", "counter",
                "--engine", engine, "--reduce", "mean",
                "--protocol", if combined { "combined" } else { "imitation" },
            ]
            .iter()
            .map(|a| a.to_string())
            .collect();
            let scalar = shard_bytes(Dispatch::Scalar, &args);
            for arm in arms().into_iter().filter(|&d| d != Dispatch::Scalar) {
                prop_assert!(
                    shard_bytes(arm, &args) == scalar,
                    "{arm:?} {engine}: the shard file differs from scalar dispatch ({args:?})"
                );
            }
        }
    }
}
