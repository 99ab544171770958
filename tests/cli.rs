//! End-to-end checks of the `congames` binary's argument handling that
//! only show up across a whole process run.

use std::path::PathBuf;
use std::process::Command;

const TRACE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/traces/step_shock.trace");

/// A scratch path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("congames-cli-{}-{name}", std::process::id()))
}

fn run_with_shock_csv(path: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_congames"))
        .args(["run", "--links", "1,2,4", "--players", "2000", "--rounds", "400"])
        .args(["--scenario", TRACE, "--shock-csv"])
        .arg(path)
        .output()
        .expect("the binary runs")
}

/// An unwritable `--shock-csv` path fails before the run starts: no
/// end-of-run line is printed. A writable one receives the summary.
#[test]
fn shock_csv_path_is_validated_before_the_run() {
    let missing_dir = scratch("missing-dir").join("shocks.csv");
    let out = run_with_shock_csv(&missing_dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "an unwritable path must fail the run");
    assert!(stderr.contains("cannot write"), "{stderr}");
    assert!(!stdout.contains("after "), "the run must not start:\n{stdout}");

    let csv = scratch("shocks.csv");
    let out = run_with_shock_csv(&csv);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let written = std::fs::read_to_string(&csv).expect("the summary was written");
    std::fs::remove_file(&csv).expect("remove the scratch file");
    assert!(written.lines().count() >= 2, "header plus one shock row:\n{written}");
}

/// Flag errors that need no run surface before anything is printed: a
/// bad protocol or λ (for `run` and `shard`), and `--shock-csv` on an
/// ensemble. Stdout stays empty and the `--shock-csv` file is not created.
#[test]
fn run_rejects_bad_flags_before_any_output() {
    let csv = scratch("ensemble.csv");
    let csv = csv.to_str().expect("utf-8 scratch path");
    let small = ["--links", "1,2", "--players", "10"];
    for (cmd, extra, error) in [
        ("run", vec!["--protocol", "bogus"], "unknown protocol"),
        ("run", vec!["--lambda", "0"], "lambda"),
        ("run", vec!["--scenario", TRACE, "--shock-csv", csv, "--trials", "2"], "--shock-csv"),
        ("shard", vec!["--protocol", "bogus"], "unknown protocol"),
    ] {
        let mut argv = vec![cmd];
        argv.extend(small);
        argv.extend(&extra);
        if cmd == "shard" {
            argv.extend(["--reduce", "mean", "--shard", "0", "--num-shards", "1", "--out", csv]);
        }
        let out = Command::new(env!("CARGO_BIN_EXE_congames"))
            .args(&argv)
            .output()
            .expect("the binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{argv:?} must fail");
        assert!(stderr.contains(error), "{argv:?}: {stderr}");
        assert!(stdout.is_empty(), "{argv:?}: nothing may be printed:\n{stdout}");
    }
    assert!(!std::path::Path::new(csv).exists(), "a rejected run must not create its files");
}

/// A game whose latencies overflow at a load the run reaches (here
/// `ℓ(x) = 10³⁰⁸·x` with 1000 players) is rejected by `run` and `shard`
/// before anything is printed, instead of reporting `Φ = inf` and NaN
/// statistics.
#[test]
fn run_rejects_latencies_that_overflow_before_any_output() {
    let out_path = scratch("overflow.bin");
    let out_file = out_path.to_str().expect("utf-8 scratch path");
    let game = ["--links", "1e308,1e308", "--players", "1000", "--trials", "2"];
    for (cmd, extra) in [
        ("run", vec!["--reduce", "quantiles"]),
        ("run", vec!["--engine", "player", "--rng", "counter"]),
        ("shard", vec!["--reduce", "mean", "--shard", "0", "--num-shards", "1", "--out", out_file]),
    ] {
        let mut argv = vec![cmd];
        argv.extend(game);
        argv.extend(&extra);
        let out = Command::new(env!("CARGO_BIN_EXE_congames"))
            .args(&argv)
            .output()
            .expect("the binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{argv:?} must fail");
        assert!(stderr.contains("latency at load 1001"), "{argv:?}: {stderr}");
        assert!(stdout.is_empty(), "{argv:?}: nothing may be printed:\n{stdout}");
    }
    assert!(!out_path.exists(), "a rejected shard must not create its file");
}

/// The flags of a small fixed-seed sweep `shard` and `run` agree on.
const SWEEP: [&str; 10] =
    ["--links", "1,2,4", "--players", "2000", "--trials", "40", "--rounds", "400", "--seed", "7"];

fn shard_to(path: &std::path::Path, reduce: &str, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_congames"))
        .arg("shard")
        .args(SWEEP)
        .args(["--reduce", reduce, "--shard", "0", "--num-shards", "1"])
        .args(extra)
        .arg("--out")
        .arg(path)
        .output()
        .expect("the binary runs")
}

/// An unwritable `shard --out` fails before the sweep runs. The sweep
/// itself would fail too — its scenario overflows the population at round
/// 5 — so the write error can only win if the file is created first. A
/// writable path receives the partial file.
#[test]
fn shard_out_path_is_validated_before_the_run() {
    let trace = scratch("overflow.trace");
    std::fs::write(&trace, "# congames-trace v1\n5,add_players,0,18446744073709551615\n")
        .expect("write the scratch trace");
    let missing_dir = scratch("missing-dir").join("part.bin");
    let out = shard_to(&missing_dir, "convergence", &["--scenario", trace.to_str().unwrap()]);
    std::fs::remove_file(&trace).expect("remove the scratch trace");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "an unwritable path must fail the shard");
    assert!(stderr.contains("cannot write"), "the run must not start:\n{stderr}");

    let part = scratch("part.bin");
    let out = shard_to(&part, "convergence", &[]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let written = std::fs::metadata(&part).expect("the partial file was written").len();
    std::fs::remove_file(&part).expect("remove the scratch file");
    assert!(written > 0, "the partial file is empty");
}

/// `merge --csv` settles its output before decoding any payload: a
/// quantiles shard set (which has no CSV table) and an unwritable path
/// both fail without printing a report.
#[test]
fn merge_csv_is_validated_before_the_report() {
    let merge = |part: &std::path::Path, csv: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_congames"))
            .arg("merge")
            .arg(part)
            .arg("--csv")
            .arg(csv)
            .output()
            .expect("the binary runs")
    };
    let csv = scratch("merged.csv");
    for (reduce, csv, error) in [
        ("quantiles", csv.clone(), "only supported for mean/convergence"),
        ("convergence", scratch("missing-dir").join("merged.csv"), "cannot write"),
    ] {
        let part = scratch(&format!("{reduce}.bin"));
        assert!(shard_to(&part, reduce, &[]).status.success());
        let out = merge(&part, &csv);
        std::fs::remove_file(&part).expect("remove the scratch file");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{reduce}: merge must fail");
        assert!(stderr.contains(error), "{reduce}: {stderr}");
        assert!(stdout.is_empty(), "{reduce}: nothing may be printed:\n{stdout}");
    }
    assert!(!csv.exists(), "a rejected --csv must not leave a file behind");

    // The accepted case still writes its table.
    let part = scratch("mean.bin");
    assert!(shard_to(&part, "mean", &[]).status.success());
    let out = merge(&part, &csv);
    std::fs::remove_file(&part).expect("remove the scratch file");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let written = std::fs::read_to_string(&csv).expect("the table was written");
    std::fs::remove_file(&csv).expect("remove the scratch file");
    assert!(written.lines().count() >= 2, "header plus rows:\n{written}");
}

/// `--lanes` is inert: `run`, and a two-shard `shard` + `merge`, print the
/// same report bytes with the flag as without it, under either RNG
/// backend; the merged report is the single-process one. An unsupported
/// width keeps its error.
#[test]
fn lanes_flag_is_inert() {
    let stdout = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_congames"))
            .args(args)
            .output()
            .expect("the binary runs");
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let report = |bytes: &[u8]| -> Vec<String> {
        String::from_utf8_lossy(bytes)
            .lines()
            .filter(|l| l.starts_with("  "))
            .map(String::from)
            .collect()
    };
    for rng in ["xoshiro", "counter"] {
        let flags = |lanes: bool| {
            let mut f = SWEEP.to_vec();
            f.extend(["--rng", rng, "--reduce", "quantiles"]);
            if lanes {
                f.extend(["--lanes", "32"]);
            }
            f
        };
        let run = |lanes: bool| stdout(&[&["run"][..], &flags(lanes)].concat());
        let single = run(false);
        assert_eq!(single, run(true), "{rng}: run --lanes 32 changed the output");
        let merged = |lanes: bool| {
            let parts: Vec<PathBuf> =
                (0..2).map(|s| scratch(&format!("lanes-{rng}-{lanes}-{s}.bin"))).collect();
            for (s, part) in parts.iter().enumerate() {
                let shard = s.to_string();
                let mut args = [&["shard"][..], &flags(lanes)].concat();
                args.extend(["--shard", &shard, "--num-shards", "2", "--out"]);
                args.push(part.to_str().expect("utf-8 scratch path"));
                stdout(&args);
            }
            let mut args = vec!["merge"];
            args.extend(parts.iter().map(|p| p.to_str().expect("utf-8 scratch path")));
            let out = stdout(&args);
            for part in &parts {
                std::fs::remove_file(part).expect("remove the scratch file");
            }
            out
        };
        let merged_plain = merged(false);
        assert_eq!(merged_plain, merged(true), "{rng}: shard --lanes 32 changed the merge");
        assert_eq!(report(&merged_plain), report(&single), "{rng}: merge != single process");
        assert!(!report(&single).is_empty(), "{rng}: no report lines");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_congames"))
        .arg("run")
        .args(SWEEP)
        .args(["--rng", "counter", "--reduce", "quantiles", "--lanes", "12"])
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "--lanes 12 must fail");
    assert!(stderr.contains("--lanes must be one of 8, 16, 32, 64 (got 12)"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may be printed");
}

/// `CONGAMES_SIMD` must name an arm: any other value (`avx2` among them)
/// fails every subcommand before anything is printed, instead of falling
/// back to detection silently. The three accepted values run and print
/// the same report.
#[test]
fn unknown_simd_arm_is_rejected_before_any_output() {
    let with_arm = |arm: &str, args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_congames"))
            .args(args)
            .env("CONGAMES_SIMD", arm)
            .output()
            .expect("the binary runs")
    };
    let sweep = [&["run"][..], &SWEEP, &["--rng", "counter", "--engine", "player"]].concat();
    for arm in ["avx2", "AVX512", "fast", ""] {
        for args in [&sweep[..], &["params", "--links", "1,2", "--players", "10"], &["merge"]] {
            let out = with_arm(arm, args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{arm:?} {args:?} must fail");
            assert!(
                stderr.contains(&format!("CONGAMES_SIMD={arm:?} names no SIMD arm"))
                    && stderr.contains("scalar|avx512|auto"),
                "{arm:?} {args:?}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{arm:?} {args:?}: nothing may be printed");
        }
    }
    let reports: Vec<Vec<u8>> = ["scalar", "avx512", "auto"]
        .iter()
        .map(|arm| {
            let out = with_arm(arm, &sweep);
            assert!(out.status.success(), "{arm}: {}", String::from_utf8_lossy(&out.stderr));
            out.stdout
        })
        .collect();
    assert!(reports.windows(2).all(|w| w[0] == w[1]), "the arms printed different reports");
}

/// The sequential (xoshiro) player path, imitating and exploring, is
/// pinned by `traces/player_xoshiro_combined.golden` (the same flags as
/// the CI `simd-dispatch` diff).
#[test]
fn xoshiro_player_combined_run_matches_its_golden() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/traces/player_xoshiro_combined.golden");
    let out = Command::new(env!("CARGO_BIN_EXE_congames"))
        .args(["run", "--links", "1,2,4", "--players", "2000", "--trials", "32"])
        .args(["--rounds", "400", "--threads", "1", "--seed", "5", "--engine", "player"])
        .args(["--rng", "xoshiro", "--protocol", "combined", "--reduce", "quantiles"])
        .output()
        .expect("the binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let want = std::fs::read_to_string(golden).expect("the golden is committed");
    assert_eq!(String::from_utf8_lossy(&out.stdout), want);
}

/// A reader that closes stdout early (`run ... | head -4`) ends the run
/// quietly: the failed write is not a panic and prints no error.
#[test]
fn closed_stdout_ends_the_run_without_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_congames"))
        .args(["run"])
        .args(SWEEP)
        .args(["--engine", "player", "--reduce", "quantiles"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("the binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("the binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "{stderr}");
}
